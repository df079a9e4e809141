"""The paper's primary contribution: variable precision BFP with stochastic rounding."""

from .bfp import (
    MIN_EXPONENT,
    BFPConfig,
    BFPTensor,
    bfp_quantize,
    bfp_quantize_tensor,
    ungroup_values,
)
from .chunks import decompose_mantissas, num_chunks, passes_required, reconstruct_mantissas
from .converter import relative_improvement
from .kernels import GroupedLayout, LayoutCache, default_layout_cache
from .memory_layout import BFPMemoryLayout, bits_per_group, bits_per_value, pack_group, unpack_group
from .precision_policy import (
    SETTING_ORDER,
    TENSOR_KINDS,
    FASTAdaptivePolicy,
    FixedPrecisionPolicy,
    LayerwisePrecisionPolicy,
    PrecisionDecision,
    PrecisionPolicy,
    TemporalPrecisionPolicy,
    fast_threshold,
    setting_cost_rank,
)
from .rounding import (
    LFSR,
    NoisePool,
    RoundingMode,
    VectorizedLFSR,
    apply_rounding,
    round_nearest,
    round_stochastic,
    round_truncate,
)

__all__ = [
    "BFPConfig",
    "BFPTensor",
    "bfp_quantize",
    "bfp_quantize_tensor",
    "ungroup_values",
    "MIN_EXPONENT",
    "decompose_mantissas",
    "reconstruct_mantissas",
    "num_chunks",
    "passes_required",
    "relative_improvement",
    "BFPMemoryLayout",
    "bits_per_group",
    "bits_per_value",
    "pack_group",
    "unpack_group",
    "PrecisionPolicy",
    "PrecisionDecision",
    "FixedPrecisionPolicy",
    "TemporalPrecisionPolicy",
    "LayerwisePrecisionPolicy",
    "FASTAdaptivePolicy",
    "fast_threshold",
    "setting_cost_rank",
    "SETTING_ORDER",
    "TENSOR_KINDS",
    "LFSR",
    "NoisePool",
    "VectorizedLFSR",
    "RoundingMode",
    "apply_rounding",
    "round_nearest",
    "round_truncate",
    "round_stochastic",
    "GroupedLayout",
    "LayoutCache",
    "default_layout_cache",
]
