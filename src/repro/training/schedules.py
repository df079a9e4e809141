"""Trainer-facing precision schedules.

A schedule owns the quantization schemes attached to a model's quantized
layers and updates them as training progresses.  It is the glue between the
:mod:`repro.core.precision_policy` policies (which decide mantissa widths)
and the :mod:`repro.nn.quantized` layers (which apply them around their
matrix products).

Schedules provided, matching the paper's experiments:

* :class:`FP32Schedule` -- no quantization (baseline).
* :class:`FormatSchedule` -- a fixed scalar/block format for every layer
  (used for the Table II format sweep: bfloat16, INT8, MSFP-12, ...).
* :class:`FixedBFPSchedule` -- BFP with a fixed mantissa width (LowBFP,
  MidBFP, HighBFP).
* :class:`TemporalSchedule` / :class:`LayerwiseSchedule` -- the Figure 9
  Low-to-High / High-to-Low studies.
* :class:`FASTSchedule` -- FAST-Adaptive (Algorithm 1).

The four BFP schedules differ only in the precision policy they build: each
attaches one :class:`~repro.nn.quantized.BFPScheme` per layer that asks that
policy for every tensor's mantissa width, and each reports the decisions as
:meth:`setting_history`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.bfp import BFPConfig
from ..core.precision_policy import (
    FASTAdaptivePolicy,
    FixedPrecisionPolicy,
    LayerwisePrecisionPolicy,
    PrecisionPolicy,
    TemporalPrecisionPolicy,
)
from ..core.rounding import NoisePool
from ..formats.base import NumberFormat
from ..formats.registry import get_format
from ..nn.modules import Module
from ..nn.quantized import BFPScheme, FormatScheme, IdentityScheme, quantized_modules

__all__ = [
    "PrecisionSchedule",
    "FP32Schedule",
    "FormatSchedule",
    "FixedBFPSchedule",
    "TemporalSchedule",
    "LayerwiseSchedule",
    "FASTSchedule",
    "build_schedule",
]

_DEFAULT_BFP_CONFIG = BFPConfig(exponent_bits=3, group_size=16)


def _layer_noise_source(seed: int, index: int, stochastic: bool, pooled: bool):
    """Per-layer noise source for stochastic gradient rounding.

    Pooled sources draw noise in large refill batches
    (:class:`~repro.core.rounding.NoisePool`), which removes the per-call
    ``Generator.integers`` bound from the quantized training step while
    staying seed-deterministic (same seed -> same stream, independent of how
    gradient shapes partition the draws).
    """
    if stochastic and pooled:
        return NoisePool(seed + index)
    return np.random.default_rng(seed + index)


class PrecisionSchedule:
    """Base schedule: attach schemes to a model, update them per iteration."""

    #: Name reported in benchmark tables.
    name = "abstract"

    def __init__(self):
        self.layers: List[Module] = []
        self.total_iterations = 1

    def prepare(self, model: Module, total_iterations: int) -> None:
        """Discover quantized layers and attach the initial schemes."""
        self.layers = quantized_modules(model)
        for index, layer in enumerate(self.layers):
            layer.layer_index = index
        self.total_iterations = max(int(total_iterations), 1)
        self._attach()

    def _attach(self) -> None:
        raise NotImplementedError

    def on_iteration(self, iteration: int) -> None:
        """Called by trainers before every optimization step."""

    def precision_snapshot(self) -> List[Dict[str, Optional[int]]]:
        """Current (W, A, G) mantissa widths per layer, for logging."""
        return [layer.scheme.precision_setting() for layer in self.layers]


class FP32Schedule(PrecisionSchedule):
    """Full precision: all layers keep the identity scheme."""

    name = "fp32"

    def _attach(self) -> None:
        for layer in self.layers:
            layer.scheme = IdentityScheme()


class FormatSchedule(PrecisionSchedule):
    """Quantize every layer with one fixed :class:`NumberFormat`."""

    def __init__(self, number_format: Union[str, NumberFormat], seed: int = 0):
        super().__init__()
        if isinstance(number_format, str):
            number_format = get_format(number_format)
        self.number_format = number_format
        self.name = number_format.name
        self.seed = seed

    def _attach(self) -> None:
        for index, layer in enumerate(self.layers):
            if self.number_format.name == "fp32":
                layer.scheme = IdentityScheme()
            else:
                rng = np.random.default_rng(self.seed + index)
                layer.scheme = FormatScheme(self.number_format, rng=rng)


class _PolicySchedule(PrecisionSchedule):
    """One :class:`BFPScheme` per layer, all asking one precision policy.

    Subclasses build the policy in :meth:`_build_policy`; it is built when the
    schedule is prepared, once the layer and iteration counts are known.
    """

    def __init__(self, config: Optional[BFPConfig], stochastic_gradients: bool,
                 seed: int, noise_pool: bool):
        super().__init__()
        self.config = config if config is not None else _DEFAULT_BFP_CONFIG
        self.stochastic_gradients = stochastic_gradients
        self.seed = seed
        self.noise_pool = noise_pool
        self.policy: Optional[PrecisionPolicy] = None

    def _build_policy(self) -> PrecisionPolicy:
        raise NotImplementedError

    def _attach(self) -> None:
        self.policy = self._build_policy()
        for index, layer in enumerate(self.layers):
            rng = _layer_noise_source(self.seed, index, self.stochastic_gradients,
                                      self.noise_pool)
            layer.scheme = BFPScheme(
                policy=self.policy,
                layer_index=index,
                config=self.config,
                stochastic_gradients=self.stochastic_gradients,
                rng=rng,
            )

    def on_iteration(self, iteration: int) -> None:
        for layer in self.layers:
            layer.scheme.iteration = iteration

    def setting_history(self) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
        """(layer, iteration) -> (W, A, G) decisions, for the Figure 17 heatmap."""
        if self.policy is None:
            return {}
        return self.policy.setting_history()


class FixedBFPSchedule(_PolicySchedule):
    """BFP with a fixed mantissa width for W, A and G in every layer."""

    def __init__(self, mantissa_bits: int, config: Optional[BFPConfig] = None,
                 stochastic_gradients: bool = True, seed: int = 0,
                 noise_pool: bool = True):
        super().__init__(config, stochastic_gradients, seed, noise_pool)
        self.mantissa_bits = mantissa_bits
        self.name = f"bfp_m{mantissa_bits}"

    def _build_policy(self):
        return FixedPrecisionPolicy(self.mantissa_bits)


class TemporalSchedule(_PolicySchedule):
    """Switch all layers between two precisions at the training midpoint (Fig. 9 left)."""

    def __init__(self, low_to_high: bool = True, low_bits: int = 2, high_bits: int = 4,
                 switch_fraction: float = 0.5, config: Optional[BFPConfig] = None,
                 stochastic_gradients: bool = True, seed: int = 0, noise_pool: bool = True):
        super().__init__(config, stochastic_gradients, seed, noise_pool)
        self.low_to_high = low_to_high
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.switch_fraction = switch_fraction
        self.name = "temporal_low_to_high" if low_to_high else "temporal_high_to_low"

    def _build_policy(self):
        return TemporalPrecisionPolicy(
            total_iterations=self.total_iterations,
            low_bits=self.low_bits,
            high_bits=self.high_bits,
            switch_fraction=self.switch_fraction,
            low_to_high=self.low_to_high,
        )


class LayerwiseSchedule(_PolicySchedule):
    """Different precisions for the shallow and deep network halves (Fig. 9 right)."""

    def __init__(self, low_to_high: bool = True, low_bits: int = 2, high_bits: int = 4,
                 switch_fraction: float = 0.5, config: Optional[BFPConfig] = None,
                 stochastic_gradients: bool = True, seed: int = 0, noise_pool: bool = True):
        super().__init__(config, stochastic_gradients, seed, noise_pool)
        self.low_to_high = low_to_high
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.switch_fraction = switch_fraction
        self.name = "layerwise_low_to_high" if low_to_high else "layerwise_high_to_low"

    def _build_policy(self):
        return LayerwisePrecisionPolicy(
            total_layers=max(len(self.layers), 1),
            low_bits=self.low_bits,
            high_bits=self.high_bits,
            switch_fraction=self.switch_fraction,
            low_to_high=self.low_to_high,
        )


class FASTSchedule(_PolicySchedule):
    """FAST-Adaptive (Algorithm 1): per-tensor, per-layer, per-iteration precision."""

    name = "fast_adaptive"

    def __init__(self, alpha: float = 0.6, beta: float = 0.3, low_bits: int = 2,
                 high_bits: int = 4, config: Optional[BFPConfig] = None,
                 stochastic_gradients: bool = True, evaluation_interval: int = 1, seed: int = 0,
                 noise_pool: bool = True):
        super().__init__(config, stochastic_gradients, seed, noise_pool)
        self.alpha = alpha
        self.beta = beta
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.evaluation_interval = evaluation_interval

    def _build_policy(self):
        return FASTAdaptivePolicy(
            total_layers=max(len(self.layers), 1),
            total_iterations=self.total_iterations,
            alpha=self.alpha,
            beta=self.beta,
            low_bits=self.low_bits,
            high_bits=self.high_bits,
            evaluation_interval=self.evaluation_interval,
        )


def build_schedule(name: str, **kwargs) -> PrecisionSchedule:
    """Construct a schedule from a short name used by benchmarks.

    Recognized names: ``fp32``, ``fast_adaptive``, ``low_bfp``, ``mid_bfp``,
    ``high_bfp``, ``temporal_low_to_high``, ``temporal_high_to_low``,
    ``layerwise_low_to_high``, ``layerwise_high_to_low``, plus any registered
    number-format name (``bfloat16``, ``int8``, ``msfp12``, ...).
    """
    bfp_bits = {"low_bfp": 2, "mid_bfp": 3, "high_bfp": 4}
    if name == "fp32":
        return FP32Schedule()
    if name == "fast_adaptive":
        return FASTSchedule(**kwargs)
    if name in bfp_bits:
        return FixedBFPSchedule(bfp_bits[name], **kwargs)
    if name.startswith("temporal_"):
        return TemporalSchedule(low_to_high=name.endswith("low_to_high"), **kwargs)
    if name.startswith("layerwise_"):
        return LayerwiseSchedule(low_to_high=name.endswith("low_to_high"), **kwargs)
    return FormatSchedule(name, **kwargs)
