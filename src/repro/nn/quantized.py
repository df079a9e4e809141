"""Quantization-aware layers and quantization schemes.

A *quantization scheme* decides how the three tensor kinds of a layer --
weights, input activations and output gradients -- are quantized.  Quantized
layers (:class:`QuantizedLinear`, :class:`QuantizedConv2d`) apply the scheme
around their matrix products exactly where the FAST hardware applies the BFP
converter (Figure 16):

* weights and activations are fake-quantized on the way into the product
  (straight-through estimator),
* the layer output carries a :func:`~repro.nn.functional.quantize_gradient`
  hook so the output gradient ``∇O`` is quantized before it is used for the
  two backward-pass products of Figure 3.

Schemes provided:

* :class:`IdentityScheme` -- no quantization (FP32 baseline).
* :class:`FormatScheme` -- a fixed :class:`~repro.formats.base.NumberFormat`
  for all tensors (used for Table II).
* :class:`BFPScheme` -- BFP whose mantissa width a
  :class:`~repro.core.precision_policy.PrecisionPolicy` picks on every call:
  the fixed LowBFP/MidBFP/HighBFP baselines, the Figure 9 temporal and
  layerwise schedules, and Algorithm 1's per-tensor, per-iteration 2- or
  4-bit choice are all policies of this one scheme, which alone measures
  Algorithm 1's ``r(X)``, from the conversion of the tensor itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.bfp import BFPConfig, bfp_quantize
from ..core.converter import AdaptiveConversion
from ..core.kernels import LayoutCache
from ..core.precision_policy import TENSOR_KINDS, PrecisionPolicy
from ..formats.base import NumberFormat, TensorKind
from . import functional as F
from .modules import Conv2d, Linear, Module
from .tensor import Tensor, as_tensor

__all__ = [
    "QuantizationScheme",
    "IdentityScheme",
    "FormatScheme",
    "BFPScheme",
    "QuantizedLinear",
    "QuantizedConv2d",
    "quantized_modules",
    "assign_layer_indices",
]


class QuantizationScheme:
    """Base scheme: quantize weights, activations and gradients of one layer."""

    def quantize_weight(self, values: np.ndarray) -> np.ndarray:
        return values

    def quantize_activation(self, values: np.ndarray) -> np.ndarray:
        return values

    def quantize_gradient(self, values: np.ndarray) -> np.ndarray:
        return values

    def precision_setting(self) -> Dict[str, Optional[int]]:
        """Mantissa widths used for (W, A, G); ``None`` when not applicable."""
        return {"weight": None, "activation": None, "gradient": None}

    def weight_cache_token(self, values: Optional[np.ndarray] = None):
        """Hashable token identifying the weight-quantization function.

        When this returns a token, quantized layers may cache the quantized
        weight array and reuse it while the token and the parameter's
        ``version`` counter both stay unchanged.  ``values`` passes the weight
        array for schemes whose token depends on the data (a FAST-Adaptive
        policy compares ``r(W)`` with its threshold to choose the mantissa
        width; the chosen bits join the token so a changed decision
        invalidates the cache).
        Schemes with stateful or non-deterministic weight quantization return
        ``None`` to opt out of caching.
        """
        return None

    @property
    def is_identity(self) -> bool:
        return False


class IdentityScheme(QuantizationScheme):
    """No quantization at all (the FP32 baseline)."""

    @property
    def is_identity(self) -> bool:
        return True


class FormatScheme(QuantizationScheme):
    """Quantize every tensor with a fixed :class:`NumberFormat`."""

    def __init__(self, number_format: NumberFormat, rng=None):
        self.number_format = number_format
        self.rng = rng if rng is not None else np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng

    def quantize_weight(self, values: np.ndarray) -> np.ndarray:
        return self.number_format.quantize(values, kind=TensorKind.WEIGHT, rng=self.rng)

    def quantize_activation(self, values: np.ndarray) -> np.ndarray:
        return self.number_format.quantize(values, kind=TensorKind.ACTIVATION, rng=self.rng)

    def quantize_gradient(self, values: np.ndarray) -> np.ndarray:
        return self.number_format.quantize(values, kind=TensorKind.GRADIENT, rng=self.rng)

    def precision_setting(self) -> Dict[str, Optional[int]]:
        bits = self.number_format.mantissa_bits
        return {"weight": bits, "activation": bits, "gradient": bits}


class BFPScheme(QuantizationScheme):
    """BFP quantization whose mantissa widths a precision policy chooses.

    The scheme stores the layer index it is attached to and the current
    training iteration (updated by the trainer each step).  Every quantize
    call asks the policy for the mantissa width of that tensor kind, then
    quantizes with it: a
    :class:`~repro.core.precision_policy.FixedPrecisionPolicy` gives the
    LowBFP/MidBFP/HighBFP baselines, the temporal and layerwise policies the
    Figure 9 schedules.  When a FAST-Adaptive policy needs ``r(X)``, the
    scheme -- and nothing else in training -- measures it as a by-product of
    converting the tensor (:class:`~repro.core.converter.AdaptiveConversion`),
    as the hardware BFP converter does, and returns the decided width from
    that one conversion (a weight's passes from :meth:`weight_cache_token`
    to :meth:`quantize_weight`); the policy only compares it with ``ε(l, i)``.

    Decision selection is split from quantization: the policy's
    :meth:`~repro.core.precision_policy.PrecisionPolicy.decide` is pure, so
    the chosen weight bits can join the weight-cache key
    (:meth:`weight_cache_token`).  Every policy therefore caches quantized
    weights the same way -- repeated forwards and eval loops re-select
    (cheaply; FAST-Adaptive reuses its recorded decision inside the
    evaluation interval) but only re-quantize when the version or the bits
    decision changes.  The scheme keeps no decisions of its own:
    :meth:`precision_setting` reads the policy's record of this layer.
    """

    def __init__(
        self,
        policy: PrecisionPolicy,
        layer_index: int = 0,
        config: Optional[BFPConfig] = None,
        stochastic_gradients: bool = True,
        rng=None,
    ):
        self.policy = policy
        self.layer_index = layer_index
        self.iteration = 0
        self.config = config if config is not None else BFPConfig(exponent_bits=3)
        self.stochastic_gradients = stochastic_gradients
        self.rng = rng if rng is not None else np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng
        # Per-scheme grouped-layout cache: a layer's W/A/G shapes repeat every
        # iteration, so their grouping descriptors and padded workspaces are
        # derived once and reused across the whole training run.
        self._layouts = LayoutCache(max_entries=16)
        # The last weight_cache_token() decision (iteration, array, bits and
        # the conversion that measured r(W)), so quantize_weight neither
        # records with the policy nor groups the weight a second time.
        self._pending_weight = None

    def _rounding(self, kind: str) -> str:
        if kind == TensorKind.GRADIENT and self.stochastic_gradients:
            return "stochastic"
        return "nearest"

    def _layout(self, values: np.ndarray):
        return self._layouts.layout_for(values, self.config.group_size)

    def _decide(self, values: np.ndarray, kind: str):
        """The policy's decision for ``values`` (not recorded), and the
        conversion that measured ``r(X)`` for it when the policy needed it.

        Algorithm 1 as the hardware runs it: ``r(X)`` is a by-product of
        converting the tensor under this scheme's grouping
        (:class:`~repro.core.converter.AdaptiveConversion`), and
        :meth:`_convert` takes the decided width from that same conversion.
        """
        policy, layer, iteration = self.policy, self.layer_index, self.iteration
        if not policy.needs_statistic(kind, layer, iteration):
            return policy.decide(kind, layer, iteration), None
        values = np.asarray(values)
        conversion = AdaptiveConversion(values, self.config, policy.low_bits,
                                        policy.high_bits, layout=self._layout(values))
        return policy.decide(kind, layer, iteration,
                             r=conversion.relative_improvement), conversion

    def _convert(self, values: np.ndarray, kind: str, bits: int,
                 conversion: Optional[AdaptiveConversion]) -> np.ndarray:
        """``values`` at ``bits``: from ``conversion`` when :meth:`_decide`
        made one (stochastic rounding quantizes once more from its
        exponents, drawing the same noise), else converted afresh."""
        if conversion is not None:
            return conversion.quantize(bits, self._rounding(kind), rng=self.rng)
        values = np.asarray(values)
        return bfp_quantize(
            values,
            mantissa_bits=bits,
            group_size=self.config.group_size,
            exponent_bits=self.config.exponent_bits,
            rounding=self._rounding(kind),
            rng=self.rng,
            layout=self._layout(values),
        )

    def _quantize(self, values: np.ndarray, kind: str) -> np.ndarray:
        decision, conversion = self._decide(values, kind)
        self.policy.record(decision)
        return self._convert(values, kind, decision.mantissa_bits, conversion)

    def weight_cache_token(self, values: Optional[np.ndarray] = None):
        if values is None:
            # Without the weight data a FAST-Adaptive policy cannot measure r(W).
            return None
        decision, conversion = self._decide(values, TensorKind.WEIGHT)
        self.policy.record(decision)
        bits = decision.mantissa_bits
        self._pending_weight = (self.iteration, values, bits, conversion)
        return ("bfp", bits, self.config.group_size, self.config.exponent_bits)

    def quantize_weight(self, values: np.ndarray) -> np.ndarray:
        # Reuse the pending decision and conversion only for the exact array
        # they were made for at the current iteration; a stale entry (e.g.
        # left behind by a cache-hit forward) must not leak its bits onto
        # another tensor, and standalone calls must still decide (and record)
        # freshly.
        pending = self._pending_weight
        self._pending_weight = None
        if pending is not None and pending[0] == self.iteration and pending[1] is values:
            return self._convert(values, TensorKind.WEIGHT, *pending[2:])
        return self._quantize(values, TensorKind.WEIGHT)

    def quantize_activation(self, values: np.ndarray) -> np.ndarray:
        return self._quantize(values, TensorKind.ACTIVATION)

    def quantize_gradient(self, values: np.ndarray) -> np.ndarray:
        return self._quantize(values, TensorKind.GRADIENT)

    def precision_setting(self) -> Dict[str, Optional[int]]:
        """Widths the policy last recorded for this layer, per kind; before
        the first one a data-free policy answers for the current iteration
        (FAST-Adaptive needs ``r(X)``, so its kinds stay ``None``)."""
        setting = {}
        for kind in TENSOR_KINDS:
            entry = self.policy.records.get((self.layer_index, kind))
            decision = entry.last if entry is not None else None
            if decision is None and not self.policy.needs_statistic(
                    kind, self.layer_index, self.iteration):
                decision = self.policy.decide(kind, self.layer_index, self.iteration)
            setting[kind] = None if decision is None else decision.mantissa_bits
        return setting


class WeightCacheMixin:
    """Caches the quantized weight array keyed on the parameter version.

    The cache key combines the weight parameter's ``version`` counter (bumped
    by the optimizer on every update) with the scheme's
    :meth:`QuantizationScheme.weight_cache_token`.  While both are unchanged
    -- eval loops, test-time adaptation inference, repeated forwards between
    optimizer steps -- the weight is quantized once and reused; gradients
    still flow to the full-precision master copy through the usual
    straight-through estimator.

    The token call receives the weight array so data-dependent schemes
    (FAST-Adaptive) can fold their bits decision into the key: a policy that
    flips a layer from 2 to 4 bits invalidates that layer's cached weight
    even when the parameter version is unchanged.
    """

    def _init_weight_cache(self) -> None:
        self._weight_cache_key = None
        self._weight_cache_value = None

    def clear_weight_cache(self) -> None:
        """Drop the cached quantized weight (e.g. after mutating ``weight.data``)."""
        self._weight_cache_key = None
        self._weight_cache_value = None

    def _quantized_weight(self) -> Tensor:
        token = self.scheme.weight_cache_token(self.weight.data)
        version = getattr(self.weight, "version", None)
        if token is None or version is None:
            return F.fake_quantize(self.weight, self.scheme.quantize_weight)
        key = (version, token)
        if key != self._weight_cache_key:
            self._weight_cache_value = self.scheme.quantize_weight(self.weight.data)
            self._weight_cache_key = key
        cached = self._weight_cache_value
        return F.fake_quantize(self.weight, lambda _values: cached)


class QuantizedLinear(WeightCacheMixin, Linear):
    """A :class:`Linear` layer with W/A/G quantization hooks."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 scheme: Optional[QuantizationScheme] = None, rng=None, dtype=None):
        super().__init__(in_features, out_features, bias=bias, rng=rng, dtype=dtype)
        self.scheme = scheme if scheme is not None else IdentityScheme()
        self.layer_index = 0
        self._init_weight_cache()

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if self.scheme.is_identity:
            return F.linear(x, self.weight, self.bias)
        quantized_weight = self._quantized_weight()
        quantized_input = F.fake_quantize(x, self.scheme.quantize_activation)
        output = F.linear(quantized_input, quantized_weight, self.bias)
        return F.quantize_gradient(output, self.scheme.quantize_gradient)


class QuantizedConv2d(WeightCacheMixin, Conv2d):
    """A :class:`Conv2d` layer with W/A/G quantization hooks."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, groups: int = 1,
                 scheme: Optional[QuantizationScheme] = None, rng=None, dtype=None):
        super().__init__(in_channels, out_channels, kernel_size, stride=stride,
                         padding=padding, bias=bias, groups=groups, rng=rng, dtype=dtype)
        self.scheme = scheme if scheme is not None else IdentityScheme()
        self.layer_index = 0
        self._init_weight_cache()

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if self.scheme.is_identity:
            return Conv2d.forward(self, x)
        quantized_input = F.fake_quantize(x, self.scheme.quantize_activation)
        output = F.conv2d(quantized_input, self._quantized_weight(), self.bias,
                          stride=self.stride, padding=self.padding, groups=self.groups)
        return F.quantize_gradient(output, self.scheme.quantize_gradient)


def quantized_modules(model: Module) -> List[Module]:
    """All quantized layers of ``model`` in definition order."""
    return [
        module
        for _, module in model.named_modules()
        if isinstance(module, (QuantizedLinear, QuantizedConv2d))
    ]


def assign_layer_indices(model: Module) -> int:
    """Assign consecutive ``layer_index`` values to quantized layers.

    Returns the number of quantized layers.  The FAST threshold of Equation 1
    depends on the layer depth, so trainers call this once after building the
    model.
    """
    layers = quantized_modules(model)
    for index, layer in enumerate(layers):
        layer.layer_index = index
        if hasattr(layer.scheme, "layer_index"):
            layer.scheme.layer_index = index
    return len(layers)
