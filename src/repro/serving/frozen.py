"""Frozen-model export: one-time weight quantization + grad-free forwards.

Training runs every forward through the autograd substrate: weights are
re-quantized per call (or looked up in the version-keyed cache), dropout
branches are evaluated, and every op allocates a :class:`~repro.nn.tensor.Tensor`
with a backward closure.  Serving needs none of that.  :func:`freeze` walks a
trained model once and converts it into a tree of *frozen ops*:

* quantized layers quantize their weights **once** into a packed
  :class:`~repro.core.bfp.BFPTensor` (the Figure 15 storage layout) and keep
  the dequantized grid values for the matrix products,
* dropout and every other training-only branch is stripped,
* each op's ``run`` is a plain-NumPy replica of the live eval-mode forward --
  same gather indices, same matmuls, same reduction expressions -- so frozen
  logits are **bit-identical** to the live quantized model in eval mode,
* convolution/pooling reuse the shared forward helpers and memoized im2col
  indices of :mod:`repro.nn.functional`, and activation quantizers keep their
  own persistent :class:`~repro.core.kernels.LayoutCache`.

Every frozen op serializes to a JSON spec plus flat arrays, which
:mod:`repro.serving.checkpoint` stores in an ``.npz`` file; packed weights
are stored as compact integer arrays (signs/mantissas/exponents) rather than
floats.

Supported model families out of the box: ``Sequential`` compositions, MLP,
VGG, ResNet (basic + bottleneck), MobileNet-v2, TinyYOLO, and the
encoder-decoder Transformer (including greedy decoding).  To add an op,
declare its fields once on a :class:`FrozenOp` subclass -- ``_config`` for
JSON settings, ``_array`` for NumPy arrays, ``_child`` for one frozen op or a
list of them -- and register it with ``@_register_op``: serialization,
:func:`iter_ops`, :meth:`FrozenModel.cast` and
:meth:`FrozenModel.storage_report` all read those declarations.  Then map the
live module onto it: a row of ``_FREEZER_TABLE`` when the op's fields carry
the same names as the module's attributes, otherwise a function registered
with :func:`register_freezer`.

The frozen Transformer additionally exposes an **incremental decode** path
(:meth:`FrozenSeq2SeqTransformer.decode_step` over the one K/V cache, a
:class:`~repro.serving.kv_cache.KVCacheManager`): attention runs over the
cached prefix -- O(T) per token instead of the O(T^2) full recompute.
:meth:`FrozenModel.predict` decodes this way.  The live model, the cached
path and the recompute oracle ``repro.reference.greedy_decode`` run the one
greedy loop :func:`~repro.models.transformer.greedy_tokens`; with cache
quantization off the cached path's tokens are bit-identical to the
oracle's (and, on BLAS-regime-stable shapes, the per-step logits too --
see :func:`_row_matmul`).  A cache with an :class:`ActivationQuantizer`
lives on the BFP grid, trading bounded divergence for the paper's
activation-format memory footprint.

One serving-relevant caveat: BFP activation quantization shares its exponent
window across the whole tensor, so with a narrow window (``exponent_bits``
of 2-3) a request's quantization can depend on its batch companions.  The
paper-standard 8-bit window never clamps in practice; serving configurations
should prefer it when exact batch-invariance matters.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.bfp import BFPConfig, BFPTensor, bfp_quantize, bfp_quantize_tensor
from ..core.kernels import LayoutCache
from ..core.memory_layout import compact_bfp_arrays, restore_bfp_tensor
from ..core.precision_policy import FASTAdaptivePolicy
from ..formats.base import TensorKind
from ..formats.registry import available_formats, get_format
from ..models.mlp import MLP
from ..models.mobilenet import InvertedResidual, MobileNetV2
from ..models.resnet import BasicBlock, BottleneckBlock, ResNet
from ..models.transformer import Seq2SeqTransformer, greedy_tokens
from ..models.vgg import VGG
from ..models.yolo import TinyYOLO
from ..nn import attention as attention_mod
from ..nn import functional as F
from ..nn import modules as M
from ..nn.attention import causal_mask
from ..nn.quantized import BFPScheme, FormatScheme
from ..nn.tensor import Tensor
from .kv_cache import BLOCK_TOKENS, KVCacheManager

__all__ = [
    "FrozenOp",
    "FrozenModel",
    "ActivationQuantizer",
    "freeze",
    "freeze_module",
    "register_freezer",
    "frozen_op_types",
]


def _as_float(x) -> np.ndarray:
    """Promote like :class:`Tensor`: float32 stays, everything else -> float64."""
    array = np.asarray(x)
    return array if array.dtype == np.float32 else np.asarray(array, dtype=np.float64)


# --------------------------------------------------------------------------- #
# Activation quantizers
# --------------------------------------------------------------------------- #
class ActivationQuantizer:
    """Deterministic nearest-rounding BFP quantizer with a persistent layout cache.

    Applies exactly the same quantization a :class:`BFPScheme` applies to
    activations in eval mode, so frozen activations match the live model bit
    for bit.
    """

    def __init__(self, mantissa_bits: int, group_size: int, exponent_bits: Optional[int]):
        self.mantissa_bits = int(mantissa_bits)
        self.group_size = int(group_size)
        self.exponent_bits = None if exponent_bits is None else int(exponent_bits)
        self._layouts = LayoutCache(max_entries=16)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return bfp_quantize(
            values,
            mantissa_bits=self.mantissa_bits,
            group_size=self.group_size,
            exponent_bits=self.exponent_bits,
            rounding="nearest",
            layout=self._layouts.layout_for(values, self.group_size),
        )

    def config(self) -> dict:
        return {
            "type": "bfp",
            "mantissa_bits": self.mantissa_bits,
            "group_size": self.group_size,
            "exponent_bits": self.exponent_bits,
        }


class FormatActivationQuantizer:
    """Activation quantizer backed by a scalar/block :class:`NumberFormat`.

    Quantizes with the format instance it is given (at freeze time, a copy
    of the scheme's own), not one re-resolved by name: several formats name
    their instances by their parameters (``flexpoint_m16``), which the
    registry cannot resolve.
    """

    def __init__(self, number_format):
        self.number_format = number_format
        self._rng = np.random.default_rng(0)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.number_format.quantize(values, kind=TensorKind.ACTIVATION, rng=self._rng)

    def config(self) -> dict:
        return {"type": "format", "name": _registry_name(self.number_format)}


def _registry_name(number_format) -> str:
    """A format-registry name whose :func:`get_format` rebuilds ``number_format``.

    That is the format's own name when the registry resolves it (``int8``,
    ``bfp_e3_m4_g16``), else the registry key whose default instance carries
    the same name (``flexpoint`` for ``flexpoint_m16``).
    """
    for name in (number_format.name, *available_formats()):
        try:
            if get_format(name).name == number_format.name:
                return name
        except KeyError:
            continue
    raise ValueError(
        f"number format {number_format.name!r} cannot be rebuilt from the format "
        "registry; register it with repro.formats.register_format to save it")


def _quantizer_from_config(config: Optional[dict]):
    if config is None:
        return None
    kind = config.get("type")
    if kind == "bfp":
        return ActivationQuantizer(**_take(config, ("mantissa_bits", "group_size",
                                                    "exponent_bits"),
                                           "config key", prefix="quantizer."))
    if kind == "format":
        return FormatActivationQuantizer(get_format(
            _take(config, ("name",), "config key", prefix="quantizer.")["name"]))
    raise ValueError(f"unknown activation quantizer config {config!r}")


# --------------------------------------------------------------------------- #
# Frozen weights
# --------------------------------------------------------------------------- #
def _pack_weight(weight_data: np.ndarray, mantissa_bits: int, group_size: int,
                 exponent_bits: Optional[int]) -> Tuple[BFPTensor, np.ndarray]:
    """Quantize a weight once into packed BFP; returns (packed, grid values).

    ``BFPTensor.to_float`` reconstructs exactly the values the live model's
    fake-quantization produces (the packed integers are a lossless encoding
    of the BFP grid points), which is what makes the frozen forward and the
    checkpoint round-trip bit-identical.
    """
    packed = bfp_quantize_tensor(
        np.asarray(weight_data),
        mantissa_bits=mantissa_bits,
        group_size=group_size,
        exponent_bits=exponent_bits,
        rounding="nearest",
    )
    return packed, packed.to_float()


_PACKED_META = ("shape", "axis", "pad", "moved_shape", "mantissa_bits", "group_size",
                "exponent_bits")


def _packed_meta(packed: BFPTensor) -> dict:
    return {
        "shape": list(packed.shape),
        "axis": packed.axis,
        "pad": packed.pad,
        "moved_shape": list(packed._moved_shape),
        "mantissa_bits": packed.config.mantissa_bits,
        "group_size": packed.config.group_size,
        "exponent_bits": packed.config.exponent_bits,
    }


def _packed_from_meta(meta: dict, arrays: Dict[str, np.ndarray]) -> BFPTensor:
    meta = _take(meta, _PACKED_META, "config key", prefix="packed.")
    config = BFPConfig(
        mantissa_bits=meta["mantissa_bits"],
        group_size=meta["group_size"],
        exponent_bits=meta["exponent_bits"],
        rounding="nearest",
    )
    return restore_bfp_tensor(_take(arrays, ("signs", "mantissas", "exponents"), "array"),
                              config, meta["shape"], meta["axis"], meta["pad"],
                              meta["moved_shape"])


def _freeze_scheme(scheme, weight_data: np.ndarray):
    """Resolve a quantization scheme into frozen-layer pieces.

    Returns ``(weight_values, packed, activation_quantizer, descriptor)``.
    A BFP scheme is resolved to a fixed-precision snapshot: the weight keeps
    the bits its policy decides for it at freeze time, and activations take
    the policy's bits for them.  A FAST-Adaptive policy's activation decision
    is per-call and data-dependent and cannot be replayed without the policy
    state, so its activations conservatively use the widest mantissa the
    policy can choose.
    """
    weight_data = np.asarray(weight_data)
    if scheme is None or scheme.is_identity:
        return np.array(weight_data), None, None, {"kind": "identity"}
    if isinstance(scheme, FormatScheme):
        values = scheme.number_format.quantize(
            weight_data, kind=TensorKind.WEIGHT, rng=np.random.default_rng(0))
        quantizer = FormatActivationQuantizer(copy.deepcopy(scheme.number_format))
        return values, None, quantizer, {"kind": "format", "name": scheme.number_format.name}
    if not isinstance(scheme, BFPScheme):
        raise TypeError(f"cannot freeze quantization scheme {type(scheme).__name__}")
    policy = scheme.policy
    adaptive = isinstance(policy, FASTAdaptivePolicy)
    # `_decide` is the scheme's pure selection path: freezing must not record
    # into (or advance the memo of) the live policy it snapshots.
    weight_bits = scheme._decide(weight_data, TensorKind.WEIGHT)[0].mantissa_bits
    if adaptive:
        activation_bits = max(policy.supported_bits)
    else:
        activation_bits = policy.decide(TensorKind.ACTIVATION, scheme.layer_index,
                                        scheme.iteration).mantissa_bits
    config = scheme.config
    packed, values = _pack_weight(weight_data, weight_bits,
                                  config.group_size, config.exponent_bits)
    quantizer = ActivationQuantizer(activation_bits, config.group_size,
                                    config.exponent_bits)
    descriptor = {"kind": "bfp", "weight_bits": int(weight_bits),
                  "activation_bits": int(activation_bits),
                  "group_size": config.group_size,
                  "exponent_bits": config.exponent_bits}
    if adaptive:
        descriptor["frozen_from"] = "fast_adaptive"
    return values, packed, quantizer, descriptor


# --------------------------------------------------------------------------- #
# Frozen op base: declared fields + registry of op types (for checkpoints)
# --------------------------------------------------------------------------- #
def _role(role: str):
    return lambda **kwargs: dataclasses.field(metadata={"role": role}, **kwargs)


#: Field declarations of a frozen op: a JSON-serializable setting, a NumPy
#: array, or a child op (one :class:`FrozenOp` or a list of them).
_config, _array, _child = _role("config"), _role("array"), _role("child")


@functools.lru_cache(maxsize=None)
def _declared(cls: type, role: str) -> Tuple[str, ...]:
    """Names of ``cls``'s fields declared with ``role``, in declaration order."""
    if not dataclasses.is_dataclass(cls):
        return ()
    return tuple(f.name for f in dataclasses.fields(cls) if f.metadata.get("role") == role)


def _take(source: dict, names, what: str, prefix: str = "") -> dict:
    """``{name: source[name]}``; a missing name raises ``KeyError("<what> '<name>'")``,
    which the checkpoint loader reports with the file and op path."""
    for name in names:
        if name not in source:
            raise KeyError(f"{what} '{prefix}{name}'")
    return {name: source[name] for name in names}


_OP_TYPES: Dict[str, type] = {}


def _register_op(cls):
    """Make ``cls`` a dataclass over its declared fields and register its kind."""
    cls = dataclasses.dataclass(eq=False, repr=False)(cls)
    _OP_TYPES[cls.kind] = cls
    return cls


def frozen_op_types() -> Dict[str, type]:
    """Registered frozen op types by kind (used by the checkpoint loader)."""
    return dict(_OP_TYPES)


class FrozenOp:
    """A grad-free inference op.  ``run`` maps arrays to arrays.

    Registered subclasses declare their fields with ``_config`` / ``_array``
    / ``_child``; :meth:`state`, :meth:`from_state` and :meth:`child_ops`
    read those declarations, so no op writes its layout out by hand.
    """

    kind = "op"

    def run(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def state(self) -> Tuple[dict, Dict[str, np.ndarray], dict]:
        """Serialization triple: (config JSON dict, arrays, child ops)."""
        return tuple({name: getattr(self, name) for name in _declared(type(self), role)}
                     for role in ("config", "array", "child"))

    @classmethod
    def from_state(cls, config: dict, arrays: Dict[str, np.ndarray], children: dict):
        return cls(**_take(config, _declared(cls, "config"), "config key"),
                   **_take(arrays, _declared(cls, "array"), "array"),
                   **_take(children, _declared(cls, "child"), "child op"))

    def child_ops(self) -> List["FrozenOp"]:
        ops = []
        for name in _declared(type(self), "child"):
            value = getattr(self, name)
            ops.extend(value if isinstance(value, list) else [value])
        return ops


def iter_ops(op: FrozenOp):
    """Depth-first iteration over an op and all its descendants."""
    yield op
    for child in op.child_ops():
        yield from iter_ops(child)


# --------------------------------------------------------------------------- #
# Leaf ops
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(eq=False, repr=False)
class _WeightedOp(FrozenOp):
    """Base of the ops whose weight is quantized at freeze time.

    Holds the one hand-written codec: a packed weight is stored as its
    compact BFP integer arrays plus a ``packed`` config entry, a raw weight
    as itself.  On load ``bias`` is optional (bias-free layers), and
    ``quantizer``, ``scheme`` and a conv's ``groups`` may be missing, as in
    checkpoints written before they existed.
    """

    weight: np.ndarray = _array()
    bias: Optional[np.ndarray] = _array()
    quantizer: object = dataclasses.field(default=None, kw_only=True)
    packed: Optional[BFPTensor] = dataclasses.field(default=None, kw_only=True)
    scheme_desc: Optional[dict] = dataclasses.field(default=None, kw_only=True)

    def __post_init__(self):
        self.scheme_desc = self.scheme_desc or {"kind": "identity"}

    def _quantize_input(self, x: np.ndarray) -> np.ndarray:
        return x if self.quantizer is None else self.quantizer(x)

    def state(self):
        config, _, _ = super().state()
        config["quantizer"] = None if self.quantizer is None else self.quantizer.config()
        config["scheme"] = self.scheme_desc
        arrays: Dict[str, np.ndarray] = {}
        if self.packed is not None:
            config["packed"] = _packed_meta(self.packed)
            arrays.update(compact_bfp_arrays(self.packed))
        else:
            arrays["weight"] = self.weight
        if self.bias is not None:
            arrays["bias"] = self.bias
        return config, arrays, {}

    @classmethod
    def from_state(cls, config, arrays, children):
        packed = None
        if "packed" in config:
            packed = _packed_from_meta(config["packed"], arrays)
            weight = packed.to_float()
        else:
            weight = _take(arrays, ("weight",), "array")["weight"]
        settings = _take({"groups": 1, **config}, _declared(cls, "config"), "config key")
        return cls(weight=weight, bias=arrays.get("bias"), **settings,
                   quantizer=_quantizer_from_config(config.get("quantizer")),
                   packed=packed, scheme_desc=config.get("scheme"))


@_register_op
class FrozenLinear(_WeightedOp):
    """``y = quantize(x) @ W_q.T + b`` with the weight quantized at freeze time."""

    kind = "linear"

    def run(self, x: np.ndarray) -> np.ndarray:
        # matmul against the transposed view, exactly like F.linear's
        # ``x @ weight.swapaxes(-1, -2)``.
        out = np.matmul(self._quantize_input(x), self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


@_register_op
class FrozenConv2d(_WeightedOp):
    """Frozen convolution: shared im2col forward, freeze-time-quantized weight."""

    kind = "conv2d"
    stride: int = _config()
    padding: int = _config()
    groups: int = _config(default=1)

    def run(self, x: np.ndarray) -> np.ndarray:
        return F.conv2d_infer(self._quantize_input(x), self.weight, self.bias,
                              stride=self.stride, padding=self.padding, groups=self.groups)


@_register_op
class FrozenBatchNorm2d(FrozenOp):
    """Eval-mode batch norm over frozen running statistics."""

    kind = "batchnorm2d"
    mean: np.ndarray = _array()
    var: np.ndarray = _array()
    weight: np.ndarray = _array()
    bias: np.ndarray = _array()
    eps: float = _config()

    def run(self, x: np.ndarray) -> np.ndarray:
        mean = self.mean.reshape(1, -1, 1, 1)
        var = self.var.reshape(1, -1, 1, 1)
        normalized = (x - mean) / ((var + self.eps) ** 0.5)
        return normalized * self.weight.reshape(1, -1, 1, 1) + self.bias.reshape(1, -1, 1, 1)


@_register_op
class FrozenLayerNorm(FrozenOp):
    kind = "layernorm"
    weight: np.ndarray = _array()
    bias: np.ndarray = _array()
    eps: float = _config()

    def run(self, x: np.ndarray) -> np.ndarray:
        # Replicates Tensor.mean/var exactly: sum * (1/count), then the
        # centered second moment -- not np.mean, whose division can differ
        # in the last bit from the reciprocal multiply.
        count = x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * (1.0 / count)
        centered = x - mean
        var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / count)
        normalized = centered / ((var + self.eps) ** 0.5)
        return normalized * self.weight + self.bias


@_register_op
class FrozenEmbedding(FrozenOp):
    kind = "embedding"
    weight: np.ndarray = _array()

    def run(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        vocab = self.weight.shape[0]
        if indices.size and (indices.min() < 0 or indices.max() >= vocab):
            raise ValueError(
                f"token indices must lie in [0, {vocab}), got values from "
                f"{indices.min()} to {indices.max()}")
        return self.weight[indices]


@_register_op
class FrozenReLU(FrozenOp):
    kind = "relu"

    def run(self, x):
        # np.maximum is one pass where the autograd path's ``x * (x > 0)``
        # is two; the results compare equal everywhere (the only difference
        # is the sign of zero, and -0.0 == 0.0).
        return np.maximum(x, 0.0)


@_register_op
class FrozenLeakyReLU(FrozenOp):
    kind = "leaky_relu"
    negative_slope: float = _config(default=0.1)

    def run(self, x):
        # Dtype-preserving form of ``x * where(x > 0, 1.0, slope)``:
        # identical values (x * 1.0 == x exactly) without materializing a
        # float64 scale array that would promote a float32 pipeline.
        return np.where(x > 0, x, x * self.negative_slope)


@_register_op
class FrozenSigmoid(FrozenOp):
    kind = "sigmoid"

    def run(self, x):
        return 1.0 / (1.0 + np.exp(-x))


@_register_op
class FrozenTanh(FrozenOp):
    kind = "tanh"

    def run(self, x):
        return np.tanh(x)


@_register_op
class FrozenGELU(FrozenOp):
    kind = "gelu"

    def run(self, x):
        # float(...) keeps the factor a weak Python scalar: an np.float64
        # scalar would promote a float32 pipeline back to float64 (NEP 50).
        inner = (x + x * x * x * 0.044715) * float(np.sqrt(2.0 / np.pi))
        return x * 0.5 * (np.tanh(inner) + 1.0)


@_register_op
class FrozenMaxPool2d(FrozenOp):
    kind = "max_pool2d"
    kernel_size: int = _config()
    stride: Optional[int] = _config(default=None)

    def run(self, x):
        return F.max_pool2d_infer(x, self.kernel_size, self.stride)


@_register_op
class FrozenAvgPool2d(FrozenOp):
    kind = "avg_pool2d"
    kernel_size: int = _config()
    stride: Optional[int] = _config(default=None)

    def run(self, x):
        return F.avg_pool2d_infer(x, self.kernel_size, self.stride)


@_register_op
class FrozenGlobalAvgPool2d(FrozenOp):
    kind = "global_avg_pool2d"

    def run(self, x):
        return x.sum(axis=(2, 3)) * (1.0 / (x.shape[2] * x.shape[3]))


@_register_op
class FrozenFlatten(FrozenOp):
    kind = "flatten"
    start_dim: int = _config(default=1)

    def run(self, x):
        return x.reshape(x.shape[:self.start_dim] + (-1,))


@_register_op
class FrozenTranspose(FrozenOp):
    kind = "transpose"
    axes: Tuple[int, ...] = _config()

    def run(self, x):
        return x.transpose(self.axes)


@_register_op
class FrozenIdentity(FrozenOp):
    kind = "identity"

    def run(self, x):
        return x


@_register_op
class FrozenSequential(FrozenOp):
    kind = "sequential"
    ops: List[FrozenOp] = _child()

    def run(self, x):
        for op in self.ops:
            x = op.run(x)
        return x


# --------------------------------------------------------------------------- #
# Residual blocks
# --------------------------------------------------------------------------- #
@_register_op
class FrozenBasicBlock(FrozenOp):
    kind = "basic_block"
    conv1: FrozenOp = _child()
    conv2: FrozenOp = _child()
    shortcut: FrozenOp = _child()

    def run(self, x):
        out = self.conv1.run(x)
        out = np.maximum(out, 0.0)
        out = self.conv2.run(out)
        out = out + self.shortcut.run(x)
        return np.maximum(out, 0.0)


@_register_op
class FrozenBottleneckBlock(FrozenOp):
    kind = "bottleneck_block"
    conv1: FrozenOp = _child()
    conv2: FrozenOp = _child()
    conv3: FrozenOp = _child()
    shortcut: FrozenOp = _child()

    def run(self, x):
        out = self.conv1.run(x)
        out = np.maximum(out, 0.0)
        out = self.conv2.run(out)
        out = np.maximum(out, 0.0)
        out = self.conv3.run(out)
        out = out + self.shortcut.run(x)
        return np.maximum(out, 0.0)


@_register_op
class FrozenInvertedResidual(FrozenOp):
    kind = "inverted_residual"
    expand: FrozenOp = _child()
    depthwise: FrozenOp = _child()
    project: FrozenOp = _child()
    use_residual: bool = _config()

    def run(self, x):
        out = self.expand.run(x)
        out = self.depthwise.run(out)
        out = self.project.run(out)
        if self.use_residual:
            out = out + x
        return out


@_register_op
class FrozenMLP(FrozenOp):
    kind = "mlp"
    layers: FrozenOp = _child()

    def run(self, x):
        if x.ndim > 2:
            x = x.reshape(x.shape[:1] + (-1,))
        return self.layers.run(x)


# --------------------------------------------------------------------------- #
# Transformer ops
# --------------------------------------------------------------------------- #
def _row_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for single-row ``a`` (..., 1, K), on the multi-row BLAS path.

    NumPy routes single-row products through a different BLAS kernel (gemv)
    than multi-row ones (gemm), and the two accumulate in different orders,
    so the "obvious" one-token product is *not* bit-identical to the same row
    of the full-sequence product.  Duplicating the row to M=2 and slicing the
    result back restores the gemm path: the stacked-4D products used in
    attention then reproduce the full path's rows bit for bit (verified for
    float64 and float32, including against padded key columns and zero-weight
    value contributions).  The duplicate row costs a negligible O(K*N).

    Plain 2D gemm rows are *not* M-invariant at every shape (small-M kernel
    switches), which is why only the 4D attention products use this trick;
    the projection layers' bits can differ from the full path's in the last
    ulp on some shapes, and token-level equivalence is gated instead.
    """
    doubled = np.matmul(np.concatenate([a, a], axis=-2), b)
    return doubled[..., :1, :]


@_register_op
class FrozenMultiHeadAttention(FrozenOp):
    kind = "multi_head_attention"
    q_proj: FrozenLinear = _child()
    k_proj: FrozenLinear = _child()
    v_proj: FrozenLinear = _child()
    out_proj: FrozenLinear = _child()
    num_heads: int = _config()

    def _split_heads(self, x):
        batch, length, embed = x.shape
        head_dim = embed // self.num_heads
        return x.reshape(batch, length, self.num_heads, head_dim).transpose(0, 2, 1, 3)

    def kv(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Split-head (K, V) projections of ``x``, for caching."""
        return (self._split_heads(self.k_proj.run(x)),
                self._split_heads(self.v_proj.run(x)))

    def _attend(self, q, k, v, mask, product=np.matmul):
        # Python-float scale: an np.float64 scalar would promote float32.
        scores = product(q, k.transpose(0, 1, 3, 2)) * float(1.0 / np.sqrt(q.shape[-1]))
        if mask is not None:
            scores = scores + mask
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        weights = exps / exps.sum(axis=-1, keepdims=True)
        attended = product(weights, v)
        batch, heads, length, head_dim = attended.shape
        merged = attended.transpose(0, 2, 1, 3).reshape(batch, length, heads * head_dim)
        return self.out_proj.run(merged)

    def run(self, query, key=None, value=None, mask=None, cached_kv=None):
        key = query if key is None else key
        value = key if value is None else value
        q = self._split_heads(self.q_proj.run(query))
        if cached_kv is not None:
            k, v = cached_kv
        else:
            k = self._split_heads(self.k_proj.run(key))
            v = self._split_heads(self.v_proj.run(value))
        return self._attend(q, k, v, mask)

    def run_step(self, query, k, v, mask=None, *, first_step=False):
        """One-token attention over cached split-head K/V.

        ``query`` is the (batch, 1, embed) hidden state of the current token;
        ``k``/``v`` are (batch, heads, length, head_dim) caches that already
        include the current position.  The full decode path masks future
        positions with a finite ``-1e9`` fill whose softmax weights underflow
        to exact zeros, so attending over only the cached prefix reproduces
        the full path's attention row bit for bit -- provided the products
        run on the same BLAS path, which is what :func:`_row_matmul` ensures.
        ``first_step`` keeps the length-1 case on the full path's own
        single-row kernel instead.
        """
        q = self._split_heads(self.q_proj.run(query))
        return self._attend(q, k, v, mask, np.matmul if first_step else _row_matmul)


@_register_op
class FrozenFeedForward(FrozenOp):
    kind = "feed_forward"
    fc1: FrozenLinear = _child()
    fc2: FrozenLinear = _child()

    def run(self, x):
        hidden = self.fc1.run(x)
        hidden = np.maximum(hidden, 0.0)
        return self.fc2.run(hidden)


@_register_op
class FrozenEncoderLayer(FrozenOp):
    kind = "encoder_layer"
    self_attention: FrozenMultiHeadAttention = _child()
    feed_forward: FrozenFeedForward = _child()
    norm1: FrozenLayerNorm = _child()
    norm2: FrozenLayerNorm = _child()

    def run(self, x, mask=None):
        x = x + self.self_attention.run(self.norm1.run(x), mask=mask)
        x = x + self.feed_forward.run(self.norm2.run(x))
        return x


@_register_op
class FrozenDecoderLayer(FrozenOp):
    kind = "decoder_layer"
    self_attention: FrozenMultiHeadAttention = _child()
    cross_attention: FrozenMultiHeadAttention = _child()
    feed_forward: FrozenFeedForward = _child()
    norm1: FrozenLayerNorm = _child()
    norm2: FrozenLayerNorm = _child()
    norm3: FrozenLayerNorm = _child()

    def run(self, x, memory, self_mask=None, memory_mask=None, memory_kv=None):
        # ``memory_kv`` short-circuits the cross-attention K/V projections of
        # the (static) encoder memory; project once per sequence via
        # ``self.cross_attention.kv(memory)`` instead of once per decode call.
        x = x + self.self_attention.run(self.norm1.run(x), mask=self_mask)
        x = x + self.cross_attention.run(self.norm2.run(x), key=memory, value=memory,
                                         mask=memory_mask, cached_kv=memory_kv)
        x = x + self.feed_forward.run(self.norm3.run(x))
        return x

    def run_step(self, x, cache, layer_index, memory_kv, self_mask=None,
                 memory_mask=None, *, first_step=False):
        """One decoder step: append this token's self-attention K/V to
        ``cache`` and attend over the cached prefix plus the precomputed
        cross-attention ``memory_kv``.  ``x`` is (batch, 1, embed)."""
        h = self.norm1.run(x)
        k, v = cache.append(layer_index, *self.self_attention.kv(h))
        x = x + self.self_attention.run_step(h, k, v, mask=self_mask,
                                             first_step=first_step)
        x = x + self.cross_attention.run_step(self.norm2.run(x), *memory_kv,
                                              mask=memory_mask, first_step=first_step)
        x = x + self.feed_forward.run(self.norm3.run(x))
        return x


@_register_op
class FrozenSeq2SeqTransformer(FrozenOp):
    """Frozen encoder-decoder Transformer with teacher-forced and greedy paths."""

    kind = "seq2seq_transformer"
    embedding: FrozenEmbedding = _child()
    positional: np.ndarray = _array()
    encoder_layers: List[FrozenEncoderLayer] = _child()
    decoder_layers: List[FrozenDecoderLayer] = _child()
    encoder_norm: FrozenLayerNorm = _child()
    decoder_norm: FrozenLayerNorm = _child()
    output_projection: FrozenLinear = _child()
    embed_dim: int = _config()
    max_length: int = _config()
    pad_index: int = _config()

    def _embed(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        length = tokens.shape[1]
        if length > self.max_length:
            raise ValueError(f"sequence length {length} exceeds max_length {self.max_length}")
        embedded = self.embedding.run(tokens) * float(np.sqrt(self.embed_dim))
        return embedded + self.positional[:length]

    def encode(self, src_tokens: np.ndarray) -> np.ndarray:
        x = self._embed(src_tokens)
        for layer in self.encoder_layers:
            x = layer.run(x)
        return self.encoder_norm.run(x)

    def decode(self, tgt_tokens: np.ndarray, memory: np.ndarray,
               memory_kv=None) -> np.ndarray:
        x = self._embed(tgt_tokens)
        # Match the embedding dtype so a float32 cast is not silently
        # promoted back to float64 by the additive mask.
        mask = causal_mask(np.asarray(tgt_tokens).shape[1]).astype(x.dtype, copy=False)
        for index, layer in enumerate(self.decoder_layers):
            x = layer.run(x, memory, self_mask=mask,
                          memory_kv=None if memory_kv is None else memory_kv[index])
        return self.decoder_norm.run(x)

    # ----------------------- incremental decode ----------------------- #
    def memory_kv(self, memory: np.ndarray) -> Tuple:
        """Cross-attention (K, V) of the encoder memory, projected once per
        decoder layer (the memory is static across decode steps)."""
        return tuple(layer.cross_attention.kv(memory) for layer in self.decoder_layers)

    def prefill(self, src_tokens: np.ndarray):
        """Encode the source and project the per-layer cross-attention K/V.

        Returns ``(memory, memory_kv)`` -- everything a sequence needs
        besides its (initially empty) slots in a :meth:`kv_cache`.
        """
        memory = self.encode(np.asarray(src_tokens, dtype=np.int64))
        return memory, self.memory_kv(memory)

    def kv_cache(self, total_blocks: int, block_tokens: int = BLOCK_TOKENS,
                 quantizer=None) -> KVCacheManager:
        """A self-attention K/V block pool shaped for this decoder, in the
        dtype of its arrays (float32 after :meth:`FrozenModel.cast`)."""
        num_heads = self.decoder_layers[0].self_attention.num_heads
        return KVCacheManager(len(self.decoder_layers), num_heads,
                              self.embed_dim // num_heads, total_blocks,
                              block_tokens=block_tokens, quantizer=quantizer,
                              dtype=self.positional.dtype)

    def decode_step(self, tokens: np.ndarray, positions: np.ndarray,
                    cache, memory_kv, self_mask=None,
                    memory_mask=None) -> np.ndarray:
        """Next-token logits after one incremental decoder step.

        ``tokens`` (batch,) are the current tokens sitting at ``positions``
        (batch,); their K/V are appended to ``cache`` and every decoder layer
        attends over the cached prefix.  Returns (batch, vocab) logits --
        the same values ``run``'s last time-step produces, without re-running
        the prefix.  Sequences in one batch may sit at different positions
        (continuous batching); ``self_mask`` then masks cache padding.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if positions.size and (positions.min() < 0 or positions.max() >= self.max_length):
            raise ValueError(
                f"positions must lie in [0, {self.max_length}), got "
                f"[{positions.min()}, {positions.max()}]")
        x = self.embedding.run(tokens) * float(np.sqrt(self.embed_dim))
        x = x + self.positional[positions][:, None, :]
        first_step = bool(positions.max() == 0) if positions.size else True
        for index, layer in enumerate(self.decoder_layers):
            x = layer.run_step(x, cache, index, memory_kv[index],
                               self_mask=self_mask, memory_mask=memory_mask,
                               first_step=first_step)
        x = self.decoder_norm.run(x)
        return self.output_projection.run(x)[:, 0, :]

    def greedy_decode_cached(self, src_tokens: np.ndarray, bos_index: int,
                             eos_index: int, max_length: Optional[int] = None) -> np.ndarray:
        """KV-cached greedy decode: O(T) attention per emitted token.

        Runs :func:`~repro.models.transformer.greedy_tokens` over a
        :meth:`kv_cache` that reserves ``max_length`` tokens per row.  Its
        tokens are identical to the full-recompute oracle
        ``repro.reference.greedy_decode`` (gated in tests and in
        ``benchmarks/bench_perf_generation.py``).
        """
        max_length = max_length if max_length is not None else self.max_length
        src_tokens = np.asarray(src_tokens, dtype=np.int64)
        batch = src_tokens.shape[0]
        _, memory_kv = self.prefill(src_tokens)
        # A pool needs one block; an empty batch reserves none of it.
        cache = self.kv_cache(max(batch, 1) * -(-max_length // BLOCK_TOKENS))
        rows = range(batch)
        for row in rows:
            cache.reserve(row, max_length)

        def next_logits(generated):
            positions = np.full(batch, generated.shape[1] - 1, dtype=np.int64)
            return self.decode_step(generated[:, -1], positions, cache.step(rows), memory_kv)

        return greedy_tokens(next_logits, batch, bos_index, eos_index, self.pad_index,
                             max_length)

    def run(self, src_tokens: np.ndarray, tgt_tokens: np.ndarray) -> np.ndarray:
        """Teacher-forced logits (batch, tgt_len, vocab)."""
        memory = self.encode(src_tokens)
        decoded = self.decode(tgt_tokens, memory)
        return self.output_projection.run(decoded)


# --------------------------------------------------------------------------- #
# Freezer registry: live module type -> frozen op builder
# --------------------------------------------------------------------------- #
_FREEZERS: Dict[type, Callable] = {}


def register_freezer(*module_types):
    """Decorator registering a ``Module -> FrozenOp`` conversion function."""

    def decorator(fn):
        for module_type in module_types:
            _FREEZERS[module_type] = fn
        return fn

    return decorator


def freeze_module(module: M.Module) -> FrozenOp:
    """Convert one live module (and its subtree) into a frozen op."""
    for klass in type(module).__mro__:
        freezer = _FREEZERS.get(klass)
        if freezer is not None:
            return freezer(module)
    raise TypeError(
        f"no freezer registered for {type(module).__name__}; add one with "
        f"repro.serving.register_freezer"
    )


def _freeze_fields(op_cls: type, module: M.Module, **values) -> FrozenOp:
    """Build ``op_cls`` from ``module``'s attributes of the same names.

    Config values become plain Python scalars (JSON-serializable), arrays are
    copied out of their parameters/buffers, child modules are frozen
    recursively (a ``ModuleList`` into a list of ops).  ``values`` supplies
    fields the module does not hold under the op's name.
    """
    for role in ("config", "array", "child"):
        for name in _declared(op_cls, role):
            if name in values:
                continue
            value = getattr(module, name)
            if role == "config":
                value = value.item() if isinstance(value, np.generic) else value
            elif role == "array":
                value = None if value is None else (
                    value.data if isinstance(value, Tensor) else value).copy()
            elif isinstance(value, M.ModuleList):
                value = [freeze_module(item) for item in value]
            else:
                value = freeze_module(value)
            values[name] = value
    return op_cls(**values)


#: Live module type -> frozen op whose fields carry the module's attribute names.
_FREEZER_TABLE = {
    M.LayerNorm: FrozenLayerNorm,
    M.Embedding: FrozenEmbedding,
    M.ReLU: FrozenReLU,
    M.LeakyReLU: FrozenLeakyReLU,
    M.Sigmoid: FrozenSigmoid,
    M.Tanh: FrozenTanh,
    M.GELU: FrozenGELU,
    M.MaxPool2d: FrozenMaxPool2d,
    M.AvgPool2d: FrozenAvgPool2d,
    M.GlobalAvgPool2d: FrozenGlobalAvgPool2d,
    M.Flatten: FrozenFlatten,
    M.Dropout: FrozenIdentity,  # eval-mode dropout; the training branch is stripped
    M.Identity: FrozenIdentity,
    BasicBlock: FrozenBasicBlock,
    BottleneckBlock: FrozenBottleneckBlock,
    InvertedResidual: FrozenInvertedResidual,
    MLP: FrozenMLP,
    attention_mod.MultiHeadAttention: FrozenMultiHeadAttention,
    attention_mod.FeedForward: FrozenFeedForward,
    attention_mod.TransformerEncoderLayer: FrozenEncoderLayer,
    attention_mod.TransformerDecoderLayer: FrozenDecoderLayer,
    Seq2SeqTransformer: FrozenSeq2SeqTransformer,
}
_FREEZERS.update({module_type: functools.partial(_freeze_fields, op_cls)
                  for module_type, op_cls in _FREEZER_TABLE.items()})


@register_freezer(M.Linear, M.Conv2d)
def _freeze_weighted(module) -> _WeightedOp:
    """Plain or quantized Linear/Conv2d: resolve the scheme, pack the weight once."""
    values, packed, quantizer, desc = _freeze_scheme(getattr(module, "scheme", None),
                                                     module.weight.data)
    op_cls = FrozenConv2d if isinstance(module, M.Conv2d) else FrozenLinear
    return _freeze_fields(op_cls, module, weight=values, quantizer=quantizer,
                          packed=packed, scheme_desc=desc)


@register_freezer(M.BatchNorm2d)
def _freeze_batchnorm(module: M.BatchNorm2d) -> FrozenBatchNorm2d:
    return _freeze_fields(FrozenBatchNorm2d, module, mean=module.running_mean.copy(),
                          var=module.running_var.copy())


@register_freezer(M.Sequential)
def _freeze_sequential(module: M.Sequential) -> FrozenSequential:
    return FrozenSequential([freeze_module(child) for child in module])


def _chain(module: M.Module, *parts) -> FrozenSequential:
    """A frozen sequence of ``module``'s named submodules and literal ops."""
    return FrozenSequential([part if isinstance(part, FrozenOp)
                             else freeze_module(getattr(module, part)) for part in parts])


@register_freezer(VGG)
def _freeze_vgg(module: VGG) -> FrozenSequential:
    return _chain(module, "features", "pool", "classifier")


@register_freezer(ResNet)
def _freeze_resnet(module: ResNet) -> FrozenSequential:
    return _chain(module, "stem", FrozenReLU(), "stages", "pool", "classifier")


@register_freezer(MobileNetV2)
def _freeze_mobilenet(module: MobileNetV2) -> FrozenSequential:
    return _chain(module, "stem", "blocks", "head", "pool", "classifier")


@register_freezer(TinyYOLO)
def _freeze_tiny_yolo(module: TinyYOLO) -> FrozenSequential:
    return _chain(module, "backbone", "head", FrozenTranspose((0, 2, 3, 1)))


# --------------------------------------------------------------------------- #
# FrozenModel
# --------------------------------------------------------------------------- #
class FrozenModel:
    """A frozen export of a trained model, ready to serve.

    ``predict`` runs the grad-free forward on a NumPy batch.  For sequence
    models the inputs are integer token batches and prediction greedy-decodes
    with the KV cache, using the ``bos_index``/``eos_index`` recorded in
    ``meta``; for every other family the inputs are float batches and
    prediction returns logits (or raw detection maps for YOLO).
    """

    FORMAT_VERSION = 1

    def __init__(self, root: FrozenOp, family: str, meta: Optional[dict] = None):
        self.root = root
        self.family = family
        self.meta = dict(meta or {})

    # -------------------------------------------------------------- #
    def predict(self, inputs) -> np.ndarray:
        if self.family == "seq2seq":
            bos = self.meta.get("bos_index", 1)
            eos = self.meta.get("eos_index", 2)
            return self.root.greedy_decode_cached(np.asarray(inputs, dtype=np.int64),
                                                  bos, eos)
        compute_dtype = self.meta.get("compute_dtype")
        if compute_dtype is not None:
            return self.root.run(np.asarray(inputs).astype(compute_dtype, copy=False))
        return self.root.run(_as_float(inputs))

    __call__ = predict

    def cast(self, dtype) -> "FrozenModel":
        """Switch the serving compute dtype (in place); returns ``self``.

        ``float64`` (the default) is bit-identical to the live model.
        ``float32`` is the production serving mode: every BFP grid value
        (4-bit mantissas, shared 8-bit exponents) is *exactly* representable
        in float32, so quantized weights and activations are unchanged --
        only the matrix-product accumulations and normalization arithmetic
        run at float32 precision, at half the memory traffic.  The real FAST
        hardware accumulates in far less than float32; logits agree with the
        float64 path to single-precision rounding.
        """
        dtype = np.dtype(dtype)
        for op in iter_ops(self.root):
            for name in _declared(type(op), "array"):
                value = getattr(op, name)
                if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
                    setattr(op, name, value.astype(dtype, copy=False))
        self.meta["compute_dtype"] = dtype.name
        return self

    def forward_logits(self, src_tokens, tgt_tokens) -> np.ndarray:
        """Teacher-forced logits (sequence models only)."""
        if self.family != "seq2seq":
            raise ValueError("forward_logits is only available for seq2seq models")
        return self.root.run(np.asarray(src_tokens, dtype=np.int64),
                             np.asarray(tgt_tokens, dtype=np.int64))

    # -------------------------------------------------------------- #
    def storage_report(self) -> dict:
        """Model-size accounting: packed BFP bits vs. an FP32 baseline."""
        packed_values = 0
        packed_bits = 0
        raw_values = 0
        for op in iter_ops(self.root):
            arrays = {name: getattr(op, name) for name in _declared(type(op), "array")}
            packed = getattr(op, "packed", None)
            if packed is not None:
                del arrays["weight"]  # stored as packed BFP, not raw values
                packed_values += packed.num_values
                packed_bits += packed.storage_bits()
            raw_values += sum(array.size for array in arrays.values() if array is not None)
        raw_bits = raw_values * 32
        total_values = packed_values + raw_values
        total_bits = packed_bits + raw_bits
        fp32_bits = total_values * 32
        return {
            "total_values": total_values,
            "packed_values": packed_values,
            "packed_bits": packed_bits,
            "raw_values": raw_values,
            "total_bytes": total_bits / 8.0,
            "fp32_bytes": fp32_bits / 8.0,
            "compression_vs_fp32": fp32_bits / total_bits if total_bits else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"FrozenModel(family={self.family!r}, ops={sum(1 for _ in iter_ops(self.root))})"


def _family_of(model: M.Module) -> str:
    if isinstance(model, Seq2SeqTransformer):
        return "seq2seq"
    if isinstance(model, TinyYOLO):
        return "detector"
    return "classifier"


def freeze(model: M.Module, meta: Optional[dict] = None) -> FrozenModel:
    """Export a trained model into a :class:`FrozenModel`.

    Walks the module tree, quantizes every quantized layer's weight exactly
    once into a packed BFP artifact, strips training-only branches, and
    returns a grad-free model whose outputs are bit-identical to the live
    model in eval mode.  ``meta`` carries serving metadata (for sequence
    models: ``bos_index``/``eos_index`` used by greedy decoding).
    """
    root = freeze_module(model)
    return FrozenModel(root, _family_of(model), meta=meta)
