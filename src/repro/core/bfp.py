"""Block Floating Point (BFP) quantization.

A BFP group is a set of ``g`` values that share a single exponent while each
value keeps its own short signed mantissa (Figure 2, bottom row).  Conversion
from FP32 follows Figure 4:

1. find the maximum exponent in the group (it becomes the shared exponent),
2. align every mantissa by right-shifting it by the difference between its
   own exponent and the shared exponent,
3. optionally add stochastic noise (gradients only),
4. truncate (or round) the aligned mantissa to ``m`` bits.

Both entry points are the two outputs of the one converter,
:class:`~repro.core.kernels.GroupedTensor`, which groups the tensor and finds
its shared exponents once:

* :func:`bfp_quantize` -- "fake quantization": returns an FP32 array whose
  values lie exactly on the BFP grid.  This is what the training substrate
  uses to simulate BFP arithmetic.
* :func:`bfp_quantize_tensor` -- returns a :class:`BFPTensor` holding the
  packed integer representation (signs, mantissas, shared exponents), which
  the hardware model consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kernels
from .chunks import bits_per_group
from .kernels import MIN_EXPONENT, ungroup_values

__all__ = [
    "BFPConfig",
    "BFPTensor",
    "bfp_quantize",
    "bfp_quantize_tensor",
    "ungroup_values",
    "MIN_EXPONENT",
    "set_sanitizer",
]

#: Invariant-sanitizer hook (same gate idiom as the kernel profiler).
#: ``None`` keeps :class:`BFPTensor` construction on the pre-existing code
#: path: one global load and one branch.  Installed/removed by
#: :mod:`repro.devtools.sanitize` -- this module never imports devtools.
_SANITIZER = None


def set_sanitizer(sanitizer) -> object:
    """Install (or with ``None`` remove) the BFP invariant sanitizer;
    returns the previous one.  ``sanitizer`` needs one method:
    ``check_bfp_tensor(bfp_tensor)``."""
    global _SANITIZER
    previous = _SANITIZER
    _SANITIZER = sanitizer
    return previous


@dataclass(frozen=True)
class BFPConfig:
    """Configuration of a BFP format.

    Parameters
    ----------
    mantissa_bits:
        Number of magnitude bits per mantissa (the sign bit is separate),
        written ``m`` in the paper.  FAST uses 2 or 4.
    group_size:
        Number of values sharing one exponent, written ``g``.  The paper uses
        16 unless stated otherwise.
    exponent_bits:
        Width of the shared exponent field, written ``e``.  When not ``None``
        the exponents of all groups in a tensor must fit in a window of
        ``2**exponent_bits`` values anchored at the largest group exponent;
        groups below the window are clamped to its bottom, modelling the
        dynamic-range loss discussed in Section III-C.
    rounding:
        Rounding mode applied to the aligned mantissas: ``"nearest"``,
        ``"truncate"`` or ``"stochastic"``.
    noise_bits:
        Number of random bits used by stochastic rounding.
    """

    mantissa_bits: int = 4
    group_size: int = 16
    exponent_bits: Optional[int] = 8
    rounding: str = "nearest"
    noise_bits: int = 8

    def __post_init__(self):
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.exponent_bits is not None and self.exponent_bits < 1:
            raise ValueError("exponent_bits must be >= 1 or None")

    def with_mantissa(self, mantissa_bits: int) -> "BFPConfig":
        """Return a copy of this configuration with a different mantissa width."""
        return BFPConfig(
            mantissa_bits=mantissa_bits,
            group_size=self.group_size,
            exponent_bits=self.exponent_bits,
            rounding=self.rounding,
            noise_bits=self.noise_bits,
        )

    @property
    def bits_per_value(self) -> float:
        """Average storage bits per value under the chunked layout of Section V-D."""
        exponent_bits = self.exponent_bits if self.exponent_bits is not None else 8
        return bits_per_group(exponent_bits, self.group_size, self.mantissa_bits) / self.group_size


def bfp_quantize(
    x,
    mantissa_bits: int = 4,
    group_size: int = 16,
    exponent_bits: Optional[int] = 8,
    rounding: str = "nearest",
    axis: int = -1,
    rng=None,
    noise_bits: int = 8,
    layout=None,
) -> np.ndarray:
    """Fake-quantize ``x`` onto the BFP grid and return an FP array.

    This is the ``BFP(X, m)`` function of Algorithm 1.  The output has the
    same shape and dtype-family as the input but every value is exactly
    representable in the requested BFP format.  It is one rounding of the
    converter (:class:`repro.core.kernels.GroupedTensor`), which is
    bit-compatible with the seed reference implementation wherever the old
    ``floor(log2)`` exponent derivation was correct -- on values one ulp
    below a power of two the frexp-based kernel is strictly more accurate
    (the rounded log2 landed on the wrong integer there).  An installed
    kernel profiler records each call as ``bfp_quantize_fast``.

    ``layout`` optionally passes a precomputed
    :class:`~repro.core.kernels.GroupedLayout` (see
    :class:`~repro.core.kernels.LayoutCache`); quantized layers keep one per
    tensor so repeated conversions skip layout re-derivation entirely.
    """
    profiler = kernels._PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    grouped = kernels.GroupedTensor(x, group_size, exponent_bits, axis=axis, layout=layout)
    result = grouped.ungroup(grouped.quantize(mantissa_bits, rounding, rng=rng,
                                              noise_bits=noise_bits))
    if profiler is not None:
        profiler.record("bfp_quantize_fast", time.perf_counter() - start, result.size)
    return result


@dataclass
class BFPTensor:
    """Packed BFP representation of a tensor.

    Attributes
    ----------
    signs:
        ``int8`` array of ``{-1, 0, +1}`` with shape ``(rows, groups, g)``.
    mantissas:
        Unsigned mantissa magnitudes (``int64``) with the same shape.
    exponents:
        Shared exponent per group with shape ``(rows, groups)``.
    config:
        The :class:`BFPConfig` used to produce the tensor.
    shape:
        Original (unquantized) tensor shape.
    axis:
        Axis along which grouping was performed.
    pad:
        Number of zero-padded values in the last group of each row.
    """

    signs: np.ndarray
    mantissas: np.ndarray
    exponents: np.ndarray
    config: BFPConfig
    shape: tuple
    axis: int = -1
    pad: int = 0
    _moved_shape: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if _SANITIZER is not None:
            _SANITIZER.check_bfp_tensor(self)

    @property
    def group_size(self) -> int:
        return self.config.group_size

    @property
    def mantissa_bits(self) -> int:
        return self.config.mantissa_bits

    @property
    def num_groups(self) -> int:
        return int(self.exponents.size)

    @property
    def num_values(self) -> int:
        return int(np.prod(self.shape))

    def to_float(self) -> np.ndarray:
        """Dequantize back to floating point (values on the BFP grid).

        Scaling goes through ``np.ldexp`` rather than multiplying by
        ``2.0**k``: for deep-subnormal shared exponents the scale itself
        underflows to zero while ``mantissa * 2**k`` is still representable,
        and ldexp computes that product exactly (matching the fast
        quantization kernel).
        """
        values = self.signs.astype(np.float64) * self.mantissas.astype(np.float64)
        shift = (self.exponents - (self.mantissa_bits - 1)).astype(np.int32)
        values = np.ldexp(values, shift[..., None])
        result = ungroup_values(values, self.pad, self._moved_shape, axis=self.axis)
        return result.reshape(self.shape)

    def storage_bits(self) -> int:
        """Total storage bits under the chunked memory layout of Section V-D."""
        exponent_bits = self.config.exponent_bits if self.config.exponent_bits is not None else 8
        return bits_per_group(exponent_bits, self.group_size, self.mantissa_bits) * self.num_groups

    def bits_per_value(self) -> float:
        """Average storage bits per (unpadded) value."""
        return self.storage_bits() / self.num_values


def bfp_quantize_tensor(
    x,
    config: Optional[BFPConfig] = None,
    rng=None,
    axis: int = -1,
    **overrides,
) -> BFPTensor:
    """Quantize ``x`` into a packed :class:`BFPTensor`.

    Either pass a :class:`BFPConfig` or keyword overrides (``mantissa_bits``,
    ``group_size``, ``exponent_bits``, ``rounding``, ``noise_bits``).
    """
    if config is None:
        config = BFPConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)

    x = np.asarray(x)
    grouped = kernels.GroupedTensor(x, config.group_size, config.exponent_bits, axis=axis)
    signs, mantissas, exponents = grouped.pack(config.mantissa_bits, config.rounding,
                                               rng=rng, noise_bits=config.noise_bits)
    return BFPTensor(
        signs=signs,
        mantissas=mantissas,
        exponents=exponents,
        config=config,
        shape=tuple(x.shape) if x.ndim else (1,),
        axis=axis,
        pad=grouped.pad,
        _moved_shape=grouped.moved_shape,
    )
