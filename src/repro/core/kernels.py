"""Fused fast-path kernels for BFP quantization.

This module is the hot path of the whole training substrate: every quantized
layer converts its weights, activations and gradients to BFP on each step, so
:func:`repro.core.bfp.bfp_quantize` is called three times per layer per
iteration.  The kernels here replace the readable-but-slow reference pipeline
with a fused implementation that is bit-compatible with it:

* **Exact exponents** -- shared exponents come from :func:`numpy.frexp`
  instead of ``floor(log2(x))``.  ``frexp`` decomposes ``x = m * 2**e`` with
  ``m in [0.5, 1)``, so ``floor(log2(x)) == e - 1`` holds *exactly* for every
  finite non-zero float, including exact powers of two and values one ulp
  below them where a rounded ``log2`` can land on the wrong integer.
* **Dtype preservation** -- float32 inputs are quantized in float32, at
  half the memory traffic of float64.  Power-of-two scaling, floor, clip
  and rescale are exact there, but adding the rounding offset (0.5, or
  noise ``k / 2**noise_bits``) to a scaled magnitude with 24 significant
  bits can round up across an integer.  So float32 first floors the
  magnitude to the offset's grid ``2**-f`` (``f = 1`` for nearest,
  ``noise_bits`` for stochastic), which keeps the add exact while
  ``mantissa_bits + f + 1 <= 24`` (stochastic rounding adds the integer
  noise levels ``k`` on that grid, before the ``2**-f`` scale); wider
  formats and full-precision noise are computed in float64.  Either way the result is bit-identical to the
  float64 reference.
* **Fusion** -- one pass with ``np.ldexp``/``out=`` arguments replaces the
  reference chain of ~8 temporaries, and the grouping step avoids the pad
  copy entirely when the grouped axis is already divisible by ``group_size``.
  The group max is a tree of stride-2 ``np.maximum`` folds, signs are
  restored by OR-ing sign bits into the magnitudes' integer view, and
  :meth:`GroupedTensor.nearest_magnitudes` rounds one scaled pass at both
  FAST widths, the ``r(X)`` by-product of Figure 14.

The seed implementation lives on verbatim in :mod:`repro.reference`; it is
the golden model for the equivalence tests and the baseline for
``benchmarks/bench_perf_quantization.py``.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import Optional

import numpy as np

from .rounding import RoundingMode, VALID_MODES, draw_levels, draw_noise

__all__ = [
    "MIN_EXPONENT",
    "set_profiler",
    "GroupedLayout",
    "LayoutCache",
    "default_layout_cache",
    "grouping_dtype",
    "resolve_groups",
    "ungroup_values",
    "shared_exponents",
    "quantize_groups",
    "GroupedTensor",
    "bfp_quantize_fast",
]

#: Exponent assigned to all-zero groups.  Matches the smallest normal FP32
#: exponent so that zero groups never dominate the shared-exponent window.
MIN_EXPONENT = -126

#: Observability hook.  ``None`` (the default) keeps the hot paths on their
#: pre-existing code path: the instrumented kernels do one global load and
#: one ``is not None`` branch, allocating nothing.  Installed/removed by
#: :mod:`repro.observability` -- this module never imports observability.
_PROFILER = None


def set_profiler(profiler) -> object:
    """Install (or with ``None`` remove) the kernel profiler; returns the
    previous one.  ``profiler`` needs one method:
    ``record(kernel, seconds, elements)``."""
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


# --------------------------------------------------------------------------- #
# Persistent grouped layouts
# --------------------------------------------------------------------------- #
class GroupedLayout:
    """Precomputed BFP grouping for one ``(shape, dtype, axis, group_size)``.

    Quantizing a tensor first reshapes it into ``(rows, n_groups, group_size)``
    groups.  The layout of that reshape -- moved shape, row count, pad width --
    depends only on the tensor's shape, dtype, grouped axis and group size, all
    of which are invariant across training iterations for a given layer tensor.
    A ``GroupedLayout`` derives them once and additionally owns a reusable
    zero-padded workspace so that padded or non-contiguous tensors are copied
    into the *same* buffer every call instead of allocating (and re-zeroing)
    a fresh one.

    The workspace makes :meth:`group` results transient: they are valid only
    until the next :meth:`group` call on the same layout.  Quantization
    consumes the groups within a single call and never returns a view of
    them, so this is invisible to callers of ``bfp_quantize``.  It also makes
    a shared layout non-reentrant: concurrent conversions of same-shaped
    padded tensors through one layout (e.g. the process-wide default cache
    from multiple threads) would race on the workspace.  The training
    substrate is single-threaded; multi-threaded callers must pass explicit
    per-thread layouts.
    """

    __slots__ = (
        "shape", "dtype", "group_size", "axis", "moved_shape",
        "length", "rows", "pad", "n_groups", "_workspace",
    )

    def __init__(self, shape, dtype, group_size: int, axis: int = -1):
        shape = tuple(int(s) for s in shape) if len(tuple(shape)) else (1,)
        ndim = len(shape)
        axis = axis if axis >= 0 else axis + ndim
        if not 0 <= axis < ndim:
            raise ValueError(f"axis {axis} out of range for shape {shape}")
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.group_size = int(group_size)
        self.axis = axis
        self.moved_shape = shape[:axis] + shape[axis + 1:] + (shape[axis],)
        self.length = self.moved_shape[-1]
        self.rows = int(np.prod(self.moved_shape[:-1])) if ndim > 1 else 1
        self.pad = (-self.length) % self.group_size
        self.n_groups = (self.length + self.pad) // self.group_size
        self._workspace = None

    def group(self, x: np.ndarray) -> np.ndarray:
        """Reshape ``x`` into ``(rows, n_groups, group_size)`` groups.

        ``x`` is cast to the layout's dtype.  Returns a read-only-by-convention
        view of ``x`` when no pad or copy is needed, otherwise a view of the
        layout's reusable workspace (valid until the next call).
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape != self.shape:
            raise ValueError(f"layout built for shape {self.shape}, got {x.shape}")
        moved = np.moveaxis(x, self.axis, -1)
        if self.pad == 0 and moved.flags.c_contiguous:
            return moved.reshape(self.rows, self.n_groups, self.group_size)
        workspace = self._workspace
        if workspace is None:
            # Pad columns are zeroed once here and never written afterwards
            # (only [:, :length] is assigned), so they stay zero across reuse.
            workspace = np.zeros((self.rows, self.length + self.pad), dtype=self.dtype)
            self._workspace = workspace
        destination = workspace[:, :self.length].reshape(self.moved_shape)
        if destination.base is None:  # pragma: no cover - reshape made a copy
            # Splitting the row axis of the strided slice is always expressible
            # as a view in practice; keep a correct (slower) fallback anyway.
            workspace[:, :self.length] = moved.reshape(self.rows, self.length)
        else:
            np.copyto(destination, moved)
        return workspace.reshape(self.rows, self.n_groups, self.group_size)

    def ungroup(self, groups: np.ndarray, original_shape) -> np.ndarray:
        """Invert :meth:`group`, restoring ``original_shape``."""
        result = ungroup_values(groups, self.pad, self.moved_shape, axis=self.axis)
        return result.reshape(original_shape)


class LayoutCache:
    """LRU cache of :class:`GroupedLayout` descriptors.

    Keyed on ``(shape, dtype, group_size, axis)``; bounded so that shape
    churn (e.g. ragged final batches) cannot grow workspaces without limit.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, GroupedLayout]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, shape, dtype, group_size: int, axis: int = -1) -> GroupedLayout:
        shape = tuple(shape) or (1,)
        axis = int(axis)
        if axis < 0:
            # Normalize so axis=-1 and axis=ndim-1 share one entry (and one
            # workspace); GroupedLayout validates the range.
            axis += len(shape)
        key = (shape, np.dtype(dtype).str, int(group_size), axis)
        layout = self._entries.get(key)
        if layout is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return layout
        self.misses += 1
        layout = GroupedLayout(shape, dtype, group_size, axis=axis)
        self._entries[key] = layout
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return layout

    def layout_for(self, x: np.ndarray, group_size: int, axis: int = -1) -> GroupedLayout:
        """Layout for an array, resolving non-float dtypes the way grouping does."""
        shape = x.shape if x.ndim else (1,)
        return self.get(shape, grouping_dtype(x), group_size, axis=axis)


_DEFAULT_LAYOUT_CACHE = LayoutCache()


def default_layout_cache() -> LayoutCache:
    """The process-wide layout cache used when no explicit layout is passed."""
    return _DEFAULT_LAYOUT_CACHE


def grouping_dtype(x: np.ndarray) -> np.dtype:
    """The floating dtype ``x`` is grouped and quantized in (integers -> float64)."""
    return x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(np.float64)


def resolve_groups(x, group_size: int, axis: int = -1, layout: Optional[GroupedLayout] = None):
    """Group ``x`` for quantization through a layout.

    Single entry point for the three grouping consumers (fake quantization,
    packed quantization, ``relative_improvement``): an explicit ``layout`` is
    validated and used, otherwise one comes from the default cache.
    Returns ``(groups, pad, moved_shape)``.
    """
    x = np.asarray(x)
    if layout is not None:
        ndim = max(x.ndim, 1)
        normalized_axis = axis + ndim if axis < 0 else axis
        expected_dtype = grouping_dtype(x)
        if (layout.group_size != int(group_size) or layout.axis != normalized_axis
                or layout.dtype != expected_dtype):
            raise ValueError(
                f"layout built for (group_size={layout.group_size}, axis={layout.axis}, "
                f"dtype={layout.dtype}); got (group_size={group_size}, "
                f"axis={normalized_axis}, dtype={expected_dtype})")
    else:
        layout = _DEFAULT_LAYOUT_CACHE.layout_for(x, group_size, axis=axis)
    return layout.group(x), layout.pad, layout.moved_shape


def ungroup_values(groups: np.ndarray, pad: int, moved_shape, axis: int = -1) -> np.ndarray:
    """Invert grouping (:meth:`GroupedLayout.group`), restoring the array layout.

    The row length is spelled out, not inferred, so zero-size tensors ungroup too.
    Dropping a pad copies the values once, into a C-contiguous array, so a
    consumer that needs contiguous data (e.g. a gradient ``Tensor`` adopts
    only contiguous arrays) does not copy them again.
    """
    rows = groups.reshape(groups.shape[0], math.prod(groups.shape[1:]))
    if not pad:
        return np.moveaxis(rows.reshape(moved_shape), -1, axis)
    return np.ascontiguousarray(np.moveaxis(rows[:, :-pad].reshape(moved_shape), -1, axis))


# --------------------------------------------------------------------------- #
# Fast path
# --------------------------------------------------------------------------- #

def _fold_group_max(magnitudes: np.ndarray) -> np.ndarray:
    """``magnitudes.max(axis=-1)`` via a tree of stride-2 ``np.maximum`` folds.

    Each pass folds the even columns onto the odd ones, so it writes one
    contiguous half-width array; that vectorizes several times better than
    a reduction along a short trailing axis (or a fold of contiguous
    halves), and the group max is the single hottest reduction of the
    conversion.  ``magnitudes`` itself is left untouched.
    """
    size = magnitudes.shape[-1]
    if size == 0:
        return np.zeros(magnitudes.shape[:-1], dtype=magnitudes.dtype)
    if size == 1:
        # A copy, never a view: callers may consume ``magnitudes`` as a
        # working buffer while the group maxima are still in use.
        return magnitudes[..., 0].copy()
    while size > 1:
        half = size // 2
        folded = np.maximum(magnitudes[..., 0:2 * half:2], magnitudes[..., 1:2 * half:2])
        if size & 1:
            np.maximum(folded[..., :1], magnitudes[..., -1:], out=folded[..., :1])
        magnitudes = folded
        size = half
    return magnitudes[..., 0]


def _exponents_from_group_max(group_max: np.ndarray, exponent_bits: Optional[int]) -> np.ndarray:
    exponents = np.frexp(group_max)[1].astype(np.int64)
    exponents -= 1
    nonzero = group_max > 0
    exponents[~nonzero] = MIN_EXPONENT
    if exponent_bits is not None and exponents.size and np.any(nonzero):
        window = (1 << exponent_bits) - 1
        top = int(exponents[nonzero].max())
        if top < MIN_EXPONENT:
            # Every value is below 2**MIN_EXPONENT: zero groups take the top
            # exponent so they stay inside the window instead of above it.
            exponents[~nonzero] = top
        np.maximum(exponents, top - window, out=exponents)
    return exponents


def shared_exponents(groups: np.ndarray, exponent_bits: Optional[int] = None) -> np.ndarray:
    """Shared exponent of each group via exact ``frexp`` extraction.

    Equivalent to ``floor(log2(max |group|))`` -- but exact, because ``frexp``
    reads the exponent field instead of rounding a transcendental: for
    ``x = m * 2**e`` with ``m in [0.5, 1)``, ``floor(log2(x))`` is ``e - 1``.
    All-zero groups receive :data:`MIN_EXPONENT`, lowered to the top
    exponent when an ``exponent_bits`` window applies and every value is
    below ``2**MIN_EXPONENT``; the window clamp matches the reference
    implementation.
    """
    group_max = _fold_group_max(np.abs(np.asarray(groups)))
    return _exponents_from_group_max(group_max, exponent_bits)


def _rounding_grid(dtype: np.dtype, mantissa_bits: int, rounding: str,
                   noise_bits: Optional[int]):
    """The dtype a rounding runs in and the grid ``2**-f`` of its offset.

    Rounding adds an offset -- 0.5, or noise ``k / 2**noise_bits`` -- to a
    scaled magnitude ``m`` below ``2**mantissa_bits`` and floors the sum.
    In float32 that add can round up across an integer (``m`` carries up
    to 24 significant bits), so float32 first floors ``m`` to the offset's
    grid: ``floor(m * 2**f) * 2**-f + offset`` has the same floor as the
    exact ``m + offset`` and is itself exact while
    ``mantissa_bits + f + 1 <= 24``.  Beyond that, and for full-precision
    noise, the rounding runs in float64 with the plain add (``f = 0``),
    exactly as the float64 reference computes it.
    """
    if rounding == RoundingMode.NEAREST:
        grid = 1
    elif rounding == RoundingMode.STOCHASTIC:
        grid = noise_bits
    else:
        grid = 0
    if dtype == np.float32 and grid is not None and mantissa_bits + grid + 1 <= 24:
        return dtype, grid
    return np.dtype(np.float64), 0


def _scale_shifts(exponents: np.ndarray, mantissa_bits: int,
                  group_max: Optional[np.ndarray]) -> np.ndarray:
    """Per-group ``mantissa_bits - 1 - exponent``, broadcastable over groups."""
    shift = np.subtract(mantissa_bits - 1, exponents).astype(np.int32)[..., None]
    if group_max is not None:
        # All-zero groups quantize to zero under any scale, but their
        # MIN_EXPONENT sentinel would otherwise push the shift range past
        # the float32 normal range and route the whole tensor down the slow
        # elementwise-ldexp path (ReLU activations routinely contain a few
        # all-zero groups).  Neutralize their shift.
        shift = np.where(group_max[..., None] > 0, shift, np.int32(0))
    return shift


def _broadcastable(shift: np.ndarray, dtype: np.dtype, *offsets: int) -> bool:
    """Whether ``2**(s + o)`` and ``2**-(s + o)`` are normal numbers for every
    group shift ``s`` and every offset ``o``.

    Then the (small) per-group scale arrays can be formed once and
    broadcast-multiplied, which vectorizes far better than an elementwise
    ``ldexp``; both routes are correctly rounded, hence identical.
    """
    if not shift.size:
        return True
    top, bottom = int(shift.max()), int(shift.min())
    span = max(max(abs(top + o), abs(bottom + o)) for o in offsets)
    return span <= (126 if dtype == np.float32 else 1022)


def _times_pow2(values: np.ndarray, shift, broadcast: bool) -> np.ndarray:
    """``values * 2**shift`` in place (``shift`` broadcasts over ``values``)."""
    if broadcast:
        return np.multiply(values, np.ldexp(values.dtype.type(1), shift), out=values)
    return np.ldexp(values, shift, out=values)


def _round_magnitudes(magnitudes: np.ndarray, mantissa_bits: int, rounding: str,
                      grid: int, rng=None, noise_bits: Optional[int] = 8) -> np.ndarray:
    """Round scaled magnitudes (times ``2**grid``) to clipped integer
    mantissas, in place (see :func:`_rounding_grid`)."""
    if grid:
        np.floor(magnitudes, out=magnitudes)
        if rounding == RoundingMode.STOCHASTIC:
            # floor((F + k) * 2**-grid) for the integers F = floor(m * 2**grid)
            # and noise level k: F + k < 2**24 is exact, and so is the floor
            # of F * 2**-grid + k * 2**-grid it equals.
            magnitudes += draw_levels(rng, magnitudes.shape, noise_bits)
        magnitudes *= 2.0 ** -grid
    if rounding == RoundingMode.NEAREST and grid:
        # floor(F / 2 + 1/2) == ceil(F / 2) for the integer F = floor(2m).
        np.ceil(magnitudes, out=magnitudes)
    else:
        if rounding == RoundingMode.NEAREST:
            magnitudes += 0.5
        elif rounding == RoundingMode.STOCHASTIC and not grid:
            magnitudes += draw_noise(rng, magnitudes.shape, noise_bits)
        np.floor(magnitudes, out=magnitudes)
    return np.minimum(magnitudes, float((1 << mantissa_bits) - 1), out=magnitudes)


def _restore_signs(magnitudes: np.ndarray, source: np.ndarray) -> np.ndarray:
    """``np.copysign(magnitudes, source)`` in place, for ``magnitudes`` whose
    sign bits are clear: ORs ``source``'s sign bits into their integer view.

    Bit-identical to ``copysign``, ``-0.0`` and NaN included.
    """
    bits = np.dtype(f"u{magnitudes.itemsize}")
    view = magnitudes.view(bits)
    signs = source.view(bits) & bits.type(1 << (8 * magnitudes.itemsize - 1))
    np.bitwise_or(view, signs, out=view)
    return magnitudes


def quantize_groups(
    groups: np.ndarray,
    exponents: np.ndarray,
    mantissa_bits: int,
    rounding: str = "nearest",
    rng=None,
    noise_bits: Optional[int] = 8,
    return_packed: bool = False,
    magnitudes: Optional[np.ndarray] = None,
    group_max: Optional[np.ndarray] = None,
):
    """Fused scale -> round -> clip -> rescale on grouped values.

    ``groups`` is never mutated (it may be a view of the caller's tensor).
    ``magnitudes`` may pass in a precomputed ``np.abs(groups)`` -- it is
    consumed (overwritten) as the working buffer, saving one full-size pass;
    :func:`bfp_quantize_fast` reuses the buffer that already fed the exponent
    reduction.  ``group_max`` may pass in the per-group maximum magnitudes so
    all-zero groups (whose :data:`MIN_EXPONENT` sentinel would otherwise
    inflate the shift range) keep the tensor on the broadcast fast path.
    Returns ``(quantized, signs, mantissas)``; ``signs`` and
    ``mantissas`` are ``None`` unless ``return_packed`` is set.  Float32
    groups are quantized in float32 when :func:`_rounding_grid` makes every
    step exact there, otherwise in float64 (callers cast back); either way
    the result is bit-identical to the float64 reference.
    """
    profiler = _PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    if rounding not in VALID_MODES:
        raise ValueError(f"unknown rounding mode {rounding!r}; expected one of {VALID_MODES}")
    groups = np.asarray(groups)
    dtype, grid = _rounding_grid(groups.dtype, mantissa_bits, rounding, noise_bits)
    if groups.dtype != dtype:
        groups = groups.astype(dtype)
        magnitudes = None
    shift = _scale_shifts(exponents, mantissa_bits, group_max)
    broadcast = _broadcastable(shift, dtype, 0, grid)
    if magnitudes is None:
        magnitudes = np.abs(groups)
    _times_pow2(magnitudes, shift + grid, broadcast)
    _round_magnitudes(magnitudes, mantissa_bits, rounding, grid, rng, noise_bits)
    signs = mantissas = None
    if return_packed:
        mantissas = magnitudes.astype(np.int64)
        signs = np.sign(groups).astype(np.int8)
        signs[mantissas == 0] = 0
    _restore_signs(magnitudes, groups)
    quantized = _times_pow2(magnitudes, np.negative(shift), broadcast)
    if profiler is not None:
        profiler.record("quantize_groups", time.perf_counter() - start,
                        quantized.size)
    return quantized, signs, mantissas


class GroupedTensor:
    """One tensor after grouping and the shared-exponent search (Figure 4a).

    The shared exponents do not depend on the mantissa width, so a grouped
    tensor can be quantized at several widths -- and with different rounding
    modes -- from one grouping and one ``|x|``/group-max/exponent pass.  This
    is how the hardware converter produces both the 2- and 4-bit results of
    a tensor from one conversion (Section V-D).

    ``groups`` may be a view of the caller's tensor or of a layout's padded
    workspace, so a ``GroupedTensor`` is valid until the next grouping
    through the same :class:`GroupedLayout`.
    """

    __slots__ = ("shape", "dtype", "axis", "groups", "pad", "moved_shape",
                 "group_max", "exponents")

    def __init__(self, x, group_size: int, exponent_bits: Optional[int] = 8,
                 axis: int = -1, layout: Optional[GroupedLayout] = None):
        x = np.asarray(x)
        self.shape = x.shape
        self.dtype = grouping_dtype(x)
        self.axis = axis
        self.groups, self.pad, self.moved_shape = resolve_groups(
            x, group_size, axis=axis, layout=layout)
        self.group_max = _fold_group_max(np.abs(self.groups))
        self.exponents = _exponents_from_group_max(self.group_max, exponent_bits)

    def quantize(self, mantissa_bits: int, rounding: str = "nearest", rng=None,
                 noise_bits: Optional[int] = 8) -> np.ndarray:
        """Quantized groups at ``mantissa_bits`` (see :func:`quantize_groups`)."""
        quantized, _, _ = quantize_groups(
            self.groups, self.exponents, mantissa_bits, rounding, rng=rng,
            noise_bits=noise_bits, group_max=self.group_max)
        return quantized

    def nearest_magnitudes(self, low_bits: int, high_bits: int):
        """``|quantize(low_bits)|`` and ``|quantize(high_bits)|`` from one
        scaled pass.

        The scaled magnitudes at ``high_bits`` are those at ``low_bits``
        times ``2**(high_bits - low_bits)``, which is exact, so one
        ``|x| * 2**shift`` pass feeds both roundings.  The results are
        unsigned; :meth:`restore_signs` turns either into its
        :meth:`quantize` result.
        """
        profiler = _PROFILER
        start = time.perf_counter() if profiler is not None else 0.0
        dtype, grid = _rounding_grid(self.groups.dtype, high_bits, RoundingMode.NEAREST, None)
        rise = high_bits - low_bits
        shift = _scale_shifts(self.exponents, low_bits, self.group_max)
        broadcast = _broadcastable(shift, dtype, 0, grid, rise)
        low = np.abs(self.groups, dtype=dtype)
        _times_pow2(low, shift + grid, broadcast)
        high = low * dtype.type(2.0 ** rise)
        _round_magnitudes(low, low_bits, RoundingMode.NEAREST, grid)
        _round_magnitudes(high, high_bits, RoundingMode.NEAREST, grid)
        _times_pow2(low, np.negative(shift), broadcast)
        _times_pow2(high, np.negative(shift + rise), broadcast)
        if profiler is not None:
            profiler.record("quantize_groups", time.perf_counter() - start, 2 * low.size)
        return low, high

    def restore_signs(self, magnitudes: np.ndarray) -> np.ndarray:
        """Give unsigned quantized groups the signs of the tensor's values."""
        return _restore_signs(magnitudes, self.groups.astype(magnitudes.dtype, copy=False))

    def ungroup(self, quantized: np.ndarray) -> np.ndarray:
        """Quantized groups back in the tensor's shape and floating dtype."""
        result = ungroup_values(quantized, self.pad, self.moved_shape, axis=self.axis)
        return result.reshape(self.shape).astype(self.dtype, copy=False)


def bfp_quantize_fast(
    x,
    mantissa_bits: int = 4,
    group_size: int = 16,
    exponent_bits: Optional[int] = 8,
    rounding: str = "nearest",
    axis: int = -1,
    rng=None,
    noise_bits: Optional[int] = 8,
    layout: Optional[GroupedLayout] = None,
) -> np.ndarray:
    """Fast-path fake quantization (same contract as the reference ``BFP(X, m)``).

    ``layout`` may pass a :class:`GroupedLayout` for the input's exact
    ``(shape, dtype, axis, group_size)``; when omitted one is fetched from the
    default :class:`LayoutCache` so repeated conversions of
    same-shaped tensors -- the per-iteration W/A/G pattern of training --
    skip layout re-derivation and reuse the padded-grouping workspace.
    """
    profiler = _PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    x = np.asarray(x)
    groups, pad, moved_shape = resolve_groups(x, group_size, axis=axis, layout=layout)
    magnitudes = np.abs(groups)
    group_max = _fold_group_max(magnitudes)
    exponents = _exponents_from_group_max(group_max, exponent_bits)
    quantized, _, _ = quantize_groups(
        groups, exponents, mantissa_bits, rounding,
        rng=rng, noise_bits=noise_bits, magnitudes=magnitudes, group_max=group_max,
    )
    result = ungroup_values(quantized, pad, moved_shape, axis=axis)
    result = result.reshape(x.shape).astype(grouping_dtype(x), copy=False)
    if profiler is not None:
        profiler.record("bfp_quantize_fast", time.perf_counter() - start,
                        result.size)
    return result
