"""Functional neural-network operations built on :class:`~repro.nn.tensor.Tensor`.

Contains the structured operations that need dedicated backward rules
(convolution, pooling, embedding lookup, dropout) plus the two quantization
hooks used by the fake-quantized training substrate:

* :func:`fake_quantize` -- replaces the forward values with their quantized
  counterparts and passes gradients straight through (the straight-through
  estimator used for weights and activations).
* :func:`quantize_gradient` -- identity on the forward pass but quantizes the
  *incoming gradient* on the backward pass, which models the BFP conversion
  of the output gradient ``∇O`` before it is used to compute ``∇A`` and
  ``∇W`` (Figure 3 / Figure 16).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor

__all__ = [
    "im2col_indices",
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_infer",
    "max_pool2d",
    "max_pool2d_infer",
    "avg_pool2d",
    "avg_pool2d_infer",
    "embedding",
    "dropout",
    "fake_quantize",
    "quantize_gradient",
    "one_hot",
    "linear",
    "clear_im2col_cache",
    "set_profiler",
]

#: Observability hook, same contract as ``repro.core.kernels._PROFILER``:
#: ``None`` keeps the GEMM/im2col hot paths on their pre-existing code path
#: (one global load + branch, zero allocations); installed/removed by
#: :mod:`repro.observability`.
_PROFILER = None


def set_profiler(profiler) -> object:
    """Install (or with ``None`` remove) the profiler; returns the previous."""
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


# --------------------------------------------------------------------------- #
# im2col-based convolution
# --------------------------------------------------------------------------- #
#: Memoized gather-index arrays keyed on the convolution geometry.  Layer
#: geometry is fixed across a training run, so each layer derives its
#: (k, i, j) arrays once instead of on every im2col/col2im call.
_IM2COL_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_IM2COL_CACHE_MAX = 256


def clear_im2col_cache() -> None:
    """Drop all memoized gather *and* scatter index arrays."""
    _IM2COL_CACHE.clear()
    _SCATTER_CACHE.clear()


def _output_size(channels, height, width, kernel_h, kernel_w, stride, padding):
    """``(out_h, out_w)`` of a convolution or pooling window sweep."""
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty for input "
            f"(N, {channels}, {height}, {width}), "
            f"kernel ({kernel_h}, {kernel_w}), stride {stride}, padding {padding}"
        )
    return out_h, out_w


def _build_im2col_indices(channels, height, width, kernel_h, kernel_w, stride, padding):
    out_h, out_w = _output_size(channels, height, width, kernel_h, kernel_w, stride, padding)
    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for array in (k, i, j):
        array.flags.writeable = False
    return k, i, j, out_h, out_w


def im2col_indices(
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
):
    """Index arrays that gather convolution patches from a padded input.

    The arrays depend only on ``(C, H, W, kernel, stride, padding)`` -- not
    the batch size -- and are memoized on that key (returned read-only; do
    not mutate them).
    """
    _, channels, height, width = input_shape
    key = (channels, height, width, kernel_h, kernel_w, stride, padding)
    cached = _IM2COL_CACHE.get(key)
    if cached is not None:
        _IM2COL_CACHE.move_to_end(key)
        return cached
    entry = _build_im2col_indices(channels, height, width, kernel_h, kernel_w,
                                  stride, padding)
    _IM2COL_CACHE[key] = entry
    while len(_IM2COL_CACHE) > _IM2COL_CACHE_MAX:
        _IM2COL_CACHE.popitem(last=False)
    return entry


def _gather_patches(x: np.ndarray, k, i, j, padding: int) -> np.ndarray:
    """Gather convolution patches with precomputed indices."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return x[:, k, i, j]


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns: output (N, C*kh*kw, out_h*out_w)."""
    profiler = _PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    k, i, j, _, _ = im2col_indices(x.shape, kernel_h, kernel_w, stride, padding)
    cols = _gather_patches(x, k, i, j, padding)
    if profiler is not None:
        profiler.record("im2col", time.perf_counter() - start, cols.size)
    return cols


_SCATTER_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_SCATTER_CACHE_MAX = 64


def _scatter_indices(input_shape, kernel_h, kernel_w, stride, padding, k, i, j):
    """Flattened (C*kh*kw, out_h*out_w) scatter positions into the padded image."""
    _, channels, height, width = input_shape
    key = (channels, height, width, kernel_h, kernel_w, stride, padding)
    cached = _SCATTER_CACHE.get(key)
    if cached is not None:
        _SCATTER_CACHE.move_to_end(key)
        return cached
    padded_w = width + 2 * padding
    flat = (k * (height + 2 * padding) + i) * padded_w + j
    flat.flags.writeable = False
    _SCATTER_CACHE[key] = flat
    while len(_SCATTER_CACHE) > _SCATTER_CACHE_MAX:
        _SCATTER_CACHE.popitem(last=False)
    return flat


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter columns back into image space (adjoint of :func:`im2col`).

    The scatter is a single ``np.bincount`` over flattened positions, which
    is several times faster than the unbuffered ``np.add.at`` of the
    golden model (:func:`repro.reference.col2im`).  For float64 columns it
    is bit-identical to ``add.at``: both walk the same (index, value)
    sequence in the same order, so every output element accumulates its
    contributions identically.  The output dtype always matches the
    columns' floating dtype: ``np.bincount`` only accumulates in float64, so
    float32 columns are accumulated in float64 and rounded once at the end
    -- at least as accurate as the chained float32 adds of ``add.at``.
    """
    batch, channels, height, width = input_shape
    cols = np.asarray(cols)
    scatter_dtype = cols.dtype if np.issubdtype(cols.dtype, np.floating) else np.float64
    k, i, j, _, _ = im2col_indices(input_shape, kernel_h, kernel_w, stride, padding)
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    # One bincount per image over the memoized flat positions: batch images
    # scatter to disjoint outputs, so this equals (and walks values in the
    # same order as) a single offset scatter, without materializing a
    # batch-sized int64 positions array every backward pass.
    # ``cols`` may be a transposed view of the convolution's fat patch
    # matrix; bincount converts each image's (features, positions) block to
    # contiguous float64 itself.
    flat = _scatter_indices(input_shape, kernel_h, kernel_w, stride, padding, k, i, j)
    positions = flat.ravel()
    per_image = channels * padded_h * padded_w
    padded = np.empty((batch, per_image), dtype=np.float64)
    for image in range(batch):
        padded[image] = np.bincount(positions, weights=cols[image].reshape(-1),
                                    minlength=per_image)
    padded = padded.reshape(batch, channels, padded_h, padded_w)
    if padding:
        padded = padded[:, :, padding:-padding, padding:-padding]
    # Cropping first, so a float32 cast writes only the image (contiguous).
    return padded.astype(scatter_dtype, copy=False)


def _gather_fat(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int,
                out_h: int, out_w: int) -> np.ndarray:
    """Patch matrix in the fat ``(C*kh*kw, N*out_h*out_w)`` layout.

    Rows are ordered like :func:`im2col`'s (channel, kernel row, kernel
    column) and columns run over (image, output position), so each group of
    a grouped convolution is a contiguous block of rows.  One copy out of a
    strided window view -- no index arrays, no transpose of an
    ``(N, F, L)`` gather.
    """
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    batch, channels = x.shape[:2]
    windows = sliding_window_view(x, (kernel_h, kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride][:, :, :out_h, :out_w]
    fat = np.empty((channels, kernel_h, kernel_w, batch, out_h, out_w), dtype=x.dtype)
    np.copyto(fat, windows.transpose(1, 4, 5, 0, 2, 3))
    return fat.reshape(channels * kernel_h * kernel_w, batch * out_h * out_w)


def _conv2d_forward(
    x_data: np.ndarray,
    weight_data: np.ndarray,
    bias_data: Optional[np.ndarray],
    stride: int,
    padding: int,
    groups: int,
):
    """Pure-array convolution forward shared by autograd and serving.

    Returns ``(out_data, cols, out_h, out_w)``; ``cols`` is the patch matrix
    the backward pass contracts against.  The patch gather is recorded under
    the ``im2col`` kernel name.

    ``cols`` is the fat ``(features, batch*positions)`` matrix of
    :func:`_gather_fat` and the product is one ``(O, F) x (F, N*L)`` GEMM
    over the flattened (batch, position) axis instead of a batched matmul
    looping ``batch`` GEMM slices, which keeps BLAS in its efficient
    blocking regime.  Grouped convolutions use the same decomposition per
    group: a ``(groups, features, N*L)`` view of the fat matrix gives exactly
    the per-group blocks (the depthwise case, ``Og=1, F=k*k``, is
    pathological for a per-slice loop).  The golden model is the einsum
    convolution of :func:`repro.reference.conv2d`.
    """
    profiler = _PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    batch, channels, height, width = x_data.shape
    out_channels, in_per_group, kernel_h, kernel_w = weight_data.shape
    out_h, out_w = _output_size(channels, height, width, kernel_h, kernel_w, stride, padding)
    positions = out_h * out_w
    gather_start = time.perf_counter() if profiler is not None else 0.0
    cols = _gather_fat(x_data, kernel_h, kernel_w, stride, padding, out_h, out_w)
    if profiler is not None:
        profiler.record("im2col", time.perf_counter() - gather_start, cols.size)
    if groups == 1:
        out_data = np.matmul(weight_data.reshape(out_channels, -1), cols)
        out_data = out_data.reshape(out_channels, batch, positions).transpose(1, 0, 2)
    else:
        features = in_per_group * kernel_h * kernel_w
        out_per_group = out_channels // groups
        weight_grouped = weight_data.reshape(groups, out_per_group, features)
        out_data = np.matmul(weight_grouped, cols.reshape(groups, features, -1))
        out_data = (out_data.reshape(groups, out_per_group, batch, positions)
                    .transpose(2, 0, 1, 3).reshape(batch, out_channels, -1))
    if bias_data is not None:
        out_data = out_data + bias_data.reshape(1, -1, 1)
    out_data = out_data.reshape(batch, out_channels, out_h, out_w)
    if profiler is not None:
        profiler.record("conv2d_forward", time.perf_counter() - start,
                        out_data.size)
    return out_data, cols, out_h, out_w


def conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Grad-free convolution on plain arrays (the serving fast path).

    Runs the exact forward computation of :func:`conv2d` -- same patch
    gather, same matmul -- without building tensors or retaining the patch
    matrix for a backward pass.
    """
    out, _, _, _ = _conv2d_forward(np.asarray(x), np.asarray(weight),
                                   None if bias is None else np.asarray(bias),
                                   stride, padding, groups)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2D convolution (NCHW layout) implemented with im2col + matmul.

    The im2col/matmul decomposition is exactly the matrix view of Figure 3,
    which is also how the systolic array executes the layer, so the quantized
    training path sees the same matrix products as the hardware.  ``groups``
    runs a grouped convolution (depthwise when ``groups == channels``) as a
    single batched product over the group axis.

    The backward pass reuses the forward's fat patch matrix ``cols``
    (features x batch*positions): ``grad_W = grad @ colsᵀ`` and
    ``grad_cols = Wᵀ @ grad`` are one GEMM each (per group), with the output
    gradient brought into the same (channel, batch*position) layout once.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    batch = x.shape[0]
    out_channels, in_per_group, kernel_h, kernel_w = weight.shape
    if x.shape[1] != in_per_group * groups or out_channels % groups:
        raise ValueError(
            f"conv2d shape mismatch: input channels {x.shape[1]}, weight "
            f"{weight.shape}, groups {groups}"
        )
    out_data, cols, out_h, out_w = _conv2d_forward(
        x.data, weight.data, None if bias is None else bias.data,
        stride, padding, groups)
    input_shape = x.shape
    out_per_group = out_channels // groups
    features = in_per_group * kernel_h * kernel_w
    positions = out_h * out_w

    def backward(grad):
        grad_matrix = grad.reshape(batch, groups, out_per_group, positions)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_matrix.sum(axis=(0, 3)).reshape(-1), owned=True)
        # (groups, Og, batch*positions): the output gradient in the fat layout.
        grad_fat = grad_matrix.transpose(1, 2, 0, 3).reshape(groups, out_per_group, -1)
        if weight.requires_grad:
            grad_weight = np.matmul(grad_fat, cols.reshape(groups, features, -1)
                                    .transpose(0, 2, 1))
            weight._accumulate(grad_weight.reshape(weight.shape), owned=True)
        if x.requires_grad:
            grad_cols = np.matmul(weight.data.reshape(groups, out_per_group, features)
                                  .transpose(0, 2, 1), grad_fat)
            # col2im takes (batch, features, positions): a transposed view.
            grad_cols = grad_cols.reshape(-1, batch, positions).transpose(1, 0, 2)
            x._accumulate(col2im(grad_cols, input_shape, kernel_h, kernel_w, stride, padding),
                          owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward, "conv2d")


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def _pool_uses_reshape(height: int, width: int, kernel_size: int, stride: int) -> bool:
    """Whether the windows tile the input, so the strided route applies.

    Overlapping or ragged windows need the im2col route.
    """
    return stride == kernel_size and height % kernel_size == 0 and width % kernel_size == 0


def _pool_cols(x_data: np.ndarray, kernel_size: int, stride: int):
    """im2col patch matrix for (possibly overlapping) pooling windows."""
    batch, channels, height, width = x_data.shape
    folded = x_data.reshape(batch * channels, 1, height, width)
    k, i, j, out_h, out_w = im2col_indices(folded.shape, kernel_size, kernel_size, stride, 0)
    return _gather_patches(folded, k, i, j, 0), folded.shape, out_h, out_w


def _max_pool_windows(x: np.ndarray, kernel_size: int):
    """Non-overlapping max pooling with argmax's first-winner rule.

    Returns ``(out, winners)``: ``winners[t]`` marks the windows whose
    winner is window element ``t`` (row-major in the window, the im2col
    row order).  The winner is the element ``argmax`` picks -- the first
    one equal to the peak, or the first NaN -- so signed zeros and NaN
    payloads come out as argmax's.  ``out`` is assembled from the winners'
    bit patterns (a product with a 0/1 mask is exact), with no tie path.
    """
    batch, channels, height, width = x.shape
    window = kernel_size * kernel_size
    stack = np.empty((window, batch, channels, height // kernel_size, width // kernel_size),
                     dtype=x.dtype)
    for t in range(window):
        stack[t] = x[:, :, t // kernel_size::kernel_size, t % kernel_size::kernel_size]
    peak = np.maximum.reduce(stack)
    has_nan = bool(np.isnan(peak).any())
    winners = np.empty(stack.shape, dtype=bool)
    taken = np.zeros(peak.shape, dtype=bool)
    bits = np.dtype(f"u{x.dtype.itemsize}")
    stack_bits = stack.view(bits)
    out_bits = np.zeros(peak.shape, dtype=bits)
    for t, element in enumerate(stack):
        hit = element == peak
        if has_nan:
            hit |= np.isnan(element)
        np.greater(hit, taken, out=winners[t])
        taken |= hit
        out_bits |= stack_bits[t] * winners[t]
    return out_bits.view(x.dtype), winners


def max_pool2d_infer(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    """Grad-free max pooling on plain arrays: the forward of :func:`max_pool2d`."""
    return max_pool2d(Tensor(x), kernel_size, stride).data


def avg_pool2d_infer(x: np.ndarray, kernel_size: int, stride: Optional[int] = None) -> np.ndarray:
    """Grad-free average pooling on plain arrays: the forward of :func:`avg_pool2d`."""
    return avg_pool2d(Tensor(x), kernel_size, stride).data


def max_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over square windows (NCHW layout).

    Non-overlapping pooling (``stride == kernel_size``, dimensions divisible)
    takes a strided route: the ``kernel*kernel`` window elements are
    strided views of the input, reduced with ``np.maximum``, and the backward
    pass scatters the gradient through first-winner masks taken in window
    order (:func:`_max_pool_windows`).  That is the element ``argmax`` picks
    on the im2col route -- ties, signed zeros and NaN included -- so outputs
    and gradients are bit-identical between the two routes.
    """
    x = as_tensor(x)
    stride = stride if stride is not None else kernel_size
    if _pool_uses_reshape(*x.shape[2:], kernel_size, stride):
        out_data, winners = _max_pool_windows(x.data, kernel_size)

        def backward(grad):
            if not x.requires_grad:
                return
            # Each input is in exactly one window: its winner receives the
            # gradient's bits (a product with a 0/1 mask is exact, NaN and
            # -0.0 included), every other input +0.0.
            bits = np.dtype(f"u{out_data.dtype.itemsize}")
            grad_bits = np.asarray(grad, dtype=out_data.dtype).view(bits)
            grad_x = np.empty(x.shape, dtype=out_data.dtype)
            grad_x_bits = grad_x.view(bits)
            for t, winner in enumerate(winners):
                di, dj = divmod(t, kernel_size)
                np.multiply(grad_bits, winner,
                            out=grad_x_bits[:, :, di::kernel_size, dj::kernel_size])
            x._accumulate(grad_x, owned=True)

        return Tensor._make(out_data, (x,), backward, "max_pool2d")
    return _max_pool2d_im2col(x, kernel_size, stride)


def _max_pool2d_im2col(x: Tensor, kernel_size: int, stride: int) -> Tensor:
    """Max pooling through an im2col patch matrix (any window geometry)."""
    batch, channels = x.shape[:2]
    cols, folded_shape, out_h, out_w = _pool_cols(x.data, kernel_size, stride)
    max_idx = cols.argmax(axis=1)
    out_data = np.take_along_axis(cols, max_idx[:, None, :], axis=1)[:, 0, :]
    out_data = out_data.reshape(batch, channels, out_h, out_w)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, 1, -1)
        grad_cols = np.zeros_like(cols)
        np.put_along_axis(grad_cols, max_idx[:, None, :], grad_flat, axis=1)
        grad_x = col2im(grad_cols, folded_shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(grad_x.reshape(x.shape), owned=True)

    return Tensor._make(out_data, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over square windows (NCHW layout).

    Non-overlapping pooling takes the same reshape-based route as
    :func:`max_pool2d`: the window mean reduces the contiguous last axis, and
    the backward pass spreads ``grad / window`` by the inverse reshape
    instead of an im2col scatter.  The backward map is bit-identical to the
    im2col route (each input receives exactly one ``grad / window``
    contribution either way); the forward mean agrees to reduction-order
    rounding error -- NumPy's pairwise reduction visits the same elements
    but may pair them differently across memory layouts -- and is exact for
    power-of-two windows.
    """
    x = as_tensor(x)
    stride = stride if stride is not None else kernel_size
    batch, channels, height, width = x.shape
    if _pool_uses_reshape(height, width, kernel_size, stride):
        window = kernel_size * kernel_size
        out_h, out_w = height // kernel_size, width // kernel_size
        # (batch, channels, out_h, out_w, window): the window elements in the
        # im2col route's row-major order along the last axis.
        windows = (x.data.reshape(batch, channels, out_h, kernel_size, out_w, kernel_size)
                   .transpose(0, 1, 2, 4, 3, 5).reshape(batch, channels, out_h, out_w, window))
        out_data = windows.mean(axis=-1)

        def backward(grad):
            if not x.requires_grad:
                return
            spread = np.broadcast_to((grad / window)[..., None], windows.shape)
            grad_x = (
                spread.reshape(batch, channels, out_h, out_w, kernel_size, kernel_size)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(x.shape)
            )
            x._accumulate(np.ascontiguousarray(grad_x), owned=True)

        return Tensor._make(out_data, (x,), backward, "avg_pool2d")
    return _avg_pool2d_im2col(x, kernel_size, stride)


def _avg_pool2d_im2col(x: Tensor, kernel_size: int, stride: int) -> Tensor:
    """Average pooling through an im2col patch matrix (any window geometry)."""
    batch, channels = x.shape[:2]
    window = kernel_size * kernel_size
    cols, folded_shape, out_h, out_w = _pool_cols(x.data, kernel_size, stride)
    out_data = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_flat = grad.reshape(batch * channels, 1, -1)
        grad_cols = np.broadcast_to(grad_flat / window, cols.shape).copy()
        grad_x = col2im(grad_cols, folded_shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(grad_x.reshape(x.shape), owned=True)

    return Tensor._make(out_data, (x,), backward, "avg_pool2d")


# --------------------------------------------------------------------------- #
# Embedding, dropout, one-hot, linear
# --------------------------------------------------------------------------- #
def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` by integer ``indices`` (any shape)."""
    weight = as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = weight.data[indices]

    def backward(grad):
        if weight.requires_grad:
            grad_weight = np.zeros_like(weight.data)
            np.add.at(grad_weight, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
            weight._accumulate(grad_weight, owned=True)

    return Tensor._make(out_data, (weight,), backward, "embedding")


def dropout(x: Tensor, p: float, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout: zero a fraction ``p`` of values and rescale the rest.

    The mask is built in the input's floating dtype so float32 activation
    pipelines are not silently upcast to float64 by the multiply.
    """
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng
    dtype = x.data.dtype if np.issubdtype(x.data.dtype, np.floating) else np.float64
    mask = (rng.random(x.shape) >= p).astype(dtype)
    mask *= 1.0 / (1.0 - p)
    out_data = x.data * mask

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask, owned=True)

    return Tensor._make(out_data, (x,), backward, "dropout")


def one_hot(indices: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """One-hot encode integer class indices.

    ``dtype`` selects the floating dtype of the encoding; losses pass their
    logits dtype so float32 pipelines are not upcast by the target tensor.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    encoded = np.zeros((indices.size, num_classes), dtype=dtype)
    encoded[np.arange(indices.size), indices] = 1.0
    return encoded


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (PyTorch weight layout)."""
    profiler = _PROFILER
    start = time.perf_counter() if profiler is not None else 0.0
    out = as_tensor(x) @ as_tensor(weight).swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    if profiler is not None:
        profiler.record("linear", time.perf_counter() - start, out.data.size)
    return out


# --------------------------------------------------------------------------- #
# Quantization hooks
# --------------------------------------------------------------------------- #
def fake_quantize(x: Tensor, quantize_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Quantize the forward values, pass gradients straight through.

    This is the standard straight-through estimator used for quantized
    weights and activations: the matrix products see quantized values while
    the full-precision master copy keeps receiving exact gradients.
    """
    x = as_tensor(x)
    out_data = quantize_fn(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad)

    return Tensor._make(out_data, (x,), backward, "fake_quantize")


def quantize_gradient(x: Tensor, quantize_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """Identity forward; quantize the incoming gradient during backward.

    Inserted at a layer's output so that the output gradient ``∇O`` is
    BFP-quantized before it drives the two backward-pass matrix products of
    Figure 3, which is where the FAST hardware applies the BFP converter.
    """
    x = as_tensor(x)
    out_data = x.data

    def backward(grad):
        if x.requires_grad:
            quantized = quantize_fn(grad)
            # An identity scheme hands the incoming gradient back.
            x._accumulate(quantized, owned=not np.may_share_memory(quantized, grad))

    return Tensor._make(out_data, (x,), backward, "quantize_gradient")
