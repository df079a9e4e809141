"""Golden models the fast paths are checked against; only tests and
benchmarks import this module (repro-lint RL007).

It keeps the seed BFP pipeline and the per-group fMAC walk verbatim, plus
the training step's ops as they ran before its fast path, each with the
signature of the :mod:`repro.nn.functional` op (or of
:func:`repro.core.kernels.resolve_groups`) it stands in for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core.bfp import BFPTensor, group_values
from .core.chunks import decompose_mantissas, passes_required
from .core.kernels import MIN_EXPONENT
from .core.rounding import apply_rounding
from .hardware.fmac import FMACResult
from .nn import functional as F
from .nn.tensor import Tensor, as_tensor, concat

__all__ = [
    "group_values_reference", "ungroup_values_reference", "shared_exponents_reference",
    "quantize_groups_reference", "bfp_quantize_reference", "fmac_group_dot",
    "fmac_dot_product_reference",
    "resolve_groups", "im2col_indices", "col2im", "conv2d", "max_pool2d", "relu_max_pool2d",
    "avg_pool2d",
]


# --------------------------------------------------------------------------- #
# The seed BFP pipeline and fMAC walk
# --------------------------------------------------------------------------- #
def group_values_reference(x: np.ndarray, group_size: int, axis: int = -1):
    """Seed grouping: always upcasts to float64 and copies when padding."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x.reshape(1)
    moved = np.moveaxis(x, axis, -1)
    moved_shape = moved.shape
    length = moved_shape[-1]
    rows = moved.reshape(-1, length)
    pad = (-length) % group_size
    if pad:
        rows = np.concatenate([rows, np.zeros((rows.shape[0], pad), dtype=np.float64)],
                              axis=1)
    groups = rows.reshape(rows.shape[0], -1, group_size)
    return groups, pad, moved_shape


def ungroup_values_reference(groups: np.ndarray, pad: int, moved_shape, axis: int = -1) -> np.ndarray:
    """Invert :func:`group_values_reference`."""
    rows = groups.reshape(groups.shape[0], -1)
    if pad:
        rows = rows[:, :-pad]
    moved = rows.reshape(moved_shape)
    return np.moveaxis(moved, -1, axis)


def shared_exponents_reference(groups: np.ndarray, exponent_bits: Optional[int] = None) -> np.ndarray:
    """Seed exponent derivation via ``floor(log2(max |group|))``."""
    magnitudes = np.abs(groups)
    group_max = magnitudes.max(axis=-1)
    exponents = np.full(group_max.shape, MIN_EXPONENT, dtype=np.int64)
    nonzero = group_max > 0
    with np.errstate(divide="ignore"):
        exponents[nonzero] = np.floor(np.log2(group_max[nonzero])).astype(np.int64)
    if exponent_bits is not None and exponents.size and np.any(nonzero):
        window = (1 << exponent_bits) - 1
        top = int(exponents[nonzero].max())
        exponents[~nonzero] = min(MIN_EXPONENT, top)
        floor_exp = top - window
        exponents = np.maximum(exponents, floor_exp)
    return exponents


def quantize_groups_reference(
    groups: np.ndarray,
    exponents: np.ndarray,
    mantissa_bits: int,
    rounding: str,
    rng,
    noise_bits: Optional[int],
):
    """Seed quantization of grouped values; returns ``(quantized, signs, mantissas, scales)``."""
    scales = np.power(2.0, exponents.astype(np.float64) - (mantissa_bits - 1))
    scaled = groups / scales[..., None]
    rounded = apply_rounding(scaled, rounding, rng=rng, noise_bits=noise_bits)
    limit = (1 << mantissa_bits) - 1
    rounded = np.clip(rounded, -limit, limit)
    signs = np.sign(rounded).astype(np.int8)
    mantissas = np.abs(rounded).astype(np.int64)
    quantized = rounded * scales[..., None]
    return quantized, signs, mantissas, scales


def bfp_quantize_reference(
    x,
    mantissa_bits: int = 4,
    group_size: int = 16,
    exponent_bits: Optional[int] = 8,
    rounding: str = "nearest",
    axis: int = -1,
    rng=None,
    noise_bits: Optional[int] = 8,
) -> np.ndarray:
    """The seed ``bfp_quantize`` implementation, kept as the golden reference."""
    x = np.asarray(x)
    original_dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    groups, pad, moved_shape = group_values_reference(x, group_size, axis=axis)
    exponents = shared_exponents_reference(groups, exponent_bits)
    quantized, _, _, _ = quantize_groups_reference(
        groups, exponents, mantissa_bits, rounding, rng, noise_bits
    )
    result = ungroup_values_reference(quantized, pad, moved_shape, axis=axis)
    return result.reshape(x.shape).astype(original_dtype)


def fmac_group_dot(
    signs_a: np.ndarray,
    mantissas_a: np.ndarray,
    exponent_a: int,
    mantissa_bits_a: int,
    signs_b: np.ndarray,
    mantissas_b: np.ndarray,
    exponent_b: int,
    mantissa_bits_b: int,
    chunk_bits: int = 2,
) -> FMACResult:
    """Dot product of two BFP groups evaluated chunk-by-chunk (Figure 11).

    The scalar per-group fMAC golden model: the vectorized
    :func:`repro.hardware.fmac.fmac_dot_product` and
    :func:`repro.hardware.fmac.bfp_matmul` walk chunk pairs in its order.
    The group value of element ``i`` of operand A is
    ``sign_a[i] * mantissa_a[i] * 2**(exponent_a - (mantissa_bits_a - 1))``,
    and similarly for B; the result is the exact FP dot product of those
    values, produced the way the hardware produces it: one integer dot
    product per chunk pair, scaled by the chunk exponent offsets plus the sum
    of the two shared exponents.
    """
    signs_a = np.asarray(signs_a, dtype=np.int64)
    signs_b = np.asarray(signs_b, dtype=np.int64)
    chunks_a, offsets_a = decompose_mantissas(mantissas_a, mantissa_bits_a, chunk_bits)
    chunks_b, offsets_b = decompose_mantissas(mantissas_b, mantissa_bits_b, chunk_bits)

    # Scale factors that map integer mantissas to real values.
    scale_a = exponent_a - (mantissa_bits_a - 1)
    scale_b = exponent_b - (mantissa_bits_b - 1)
    # Chunk k of an m-bit mantissa holds bits worth 2**(m - (k+1)*chunk_bits).
    base_shift_a = mantissa_bits_a - chunk_bits
    base_shift_b = mantissa_bits_b - chunk_bits

    total = 0.0
    passes = 0
    for ka in range(chunks_a.shape[0]):
        for kb in range(chunks_b.shape[0]):
            partial = int(np.dot(signs_a * chunks_a[ka], signs_b * chunks_b[kb]))
            shift = (base_shift_a + offsets_a[ka]) + (base_shift_b + offsets_b[kb])
            total += partial * (2.0 ** (scale_a + scale_b + shift))
            passes += 1
    expected_passes = passes_required(mantissa_bits_a, mantissa_bits_b, chunk_bits)
    assert passes == expected_passes
    multiplications = passes * signs_a.size
    return FMACResult(value=total, passes=passes, multiplications=multiplications)


def fmac_dot_product_reference(a: BFPTensor, b: BFPTensor, chunk_bits: int = 2) -> FMACResult:
    """The original per-group Python walk, kept as the golden model.

    ``tests/hardware/test_fmac.py`` asserts :func:`fmac_dot_product` matches
    this loop bit-for-bit (value, passes and multiplication counts).
    """
    if a.shape != b.shape:
        raise ValueError("operands must have the same shape")
    if a.group_size != b.group_size:
        raise ValueError("operands must share a group size")
    signs_a = a.signs.reshape(-1, a.group_size)
    signs_b = b.signs.reshape(-1, b.group_size)
    mant_a = a.mantissas.reshape(-1, a.group_size)
    mant_b = b.mantissas.reshape(-1, b.group_size)
    exps_a = a.exponents.reshape(-1)
    exps_b = b.exponents.reshape(-1)

    total = 0.0
    passes = 0
    multiplications = 0
    for group in range(exps_a.size):
        result = fmac_group_dot(
            signs_a[group], mant_a[group], int(exps_a[group]), a.mantissa_bits,
            signs_b[group], mant_b[group], int(exps_b[group]), b.mantissa_bits,
            chunk_bits=chunk_bits,
        )
        total += result.value
        passes += result.passes
        multiplications += result.multiplications
    return FMACResult(value=total, passes=passes, multiplications=multiplications)


# --------------------------------------------------------------------------- #
# The training step before its fast path
# --------------------------------------------------------------------------- #
def resolve_groups(x, group_size: int, axis: int = -1, layout=None):
    """Grouping without the layout caches: ``layout`` is ignored and a fresh
    one is derived on every call."""
    return group_values(x, group_size, axis=axis)


def im2col_indices(input_shape, kernel_h: int, kernel_w: int, stride: int, padding: int):
    """Gather indices built afresh on every call (no memoization)."""
    _, channels, height, width = input_shape
    return F._build_im2col_indices(channels, height, width, kernel_h, kernel_w,
                                   stride, padding)


def col2im(cols, input_shape, kernel_h: int, kernel_w: int, stride: int,
           padding: int) -> np.ndarray:
    """Scatter columns back into image space with the unbuffered ``np.add.at``."""
    batch, channels, height, width = input_shape
    cols = np.asarray(cols)
    dtype = cols.dtype if np.issubdtype(cols.dtype, np.floating) else np.float64
    k, i, j, _, _ = im2col_indices(input_shape, kernel_h, kernel_w, stride, padding)
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding),
                      dtype=dtype)
    np.add.at(padded, (slice(None), k, i, j), cols)
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0,
           groups: int = 1) -> Tensor:
    """Convolution as ``np.einsum`` products over the ``(N, F, L)`` im2col
    matrix.  A grouped convolution runs each group on its own and
    concatenates the outputs along the channel axis."""
    x, weight = as_tensor(x), as_tensor(weight)
    if groups > 1:
        cin, cout = x.shape[1] // groups, weight.shape[0] // groups
        return concat([conv2d(x[:, g * cin:(g + 1) * cin], weight[g * cout:(g + 1) * cout],
                              None if bias is None else bias[g * cout:(g + 1) * cout],
                              stride, padding) for g in range(groups)], axis=1)
    batch = x.shape[0]
    out_channels, _, kernel_h, kernel_w = weight.shape
    k, i, j, out_h, out_w = im2col_indices(x.shape, kernel_h, kernel_w, stride, padding)
    cols = F._gather_patches(x.data, k, i, j, padding)
    out_data = np.einsum("of,nfl->nol", weight.data.reshape(out_channels, -1), cols)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1)

    def backward(grad):
        grad_matrix = grad.reshape(batch, out_channels, -1)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_matrix.sum(axis=(0, 2)))
        if weight.requires_grad:
            grad_weight = np.einsum("nol,nfl->of", grad_matrix, cols)
            weight._accumulate(grad_weight.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("of,nol->nfl", weight.data.reshape(out_channels, -1),
                                  grad_matrix)
            x._accumulate(col2im(grad_cols, x.shape, kernel_h, kernel_w, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data.reshape(batch, out_channels, out_h, out_w), parents,
                        backward, "conv2d")


def max_pool2d(x, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling through im2col for every window geometry: ``argmax``'s
    first-winner rule, which the strided route must reproduce."""
    stride = kernel_size if stride is None else stride
    return F._max_pool2d_im2col(as_tensor(x), kernel_size, stride)


def relu_max_pool2d(x, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """ReLU, then :func:`max_pool2d`: the composition the fused op folds."""
    return max_pool2d(as_tensor(x).relu(), kernel_size, stride)


def avg_pool2d(x, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling through im2col for every window geometry."""
    stride = kernel_size if stride is None else stride
    return F._avg_pool2d_im2col(as_tensor(x), kernel_size, stride)
