"""Functional model of the FAST MAC (fMAC) of Figures 11 and 13.

The fMAC computes the dot product between two BFP groups.  Mantissas are
processed in fixed-width chunks (2 bits in the paper); multiplying operands
with ``mx``- and ``my``-bit mantissas takes ``(mx/2) * (my/2)`` passes, with
the BFP converter pre-decrementing the exponent of lower-order chunks so the
fMAC stays agnostic to chunk position.

This model is bit-exact with respect to the packed :class:`BFPTensor`
representation (the chunked evaluation reproduces the direct integer dot
product exactly) and also reports the pass count, which the performance model
of Figure 19/20 uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.bfp import BFPTensor, bfp_quantize_tensor
from ..core.chunks import decompose_mantissas, num_chunks, passes_required

__all__ = [
    "FMACResult",
    "fmac_dot_product",
    "bfp_matmul",
]


@dataclass
class FMACResult:
    """Value and cost of one fMAC group dot product."""

    value: float
    passes: int
    multiplications: int


def _chunk_pair_accumulate(mantissas_a, signs_a, mantissa_bits_a,
                           mantissas_b, signs_b, mantissa_bits_b,
                           chunk_bits, base, subscripts):
    """Per-group accumulator of the vectorized chunk-pair evaluation.

    Shared by :func:`fmac_dot_product` and :func:`bfp_matmul`: one integer
    einsum per chunk pair, each partial scaled by ``base * 2**shift`` and
    accumulated chunk-pairs-first.  Within every output element this walks
    chunk pairs in exactly the order of the scalar
    :func:`repro.reference.fmac_group_dot` loop, which is what keeps both
    callers bit-identical to it.  ``base`` carries the per-group
    ``2**(e_a + e_b - (m_a-1) - (m_b-1))`` scale in the accumulator's shape.
    """
    chunks_a, offsets_a = decompose_mantissas(mantissas_a, mantissa_bits_a, chunk_bits)
    chunks_b, offsets_b = decompose_mantissas(mantissas_b, mantissa_bits_b, chunk_bits)
    signed_a = chunks_a * signs_a[None]
    signed_b = chunks_b * signs_b[None]
    base_shift = (mantissa_bits_a - chunk_bits) + (mantissa_bits_b - chunk_bits)
    accumulator = np.zeros(base.shape)
    for ka in range(chunks_a.shape[0]):
        for kb in range(chunks_b.shape[0]):
            partial = np.einsum(subscripts, signed_a[ka], signed_b[kb]).astype(np.float64)
            shift = base_shift + offsets_a[ka] + offsets_b[kb]
            accumulator += partial * (base * (2.0 ** shift))
    return accumulator


def fmac_dot_product(a: BFPTensor, b: BFPTensor, chunk_bits: int = 2) -> FMACResult:
    """Dot product of two BFP-quantized vectors spanning one or more groups.

    Both tensors must be 1-D with identical length and group size; the FP
    accumulation across groups mirrors the accumulator of Figure 11.

    Evaluated with the same vectorized chunk-pair einsum as
    :func:`bfp_matmul`: one integer contraction per chunk pair over all
    groups replaces the per-group Python loop.  Each group's partial sums
    accumulate over chunk pairs first and groups second -- exactly the order
    of the scalar :func:`repro.reference.fmac_group_dot` walk (the golden
    model :func:`repro.reference.fmac_dot_product_reference`), so the result
    is bit-identical.
    """
    if a.shape != b.shape:
        raise ValueError("operands must have the same shape")
    if a.group_size != b.group_size:
        raise ValueError("operands must share a group size")
    signs_a = a.signs.reshape(-1, a.group_size).astype(np.int64)
    signs_b = b.signs.reshape(-1, b.group_size).astype(np.int64)
    mant_a = a.mantissas.reshape(-1, a.group_size)
    mant_b = b.mantissas.reshape(-1, b.group_size)
    exps_a = a.exponents.reshape(-1)
    exps_b = b.exponents.reshape(-1)

    scale_sum = exps_a + exps_b - (a.mantissa_bits - 1) - (b.mantissa_bits - 1)
    base = np.power(2.0, scale_sum)                           # (G,), exact powers of two
    accumulator = _chunk_pair_accumulate(
        mant_a, signs_a, a.mantissa_bits, mant_b, signs_b, b.mantissa_bits,
        chunk_bits, base, "gk,gk->g",
    )
    total = 0.0
    for value in accumulator:
        total += float(value)
    per_group_passes = passes_required(a.mantissa_bits, b.mantissa_bits, chunk_bits)
    passes = per_group_passes * int(exps_a.size)
    multiplications = passes * a.group_size
    return FMACResult(value=total, passes=passes, multiplications=multiplications)


def bfp_matmul(a: np.ndarray, b: np.ndarray, mantissa_bits_a: int = 4, mantissa_bits_b: int = 4,
               group_size: int = 16, exponent_bits: int = 8,
               chunk_bits: int = 2) -> Tuple[np.ndarray, int]:
    """Matrix product with both operands BFP-quantized, evaluated via fMACs.

    Quantizes ``a`` (shape M x K, grouped along K) and ``b`` (shape K x N,
    grouped along K) and computes ``a_q @ b_q`` one group dot product at a
    time.  Returns ``(product, total_passes)``.  Intended for verification
    and small benchmarks -- it is a functional model, not a fast kernel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("expected 2-D operands with matching inner dimension")
    rows, inner = a.shape
    cols = b.shape[1]
    a_q = bfp_quantize_tensor(a, mantissa_bits=mantissa_bits_a, group_size=group_size,
                              exponent_bits=exponent_bits, axis=1)
    b_q = bfp_quantize_tensor(b.T, mantissa_bits=mantissa_bits_b, group_size=group_size,
                              exponent_bits=exponent_bits, axis=1)

    # Vectorized chunked evaluation: one integer einsum per chunk pair over
    # all (row, col, group) triples replaces the per-group Python loop of
    # repro.reference.fmac_group_dot.  The accumulation order (chunk pairs
    # first, then groups) matches that scalar golden model exactly, so the
    # result is bit-identical.
    groups_per_row = a_q.exponents.shape[1]
    scale_sum = (a_q.exponents[:, None, :] + b_q.exponents[None, :, :]
                 - (mantissa_bits_a - 1) - (mantissa_bits_b - 1))
    base = np.power(2.0, scale_sum)                          # (rows, cols, G), exact powers of two
    accumulator = _chunk_pair_accumulate(
        a_q.mantissas, a_q.signs.astype(np.int64), mantissa_bits_a,
        b_q.mantissas, b_q.signs.astype(np.int64), mantissa_bits_b,
        chunk_bits, base, "igk,jgk->ijg",
    )
    result = np.zeros((rows, cols))
    for g in range(groups_per_row):
        result += accumulator[..., g]
    total_passes = rows * cols * groups_per_row * passes_required(
        mantissa_bits_a, mantissa_bits_b, chunk_bits
    )
    return result, total_passes
