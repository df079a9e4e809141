"""Mantissa chunk decomposition for variable-precision fMAC operation.

The fMAC (Section V-B, Figure 13) operates on fixed-width chunks of the BFP
mantissas -- 2 bits in the paper.  An ``m``-bit mantissa is split into
``m / 2`` chunks from most significant to least significant; the k-th chunk
carries an implicit exponent offset of ``-2 * k`` relative to the group's
shared exponent, applied by the BFP converter so that the fMAC itself stays
agnostic to chunk position.

Multiplying a pair of BFP groups with ``mx``-bit and ``my``-bit mantissas
therefore takes ``(mx / 2) * (my / 2)`` fMAC passes, which is the mechanism
behind FAST's variable-precision speedup.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "decompose_mantissas",
    "reconstruct_mantissas",
    "num_chunks",
    "bits_per_group",
    "passes_required",
]

#: Width of the mantissa chunks processed by one fMAC pass.
DEFAULT_CHUNK_BITS = 2


def num_chunks(mantissa_bits: int, chunk_bits: int = DEFAULT_CHUNK_BITS) -> int:
    """Number of chunks needed to hold an ``mantissa_bits``-wide mantissa."""
    if mantissa_bits < 1:
        raise ValueError("mantissa_bits must be >= 1")
    if chunk_bits < 1:
        raise ValueError("chunk_bits must be >= 1")
    return -(-mantissa_bits // chunk_bits)


def bits_per_group(exponent_bits: int, group_size: int, mantissa_bits: int,
                   chunk_bits: int = DEFAULT_CHUNK_BITS) -> int:
    """Storage bits for one BFP group under the chunked layout of Figure 15:
    the shared exponent plus, per value, one sign bit with every chunk."""
    return exponent_bits + group_size * num_chunks(mantissa_bits, chunk_bits) * (chunk_bits + 1)


def passes_required(
    mantissa_bits_a: int,
    mantissa_bits_b: int,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> int:
    """fMAC passes needed to multiply two mantissas of the given widths.

    For the paper's 2-bit chunks: (2, 2) -> 1 pass, (4, 2) -> 2 passes,
    (4, 4) -> 4 passes.
    """
    return num_chunks(mantissa_bits_a, chunk_bits) * num_chunks(mantissa_bits_b, chunk_bits)


def decompose_mantissas(
    mantissas: np.ndarray,
    mantissa_bits: int,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
):
    """Split unsigned mantissas into chunks, most significant chunk first.

    Parameters
    ----------
    mantissas:
        Array of unsigned mantissa magnitudes, each ``< 2**mantissa_bits``.
    mantissa_bits:
        Width of the mantissas being decomposed.
    chunk_bits:
        Width of each chunk (2 in the paper).

    Returns
    -------
    chunks:
        Integer array with a new leading axis of length ``num_chunks``; entry
        ``chunks[k]`` holds the k-th most significant chunk of every mantissa.
    offsets:
        List of exponent offsets (``0, -chunk_bits, -2*chunk_bits, ...``), one
        per chunk, to be applied by the BFP converter.
    """
    mantissas = np.asarray(mantissas, dtype=np.int64)
    if mantissas.size and mantissas.min() < 0:
        raise ValueError("mantissas must be unsigned magnitudes")
    if mantissas.size and mantissas.max() >= (1 << mantissa_bits):
        raise ValueError(
            f"mantissa value {int(mantissas.max())} does not fit in {mantissa_bits} bits"
        )
    count = num_chunks(mantissa_bits, chunk_bits)
    total_bits = count * chunk_bits
    chunk_mask = (1 << chunk_bits) - 1
    # One broadcast shift extracts every chunk of every mantissa at once
    # (most significant chunk first).
    shifts = total_bits - (np.arange(count, dtype=np.int64) + 1) * chunk_bits
    shifts = shifts.reshape((count,) + (1,) * mantissas.ndim)
    chunks = (mantissas[None, ...] >> shifts) & chunk_mask
    offsets = [-(k * chunk_bits) for k in range(count)]
    return chunks, offsets


def reconstruct_mantissas(
    chunks: np.ndarray,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> np.ndarray:
    """Reassemble mantissas from chunks produced by :func:`decompose_mantissas`."""
    chunks = np.asarray(chunks, dtype=np.int64)
    count = chunks.shape[0]
    shifts = (np.arange(count - 1, -1, -1, dtype=np.int64) * chunk_bits)
    shifts = shifts.reshape((count,) + (1,) * (chunks.ndim - 1))
    return np.bitwise_or.reduce(chunks << shifts, axis=0)
