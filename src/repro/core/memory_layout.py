"""BFP memory layout model (Section V-D, Figure 15).

The FAST system stores the shared exponent and the mantissas of a BFP group
separately.  Mantissas are split into 2-bit chunks, and the k-th chunks of
all mantissas in a group are packed into the same memory word so that one
fMAC pass can stream one word per group.  Each mantissa also carries a sign
bit, so a 2-bit chunk occupies 3 stored bits.

Total bits per group: ``e + g * (m / 2) * 3``.  With the paper's hardware
parameters (``e = 3``, ``g = 16``) this gives 3.19 bits per value for m=2 and
6.19 bits per value for m=4 (reported as "3.2" and "6.2" in the paper).

This module provides the bit accounting used by the SRAM sizing model and a
functional pack/unpack pair that mirrors the word layout, which the tests use
to check that the layout is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .bfp import BFPConfig, BFPTensor
from .chunks import bits_per_group, decompose_mantissas, reconstruct_mantissas

__all__ = [
    "BFPMemoryLayout",
    "bits_per_group",
    "bits_per_value",
    "pack_group",
    "unpack_group",
    "compact_bfp_arrays",
    "restore_bfp_tensor",
]


def bits_per_value(exponent_bits: int, group_size: int, mantissa_bits: int, chunk_bits: int = 2) -> float:
    """Average storage bits per value (the 3.2 / 6.2 figures of Section V-D)."""
    return bits_per_group(exponent_bits, group_size, mantissa_bits, chunk_bits) / group_size


def pack_group(
    signs: np.ndarray,
    mantissas: np.ndarray,
    exponent: int,
    mantissa_bits: int,
    chunk_bits: int = 2,
) -> Dict[str, object]:
    """Pack one BFP group into the word-oriented layout of Figure 15.

    Returns a dictionary with the exponent entry and a list of mantissa-memory
    words, one per chunk position.  Each word is a list of ``(sign_bit,
    chunk_value)`` pairs in group order, matching how the hardware streams a
    chunk of every mantissa in one access.
    """
    signs = np.asarray(signs).reshape(-1)
    mantissas = np.asarray(mantissas).reshape(-1)
    if signs.shape != mantissas.shape:
        raise ValueError("signs and mantissas must have the same length")
    chunks, offsets = decompose_mantissas(mantissas, mantissa_bits, chunk_bits)
    sign_bits = (signs < 0).astype(np.int64)
    words: List[List[Tuple[int, int]]] = []
    for k in range(chunks.shape[0]):
        words.append([(int(sign_bits[j]), int(chunks[k, j])) for j in range(signs.size)])
    return {
        "exponent": int(exponent),
        "words": words,
        "offsets": offsets,
        "mantissa_bits": mantissa_bits,
        "chunk_bits": chunk_bits,
    }


def unpack_group(packed: Dict[str, object]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Invert :func:`pack_group`, returning ``(signs, mantissas, exponent)``."""
    words = packed["words"]
    chunk_bits = packed["chunk_bits"]
    group_size = len(words[0])
    chunk_array = np.array([[pair[1] for pair in word] for word in words], dtype=np.int64)
    mantissas = reconstruct_mantissas(chunk_array, chunk_bits)
    sign_bits = np.array([pair[0] for pair in words[0]], dtype=np.int64)
    signs = np.where(sign_bits == 1, -1, 1).astype(np.int8)
    signs = np.where(mantissas == 0, 0, signs).astype(np.int8)
    assert len(signs) == group_size
    return signs, mantissas, int(packed["exponent"])


def compact_bfp_arrays(tensor: BFPTensor) -> Dict[str, np.ndarray]:
    """Smallest integer arrays that losslessly hold a packed :class:`BFPTensor`.

    The serving checkpoint format stores these three arrays per quantized
    weight instead of the dequantized floats: signs fit ``int8``, mantissa
    magnitudes fit ``uint8``/``uint16`` (``m`` bits each), and shared
    exponents fit ``int16`` (FP32-range exponents).  Together with the group
    geometry recorded by the caller this is exactly the information content
    of the Figure 15 layout, one word-sized array per field.
    """
    mantissa_dtype = np.uint8 if tensor.mantissa_bits <= 8 else np.uint16
    exponents = tensor.exponents
    if exponents.min() < np.iinfo(np.int16).min or exponents.max() > np.iinfo(np.int16).max:
        raise ValueError("shared exponents exceed the int16 storage range")
    return {
        "signs": tensor.signs.astype(np.int8, copy=False),
        "mantissas": tensor.mantissas.astype(mantissa_dtype),
        "exponents": exponents.astype(np.int16),
    }


def restore_bfp_tensor(
    arrays: Dict[str, np.ndarray],
    config: BFPConfig,
    shape,
    axis: int,
    pad: int,
    moved_shape,
) -> BFPTensor:
    """Rebuild a :class:`BFPTensor` from :func:`compact_bfp_arrays` output."""
    return BFPTensor(
        signs=np.asarray(arrays["signs"], dtype=np.int8),
        mantissas=np.asarray(arrays["mantissas"], dtype=np.int64),
        exponents=np.asarray(arrays["exponents"], dtype=np.int64),
        config=config,
        shape=tuple(int(s) for s in shape),
        axis=int(axis),
        pad=int(pad),
        _moved_shape=tuple(int(s) for s in moved_shape),
    )


@dataclass
class BFPMemoryLayout:
    """Bit-level storage accounting for BFP tensors.

    Parameters mirror the hardware configuration of Section V-D: a 3-bit
    shared exponent, group size 16 and 2-bit mantissa chunks.
    """

    exponent_bits: int = 3
    group_size: int = 16
    chunk_bits: int = 2

    def group_bits(self, mantissa_bits: int) -> int:
        return bits_per_group(self.exponent_bits, self.group_size, mantissa_bits, self.chunk_bits)

    def value_bits(self, mantissa_bits: int) -> float:
        return bits_per_value(self.exponent_bits, self.group_size, mantissa_bits, self.chunk_bits)

    def tensor_bits(self, num_values: int, mantissa_bits: int) -> int:
        """Storage bits for ``num_values`` values (padded to whole groups)."""
        groups = -(-num_values // self.group_size)
        return groups * self.group_bits(mantissa_bits)

    def tensor_bytes(self, num_values: int, mantissa_bits: int) -> float:
        return self.tensor_bits(num_values, mantissa_bits) / 8.0

    def pack_tensor(self, tensor: BFPTensor) -> List[Dict[str, object]]:
        """Pack every group of a :class:`BFPTensor` into memory words.

        The chunk decomposition runs once over the whole tensor instead of
        once per group; the per-group word lists are then assembled from the
        C-level ``tolist`` conversions, avoiding per-element ``int()`` calls.
        """
        signs = tensor.signs.reshape(-1, tensor.group_size)
        mantissas = tensor.mantissas.reshape(-1, tensor.group_size)
        exponents = tensor.exponents.reshape(-1)
        chunks, offsets = decompose_mantissas(mantissas, tensor.mantissa_bits, self.chunk_bits)
        num_chunks = chunks.shape[0]
        sign_rows = (signs < 0).astype(np.int64).tolist()
        chunk_rows = [chunks[k].tolist() for k in range(num_chunks)]
        exponent_list = exponents.tolist()
        packed = []
        for index in range(exponents.size):
            sign_row = sign_rows[index]
            words = [list(zip(sign_row, chunk_rows[k][index])) for k in range(num_chunks)]
            packed.append(
                {
                    "exponent": exponent_list[index],
                    "words": words,
                    "offsets": list(offsets),
                    "mantissa_bits": tensor.mantissa_bits,
                    "chunk_bits": self.chunk_bits,
                }
            )
        return packed
