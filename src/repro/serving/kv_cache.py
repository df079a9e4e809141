"""The one self-attention K/V cache: a block pool shared by the sequences
it holds, in the PagedAttention design (Kwon et al., SOSP 2023).

``greedy_decode_cached`` sizes one for its batch; ``GenerationServer``
shares one among its active sequences.  A decode step reaches it through
:meth:`KVCacheManager.step`, the ``append`` protocol of
``FrozenDecoderLayer.run_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.bfp import bfp_quantize_tensor
from ..core.chunks import bits_per_group
from .server import ServerOverloaded

__all__ = ["CacheExhausted", "CacheStats", "KVCacheManager"]

#: Positions per block unless the caller picks another size.
BLOCK_TOKENS = 16


class CacheExhausted(ServerOverloaded):
    """The KV block pool cannot reserve the requested sequence."""


@dataclass(frozen=True)
class CacheStats:
    """Occupancy accounting for the block pool."""

    total_blocks: int
    blocks_in_use: int
    block_tokens: int
    sequences: int
    tokens_cached: int
    utilization: float          # blocks_in_use / total_blocks
    cache_bytes: float          # at the configured storage format
    fp32_bytes: float           # same tokens at float32
    compression_vs_fp32: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class KVCacheManager:
    """Block-pool K/V storage for many concurrent sequences.

    One preallocated pool array holds every sequence's per-layer K and V,
    chunked into blocks of ``block_tokens`` positions; a sequence owns a list
    of block ids (its "block table") plus a filled length.  ``reserve`` takes
    the sequence's *worst-case* block count up front -- admission control in
    one place, no mid-flight exhaustion -- and ``release`` returns the blocks.
    Appending past the reservation raises ``ValueError``.

    With a ``quantizer`` (an :class:`~repro.serving.frozen.ActivationQuantizer`)
    every appended K/V row is fake-quantized onto the BFP grid before
    storage.  The floats in the pool then *are* grid points, so
    :meth:`packed_block` can pack them into a
    :class:`~repro.core.bfp.BFPTensor` losslessly, and :meth:`stats` accounts
    cache bytes at the packed size (the paper's Figure 15 layout) rather
    than the staging dtype's.
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int,
                 total_blocks: int, block_tokens: int = BLOCK_TOKENS, quantizer=None,
                 dtype=np.float64):
        if total_blocks <= 0 or block_tokens <= 0:
            raise ValueError("total_blocks and block_tokens must be positive")
        self.num_layers = int(num_layers)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.total_blocks = int(total_blocks)
        self.block_tokens = int(block_tokens)
        self.quantizer = quantizer
        self.dtype = np.dtype(dtype)
        # (layer, k/v, head, block, slot, head_dim): one take of a batch's
        # block tables along the block axis is its K and V in attention
        # layout, each block's positions already in order.
        self._pool = np.zeros(
            (self.num_layers, 2, self.num_heads, self.total_blocks,
             self.block_tokens, self.head_dim), dtype=self.dtype)
        self._free: List[int] = list(range(self.total_blocks - 1, -1, -1))
        self._tables: Dict[int, List[int]] = {}
        self._reserved: Dict[int, int] = {}
        self._lengths: Dict[int, int] = {}

    # ------------------------------ lifecycle ------------------------- #
    def blocks_for(self, max_tokens: int) -> int:
        return -(-int(max_tokens) // self.block_tokens)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def can_reserve(self, max_tokens: int) -> bool:
        return self.blocks_for(max_tokens) <= len(self._free)

    def reserve(self, seq_id: int, max_tokens: int) -> None:
        """Claim the worst-case block count for ``seq_id`` up front."""
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already holds a reservation")
        needed = self.blocks_for(max_tokens)
        if needed > len(self._free):
            raise CacheExhausted(
                f"KV cache pool exhausted: need {needed} blocks for "
                f"{max_tokens} tokens, {len(self._free)} of "
                f"{self.total_blocks} free")
        self._tables[seq_id] = [self._free.pop() for _ in range(needed)]
        self._reserved[seq_id] = int(max_tokens)
        self._lengths[seq_id] = 0

    def release(self, seq_id: int) -> None:
        table = self._tables.pop(seq_id, None)
        if table:
            self._free.extend(table)
        self._reserved.pop(seq_id, None)
        self._lengths.pop(seq_id, None)

    def length(self, seq_id: int) -> int:
        return self._lengths[seq_id]

    def step(self, seq_ids: Sequence[int]) -> "_BatchCache":
        """The cache one decode step of ``seq_ids`` appends to and attends over."""
        return _BatchCache(self, seq_ids)

    # ------------------------------ data path ------------------------- #
    def append_step(self, seq_ids: Sequence[int], layer: int,
                    k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Write one decode step's (batch, heads, 1, head_dim) K/V rows into
        each sequence's next position.  Lengths advance only when the last
        layer has written (every layer sees the same step)."""
        positions = [self._lengths[seq_id] for seq_id in seq_ids]
        blocks, slots = [], []
        for seq_id, position in zip(seq_ids, positions):
            if position >= self._reserved[seq_id]:
                raise ValueError(
                    f"sequence {seq_id} reserved {self._reserved[seq_id]} tokens, "
                    f"all of them cached; cannot append another")
            blocks.append(self._tables[seq_id][position // self.block_tokens])
            slots.append(position % self.block_tokens)
        if self.quantizer is not None:
            k_new = self.quantizer(k_new)
            v_new = self.quantizer(v_new)
        # (batch, heads, k/v, head_dim) -> (k/v, heads, batch, head_dim)
        self._pool[layer][:, :, blocks, slots] = \
            np.concatenate((k_new, v_new), axis=2).transpose(2, 1, 0, 3)
        if layer == self.num_layers - 1:
            for seq_id, position in zip(seq_ids, positions):
                self._lengths[seq_id] = position + 1

    def gather(self, seq_ids: Sequence[int], layer: int,
               lengths: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble padded (batch, heads, max_len, head_dim) K and V for the
        given sequences; padding rows are zero (masked by the caller).  No
        sequences read one position, so attention keeps a non-empty key axis."""
        max_len = max(lengths, default=1)
        width = self.blocks_for(max_len)
        rows = []
        for seq_id, length in zip(seq_ids, lengths):
            if length > self._reserved[seq_id]:
                raise ValueError(f"sequence {seq_id} reserved {self._reserved[seq_id]} "
                                 f"tokens; cannot read {length}")
            table = self._tables[seq_id][:width]
            rows.append(table + [0] * (width - len(table)))  # tail zeroed below
        # take (not fancy indexing) returns C order, so the reshape is a view.
        kv = np.take(self._pool[layer], np.array(rows, dtype=np.intp), axis=2).reshape(
            2, self.num_heads, len(rows), width * self.block_tokens, self.head_dim)
        kv = kv[:, :, :, :max_len]
        for row, length in enumerate(lengths):
            if length < max_len:
                kv[:, :, row, length:] = 0
        kv = kv.transpose(0, 2, 1, 3, 4)  # (k/v, batch, heads, max_len, head_dim)
        return kv[0], kv[1]

    def packed_block(self, seq_id: int, layer: int):
        """Pack one sequence's cached K for ``layer`` into a BFP tensor.

        Only meaningful with a quantizer attached: the pool floats already
        sit on the BFP grid, so packing is lossless (``to_float`` round-trips
        bit-identically) -- the proof that the cache can be *stored* in the
        packed Figure 15 layout, not just accounted at its size.  Lossless
        requires ``head_dim % group_size == 0`` (true for every model here,
        head_dim 16): then the flattened row's groups coincide with the
        per-head groups the quantizer used at append time.
        """
        if self.quantizer is None:
            raise ValueError("packed_block requires a quantized cache")
        length = self._lengths[seq_id]
        k, _ = self.gather([seq_id], layer, [length])
        flat = k[0].transpose(1, 0, 2).reshape(length, -1)  # (tokens, h*d)
        return bfp_quantize_tensor(
            flat, mantissa_bits=self.quantizer.mantissa_bits,
            group_size=self.quantizer.group_size,
            exponent_bits=self.quantizer.exponent_bits, rounding="nearest")

    # ------------------------------ accounting ------------------------ #
    def stats(self) -> CacheStats:
        blocks_in_use = self.total_blocks - len(self._free)
        tokens = sum(self._lengths.values())
        values_per_token = self.num_layers * 2 * self.num_heads * self.head_dim
        if self.quantizer is not None:
            group = self.quantizer.group_size
            groups_per_row = -(-self.num_heads * self.head_dim // group)
            group_bits = bits_per_group(self.quantizer.exponent_bits or 8, group,
                                        self.quantizer.mantissa_bits)
            bytes_per_token = self.num_layers * 2 * groups_per_row * group_bits / 8.0
        else:
            bytes_per_token = values_per_token * float(self.dtype.itemsize)
        return CacheStats(
            total_blocks=self.total_blocks,
            blocks_in_use=blocks_in_use,
            block_tokens=self.block_tokens,
            sequences=len(self._tables),
            tokens_cached=tokens,
            utilization=blocks_in_use / self.total_blocks,
            cache_bytes=tokens * bytes_per_token,
            fp32_bytes=tokens * values_per_token * 4.0,
            # Format property, not occupancy: ratio per cached token.
            compression_vs_fp32=(values_per_token * 4.0) / bytes_per_token,
        )


class _BatchCache:
    """One decode step's cache: appends this step's K/V for ``seq_ids`` and
    returns their cached prefixes (padded to the longest, zero-filled)."""

    def __init__(self, manager: KVCacheManager, seq_ids: Sequence[int]):
        self.manager = manager
        self.seq_ids = list(seq_ids)
        self.lengths = [manager.length(seq_id) + 1 for seq_id in self.seq_ids]  # incl. this step

    def append(self, layer: int, k_new: np.ndarray, v_new: np.ndarray):
        self.manager.append_step(self.seq_ids, layer, k_new, v_new)
        return self.manager.gather(self.seq_ids, layer, self.lengths)
