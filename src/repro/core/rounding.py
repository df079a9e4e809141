"""Rounding primitives used by BFP and fixed-point quantization.

The paper (Section III) relies on three rounding behaviours when mapping
full-precision values onto a low-precision grid:

* ``nearest`` -- conventional round-half-away-from-zero to the closest grid
  point.  Used for weights and activations.
* ``truncate`` -- drop the low-order bits (floor of the magnitude).  This is
  what the alignment/truncation hardware of Figure 4 does when no noise is
  injected.
* ``stochastic`` -- add uniform noise in ``[0, 1)`` (quantized to a small
  number of noise bits in hardware) before truncating.  Theorem 1 shows this
  keeps the expected quantized value equal to the unquantized one, which is
  why the paper applies it to gradients.

All functions operate on *mantissa-scaled* magnitudes: the caller divides the
value by the quantization step so that one unit corresponds to one least
significant mantissa bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "RoundingMode",
    "LFSR",
    "VectorizedLFSR",
    "NoisePool",
    "round_nearest",
    "round_truncate",
    "round_stochastic",
    "draw_noise",
    "draw_levels",
    "apply_rounding",
    "VALID_MODES",
]


#: The rounding modes accepted throughout the library.
VALID_MODES = ("nearest", "truncate", "stochastic")


class RoundingMode:
    """Symbolic constants for the supported rounding modes."""

    NEAREST = "nearest"
    TRUNCATE = "truncate"
    STOCHASTIC = "stochastic"


class LFSR:
    """A Fibonacci linear feedback shift register noise source.

    The BFP converter of Figure 14 uses an LFSR to produce the random bits
    added to mantissas before truncation.  This software model reproduces a
    maximal-length 16-bit LFSR (taps 16, 15, 13, 4) and exposes a NumPy
    friendly interface for drawing uniform values with a configurable number
    of noise bits, mirroring the ``q = 2**noise_bits`` precision discussed in
    Section III-D.

    Parameters
    ----------
    seed:
        Initial register state.  Must be non-zero; the all-zero state is a
        fixed point of the LFSR.
    width:
        Register width in bits.
    """

    _TAPS = (16, 15, 13, 4)

    def __init__(self, seed: int = 0xACE1, width: int = 16):
        if width < 4:
            raise ValueError("LFSR width must be at least 4 bits")
        self.width = width
        self._mask = (1 << width) - 1
        seed &= self._mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed
        self._taps = tuple(min(t, width) for t in self._TAPS)
        # XOR-fold the taps into a mask: a position toggled an even number of
        # times cancels, which reproduces the XOR-of-duplicates semantics of
        # the unclamped tap list for narrow registers.
        tap_mask = 0
        for tap in self._taps:
            tap_mask ^= 1 << (tap - 1)
        self._tap_mask = tap_mask

    def next_bit(self) -> int:
        """Advance the register by one step and return the output bit."""
        bit = (self.state & self._tap_mask).bit_count() & 1
        self.state = ((self.state << 1) | bit) & self._mask
        return bit

    def next_int(self, bits: int) -> int:
        """Return the next ``bits``-wide unsigned integer from the stream."""
        value = 0
        for _ in range(bits):
            value = (value << 1) | self.next_bit()
        return value

    def levels(self, shape, noise_bits: int = 8) -> np.ndarray:
        """Draw an array of ``noise_bits``-wide integers ``k`` from the stream."""
        count = int(np.prod(shape)) if shape else 1
        draws = np.array([self.next_int(noise_bits) for _ in range(count)], dtype=np.int64)
        return draws.reshape(shape)

    def uniform(self, shape, noise_bits: int = 8) -> np.ndarray:
        """Draw an array of quantized uniform values in ``[0, 1)``.

        Each element is an integer multiple of ``1 / 2**noise_bits`` -- the
        :meth:`levels` ``k`` over ``2**noise_bits`` -- exactly as the
        hardware adds ``noise_bits`` random bits below the truncation point.
        """
        draws = self.levels(shape, noise_bits).astype(np.float64)
        draws /= float(1 << noise_bits)
        return draws


class VectorizedLFSR(LFSR):
    """Batched LFSR producing the exact bit stream of the scalar :class:`LFSR`.

    The register update is linear over GF(2), so the state after ``k`` steps
    is a fixed bit-matrix applied to the current state.  Matrices are stored
    as one mask per output bit (``out_j = parity(state & mask_j)``), composed
    by XOR-folding, and applied to whole NumPy arrays of register states at
    once.  A :meth:`uniform` draw of ``n`` values therefore costs

    1. one logarithmic doubling phase that materializes the scalar stream's
       register state at the start of every 64-bit block, and
    2. 64 vectorized shift/XOR passes that advance all blocks in lockstep,

    instead of ``n * noise_bits`` Python-level ``next_bit`` calls.  The
    emitted stream -- and the register state left behind -- are bit-identical
    to the scalar reference, which the equivalence tests assert.
    """

    #: Number of sequential steps each parallel register contributes.
    _BLOCK = 64
    #: Below this many bits the scalar path wins; it also guarantees the
    #: vectorized path always has at least ``width`` bits to rebuild the
    #: register from.
    _SMALL = 256

    def __init__(self, seed: int = 0xACE1, width: int = 16):
        if width > 63:
            raise ValueError("VectorizedLFSR supports widths up to 63 bits")
        super().__init__(seed=seed, width=width)
        self._jump_cache = {}

    # ------------------------------------------------------------------ #
    # GF(2) jump matrices (one mask per output bit)
    # ------------------------------------------------------------------ #
    def _step_masks(self):
        """Masks of the single-step map: bit 0 is the feedback, others shift."""
        return [self._tap_mask] + [1 << (j - 1) for j in range(1, self.width)]

    @staticmethod
    def _compose_masks(first, second):
        """Masks of ``second∘first`` (apply ``first``, then ``second``)."""
        combined = []
        for target in second:
            mask = 0
            index = 0
            remaining = int(target)
            while remaining:
                if remaining & 1:
                    mask ^= int(first[index])
                remaining >>= 1
                index += 1
            combined.append(mask)
        return combined

    def _jump_masks(self, steps: int):
        """Masks advancing the register by ``steps`` steps (square-and-multiply)."""
        cached = self._jump_cache.get(steps)
        if cached is not None:
            return cached
        result = None
        power = self._step_masks()
        remaining = steps
        while remaining:
            if remaining & 1:
                result = power if result is None else self._compose_masks(result, power)
            remaining >>= 1
            if remaining:
                power = self._compose_masks(power, power)
        self._jump_cache[steps] = result
        return result

    @staticmethod
    def _apply_masks(masks, states: np.ndarray) -> np.ndarray:
        """Apply a jump to an array of register states."""
        out = np.zeros_like(states)
        for j, mask in enumerate(masks):
            parity = (np.bitwise_count(states & np.uint64(mask)) & 1).astype(np.uint64)
            out |= parity << np.uint64(j)
        return out

    # ------------------------------------------------------------------ #
    # Stream generation
    # ------------------------------------------------------------------ #
    def _stream_words(self, num_blocks: int, consumed: int) -> np.ndarray:
        """Emit ``num_blocks * 64`` stream bits packed MSB-first into uint64 words.

        Only the first ``consumed`` bits count as drawn from the stream: the
        scalar register is rebuilt from bits ``consumed - width .. consumed``
        so that subsequent scalar or vectorized draws continue seamlessly.
        """
        block = self._BLOCK
        # Phase 1: register state at the start of every block, by doubling.
        states = np.zeros(num_blocks, dtype=np.uint64)
        states[0] = self.state
        jump = self._jump_masks(block)
        filled = 1
        while filled < num_blocks:
            take = min(filled, num_blocks - filled)
            states[filled:filled + take] = self._apply_masks(jump, states[:take])
            if filled + take < num_blocks:
                jump = self._compose_masks(jump, jump)
            filled += take
        # Phase 2: advance every block in lockstep, packing the output bits.
        words = np.zeros(num_blocks, dtype=np.uint64)
        mask = np.uint64(self._mask)
        tap_mask = np.uint64(self._tap_mask)
        one = np.uint64(1)
        for _ in range(block):
            feedback = (np.bitwise_count(states & tap_mask) & 1).astype(np.uint64)
            words = (words << one) | feedback
            states = ((states << one) | feedback) & mask
        # The register contents after n >= width steps are exactly the last
        # ``width`` emitted bits (newest at the LSB).
        state = 0
        for t in range(consumed - self.width, consumed):
            word, offset = divmod(t, block)
            state = (state << 1) | ((int(words[word]) >> (block - 1 - offset)) & 1)
        self.state = state
        return words

    def _next_bits(self, count: int) -> np.ndarray:
        """The next ``count`` output bits of the stream as a ``uint8`` array."""
        if count <= 0:
            return np.zeros(0, dtype=np.uint8)
        if count < self._SMALL:
            return np.array([self.next_bit() for _ in range(count)], dtype=np.uint8)
        num_blocks = -(-count // self._BLOCK)
        words = self._stream_words(num_blocks, count)
        shifts = np.arange(self._BLOCK - 1, -1, -1, dtype=np.uint64)
        bits = ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        return bits.reshape(-1)[:count]

    def levels(self, shape, noise_bits: int = 8) -> np.ndarray:
        """Vectorized, stream-compatible version of :meth:`LFSR.levels`."""
        count = int(np.prod(shape)) if shape else 1
        total = count * noise_bits
        if total >= self._SMALL and noise_bits <= self._BLOCK and self._BLOCK % noise_bits == 0:
            # Fast path: extract whole noise values from the packed words.
            num_blocks = -(-total // self._BLOCK)
            words = self._stream_words(num_blocks, total)
            per_word = self._BLOCK // noise_bits
            values = np.empty(num_blocks * per_word, dtype=np.uint64)
            field = np.uint64((1 << noise_bits) - 1)
            for k in range(per_word):
                shift = np.uint64(self._BLOCK - (k + 1) * noise_bits)
                values[k::per_word] = (words >> shift) & field
            draws = values[:count]
        else:
            bits = self._next_bits(total)
            weights = np.left_shift(1, np.arange(noise_bits - 1, -1, -1, dtype=np.int64))
            draws = bits.reshape(count, noise_bits).astype(np.int64) @ weights
        return draws.reshape(shape)


class NoisePool:
    """Pooled stochastic-rounding noise drawn in large refill batches.

    The per-call cost of the stochastic path is dominated by noise drawing:
    ``Generator.integers`` produces one int64 per value and the quotient is
    materialized in float64 on every quantize call.  The pool removes that
    bound by refilling a large buffer of raw noise levels in one bulk draw
    and serving later calls from it behind a cursor.

    A refill keeps the integer levels ``k`` as drawn -- ``uint8`` up to 8
    noise bits, ``uint16`` up to 16 -- with no float conversion pass, so a
    1M-value block holds 1 MB.  Two ways to read the stream:

    * :meth:`levels` serves the ``k`` themselves, as read-only zero-copy
      views of the block whenever the request fits in it.  The float32
      stochastic kernel adds them to scaled magnitudes directly.
    * :meth:`uniform` serves the noise values ``k / 2**noise_bits`` as a
      fresh float array (float32 up to 24 noise bits, where it is exact).

    Full-precision draws (``noise_bits=None``) keep a float64 block, and
    :meth:`uniform` serves read-only views of it.

    Determinism contract (asserted by ``tests/core/test_noise_pool.py``):

    * the emitted value stream for a fixed ``noise_bits`` is a pure function
      of the seed/source and the *total number of values drawn* -- it does
      not depend on how draws are partitioned into calls, or on whether they
      are read through :meth:`levels` or :meth:`uniform`, because refills
      always consume the source in fixed ``capacity``-sized blocks;
    * two pools built from equal seeds produce identical streams, so a
      training run is reproducible whether noise is pooled or not (as long
      as both runs pool).

    The pool is *not* stream-compatible with handing the same raw
    ``Generator`` to :func:`draw_noise` call-by-call (it consumes the
    underlying bit stream in a different dtype and cadence); it is a
    distinct, deterministic noise source, exactly like :class:`LFSR`.

    Parameters
    ----------
    source:
        ``None`` (fresh default generator), an integer seed, a
        :class:`numpy.random.Generator` (e.g. built on ``Philox`` for
        counter-based streams), or an :class:`LFSR`/:class:`VectorizedLFSR`.
    capacity:
        Number of noise values per refill batch (per ``noise_bits`` stream).
    """

    def __init__(self, source=None, capacity: int = 1 << 20):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if source is None:
            source = np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng
        elif isinstance(source, (int, np.integer)):
            source = np.random.default_rng(int(source))
        self.source = source
        self.capacity = int(capacity)
        # One buffer+cursor per noise_bits value; ``None`` keys full-precision
        # float64 draws.  In practice a training run uses a single width.
        self._buffers = {}

    def _refill(self, noise_bits: Optional[int]) -> np.ndarray:
        if isinstance(self.source, LFSR):
            if noise_bits is None:
                raise ValueError("LFSR noise sources require an explicit noise_bits")
            return self.source.levels((self.capacity,), noise_bits).astype(_level_dtype(noise_bits))
        if noise_bits is None:
            return self.source.random(self.capacity)
        bit_generator = getattr(self.source, "bit_generator", None)
        if (noise_bits == 8 and self.capacity % 8 == 0 and np.little_endian
                and type(bit_generator) is np.random.PCG64
                and bit_generator.state["has_uint32"] == 0):
            # integers(0, 256, dtype=uint8) takes four bytes from each 32-bit
            # draw, low byte first, and PCG64 serves the low then the high
            # half of each 64-bit output: the same bytes, four times faster.
            return bit_generator.random_raw(self.capacity // 8).view(np.uint8)
        return self.source.integers(0, 1 << noise_bits, size=self.capacity,
                                    dtype=_level_dtype(noise_bits))

    def _refill_readonly(self, noise_bits: Optional[int]) -> np.ndarray:
        buffer = np.asarray(self._refill(noise_bits))
        # Draws are served as views of this buffer; freezing it turns an
        # accidental in-place mutation (which would corrupt the stream for
        # every later draw from the same block) into an immediate error.
        buffer.flags.writeable = False
        return buffer

    def _take(self, count: int, noise_bits: Optional[int]) -> np.ndarray:
        """The next ``count`` raw values of the ``noise_bits`` stream: a
        read-only view of the current block when they fit in it."""
        state = self._buffers.get(noise_bits)
        if state is None:
            state = [self._refill_readonly(noise_bits), 0]
            self._buffers[noise_bits] = state
        buffer, cursor = state
        if cursor == buffer.shape[0] and 0 < count <= self.capacity:
            # An exhausted buffer is refilled now -- where the block-wise
            # assembly below would refill it too -- so the draw is served
            # as a view of the fresh block instead of a copy.
            buffer, cursor = self._refill_readonly(noise_bits), 0
            state[0] = buffer
        if count <= buffer.shape[0] - cursor:
            state[1] = cursor + count
            return buffer[cursor:cursor + count]
        # Assemble large draws from whole refill blocks so the value stream
        # stays independent of how callers partition their requests.
        draws = np.empty(count, dtype=buffer.dtype)
        filled = 0
        while filled < count:
            available = buffer.shape[0] - cursor
            if available == 0:
                buffer = self._refill_readonly(noise_bits)
                cursor = 0
                available = buffer.shape[0]
            take = min(available, count - filled)
            draws[filled:filled + take] = buffer[cursor:cursor + take]
            cursor += take
            filled += take
        state[0] = buffer
        state[1] = cursor
        return draws

    def levels(self, shape, noise_bits: int = 8) -> np.ndarray:
        """Draw an array of integer noise levels ``k`` in ``[0, 2**noise_bits)``.

        Mirrors :meth:`LFSR.levels`.  Served arrays are read-only views of
        the pool block whenever the request fits in it.
        """
        if noise_bits is None:
            raise ValueError("levels need an explicit noise_bits")
        count = int(np.prod(shape)) if shape else 1
        return self._take(count, noise_bits).reshape(shape)

    def uniform(self, shape, noise_bits: Optional[int] = 8) -> np.ndarray:
        """Draw an array of quantized uniform noise values in ``[0, 1)``.

        Mirrors :meth:`LFSR.uniform` so :func:`draw_noise` can treat the pool
        as a drop-in noise source: the values are the :meth:`levels` ``k``
        times ``2**-noise_bits``, in a fresh array.
        """
        count = int(np.prod(shape)) if shape else 1
        raw = self._take(count, noise_bits)
        if noise_bits is None:
            return raw.reshape(shape)
        # k / 2**noise_bits is exact in float32 for noise_bits <= 24, and the
        # narrower dtype halves the memory traffic of the later add.
        out_dtype = np.float32 if noise_bits <= 24 else np.float64
        return np.multiply(raw, out_dtype(1.0 / (1 << noise_bits)),
                           dtype=out_dtype).reshape(shape)

    def reset(self) -> None:
        """Drop all buffered noise (the underlying source state is kept)."""
        self._buffers.clear()


def _level_dtype(noise_bits: int) -> np.dtype:
    """The narrowest unsigned dtype :class:`NoisePool` keeps levels in."""
    if noise_bits <= 8:
        return np.dtype(np.uint8)
    if noise_bits <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint64)


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def round_nearest(x) -> np.ndarray:
    """Round to the nearest integer, halves away from zero.

    ``np.round`` uses banker's rounding, which is not what fixed-point
    hardware typically implements, so we round half away from zero instead.
    """
    x = _as_float_array(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def round_truncate(x) -> np.ndarray:
    """Truncate toward zero (drop the fractional bits of the magnitude)."""
    x = _as_float_array(x)
    return np.sign(x) * np.floor(np.abs(x))


def round_stochastic(x, rng=None, noise_bits: int = 8) -> np.ndarray:
    """Stochastically round toward one of the two neighbouring integers.

    A magnitude ``v`` with fractional part ``f`` is rounded up with
    probability ``f`` and down with probability ``1 - f`` (up to the
    resolution of ``noise_bits``), so that ``E[round(v)] == v`` when the noise
    has full precision (Theorem 1 of the paper).

    Parameters
    ----------
    x:
        Values scaled so that the quantization step is one unit.
    rng:
        Either a :class:`numpy.random.Generator`, an :class:`LFSR`, a
        :class:`NoisePool`, or ``None`` (a fresh default generator).
    noise_bits:
        Number of random bits added below the truncation point.  The paper's
        hardware uses 8-bit LFSR streams; its worked example in Figure 4 uses
        three bits (``q = 8``).
    """
    x = _as_float_array(x)
    noise = draw_noise(rng, x.shape, noise_bits)
    return np.sign(x) * np.floor(np.abs(x) + noise)


def draw_levels(rng, shape, noise_bits: int = 8) -> np.ndarray:
    """Draw the integer noise levels ``k`` whose noise is ``k / 2**noise_bits``.

    Consumes ``rng`` exactly as :func:`draw_noise` does for the same
    arguments, so the two are interchangeable on one stream.
    """
    if rng is None:
        rng = np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng
    if isinstance(rng, (LFSR, NoisePool)):
        return rng.levels(shape, noise_bits=noise_bits)
    return rng.integers(0, 1 << noise_bits, size=shape)


def draw_noise(rng, shape, noise_bits: Optional[int] = 8) -> np.ndarray:
    """Draw the additive stochastic-rounding noise for an array of ``shape``.

    Shared by the reference and fast quantization paths so that both consume
    the random stream identically (same source, same draw shape, same order),
    which is what makes the fast path seed-reproducible against the reference.
    """
    if rng is None:
        rng = np.random.default_rng()  # repro-lint: disable=RL005 -- API fallback; repro paths thread a seeded rng
    if isinstance(rng, (LFSR, NoisePool)):
        return rng.uniform(shape, noise_bits=noise_bits)
    if noise_bits is None:
        return rng.random(shape)
    return draw_levels(rng, shape, noise_bits).astype(np.float64) / (1 << noise_bits)


def apply_rounding(x, mode: str, rng=None, noise_bits: int = 8) -> np.ndarray:
    """Dispatch to one of the rounding primitives by name.

    Parameters
    ----------
    x:
        Mantissa-scaled values (one unit per least significant bit).
    mode:
        One of ``"nearest"``, ``"truncate"`` or ``"stochastic"``.
    rng, noise_bits:
        Only used by stochastic rounding; see :func:`round_stochastic`.
    """
    if mode == RoundingMode.NEAREST:
        return round_nearest(x)
    if mode == RoundingMode.TRUNCATE:
        return round_truncate(x)
    if mode == RoundingMode.STOCHASTIC:
        return round_stochastic(x, rng=rng, noise_bits=noise_bits)
    raise ValueError(f"unknown rounding mode {mode!r}; expected one of {VALID_MODES}")
