"""Tests for the pooled stochastic-rounding noise source."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import bfp_quantize_fast
from repro.core.rounding import LFSR, NoisePool, VectorizedLFSR, draw_levels, draw_noise
from repro.reference import bfp_quantize_reference


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = NoisePool(7).uniform((1000,))
        b = NoisePool(7).uniform((1000,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = NoisePool(7).uniform((1000,))
        b = NoisePool(8).uniform((1000,))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("partitions", [
        [(2600,)],
        [(300,), (300,), (2000,)],
        [(137,), (463,), (1000,), (1000,)],
        [(50, 52)],
    ])
    def test_partition_invariance_across_refills(self, partitions):
        """The value stream is independent of draw shapes, even when draws
        straddle refill boundaries (capacity 512 here)."""
        reference = NoisePool(42, capacity=512).uniform((2600,))
        pool = NoisePool(42, capacity=512)
        drawn = np.concatenate([pool.uniform(shape).ravel() for shape in partitions])
        np.testing.assert_array_equal(reference[:drawn.size], drawn)

    def test_whole_block_draws_are_views_of_fresh_refills(self):
        """A levels draw that starts on an exhausted buffer is served from
        the next refill without a copy; the stream is unchanged."""
        pool = NoisePool(3, capacity=512)
        draws = [pool.levels((512,)) for _ in range(3)] + [pool.levels((300,))]
        assert not any(draw.flags.writeable for draw in draws)
        np.testing.assert_array_equal(np.concatenate(draws),
                                      NoisePool(3, capacity=512).levels((1836,)))

    def test_draw_larger_than_capacity(self):
        small = NoisePool(1, capacity=128)
        large = NoisePool(1, capacity=128)
        chunked = np.concatenate([small.uniform((100,)) for _ in range(10)])
        at_once = large.uniform((1000,))
        np.testing.assert_array_equal(chunked, at_once)


class TestLevels:
    """``levels()`` serves the integer levels ``k`` that ``uniform()``
    serves as ``k * 2**-noise_bits``, from one stream."""

    @pytest.mark.parametrize("noise_bits,dtype", [(1, np.uint8), (4, np.uint8),
                                                  (8, np.uint8), (12, np.uint16)])
    def test_levels_times_the_step_equal_uniform(self, noise_bits, dtype):
        levels = NoisePool(6, capacity=1024).levels((3000,), noise_bits=noise_bits)
        uniform = NoisePool(6, capacity=1024).uniform((3000,), noise_bits=noise_bits)
        assert levels.dtype == dtype and uniform.dtype == np.float32
        assert levels.max() < 1 << noise_bits
        np.testing.assert_array_equal(levels * 2.0 ** -noise_bits, uniform)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 1300)), min_size=1, max_size=6),
           st.sampled_from([4, 8, 12]))
    def test_stream_is_partition_invariant_across_both_readers(self, draws, noise_bits):
        pool = NoisePool(21, capacity=512)
        drawn = np.concatenate([
            (pool.levels((count,), noise_bits) * 2.0 ** -noise_bits) if as_levels
            else pool.uniform((count,), noise_bits) for as_levels, count in draws])
        total = sum(count for _, count in draws)
        np.testing.assert_array_equal(
            drawn, NoisePool(21, capacity=512).uniform((total,), noise_bits))

    def test_uniform_returns_fresh_arrays(self):
        pool = NoisePool(2, capacity=512)
        first = pool.uniform((100,))
        first[0] = 0.5  # writeable, and the stream is untouched
        np.testing.assert_array_equal(pool.uniform((100,)),
                                      NoisePool(2, capacity=512).uniform((200,))[100:])

    def test_lfsr_levels_are_the_uniform_numerators(self):
        for source in (LFSR(seed=3), VectorizedLFSR(seed=3)):
            levels = source.levels((600,), noise_bits=8)
            twin = type(source)(seed=3)
            np.testing.assert_array_equal(levels / 256.0, twin.uniform((600,), noise_bits=8))
        pooled = NoisePool(VectorizedLFSR(seed=9), capacity=256).levels((512,), 8)
        np.testing.assert_array_equal(pooled, VectorizedLFSR(seed=9).levels((512,), 8))

    def test_levels_need_explicit_noise_bits(self):
        with pytest.raises(ValueError, match="noise_bits"):
            NoisePool(0).levels((10,), noise_bits=None)

    @pytest.mark.parametrize("make", [lambda: np.random.default_rng(8), lambda: NoisePool(8),
                                      lambda: VectorizedLFSR(seed=8)])
    def test_draw_levels_consumes_the_stream_like_draw_noise(self, make):
        source, twin = make(), make()
        levels = np.concatenate([draw_levels(source, (300,), 8), draw_levels(source, (5,), 8)])
        noise = np.concatenate([draw_noise(twin, (300,), 8), draw_noise(twin, (5,), 8)])
        np.testing.assert_array_equal(levels / 256.0, noise)


class TestValues:
    @pytest.mark.parametrize("noise_bits", [1, 4, 8, 12])
    def test_values_on_the_quantized_grid(self, noise_bits):
        draws = NoisePool(3).uniform((5000,), noise_bits=noise_bits)
        assert draws.min() >= 0.0 and draws.max() < 1.0
        scaled = draws * (1 << noise_bits)
        np.testing.assert_array_equal(scaled, np.round(scaled))

    def test_narrow_widths_use_float32(self):
        assert NoisePool(0).uniform((10,), noise_bits=8).dtype == np.float32

    def test_full_precision_draws(self):
        draws = NoisePool(0).uniform((1000,), noise_bits=None)
        assert draws.dtype == np.float64
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert np.unique(draws).size > 990  # not quantized to a coarse grid

    def test_served_draws_are_read_only(self):
        draws = NoisePool(0).levels((100,))
        with pytest.raises(ValueError):
            draws[0] = 5

    def test_shape_is_respected(self):
        assert NoisePool(0).uniform((3, 5, 7)).shape == (3, 5, 7)

    def test_reset_replays_nothing(self):
        pool = NoisePool(9)
        first = pool.uniform((100,)).copy()
        pool.reset()
        # reset drops buffered values but keeps the source state: the next
        # draw comes from fresh refills, not a replay of the first buffer.
        second = pool.uniform((100,))
        assert not np.array_equal(first, second)


class TestSources:
    def test_generator_source(self):
        source = np.random.default_rng(5)
        expected = NoisePool(np.random.default_rng(5)).uniform((100,))
        np.testing.assert_array_equal(NoisePool(source).uniform((100,)), expected)

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    @pytest.mark.parametrize("buffered_half_word", [False, True])
    @pytest.mark.parametrize("noise_bits", [8, 4])
    def test_generator_stream_is_integers_over_levels(self, seed, buffered_half_word,
                                                      noise_bits):
        """The pooled stream is ``integers(0, 2**noise_bits, dtype=uint8) /
        2**noise_bits`` in refill blocks, across refills -- also when the
        generator already holds a buffered 32-bit half-word."""
        capacity = 1024
        source, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered_half_word:
            for generator in (source, twin):
                generator.integers(0, 2 ** 16, dtype=np.uint16)
            assert source.bit_generator.state["has_uint32"] == 1
        pool = NoisePool(source, capacity=capacity)
        drawn = np.concatenate([pool.uniform((700,), noise_bits=noise_bits)
                                for _ in range(5)])
        levels = 1 << noise_bits
        expected = np.concatenate([
            twin.integers(0, levels, size=capacity, dtype=np.uint8) for _ in range(4)])
        np.testing.assert_array_equal(drawn, (expected / levels)[:drawn.size])
        assert drawn.dtype == np.float32
        # The source is left where the block-wise integers() calls leave it.
        np.testing.assert_array_equal(source.integers(0, 2 ** 32, size=9, dtype=np.uint64),
                                      twin.integers(0, 2 ** 32, size=9, dtype=np.uint64))

    def test_lfsr_source_matches_direct_stream(self):
        """Refills draw whole blocks from the LFSR, so the pooled stream is
        the LFSR stream (which is inherently partition-invariant)."""
        pooled = NoisePool(VectorizedLFSR(seed=9), capacity=256)
        drawn = np.concatenate([pooled.uniform((100,)), pooled.uniform((412,))])
        direct = VectorizedLFSR(seed=9).uniform((512,))
        np.testing.assert_array_equal(drawn, direct)

    def test_lfsr_source_requires_noise_bits(self):
        with pytest.raises(ValueError, match="noise_bits"):
            NoisePool(LFSR(seed=1)).uniform((10,), noise_bits=None)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            NoisePool(0, capacity=0)


class TestQuantizationIntegration:
    def test_draw_noise_dispatches_to_pool(self):
        expected = NoisePool(4).uniform((64,), noise_bits=8)
        np.testing.assert_array_equal(draw_noise(NoisePool(4), (64,), 8), expected)

    def test_fast_vs_reference_bit_exact_with_equal_pools(self, rng):
        values = rng.standard_normal(4096)
        fast = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=NoisePool(7))
        ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=NoisePool(7))
        np.testing.assert_array_equal(fast, ref)

    def test_pooled_float32_noise_is_exact_in_float64(self, rng):
        """float32 noise values k/256 are exact, so quantizing float64 input
        with a pool matches quantizing with the same values as float64."""
        values = rng.standard_normal(512)
        pool = NoisePool(11)
        noise = NoisePool(11).uniform((512,), noise_bits=8)
        fast = bfp_quantize_fast(values, 4, 16, None, "stochastic", rng=pool)
        assert noise.dtype == np.float32
        np.testing.assert_array_equal(noise.astype(np.float64), noise)
        assert fast.dtype == np.float64

    @pytest.mark.parametrize("noise_bits", [1, 4, 8, 12])
    @pytest.mark.parametrize("mantissa_bits", [2, 4, 8])
    def test_float32_level_rounding_bit_equals_float64_reference(self, rng, noise_bits,
                                                                 mantissa_bits):
        """The float32 kernel adds the integer levels before the 2**-b scale;
        the reference adds k / 2**b in float64.  Same results, bit for bit."""
        values = (rng.standard_normal(4096) * 10.0 ** rng.integers(-3, 4, 4096)).astype(np.float32)
        values[:16] = [0.0, -0.0, 1.0, -1.0, 2.0 ** -11, 1.9375] + [0.5] * 10
        fast = bfp_quantize_fast(values, mantissa_bits, 16, 8, "stochastic",
                                 rng=NoisePool(7, capacity=1000), noise_bits=noise_bits)
        ref = bfp_quantize_reference(values.astype(np.float64), mantissa_bits, 16, 8,
                                     "stochastic", rng=NoisePool(7, capacity=1000),
                                     noise_bits=noise_bits)
        # The fast path keeps the sign of -0.0 (the reference's sign product drops it).
        expected = np.copysign(np.abs(ref), values).astype(np.float32)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast.view(np.uint32), expected.view(np.uint32))

    def test_mean_preservation(self, rng):
        """Theorem 1 sanity: pooled stochastic rounding stays unbiased."""
        values = np.full(200_000, 0.3)
        quantized = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=NoisePool(0))
        assert abs(quantized.mean() - 0.3) < 1e-3
