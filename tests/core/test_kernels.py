"""Equivalence tests: the fused fast-path kernels vs. the seed reference.

The fast path must be *bit-identical* to the reference for deterministic
rounding (nearest/truncate), seed-reproducible for stochastic rounding, and
exactly correct on the power-of-two exponent edge cases that motivated the
frexp rewrite.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import kernels
from repro.core.bfp import (BFPConfig, bfp_quantize, bfp_quantize_tensor,
                            compute_group_exponents, group_values)
from repro.core.converter import AdaptiveConversion
from repro.core.kernels import bfp_quantize_fast, shared_exponents
from repro.core.rounding import LFSR, NoisePool, VectorizedLFSR
from repro.nn.functional import col2im, im2col
from repro.reference import bfp_quantize_reference, shared_exponents_reference


class TestFastPathBitExact:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mode", ["nearest", "truncate"])
    @pytest.mark.parametrize("shape,axis", [((128,), -1), ((3, 50), -1), ((7, 33), 0), ((2, 3, 40), 1)])
    def test_deterministic_modes_bit_exact(self, rng, dtype, mode, shape, axis):
        scales = 10.0 ** rng.integers(-3, 4, size=shape)
        values = (rng.standard_normal(shape) * scales).astype(dtype)
        for exponent_bits in (8, 3, None):
            for mantissa_bits in (2, 4, 7):
                fast = bfp_quantize(values, mantissa_bits, 16, exponent_bits, mode, axis=axis)
                ref = bfp_quantize_reference(values, mantissa_bits, 16, exponent_bits, mode, axis=axis)
                assert fast.dtype == ref.dtype == dtype
                np.testing.assert_array_equal(fast, ref)

    @pytest.mark.parametrize("group_size", [1, 3, 5, 16, 17, 32])
    def test_odd_group_sizes_bit_exact(self, rng, group_size):
        values = rng.standard_normal((7, 33))
        fast = bfp_quantize(values, 4, group_size, 8, "nearest")
        ref = bfp_quantize_reference(values, 4, group_size, 8, "nearest")
        np.testing.assert_array_equal(fast, ref)

    def test_stochastic_generator_seed_reproducible(self, rng):
        values = rng.standard_normal((64, 64))
        for noise_bits in (8, 3, None):
            fast = bfp_quantize(values, 4, 16, 8, "stochastic",
                                rng=np.random.default_rng(42), noise_bits=noise_bits)
            ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic",
                                         rng=np.random.default_rng(42), noise_bits=noise_bits)
            np.testing.assert_array_equal(fast, ref)

    def test_stochastic_lfsr_matches_reference_stream(self, rng):
        values = rng.standard_normal(333)
        ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=LFSR(seed=7))
        fast_scalar = bfp_quantize(values, 4, 16, 8, "stochastic", rng=LFSR(seed=7))
        fast_vector = bfp_quantize(values, 4, 16, 8, "stochastic", rng=VectorizedLFSR(seed=7))
        np.testing.assert_array_equal(fast_scalar, ref)
        np.testing.assert_array_equal(fast_vector, ref)

    def test_subnormal_float32_falls_back_to_exact_ldexp(self):
        values = np.array([1e-40, 2e-40, 0.0, 5e-39] * 4, dtype=np.float32)
        fast = bfp_quantize(values, 4, 16, 8)
        ref = bfp_quantize_reference(values, 4, 16, 8)
        np.testing.assert_array_equal(fast, ref)

    def test_zero_and_scalar_inputs(self):
        np.testing.assert_array_equal(bfp_quantize(np.zeros((2, 16))), np.zeros((2, 16)))
        assert bfp_quantize_fast(np.float64(3.0)).shape == ()

    def test_relu_sparse_float32_with_zero_groups_bit_exact(self, rng):
        """All-zero groups (MIN_EXPONENT sentinel) must not perturb results.

        Regression for the fast path: a zero group's sentinel exponent pushes
        its shift past the float32-normal range; the kernel neutralizes those
        shifts (the group quantizes to zero regardless) instead of letting one
        zero group route the whole tensor down the slow fallback.
        """
        values = np.maximum(rng.standard_normal(4096), 0.0).astype(np.float32)
        values[:64] = 0.0  # guarantee whole zero groups
        for mode in ("nearest", "truncate"):
            fast = bfp_quantize(values, 4, 16, 8, mode)
            ref = bfp_quantize_reference(values, 4, 16, 8, mode)
            np.testing.assert_array_equal(fast, ref)

    def test_wide_mantissa_float32_upcasts_to_match_reference(self, rng):
        """m > 23 overflows float32's exact-offset range; kernel computes in f64."""
        values = rng.standard_normal(256).astype(np.float32)
        for mantissa_bits in (24, 26):
            fast = bfp_quantize(values, mantissa_bits, 16, 8, "nearest")
            ref = bfp_quantize_reference(values, mantissa_bits, 16, 8, "nearest")
            assert fast.dtype == np.float32
            np.testing.assert_array_equal(fast, ref)


@pytest.mark.parametrize("shape", [(0, 16), (0, 3, 16), (2, 0, 16), (3, 0)])
def test_zero_size_tensors_convert(shape):
    """A zero-size dimension converts to an empty array of the input's shape
    and floating dtype, through fake quantization, a GroupedTensor and the
    packed round trip."""
    values = np.zeros(shape)
    grouped = kernels.GroupedTensor(values, 16)
    for result in (bfp_quantize(values), grouped.ungroup(grouped.quantize(4)),
                   bfp_quantize_tensor(values).to_float()):
        assert result.shape == shape and result.dtype == np.float64


class TestFrexpExponents:
    def test_matches_log2_reference_at_exact_powers_of_two(self):
        """Regression: frexp and the old log2 path agree at exact powers of two."""
        powers = np.array([2.0 ** k for k in range(-60, 61)])
        groups = powers.reshape(1, -1, 1)
        np.testing.assert_array_equal(
            shared_exponents(groups), shared_exponents_reference(groups)
        )
        expected = np.arange(-60, 61)
        np.testing.assert_array_equal(shared_exponents(groups)[0], expected)

    def test_exact_just_below_powers_of_two(self):
        """One ulp below 2**k the true floor(log2 x) is k-1; frexp gets it right.

        The rounded-log2 path puts log2(nextafter(2**k, 0)) within half an ulp
        of k and floors to k -- the edge case the frexp rewrite eliminates.
        """
        for k in (-10, -1, 0, 1, 3, 20):
            value = np.nextafter(2.0 ** k, 0.0)
            groups = np.array([[[value]]])
            assert shared_exponents(groups)[0, 0] == k - 1

    def test_window_clamp_matches_reference(self, rng):
        groups = rng.standard_normal((2, 8, 16)) * 10.0 ** rng.integers(-30, 30, size=(2, 8, 16))
        for bits in (2, 3, 8):
            np.testing.assert_array_equal(
                shared_exponents(groups, bits), shared_exponents_reference(groups, bits)
            )

    def test_zero_groups_clamped_into_window_like_reference(self):
        groups = np.array([[[1024.0] * 4, [0.0] * 4]])
        np.testing.assert_array_equal(
            shared_exponents(groups, 2), shared_exponents_reference(groups, 2)
        )


class TestDtypePropagation:
    def test_group_values_preserves_float32(self, rng):
        values = rng.standard_normal((3, 32)).astype(np.float32)
        groups, pad, _ = group_values(values, 16)
        assert groups.dtype == np.float32
        assert pad == 0

    def test_group_values_preserves_float32_with_padding(self, rng):
        values = rng.standard_normal((2, 21)).astype(np.float32)
        groups, pad, _ = group_values(values, 16)
        assert groups.dtype == np.float32
        assert pad == 11

    def test_group_values_promotes_integers(self):
        groups, _, _ = group_values(np.arange(32), 16)
        assert groups.dtype == np.float64

    def test_grouping_avoids_copy_when_aligned(self, rng):
        values = rng.standard_normal((4, 32))
        groups, pad, _ = group_values(values, 16)
        assert pad == 0
        assert np.shares_memory(groups, values)

    def test_col2im_preserves_float32(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.dtype == np.float32
        out = col2im(cols, x.shape, 3, 3, 1, 1)
        assert out.dtype == np.float32
        assert out.shape == x.shape

    def test_bfp_quantize_float32_stays_float32_end_to_end(self, rng):
        values = rng.standard_normal((5, 48)).astype(np.float32)
        assert bfp_quantize(values, 4, 16, 8).dtype == np.float32


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=24),
               elements=st.floats(min_value=-1e4, max_value=1e4,
                                  allow_nan=False, allow_infinity=False)),
    st.sampled_from([2, 3, 4]),
    st.sampled_from([4, 8, 16]),
)
def test_property_fast_equals_reference(values, mantissa_bits, group_size):
    # The fast path is bit-exact wherever the old log2 exponent derivation
    # was correct; one ulp below a power of two the reference itself is off
    # by one (covered by TestFrexpExponents), so skip those draws.
    groups, _, _ = group_values(values, group_size)
    assume(np.array_equal(shared_exponents(groups), shared_exponents_reference(groups)))
    fast = bfp_quantize(values, mantissa_bits, group_size, 8, "nearest")
    ref = bfp_quantize_reference(values, mantissa_bits, group_size, 8, "nearest")
    np.testing.assert_array_equal(fast, ref)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=20),
               elements=st.floats(min_value=-1e3, max_value=1e3,
                                  allow_nan=False, allow_infinity=False)),
    st.sampled_from([2, 4]),
    st.integers(min_value=0, max_value=5),
)
# Every value below 2**-126: the all-zero group must stay inside the 8-bit
# exponent window (REPRO_SANITIZE=1 checks the span on construction).
@example(np.array([6.6e-308] + [0.0] * 8), 2, 0)
def test_property_packed_roundtrip_any_axis(values, mantissa_bits, axis_choice):
    """bfp_quantize_tensor(x).to_float() == bfp_quantize(x) for any grouping axis."""
    axis = axis_choice % (2 * values.ndim) - values.ndim  # in [-ndim, ndim)
    packed = bfp_quantize_tensor(values, mantissa_bits=mantissa_bits, group_size=8,
                                 exponent_bits=8, axis=axis)
    fake = bfp_quantize(values, mantissa_bits, 8, 8, axis=axis)
    np.testing.assert_allclose(packed.to_float(), fake, rtol=0, atol=0)
    assert packed.to_float().shape == values.shape


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float32, st.integers(min_value=1, max_value=70),
                  elements=st.floats(min_value=-1e4, max_value=1e4, width=32,
                                     allow_nan=False, allow_infinity=False)))
def test_property_float32_bit_exact_with_reference(values):
    groups, _, _ = group_values(values, 16)
    assume(np.array_equal(shared_exponents(groups), shared_exponents_reference(groups)))
    fast = bfp_quantize(values, 4, 16, 8, "nearest")
    ref = bfp_quantize_reference(values, 4, 16, 8, "nearest")
    assert fast.dtype == np.float32
    np.testing.assert_array_equal(fast, ref)


@pytest.mark.parametrize("derive", [shared_exponents, shared_exponents_reference])
def test_zero_groups_never_sit_above_the_top_exponent(derive):
    """With every value below 2**-126, all-zero groups take the top
    exponent, in the kernel and the reference alike, so the 8-bit window
    holds every exponent."""
    groups = np.array([[6.6e-308, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(derive(groups, exponent_bits=8), [-1021, -1021])
    np.testing.assert_array_equal(derive(groups * 2.0 ** 900, exponent_bits=8),
                                  [-121, -126])


def test_compute_group_exponents_uses_exact_path():
    """The public helper now routes through the frexp kernel."""
    groups = np.array([[[0.75, 3.2, -1.5, 0.1]]])
    assert compute_group_exponents(groups)[0, 0] == 1
    value = np.nextafter(4.0, 0.0)
    assert compute_group_exponents(np.array([[[value]]]))[0, 0] == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: hnp.arrays(
        dtype, st.tuples(st.integers(1, 4), st.integers(1, 33)),
        elements=st.one_of(st.floats(width=np.dtype(dtype).itemsize * 8),
                           st.sampled_from([0.0, -0.0, np.nan])))))
def test_property_fold_group_max_equals_max(values):
    """The stride-2 fold is ``max(axis=-1)``: odd sizes, NaN and signed zeros."""
    folded = kernels._fold_group_max(values)
    assert folded.dtype == values.dtype
    np.testing.assert_array_equal(folded, values.max(axis=-1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_restore_signs_is_copysign_bit_for_bit(dtype):
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    source = np.array([1.5, -1.5, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, -1e-30],
                      dtype=dtype)
    # A NaN with a payload and its sign bit set.
    source = np.append(source, (source[7:8].view(bits) | bits.type(5)).view(dtype))
    magnitudes = np.abs(np.roll(source, 3))
    expected = np.copysign(magnitudes, source)
    restored = kernels._restore_signs(magnitudes.copy(), source)
    np.testing.assert_array_equal(restored.view(bits), expected.view(bits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_quantized_values_carry_their_source_signs(dtype):
    """Values that round to zero keep their sign, as ``copysign`` gives it."""
    values = np.array([1.0, -1e-3, -0.0, 0.0, -0.6, 1e-3] + [0.0] * 10, dtype=dtype)
    fast = bfp_quantize(values, 2, 16, 8)
    expected = np.copysign(np.abs(bfp_quantize_reference(values, 2, 16, 8)), values)
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    np.testing.assert_array_equal(fast.view(bits), expected.view(bits))
    assert np.signbit(fast[1]) and np.signbit(fast[2]) and not np.signbit(fast[3])


class TestFloat32RoundingIsExact:
    """Float32 quantization rounds like the float64 reference on the same
    values, also where the float32 add of the offset itself would round."""

    @pytest.mark.parametrize("mantissa_bits", [2, 4, 13, 22, 23, 24])
    def test_nearest_just_below_a_half(self, mantissa_bits):
        # The group max fixes the shared exponent at 0, so the second value
        # scales to 0.5 * (1 - 2**-24): it rounds to 0, but the float32 sum
        # with 0.5 rounds up to 1.
        tiny = 2.0 ** -mantissa_bits * (1 - 2.0 ** -24)
        values = np.array([1.9375, tiny] + [0.0] * 14, dtype=np.float32)
        assert values[1] == tiny  # representable
        expected = bfp_quantize_reference(values.astype(np.float64), mantissa_bits, 16, 8)
        assert expected[1] == 0.0
        fast = bfp_quantize(values, mantissa_bits, 16, 8)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, expected)
        conversion = AdaptiveConversion(values, BFPConfig(exponent_bits=8, group_size=16),
                                        low_bits=mantissa_bits, high_bits=mantissa_bits + 2)
        np.testing.assert_array_equal(conversion.quantize(mantissa_bits), expected)

    def test_stochastic_just_below_the_noise_complement(self):
        # Place a value whose scaled magnitude is one float32 ulp-fraction
        # below 1/256 where the pooled noise is 255/256.
        noise = NoisePool(5, capacity=4096).uniform((16 * 64,))
        position = int(np.flatnonzero(noise == np.float32(255 / 256))[0])
        values = np.zeros(16 * 64, dtype=np.float32)
        values[position - position % 16] = 1.9375
        values[position] = 2.0 ** -11 * (1 - 2.0 ** -24)
        if position % 16 == 0:
            values[position + 1] = 1.9375
        expected = bfp_quantize_reference(values.astype(np.float64), 4, 16, 8, "stochastic",
                                          rng=NoisePool(5, capacity=4096))
        assert expected[position] == 0.0
        fast = bfp_quantize(values, 4, 16, 8, "stochastic", rng=NoisePool(5, capacity=4096))
        np.testing.assert_array_equal(fast, expected)

    @pytest.mark.parametrize("mantissa_bits", [4, 20])
    def test_full_precision_noise(self, mantissa_bits):
        # At 20 bits the scaled magnitudes reach 2**20, where a float32 sum
        # with 53-bit noise would round across integers for many values.
        values = np.random.default_rng(3).standard_normal(1 << 14).astype(np.float32)
        fast = bfp_quantize(values, mantissa_bits, 16, 8, "stochastic",
                            rng=np.random.default_rng(4), noise_bits=None)
        ref = bfp_quantize_reference(values.astype(np.float64), mantissa_bits, 16, 8,
                                     "stochastic", rng=np.random.default_rng(4),
                                     noise_bits=None)
        assert fast.dtype == np.float32
        np.testing.assert_array_equal(fast, ref)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(
           lambda dtype: hnp.arrays(
               dtype, st.tuples(st.integers(1, 3), st.integers(1, 40)),
               elements=st.floats(width=np.dtype(dtype).itemsize * 8, allow_nan=False,
                                  allow_infinity=False))),
       st.sampled_from([(2, 4), (3, 7), (4, 8), (20, 24)]),
       st.sampled_from([8, 3, None]))
def test_property_nearest_magnitudes_are_both_nearest_results(values, widths, exponent_bits):
    """One scaled pass gives |quantize| at both widths, bit for bit -- also
    on the elementwise-ldexp route that subnormal and huge values take."""
    low_bits, high_bits = widths
    grouped = kernels.GroupedTensor(values, 16, exponent_bits)
    low, high = grouped.nearest_magnitudes(low_bits, high_bits)
    for bits, magnitudes in ((low_bits, low), (high_bits, high)):
        # (A pair that needs float64 at the high width computes both in float64.)
        expected = np.abs(grouped.quantize(bits))
        assert not np.signbit(magnitudes).any()
        np.testing.assert_array_equal(magnitudes, expected)
        np.testing.assert_array_equal(grouped.ungroup(grouped.restore_signs(magnitudes)),
                                      bfp_quantize(values, bits, 16, exponent_bits))
