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
from repro.core.bfp import bfp_quantize, bfp_quantize_tensor, compute_group_exponents, group_values
from repro.core.kernels import bfp_quantize_fast, shared_exponents
from repro.core.rounding import LFSR, VectorizedLFSR
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
