"""Tests for BFP quantization (grouping, shared exponents, fake quantization, packing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bfp import (
    MIN_EXPONENT,
    BFPConfig,
    bfp_quantize,
    bfp_quantize_tensor,
    ungroup_values,
)
from repro.core.kernels import GroupedTensor


class TestBFPConfig:
    def test_defaults_match_paper(self):
        config = BFPConfig()
        assert config.group_size == 16
        assert config.mantissa_bits == 4

    def test_invalid_mantissa_rejected(self):
        with pytest.raises(ValueError):
            BFPConfig(mantissa_bits=0)

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ValueError):
            BFPConfig(group_size=0)

    def test_with_mantissa_returns_copy(self):
        config = BFPConfig(mantissa_bits=4)
        low = config.with_mantissa(2)
        assert low.mantissa_bits == 2
        assert config.mantissa_bits == 4
        assert low.group_size == config.group_size

    def test_bits_per_value_matches_section_5d(self):
        # e=3, g=16: 3.19 bits/value for m=2 and 6.19 for m=4 (Section V-D).
        low = BFPConfig(mantissa_bits=2, group_size=16, exponent_bits=3)
        high = BFPConfig(mantissa_bits=4, group_size=16, exponent_bits=3)
        assert low.bits_per_value == pytest.approx(3.1875)
        assert high.bits_per_value == pytest.approx(6.1875)


class TestGrouping:
    def test_roundtrip_without_padding(self, rng):
        values = rng.standard_normal((3, 32))
        grouped = GroupedTensor(values, 16)
        assert grouped.pad == 0
        assert grouped.groups.shape == (3, 2, 16)
        restored = ungroup_values(grouped.groups, grouped.pad, grouped.moved_shape)
        np.testing.assert_array_equal(restored, values)

    def test_roundtrip_with_padding(self, rng):
        values = rng.standard_normal((2, 21))
        grouped = GroupedTensor(values, 16)
        assert grouped.pad == 11
        restored = ungroup_values(grouped.groups, grouped.pad, grouped.moved_shape)
        np.testing.assert_array_equal(restored, values)

    def test_grouping_along_other_axis(self, rng):
        values = rng.standard_normal((6, 4))
        grouped = GroupedTensor(values, 3, axis=0)
        restored = ungroup_values(grouped.groups, grouped.pad, grouped.moved_shape, axis=0)
        np.testing.assert_array_equal(restored, values)

    def test_scalar_input_handled(self):
        grouped = GroupedTensor(np.float64(3.0), 16)
        assert grouped.groups.shape[-1] == 16
        assert grouped.pad == 15


class TestGroupExponents:
    def test_exponent_is_floor_log2_of_max(self):
        exponents = GroupedTensor([0.75, 3.2, -1.5, 0.1], 4, exponent_bits=None).exponents
        assert exponents[0, 0] == 1  # floor(log2(3.2)) == 1

    def test_all_zero_group_gets_min_exponent(self):
        exponents = GroupedTensor(np.zeros(8), 4, exponent_bits=None).exponents
        assert np.all(exponents == MIN_EXPONENT)

    def test_exponent_window_clamps_small_groups(self):
        # One huge group and one tiny group; with a 2-bit exponent field the
        # tiny group's exponent is clamped up to the window bottom.
        values = [1024.0, 512.0, 1e-6, 2e-6]
        unbounded = GroupedTensor(values, 2, exponent_bits=None).exponents
        bounded = GroupedTensor(values, 2, exponent_bits=2).exponents
        assert unbounded[0, 1] < bounded[0, 1]
        assert bounded[0, 1] == unbounded[0, 0] - 3


class TestBFPQuantize:
    def test_output_shape_and_dtype_preserved(self, rng):
        values = rng.standard_normal((5, 7, 11)).astype(np.float32)
        quantized = bfp_quantize(values, mantissa_bits=4)
        assert quantized.shape == values.shape
        assert quantized.dtype == values.dtype

    def test_group_max_error_bound(self, rng):
        """Quantization error is bounded by one quantization step of the group.

        (Half a step for interior values; up to one step for the group maximum,
        which can be clipped when it rounds up to ``2**m``.)
        """
        values = rng.standard_normal((8, 64))
        for bits in (2, 3, 4, 5):
            quantized = bfp_quantize(values, mantissa_bits=bits, group_size=16, exponent_bits=8)
            exponents = GroupedTensor(values, 16, exponent_bits=None).exponents
            steps = np.power(2.0, exponents.astype(float) - (bits - 1))
            errors = GroupedTensor(np.abs(quantized - values), 16).groups
            assert np.all(errors <= steps[..., None] + 1e-12)

    def test_more_mantissa_bits_reduce_error(self, rng):
        values = rng.standard_normal((4, 64))
        errors = [np.abs(bfp_quantize(values, mantissa_bits=m, exponent_bits=8) - values).mean()
                  for m in (2, 3, 4, 6, 8)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_idempotent(self, rng):
        values = rng.standard_normal((4, 32))
        once = bfp_quantize(values, mantissa_bits=4, group_size=16, exponent_bits=8)
        twice = bfp_quantize(once, mantissa_bits=4, group_size=16, exponent_bits=8)
        np.testing.assert_allclose(once, twice)

    def test_zeros_stay_zero(self):
        values = np.zeros((2, 16))
        np.testing.assert_array_equal(bfp_quantize(values), values)

    def test_group_maximum_is_representable(self, rng):
        """The largest-magnitude value in each group keeps a full mantissa."""
        values = rng.standard_normal((4, 16)) * 10
        quantized = bfp_quantize(values, mantissa_bits=4, group_size=16, exponent_bits=8)
        max_positions = np.argmax(np.abs(values), axis=1)
        for row, col in enumerate(max_positions):
            relative_error = abs(quantized[row, col] - values[row, col]) / abs(values[row, col])
            assert relative_error < 2 ** (-3)

    def test_small_values_in_wide_group_truncate_to_zero(self):
        """A value whose exponent is far below the shared exponent loses all bits."""
        values = np.array([[8.0, 1e-4] + [0.0] * 14])
        quantized = bfp_quantize(values, mantissa_bits=2, group_size=16, rounding="truncate")
        assert quantized[0, 1] == 0.0

    def test_stochastic_rounding_unbiased_on_average(self):
        rng = np.random.default_rng(3)
        values = np.full((2000, 16), 0.3)
        quantized = bfp_quantize(values, mantissa_bits=2, group_size=16,
                                 rounding="stochastic", rng=rng, noise_bits=None)
        assert abs(quantized.mean() - 0.3) < 0.01

    def test_sign_preserved(self, rng):
        values = rng.standard_normal((4, 32))
        quantized = bfp_quantize(values, mantissa_bits=4, exponent_bits=8)
        nonzero = quantized != 0
        assert np.all(np.sign(quantized[nonzero]) == np.sign(values[nonzero]))


class TestBFPTensor:
    def test_roundtrip_matches_fake_quantization(self, rng):
        values = rng.standard_normal((6, 40))
        packed = bfp_quantize_tensor(values, mantissa_bits=4, group_size=16, exponent_bits=8)
        fake = bfp_quantize(values, mantissa_bits=4, group_size=16, exponent_bits=8)
        np.testing.assert_allclose(packed.to_float(), fake)

    def test_mantissas_fit_in_field(self, rng):
        values = rng.standard_normal((4, 32)) * 100
        for bits in (2, 4):
            packed = bfp_quantize_tensor(values, mantissa_bits=bits)
            assert packed.mantissas.max() <= (1 << bits) - 1
            assert packed.mantissas.min() >= 0

    def test_signs_are_ternary(self, rng):
        packed = bfp_quantize_tensor(rng.standard_normal((4, 32)))
        assert set(np.unique(packed.signs)) <= {-1, 0, 1}

    def test_storage_accounting(self, rng):
        values = rng.standard_normal((4, 32))
        packed = bfp_quantize_tensor(values, mantissa_bits=2, group_size=16, exponent_bits=3)
        # 8 groups x (3 + 16 * 1 * 3) bits
        assert packed.storage_bits() == 8 * 51
        assert packed.bits_per_value() == pytest.approx(8 * 51 / 128)

    def test_config_overrides(self, rng):
        config = BFPConfig(mantissa_bits=4, group_size=8)
        packed = bfp_quantize_tensor(rng.standard_normal(24), config=config, mantissa_bits=2)
        assert packed.mantissa_bits == 2
        assert packed.group_size == 8

    def test_num_values_excludes_padding(self, rng):
        packed = bfp_quantize_tensor(rng.standard_normal(20), group_size=16)
        assert packed.num_values == 20
        assert packed.num_groups == 2


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, st.integers(min_value=1, max_value=60),
                  elements=st.floats(min_value=-1e4, max_value=1e4,
                                     allow_nan=False, allow_infinity=False)))
def test_property_relative_group_error_bound(values):
    """For every group, the max error is at most 2^-(m-1) of the group maximum."""
    mantissa_bits = 4
    quantized = bfp_quantize(values, mantissa_bits=mantissa_bits, group_size=16, exponent_bits=None)
    groups = GroupedTensor(values, 16).groups.copy()
    quantized_groups = GroupedTensor(quantized, 16).groups
    group_max = np.abs(groups).max(axis=-1)
    errors = np.abs(quantized_groups - groups).max(axis=-1)
    bound = group_max * 2.0 ** (-(mantissa_bits - 1)) + 1e-12
    assert np.all(errors <= bound)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=20),
                  elements=st.floats(min_value=-1e3, max_value=1e3,
                                     allow_nan=False, allow_infinity=False)),
       st.sampled_from([2, 3, 4]))
def test_property_packed_roundtrip_equals_fake_quant(values, mantissa_bits):
    packed = bfp_quantize_tensor(values, mantissa_bits=mantissa_bits, group_size=8, exponent_bits=8)
    fake = bfp_quantize(values, mantissa_bits=mantissa_bits, group_size=8, exponent_bits=8)
    np.testing.assert_allclose(packed.to_float(), fake, rtol=0, atol=0)
