"""Tests for the functional fMAC: chunked BFP dot products are bit-exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfp import bfp_quantize, bfp_quantize_tensor
from repro.core.chunks import passes_required
from repro.hardware.fmac import bfp_matmul, fmac_dot_product
from repro.reference import fmac_dot_product_reference, fmac_group_dot


def quantize_vector(values, mantissa_bits, group_size=16):
    return bfp_quantize_tensor(values, mantissa_bits=mantissa_bits, group_size=group_size,
                               exponent_bits=8)


class TestGroupDot:
    def test_matches_float_dot_product(self, rng):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        qa = quantize_vector(a, 4)
        qb = quantize_vector(b, 4)
        result = fmac_group_dot(
            qa.signs[0, 0], qa.mantissas[0, 0], int(qa.exponents[0, 0]), 4,
            qb.signs[0, 0], qb.mantissas[0, 0], int(qb.exponents[0, 0]), 4,
        )
        expected = float(np.dot(qa.to_float(), qb.to_float()))
        assert result.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bits_a,bits_b,expected_passes", [(2, 2, 1), (4, 2, 2), (2, 4, 2), (4, 4, 4)])
    def test_pass_counts(self, rng, bits_a, bits_b, expected_passes):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        qa = quantize_vector(a, bits_a)
        qb = quantize_vector(b, bits_b)
        result = fmac_group_dot(
            qa.signs[0, 0], qa.mantissas[0, 0], int(qa.exponents[0, 0]), bits_a,
            qb.signs[0, 0], qb.mantissas[0, 0], int(qb.exponents[0, 0]), bits_b,
        )
        assert result.passes == expected_passes
        assert result.multiplications == expected_passes * 16

    def test_mixed_precision_matches_float(self, rng):
        """The headline feature: a 4-bit x 2-bit dot product in 2 passes is exact."""
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        qa = quantize_vector(a, 4)
        qb = quantize_vector(b, 2)
        result = fmac_group_dot(
            qa.signs[0, 0], qa.mantissas[0, 0], int(qa.exponents[0, 0]), 4,
            qb.signs[0, 0], qb.mantissas[0, 0], int(qb.exponents[0, 0]), 2,
        )
        expected = float(np.dot(qa.to_float(), qb.to_float()))
        assert result.value == pytest.approx(expected, rel=1e-12)

    def test_zero_group(self):
        zeros = np.zeros(16)
        q = quantize_vector(zeros, 2)
        result = fmac_group_dot(q.signs[0, 0], q.mantissas[0, 0], int(q.exponents[0, 0]), 2,
                                q.signs[0, 0], q.mantissas[0, 0], int(q.exponents[0, 0]), 2)
        assert result.value == 0.0


class TestVectorDot:
    def test_multi_group_accumulation(self, rng):
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        qa = quantize_vector(a, 4)
        qb = quantize_vector(b, 4)
        result = fmac_dot_product(qa, qb)
        assert result.value == pytest.approx(float(np.dot(qa.to_float(), qb.to_float())), rel=1e-12)
        assert result.passes == 4 * 4  # 4 groups x 4 passes each

    def test_shape_mismatch_rejected(self, rng):
        qa = quantize_vector(rng.standard_normal(32), 2)
        qb = quantize_vector(rng.standard_normal(16), 2)
        with pytest.raises(ValueError):
            fmac_dot_product(qa, qb)

    def test_group_size_mismatch_rejected(self, rng):
        values = rng.standard_normal(32)
        qa = bfp_quantize_tensor(values, mantissa_bits=2, group_size=16, exponent_bits=8)
        qb = bfp_quantize_tensor(values, mantissa_bits=2, group_size=8, exponent_bits=8)
        with pytest.raises(ValueError):
            fmac_dot_product(qa, qb)


class TestBFPMatmul:
    def test_matches_quantized_numpy_matmul(self, rng):
        a = rng.standard_normal((3, 32))
        b = rng.standard_normal((32, 2))
        result, passes = bfp_matmul(a, b, mantissa_bits_a=4, mantissa_bits_b=4,
                                    group_size=16, exponent_bits=8)
        a_q = bfp_quantize(a, 4, 16, 8, axis=1)
        b_q = bfp_quantize(b.T, 4, 16, 8, axis=1).T
        np.testing.assert_allclose(result, a_q @ b_q, rtol=1e-10)
        assert passes == 3 * 2 * 2 * passes_required(4, 4)

    def test_variable_precision_pass_count(self, rng):
        a = rng.standard_normal((2, 16))
        b = rng.standard_normal((16, 2))
        _, passes_low = bfp_matmul(a, b, 2, 2)
        _, passes_mixed = bfp_matmul(a, b, 4, 2)
        _, passes_high = bfp_matmul(a, b, 4, 4)
        assert passes_mixed == 2 * passes_low
        assert passes_high == 4 * passes_low

    def test_close_to_unquantized_product_at_high_precision(self, rng):
        a = rng.standard_normal((4, 64))
        b = rng.standard_normal((64, 3))
        result, _ = bfp_matmul(a, b, 6, 6, group_size=16)
        relative_error = np.abs(result - a @ b).max() / np.abs(a @ b).max()
        assert relative_error < 0.05

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            bfp_matmul(rng.standard_normal((2, 8)), rng.standard_normal((9, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from([(2, 2), (4, 2), (4, 4)]))
def test_property_chunked_dot_equals_direct_integer_dot(seed, precision):
    """For random BFP groups, chunked evaluation equals the direct dot product."""
    bits_a, bits_b = precision
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(16) * 10.0 ** rng.integers(-3, 3)
    b = rng.standard_normal(16) * 10.0 ** rng.integers(-3, 3)
    qa = quantize_vector(a, bits_a)
    qb = quantize_vector(b, bits_b)
    result = fmac_group_dot(
        qa.signs[0, 0], qa.mantissas[0, 0], int(qa.exponents[0, 0]), bits_a,
        qb.signs[0, 0], qb.mantissas[0, 0], int(qb.exponents[0, 0]), bits_b,
    )
    expected = float(np.dot(qa.to_float(), qb.to_float()))
    assert result.value == pytest.approx(expected, rel=1e-10, abs=1e-18)


class TestVectorizedMatmulEquivalence:
    """The einsum-based bfp_matmul must be bit-exact with the per-group fMAC loop."""

    @pytest.mark.parametrize("shape,bits_a,bits_b", [
        ((3, 32, 2), 4, 4), ((2, 16, 2), 2, 2), ((4, 48, 3), 4, 2), ((2, 20, 2), 3, 5),
    ])
    def test_matches_scalar_group_dot_loop(self, rng, shape, bits_a, bits_b):
        rows, inner, cols = shape
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        result, passes = bfp_matmul(a, b, bits_a, bits_b, group_size=16, exponent_bits=8)

        a_q = bfp_quantize_tensor(a, mantissa_bits=bits_a, group_size=16, exponent_bits=8, axis=1)
        b_q = bfp_quantize_tensor(b.T, mantissa_bits=bits_b, group_size=16, exponent_bits=8, axis=1)
        expected = np.zeros((rows, cols))
        expected_passes = 0
        groups = a_q.exponents.shape[1]
        for i in range(rows):
            for j in range(cols):
                for g in range(groups):
                    partial = fmac_group_dot(
                        a_q.signs[i, g], a_q.mantissas[i, g], int(a_q.exponents[i, g]), bits_a,
                        b_q.signs[j, g], b_q.mantissas[j, g], int(b_q.exponents[j, g]), bits_b,
                    )
                    expected[i, j] += partial.value
                    expected_passes += partial.passes
        np.testing.assert_array_equal(result, expected)
        assert passes == expected_passes


class TestVectorizedDotProduct:
    """fmac_dot_product routes through the chunk-pair einsum; the scalar
    per-group walk, repro.reference.fmac_dot_product_reference, must agree
    bit-for-bit (value, passes and multiplication counts)."""

    @pytest.mark.parametrize("size", [16, 33, 64, 100, 7])
    @pytest.mark.parametrize("bits_a,bits_b", [(4, 4), (2, 4), (4, 2), (2, 2), (5, 3)])
    def test_matches_scalar_reference(self, rng, size, bits_a, bits_b):
        a = quantize_vector(rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size=size),
                            bits_a)
        b = quantize_vector(rng.standard_normal(size), bits_b)
        fast = fmac_dot_product(a, b)
        ref = fmac_dot_product_reference(a, b)
        assert fast.value == ref.value
        assert fast.passes == ref.passes
        assert fast.multiplications == ref.multiplications

    def test_wide_chunks_match_scalar_reference(self, rng):
        a = quantize_vector(rng.standard_normal(48), 6)
        b = quantize_vector(rng.standard_normal(48), 6)
        fast = fmac_dot_product(a, b, chunk_bits=3)
        ref = fmac_dot_product_reference(a, b, chunk_bits=3)
        assert fast.value == ref.value
        assert fast.passes == ref.passes

    def test_mismatched_shapes_rejected(self, rng):
        a = quantize_vector(rng.standard_normal(32), 4)
        b = quantize_vector(rng.standard_normal(16), 4)
        with pytest.raises(ValueError, match="same shape"):
            fmac_dot_product(a, b)

    def test_mismatched_group_size_rejected(self, rng):
        a = quantize_vector(rng.standard_normal(32), 4, group_size=16)
        b = quantize_vector(rng.standard_normal(32), 4, group_size=8)
        with pytest.raises(ValueError, match="group size"):
            fmac_dot_product(a, b)
