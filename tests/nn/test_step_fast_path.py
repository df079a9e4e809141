"""Tests for the step-level fast paths in ``repro.nn.functional``, each
against its golden model in :mod:`repro.reference`:

* memoized im2col/scatter indices vs. indices built afresh,
* the BLAS/bincount convolution vs. the einsum/add.at reference,
* the fat-layout convolution gather and backward GEMMs,
* the strided non-overlapping max-pool route (first-winner masks) vs.
  im2col pooling,
* the ``im2col`` kernel metric of the convolution gather,
* dtype preservation in ``dropout`` and ``one_hot``.
"""

import numpy as np
import pytest

from repro import reference
from repro.nn import functional as F
from repro.nn.tensor import Tensor


@pytest.fixture(autouse=True)
def _empty_index_caches():
    """Each test starts with empty index caches."""
    F.clear_im2col_cache()
    yield
    F.clear_im2col_cache()


class TestIm2colMemoization:
    def test_hit_returns_identical_objects(self):
        shape = (2, 3, 8, 8)
        first = F.im2col_indices(shape, 3, 3, 1, 1)
        second = F.im2col_indices(shape, 3, 3, 1, 1)
        assert all(a is b for a, b in zip(first[:3], second[:3]))

    def test_batch_size_does_not_split_the_cache(self):
        first = F.im2col_indices((2, 3, 8, 8), 3, 3, 1, 1)
        second = F.im2col_indices((64, 3, 8, 8), 3, 3, 1, 1)
        assert first[0] is second[0]

    def test_memoized_indices_match_fresh_build(self):
        shape = (4, 5, 9, 7)
        cached = F.im2col_indices(shape, 3, 2, 2, 1)
        fresh = reference.im2col_indices(shape, 3, 2, 2, 1)
        for a, b in zip(cached, fresh):
            np.testing.assert_array_equal(a, b)

    def test_cached_arrays_are_read_only(self):
        k, i, j, _, _ = F.im2col_indices((2, 3, 8, 8), 3, 3, 1, 1)
        with pytest.raises(ValueError):
            k[0, 0] = 99

    def test_empty_output_still_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            F.im2col_indices((1, 1, 2, 2), 5, 5, 1, 0)


class TestConvFastPath:
    def run_conv(self, rng, conv2d, stride=1, padding=1):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        out = conv2d(x, w, b, stride=stride, padding=padding)
        out.sum().backward()
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (1, 2)])
    def test_matmul_path_matches_einsum(self, stride, padding):
        fast = self.run_conv(np.random.default_rng(0), F.conv2d, stride, padding)
        slow = self.run_conv(np.random.default_rng(0), reference.conv2d, stride, padding)
        for fast_arr, slow_arr in zip(fast, slow):
            np.testing.assert_allclose(fast_arr, slow_arr, rtol=1e-12, atol=1e-12)

    def test_col2im_bincount_bit_equals_add_at(self, rng):
        shape = (3, 3, 8, 8)
        out_side = (8 + 2 * 1 - 2) // 1 + 1
        cols = rng.standard_normal((3, 3 * 4, out_side * out_side))
        fast = F.col2im(cols, shape, 2, 2, 1, 1)
        slow = reference.col2im(cols, shape, 2, 2, 1, 1)
        np.testing.assert_array_equal(fast, slow)

    def test_col2im_float32_keeps_dtype(self, rng):
        cols = rng.standard_normal((2, 4, 16)).astype(np.float32)
        out = F.col2im(cols, (2, 1, 8, 8), 2, 2, 2, 0)
        assert out.dtype == np.float32

    def test_col2im_float32_fast_path_matches_add_at(self, rng):
        """The float32 fast scatter (float64 accumulate, one final round)
        agrees with the float32 ``add.at`` reference to rounding error."""
        cols = rng.standard_normal((2, 1 * 9, 64)).astype(np.float32)
        fast = F.col2im(cols, (2, 1, 8, 8), 3, 3, 1, 1)
        slow = reference.col2im(cols, (2, 1, 8, 8), 3, 3, 1, 1)
        assert fast.dtype == slow.dtype == np.float32
        np.testing.assert_allclose(fast, slow, rtol=1e-5, atol=1e-6)


class TestGroupedConvFastPath:
    def run_grouped(self, rng, fast, groups, cin, cout, stride=1, padding=1):
        from repro import nn

        layer = nn.Conv2d(cin, cout, 3, stride=stride, padding=padding,
                          groups=groups, rng=np.random.default_rng(7))
        x = Tensor(rng.standard_normal((2, cin, 8, 8)), requires_grad=True)
        if fast:
            out = layer(x)
        else:
            out = reference.conv2d(x, layer.weight, layer.bias, stride=stride,
                                   padding=padding, groups=groups)
        (out * out).sum().backward()
        result = (out.data, x.grad, layer.weight.grad, layer.bias.grad)
        layer.zero_grad()
        return result

    @pytest.mark.parametrize("groups,cin,cout", [(2, 4, 6), (6, 6, 6), (3, 9, 3)])
    def test_batched_group_matmul_matches_per_group_loop(self, groups, cin, cout):
        fast = self.run_grouped(np.random.default_rng(1), True, groups, cin, cout)
        slow = self.run_grouped(np.random.default_rng(1), False, groups, cin, cout)
        for fast_arr, slow_arr in zip(fast, slow):
            np.testing.assert_allclose(fast_arr, slow_arr, rtol=1e-10, atol=1e-10)

    def test_depthwise_strided(self):
        fast = self.run_grouped(np.random.default_rng(2), True, 4, 4, 4, stride=2)
        slow = self.run_grouped(np.random.default_rng(2), False, 4, 4, 4, stride=2)
        for fast_arr, slow_arr in zip(fast, slow):
            np.testing.assert_allclose(fast_arr, slow_arr, rtol=1e-10, atol=1e-10)

    def test_functional_groups_shape_validation(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            F.conv2d(x, w, groups=3)

    def test_conv2d_infer_matches_autograd_forward(self, rng):
        x = rng.standard_normal((2, 4, 6, 6))
        w = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        expected = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1, groups=2).data
        np.testing.assert_array_equal(
            F.conv2d_infer(x, w, b, padding=1, groups=2), expected)


class TestFatLayoutConvGeometry:
    """The fat-layout gather and backward GEMMs against the einsum reference."""

    GEOMETRIES = {
        # name: (x shape, weight shape, stride, padding, groups)
        "stride2": ((2, 3, 9, 9), (4, 3, 3, 3), 2, 1, 1),
        "padding0": ((2, 3, 8, 8), (5, 3, 3, 3), 1, 0, 1),
        "padding2": ((2, 3, 6, 6), (4, 3, 3, 3), 1, 2, 1),
        "groups2": ((3, 4, 7, 7), (6, 2, 3, 3), 1, 1, 2),
        "depthwise": ((2, 5, 8, 8), (5, 1, 3, 3), 2, 1, 5),
        "batch1": ((1, 3, 8, 8), (4, 3, 3, 3), 1, 1, 1),
        "non_square": ((2, 3, 7, 11), (4, 3, 3, 2), 2, 1, 1),
        "non_square_grouped": ((1, 6, 5, 9), (6, 3, 2, 3), 1, 0, 2),
    }

    def run_conv(self, conv2d, name):
        """``(out, grad_x, grad_w, grad_b)`` of one geometry, plus the
        ``conv2d_infer`` result on the same inputs."""
        x_shape, w_shape, stride, padding, groups = self.GEOMETRIES[name]
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(w_shape[0]), requires_grad=True)
        out = conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        (out * out).sum().backward()
        infer = F.conv2d_infer(x.data, w.data, b.data, stride=stride, padding=padding,
                               groups=groups)
        return (out.data, x.grad, w.grad, b.grad), infer

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_matches_einsum_reference(self, name):
        fast, infer = self.run_conv(F.conv2d, name)
        slow, _ = self.run_conv(reference.conv2d, name)
        for fast_arr, slow_arr in zip(fast + (infer,), slow + slow[:1]):
            assert fast_arr.shape == slow_arr.shape
            np.testing.assert_allclose(fast_arr, slow_arr, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_infer_bit_equals_autograd_forward(self, name):
        (out, _, _, _), infer = self.run_conv(F.conv2d, name)
        assert_bits_equal(infer, out)

    def test_fat_gather_holds_im2col_patches(self, rng):
        x = rng.standard_normal((3, 4, 7, 6))
        _, _, _, out_h, out_w = F.im2col_indices(x.shape, 3, 2, 2, 1)
        cols = F.im2col(x, 3, 2, 2, 1)
        fat = F._gather_fat(x, 3, 2, 2, 1, out_h, out_w)
        np.testing.assert_array_equal(
            fat, cols.transpose(1, 0, 2).reshape(cols.shape[1], -1))


class _RecordingProfiler:
    def __init__(self):
        self.records = []

    def record(self, kernel, seconds, elements=0):
        self.records.append((kernel, elements))


class TestConvIm2colMetric:
    def test_one_forward_records_one_im2col(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 6)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        profiler = _RecordingProfiler()
        previous = F.set_profiler(profiler)
        try:
            out = F.conv2d(x, w, stride=2, padding=1)
            F.conv2d_infer(x.data, w.data, stride=2, padding=1)
        finally:
            F.set_profiler(previous)
        patches = 3 * 3 * 3 * 2 * out.shape[2] * out.shape[3]
        im2col = [elements for kernel, elements in profiler.records if kernel == "im2col"]
        assert im2col == [patches, patches]
        assert [kernel for kernel, _ in profiler.records].count("conv2d_forward") == 2


class TestAvgPoolFastPath:
    def run_pool(self, x, fast, kernel, stride=None):
        tensor = Tensor(x, requires_grad=True)
        out = (F.avg_pool2d if fast else reference.avg_pool2d)(tensor, kernel, stride)
        out.sum().backward()
        return out.data, tensor.grad

    def test_power_of_two_window_bit_equals_im2col(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        fast_out, fast_grad = self.run_pool(x, True, 2)
        slow_out, slow_grad = self.run_pool(x, False, 2)
        np.testing.assert_array_equal(fast_out, slow_out)
        np.testing.assert_array_equal(fast_grad, slow_grad)

    def test_odd_window_matches_to_rounding_with_exact_backward(self, rng):
        # A 9-element mean may pair elements differently across layouts;
        # the backward spread is bit-identical regardless.
        x = rng.standard_normal((1, 2, 6, 6))
        fast_out, fast_grad = self.run_pool(x, True, 3)
        slow_out, slow_grad = self.run_pool(x, False, 3)
        np.testing.assert_allclose(fast_out, slow_out, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(fast_grad, slow_grad)

    def test_overlapping_windows_use_im2col_path(self, rng):
        x = rng.standard_normal((1, 1, 6, 6))
        fast_out, fast_grad = self.run_pool(x, True, 3, stride=2)
        slow_out, slow_grad = self.run_pool(x, False, 3, stride=2)
        np.testing.assert_array_equal(fast_out, slow_out)
        np.testing.assert_array_equal(fast_grad, slow_grad)

    def test_infer_helpers_match_autograd(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        np.testing.assert_array_equal(F.avg_pool2d_infer(x, 2),
                                      F.avg_pool2d(Tensor(x), 2).data)
        np.testing.assert_array_equal(F.max_pool2d_infer(x, 2),
                                      F.max_pool2d(Tensor(x), 2).data)
        np.testing.assert_array_equal(F.avg_pool2d_infer(x, 3, 2),
                                      F.avg_pool2d(Tensor(x), 3, 2).data)


def assert_bits_equal(actual, expected):
    """Bit-for-bit equality: tells -0.0 from +0.0 and compares NaN payloads."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(np.uint8),
                                  np.ascontiguousarray(expected).view(np.uint8))


def pool_edge_cases(kernel, dtype):
    """Ties, NaN windows and signed-zero windows at every window position."""
    rng = np.random.default_rng(kernel)
    side = 4 * kernel
    x = rng.integers(-2, 3, size=(2, 3, side, side)).astype(dtype)
    x[0, 0, 0, :] = np.nan                       # NaN in the first window row
    x[0, 0, kernel + 1, kernel + 1] = np.nan     # a NaN mid-window
    x[0, 1, :kernel, :kernel] = -0.0             # all-zero window, -0.0 first
    x[0, 1, 0, kernel - 1] = 0.0
    x[0, 1, :kernel, kernel:2 * kernel] = 0.0    # all-zero window, +0.0 first
    x[0, 1, kernel - 1, 2 * kernel - 1] = -0.0
    x[1, 2, :kernel, :kernel] = -1.0             # zeros tied below negatives
    x[1, 2, kernel - 1, 0] = -0.0
    x[1, 2, kernel - 1, 1] = 0.0
    return x


class TestMaxPoolFastPath:
    def run_pool(self, x, fast, kernel, stride=None, grad=None):
        tensor = Tensor(x, requires_grad=True)
        out = (F.max_pool2d if fast else reference.max_pool2d)(tensor, kernel, stride)
        if grad is None:
            out.sum().backward()
        else:
            out.backward(grad)
        return out.data, tensor.grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_strided_path_bit_equals_im2col_on_edge_cases(self, kernel, dtype):
        x = pool_edge_cases(kernel, dtype)
        out_shape = (2, 3, 4, 4)
        # Distinct gradients per output, so a wrong winner cannot hide.
        grad = (np.arange(np.prod(out_shape)).reshape(out_shape) + 1).astype(dtype)
        fast_out, fast_grad = self.run_pool(x, True, kernel, grad=grad)
        slow_out, slow_grad = self.run_pool(x, False, kernel, grad=grad)
        assert fast_out.dtype == fast_grad.dtype == dtype
        assert np.isnan(fast_out).any() and np.signbit(fast_out[fast_out == 0]).any()
        assert_bits_equal(fast_out, slow_out)
        assert_bits_equal(fast_grad, slow_grad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [2, 3])
    def test_infer_bit_equals_autograd_forward(self, kernel, dtype):
        x = pool_edge_cases(kernel, dtype)
        autograd = F.max_pool2d(Tensor(x), kernel).data
        assert_bits_equal(F.max_pool2d_infer(x, kernel), autograd)
        assert_bits_equal(reference.max_pool2d(Tensor(x), kernel).data, autograd)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tie_heavy_pool_bit_equals_im2col(self, dtype):
        """Conv2's ReLU output shape, where most windows are all signed zeros."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((32, 64, 16, 16)) - 2.4
        zero = x <= 0
        x[zero] = np.where(rng.random(zero.sum()) < 0.9, -0.0, 0.0)
        x = x.astype(dtype)
        windows = x.reshape(32, 64, 8, 2, 8, 2)
        assert np.mean(~windows.any(axis=(3, 5))) >= 0.9
        grad = rng.standard_normal((32, 64, 8, 8)).astype(dtype)
        fast_out, fast_grad = self.run_pool(x, True, 2, grad=grad)
        slow_out, slow_grad = self.run_pool(x, False, 2, grad=grad)
        assert np.signbit(fast_out[fast_out == 0]).mean() > 0.5
        assert_bits_equal(fast_out, slow_out)
        assert_bits_equal(fast_grad, slow_grad)

    def test_first_winner_takes_the_gradient(self):
        # All four elements tie: argmax's rule sends the gradient to the first.
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]])
        out, grad = self.run_pool(x, True, 2, grad=np.array([[[[5.0]]]]))
        assert_bits_equal(out, np.array([[[[-0.0]]]]))
        assert_bits_equal(grad, np.array([[[[5.0, 0.0], [0.0, 0.0]]]]))

    @pytest.mark.parametrize("shape,kernel", [((2, 3, 8, 8), 2), ((1, 2, 6, 6), 3)])
    def test_reshape_path_bit_equals_im2col(self, rng, shape, kernel):
        # Integer values create ties; both paths must pick the same winner.
        x = rng.integers(-3, 4, size=shape).astype(float)
        fast_out, fast_grad = self.run_pool(x, True, kernel)
        slow_out, slow_grad = self.run_pool(x, False, kernel)
        np.testing.assert_array_equal(fast_out, slow_out)
        np.testing.assert_array_equal(fast_grad, slow_grad)

    def test_overlapping_windows_use_im2col_path(self, rng):
        x = rng.standard_normal((1, 1, 6, 6))
        fast_out, fast_grad = self.run_pool(x, True, 3, stride=2)
        slow_out, slow_grad = self.run_pool(x, False, 3, stride=2)
        np.testing.assert_array_equal(fast_out, slow_out)
        np.testing.assert_array_equal(fast_grad, slow_grad)


class TestDtypePreservation:
    def test_dropout_mask_keeps_float32(self):
        x = Tensor(np.ones((64, 64), dtype=np.float32))
        assert x.data.dtype == np.float32  # Tensor preserves float32
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        assert out.data.dtype == np.float32

    def test_dropout_float64_values_unchanged_semantics(self):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        x = Tensor(np.ones((32, 32)))
        out = F.dropout(x, 0.25, training=True, rng=rng_a)
        mask = (rng_b.random((32, 32)) >= 0.25).astype(np.float64) / 0.75
        np.testing.assert_array_equal(out.data, mask)

    def test_one_hot_default_float64(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        assert encoded.dtype == np.float64
        np.testing.assert_array_equal(encoded.sum(axis=1), np.ones(3))

    def test_one_hot_dtype_override(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3, dtype=np.float32)
        assert encoded.dtype == np.float32
        np.testing.assert_array_equal(
            encoded, F.one_hot(np.array([0, 2, 1]), 3).astype(np.float32))
