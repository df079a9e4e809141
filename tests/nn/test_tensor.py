"""Tests for the autograd Tensor: arithmetic, reductions, shape ops, backward."""

import weakref

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import BFPConfig
from repro.data import DataLoader, synthetic_cifar
from repro.nn import tensor as tensor_module
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.nn.tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack
from repro.training import ClassificationTrainer, FASTSchedule


class TestBasics:
    def test_construction_and_properties(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4
        assert not tensor.requires_grad

    def test_as_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == 3.5
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_detach_cuts_graph(self):
        tensor = Tensor([1.0], requires_grad=True)
        detached = tensor.detach()
        assert not detached.requires_grad
        np.testing.assert_array_equal(detached.data, tensor.data)

    def test_no_grad_context(self):
        tensor = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            result = tensor * 2
        assert is_grad_enabled()
        assert not result.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_on_non_scalar_needs_grad(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (tensor * 2).backward()


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_array_equal(a.grad, [5.0, 7.0])
        np.testing.assert_array_equal(b.grad, [2.0, 3.0])

    def test_broadcast_add_backward(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        np.testing.assert_array_equal(b.grad, [3.0, 3.0, 3.0, 3.0])

    def test_broadcast_mul_with_keepdims_shape(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        scale = Tensor(np.array([[2.0], [3.0]]), requires_grad=True)
        (a * scale).sum().backward()
        assert scale.grad.shape == (2, 1)
        np.testing.assert_array_equal(scale.grad, [[3.0], [12.0]])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        assert a.grad[0] == pytest.approx(1 / 3)
        assert b.grad[0] == pytest.approx(-6 / 9)

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_rsub_rmul_radd(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).backward()
        assert a.grad[0] == -1.0
        a.zero_grad()
        (3.0 * a).backward()
        assert a.grad[0] == 3.0
        a.zero_grad()
        (1.0 / a).backward()
        assert a.grad[0] == pytest.approx(-0.25)

    def test_diamond_graph_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).backward()
        assert a.grad[0] == 7.0

    def test_scalar_only_pow(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestMatmul:
    def test_2d_matmul_values(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_2d_matmul_gradients(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((2, 6, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 6, 4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 6, 3, 5)
        out.sum().backward()
        assert a.grad.shape == a.shape
        assert b.grad.shape == b.shape

    def test_broadcast_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        (a @ b).sum().backward()
        assert b.grad.shape == (4, 2)
        assert a.grad.shape == (5, 3, 4)

    def test_matrix_vector(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        out = a @ v
        assert out.shape == (3,)
        out.sum().backward()
        assert v.grad.shape == (4,)
        assert a.grad.shape == (3, 4)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        out = a.sum(axis=(0, 2), keepdims=True)
        assert out.shape == (1, 4, 1)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))

    def test_mean_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(6, 1 / 6))

    def test_var_matches_numpy(self, rng):
        values = rng.standard_normal((4, 7))
        np.testing.assert_allclose(Tensor(values).var(axis=1).data, values.var(axis=1))

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor([[1.0, 5.0, 3.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_share_gradient(self):
        a = Tensor([[2.0, 2.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    def test_reshape_transpose_roundtrip(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = a.reshape(6, 4).transpose(1, 0)
        assert out.shape == (4, 6)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))

    def test_getitem_gradient_scatter(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_pad_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        padded = a.pad(((1, 1), (0, 2)))
        assert padded.shape == (4, 4)
        padded.sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))

    def test_flatten_and_swapaxes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        assert a.flatten(1).shape == (2, 12)
        assert a.swapaxes(0, 2).shape == (4, 3, 2)

    def test_concat_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        concat([a, b], axis=1).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_stack_backward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        stack([a, b]).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))


class TestNonlinearities:
    def test_relu_forward_and_mask(self):
        a = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        out = a.relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 0.0, 1.0])

    def test_leaky_relu(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        out = a.leaky_relu(0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_sigmoid_range_and_gradient(self, rng):
        a = Tensor(rng.standard_normal(50), requires_grad=True)
        out = a.sigmoid()
        assert np.all((out.data > 0) & (out.data < 1))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, out.data * (1 - out.data))

    def test_exp_log_inverse(self, rng):
        values = np.abs(rng.standard_normal(20)) + 0.1
        np.testing.assert_allclose(Tensor(values).log().exp().data, values)

    def test_softmax_sums_to_one(self, rng):
        logits = Tensor(rng.standard_normal((4, 10)))
        probabilities = logits.softmax(axis=-1)
        np.testing.assert_allclose(probabilities.data.sum(axis=-1), np.ones(4))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.standard_normal((3, 7)))
        np.testing.assert_allclose(logits.log_softmax().data, np.log(logits.softmax().data))

    def test_abs_and_clip(self):
        a = Tensor([-3.0, 0.5, 4.0], requires_grad=True)
        out = a.abs().clip(0.0, 2.0)
        np.testing.assert_array_equal(out.data, [2.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_tanh_gradient(self):
        a = Tensor([0.5], requires_grad=True)
        a.tanh().backward()
        assert a.grad[0] == pytest.approx(1 - np.tanh(0.5) ** 2)


class TestGraphRelease:
    """Backward frees the graph it runs through; leaf gradients stay."""

    def test_intermediate_activation_is_freed_while_loss_lives(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        hidden = (a * 2.0).relu()
        alive = weakref.ref(hidden)
        loss = (hidden * hidden).sum()
        del hidden
        assert alive() is not None, "the recorded graph keeps its activations"
        loss.backward()
        assert alive() is None
        assert loss.grad is None and loss.item() == loss.data.sum()
        np.testing.assert_array_equal(a.grad, 8.0 * a.data * (a.data > 0))

    def test_second_backward_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        loss = (a * 3.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        np.testing.assert_array_equal(a.grad, [3.0, 3.0])

    def test_backward_through_a_freed_shared_node_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        shared = a * 2.0
        first, second = shared.sum(), (shared * shared).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="freed"):
            second.backward()
        # Nothing reached the leaf from the refused pass.
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])

    def test_leaf_grads_sum_across_separate_passes(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).sum().backward()
        (a * a).sum().backward()
        np.testing.assert_array_equal(a.grad, [3.0 + 2.0, 3.0 + 4.0])


def _train_benchmark_cnn(steps: int = 3):
    """``steps`` FAST-Adaptive steps of the train-step benchmark's CNN.

    Returns the per-step losses, each step's parameter gradients as the
    optimizer saw them, and the final parameters.
    """
    rng = np.random.default_rng(11)
    model = nn.Sequential(
        QuantizedConv2d(3, 32, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(32, 64, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(), QuantizedLinear(64 * 8 * 8, 10, rng=rng),
    )
    data = synthetic_cifar(num_samples=steps * 32, image_size=32, noise=2.0, seed=1,
                           dtype=np.float32)
    loader = DataLoader(data, batch_size=32, shuffle=True, drop_last=True, seed=2)
    schedule = FASTSchedule(low_bits=2, high_bits=4,
                            config=BFPConfig(exponent_bits=8, group_size=16),
                            stochastic_gradients=True, evaluation_interval=4, seed=3,
                            noise_pool=True)
    optimizer = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)
    trainer = ClassificationTrainer(model, optimizer, schedule, compute_dtype=np.float32)
    losses, grads = [], []
    check_loss, step = trainer._check_loss, optimizer.step

    def record_loss(value, epoch, index):
        losses.append(value)
        return check_loss(value, epoch, index)

    def record_grads():
        grads.append([param.grad for param in model.parameters()])
        step()

    trainer._check_loss, optimizer.step = record_loss, record_grads
    trainer.fit(loader, epochs=1)
    return losses, grads, [param.data for param in model.parameters()]


class TestGradientOwnership:
    """A vjp's freshly allocated gradient is adopted, never shared."""

    @staticmethod
    def _assert_exclusive(grads):
        for index, grad in enumerate(grads):
            assert grad.flags.writeable
            for other in grads[index + 1:]:
                assert not np.shares_memory(grad, other)

    def test_add_hands_each_parent_its_own_copy(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).backward(np.array([1.0, -1.0]))
        self._assert_exclusive([a.grad, b.grad])
        np.testing.assert_array_equal(a.grad, [1.0, -1.0])

    def test_benchmark_cnn_step_matches_copying_every_gradient(self, monkeypatch):
        losses, grads, params = _train_benchmark_cnn()
        for step_grads in grads:
            self._assert_exclusive(step_grads)
        monkeypatch.setattr(tensor_module, "_adoptable", lambda grad, dtype: False)
        copied_losses, copied_grads, copied_params = _train_benchmark_cnn()
        assert losses == copied_losses
        for ours, theirs in zip(grads + [params], copied_grads + [copied_params]):
            for mine, reference in zip(ours, theirs):
                assert mine.dtype == reference.dtype
                assert mine.tobytes() == reference.tobytes()
