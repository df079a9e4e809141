"""Dtype preservation: float32 compute mode end to end, float64 default intact.

The float32 training pipeline (ISSUE 5) only works if no operation silently
promotes to float64.  These tests pin the contract at every layer:

* ``Tensor`` gradients are created/accumulated at the tensor's own dtype and
  python-scalar arithmetic stays at the tensor's dtype,
* initializers, layers and ``Module.to``/``float()``/``double()`` produce and
  cast parameters at the requested dtype,
* losses build masks/targets/weights at the logits dtype,
* data loaders and datasets emit batches at the configured dtype,
* a full trainer step under ``compute_dtype=float32`` keeps the forward,
  backward, loss and optimizer update in float32, while the optimizer can
  keep a float64 master copy (FP32-or-better, per the paper's setup),
* the float64 default path is untouched: same dtypes, and scalar wrapping
  is bit-identical to NumPy's own float64 arithmetic.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import BFPConfig
from repro.core.precision_policy import FixedPrecisionPolicy
from repro.data.loader import DataLoader
from repro.data.vision import SyntheticImageDataset, synthetic_cifar
from repro.models.mlp import MLP
from repro.models.transformer import Seq2SeqTransformer
from repro.nn import init
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    cross_entropy,
    mse_loss,
    sequence_cross_entropy,
    smooth_l1_loss,
)
from repro.nn.tensor import Tensor
from repro.training.schedules import FixedBFPSchedule
from repro.training.trainer import ClassificationTrainer

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


def _bfp_schedule(seed: int = 0, stochastic: bool = False) -> FixedBFPSchedule:
    return FixedBFPSchedule(4, config=BFPConfig(exponent_bits=8, group_size=16),
                            stochastic_gradients=stochastic, seed=seed)


class TestTensorScalarArithmetic:
    """Python/NumPy scalars must not promote float32 tensors (satellite 2)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_ops_preserve_dtype(self, dtype):
        t = Tensor(np.ones(5, dtype=dtype))
        for result in (t * 1.5, 1.5 * t, t + 2, 2 + t, t - 0.5, 0.5 - t,
                       t / 3.0, 3.0 / t, t ** 2.0, -t):
            assert result.dtype == dtype

    def test_numpy_scalar_operands_preserve_float32(self):
        t = Tensor(np.ones(5, dtype=np.float32))
        assert (t * np.float64(1.5)).dtype == F32
        assert (t * np.sqrt(2.0)).dtype == F32  # np.sqrt returns np.float64
        assert (t + np.int64(2)).dtype == F32

    def test_mean_and_composites_preserve_float32(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
        assert t.mean().dtype == F32
        assert t.mean(axis=1).dtype == F32
        assert t.var(axis=0).dtype == F32
        assert t.softmax(axis=-1).dtype == F32
        assert t.log_softmax(axis=-1).dtype == F32
        assert t.sqrt().dtype == F32
        assert t.leaky_relu().dtype == F32

    def test_array_operands_still_follow_numpy_promotion(self):
        t = Tensor(np.ones(4, dtype=np.float32))
        assert (t + np.ones(4)).dtype == F64

    def test_float64_scalar_math_bit_identical_to_numpy(self):
        values = np.random.default_rng(0).standard_normal(64)
        t = Tensor(values)
        np.testing.assert_array_equal((t * 1.7).data, values * 1.7)
        np.testing.assert_array_equal((t / 3.0).data, values / 3.0)
        np.testing.assert_array_equal((2.0 - t).data, 2.0 - values)


class TestGradientDtype:
    """Gradients follow the tensor's dtype (satellite 1)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_grad_matches_tensor_dtype(self, dtype):
        t = Tensor(np.ones((3, 3), dtype=dtype), requires_grad=True)
        ((t * 2.0).sum()).backward()
        assert t.grad.dtype == dtype

    def test_accumulation_stays_float32(self):
        t = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        (t * 1.5 + t * 2.5).sum().backward()
        assert t.grad.dtype == F32
        np.testing.assert_allclose(t.grad, np.full(4, 4.0, dtype=np.float32))

    def test_float64_grad_onto_float32_tensor_is_cast(self):
        t = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        out = (t * 2.0).sum()
        out.backward(np.float64(1.0))
        assert t.grad.dtype == F32

    def test_getitem_backward_dtype(self):
        t = Tensor(np.ones(6, dtype=np.float32), requires_grad=True)
        t[2:5].sum().backward()
        assert t.grad.dtype == F32

    def test_max_backward_dtype(self):
        t = Tensor(np.arange(8, dtype=np.float32).reshape(2, 4), requires_grad=True)
        t.max(axis=1).sum().backward()
        assert t.grad.dtype == F32

    @pytest.mark.parametrize("op", ["relu", "leaky_relu", "sigmoid", "tanh", "exp", "abs"])
    def test_elementwise_backward_dtype(self, op):
        t = Tensor(np.linspace(-1, 1, 8, dtype=np.float32), requires_grad=True)
        getattr(t, op)().sum().backward()
        assert t.grad.dtype == F32


class TestInitAndModuleDtype:
    def test_initializers_accept_dtype(self):
        for fn in (init.kaiming_uniform, init.kaiming_normal, init.xavier_uniform):
            assert fn((4, 4), rng=np.random.default_rng(0), dtype=np.float32).dtype == F32
            assert fn((4, 4), rng=np.random.default_rng(0)).dtype == F64
        assert init.normal((3,), dtype=np.float32).dtype == F32
        assert init.zeros((3,), dtype=np.float32).dtype == F32
        assert init.ones((3,)).dtype == F64

    def test_initializers_share_random_stream_across_dtypes(self):
        a64 = init.kaiming_uniform((8, 8), rng=np.random.default_rng(7))
        a32 = init.kaiming_uniform((8, 8), rng=np.random.default_rng(7), dtype=np.float32)
        np.testing.assert_array_equal(a32, a64.astype(np.float32))

    def test_layers_accept_dtype(self):
        rng = np.random.default_rng(0)
        layers = [
            nn.Linear(4, 3, rng=rng, dtype=np.float32),
            nn.Conv2d(3, 4, 3, rng=rng, dtype=np.float32),
            nn.BatchNorm2d(4, dtype=np.float32),
            nn.LayerNorm(4, dtype=np.float32),
            nn.Embedding(10, 4, rng=rng, dtype=np.float32),
            nn.QuantizedLinear(4, 3, rng=rng, dtype=np.float32),
            nn.QuantizedConv2d(3, 4, 3, rng=rng, dtype=np.float32),
        ]
        for layer in layers:
            for _, param in layer.named_parameters():
                assert param.data.dtype == F32, type(layer).__name__
            for _, buffer in layer.named_buffers():
                assert buffer.dtype == F32, type(layer).__name__

    def test_module_to_casts_parameters_and_buffers(self):
        model = nn.Sequential(nn.Conv2d(3, 4, 3, rng=np.random.default_rng(0)),
                              nn.BatchNorm2d(4), nn.ReLU())
        versions = {name: p.version for name, p in model.named_parameters()}
        model.to(np.float32)
        for name, param in model.named_parameters():
            assert param.data.dtype == F32
            assert param.version == versions[name] + 1  # caches invalidated
        for _, buffer in model.named_buffers():
            assert buffer.dtype == F32
        model.double()
        assert all(p.data.dtype == F64 for p in model.parameters())
        assert model.float() is model

    def test_to_clears_quantized_weight_cache(self):
        layer = nn.QuantizedLinear(8, 4, scheme=nn.BFPScheme(
            FixedPrecisionPolicy(4), config=BFPConfig(exponent_bits=8, group_size=16)),
            rng=np.random.default_rng(0))
        layer(np.ones((2, 8)))
        assert layer._weight_cache_key is not None
        layer.to(np.float32)
        assert layer._weight_cache_key is None
        assert layer(np.ones((2, 8), dtype=np.float32)).dtype == F32

    def test_load_state_dict_preserves_param_dtype(self):
        model = MLP(4, [3], 2, rng=np.random.default_rng(0)).to(np.float32)
        state = {name: value.astype(np.float64)
                 for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        assert all(p.data.dtype == F32 for p in model.parameters())


class TestLossDtype:
    def test_cross_entropy_dtype(self):
        logits32 = Tensor(np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32),
                          requires_grad=True)
        loss = cross_entropy(logits32, np.array([0, 1, 2, 0, 1]), label_smoothing=0.1)
        assert loss.dtype == F32
        loss.backward()
        assert logits32.grad.dtype == F32

    def test_sequence_cross_entropy_mask_dtype(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((2, 4, 6)).astype(np.float32),
                        requires_grad=True)
        targets = np.array([[1, 2, 0, 0], [3, 4, 5, 0]])
        loss = sequence_cross_entropy(logits, targets, pad_index=0, label_smoothing=0.05)
        assert loss.dtype == F32
        loss.backward()
        assert logits.grad.dtype == F32

    def test_regression_losses_cast_plain_targets(self):
        prediction = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        target = np.zeros((3, 2))  # float64 array target
        assert mse_loss(prediction, target).dtype == F32
        assert smooth_l1_loss(prediction, target).dtype == F32

    def test_bce_weight_dtype(self):
        logits = Tensor(np.zeros((4,), dtype=np.float32), requires_grad=True)
        loss = binary_cross_entropy_with_logits(
            logits, np.array([0.0, 1.0, 0.0, 1.0]), weight=np.array([1.0, 2.0, 1.0, 2.0]))
        assert loss.dtype == F32

    def test_float64_losses_unchanged(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((4, 3)), requires_grad=True)
        assert cross_entropy(logits, np.array([0, 1, 2, 0])).dtype == F64


class TestDataDtype:
    def test_vision_dataset_dtype(self):
        ds64 = SyntheticImageDataset(num_samples=8, seed=3)
        ds32 = SyntheticImageDataset(num_samples=8, seed=3, dtype=np.float32)
        assert ds64.images.dtype == F64
        assert ds32.images.dtype == F32
        # Same generation stream, rounded once.
        np.testing.assert_array_equal(ds32.images, ds64.images.astype(np.float32))
        train, val = ds32.split()
        assert train.images.dtype == F32 and val.images.dtype == F32
        assert synthetic_cifar(num_samples=4, dtype=np.float32).images.dtype == F32

    def test_loader_dtype_cast(self):
        ds = SyntheticImageDataset(num_samples=8, seed=0)  # float64 images
        loader = DataLoader(ds, batch_size=4, shuffle=False, dtype=np.float32)
        inputs, labels = next(iter(loader))
        assert inputs.dtype == F32
        assert np.issubdtype(labels.dtype, np.integer)  # labels untouched

    def test_loader_default_unchanged(self):
        ds = SyntheticImageDataset(num_samples=4, seed=0)
        inputs, _ = next(iter(DataLoader(ds, batch_size=2, shuffle=False)))
        assert inputs.dtype == F64


class TestOptimizerDtype:
    def _step(self, optimizer_cls, **kwargs):
        param = nn.Parameter(np.ones(4, dtype=np.float32))
        optimizer = optimizer_cls([param], lr=0.1, **kwargs)
        param.grad = np.full(4, 0.5, dtype=np.float32)
        optimizer.step()
        return param, optimizer

    @pytest.mark.parametrize("cls", [nn.SGD, nn.Adam])
    def test_step_keeps_float32(self, cls):
        param, _ = self._step(cls)
        assert param.data.dtype == F32

    @pytest.mark.parametrize("cls", [nn.SGD, nn.Adam])
    def test_master_dtype_float64(self, cls):
        param, optimizer = self._step(cls, master_dtype=np.float64)
        assert param.data.dtype == F32  # parameters stay at compute dtype
        assert all(m.dtype == F64 for m in optimizer._master)
        for state in optimizer._state_arrays():
            assert all(s.dtype == F64 for s in state)
        # The master tracks the unrounded update and the parameter is its
        # float32 rounding.
        np.testing.assert_array_equal(param.data,
                                      optimizer._master[0].astype(np.float32))

    def test_sgd_master_accumulates_in_float64(self):
        param = nn.Parameter(np.ones(4, dtype=np.float32))
        optimizer = nn.SGD([param], lr=1e-4, master_dtype=np.float64)
        update = np.full(4, 1e-4, dtype=np.float32)
        for _ in range(10):
            param.grad = update
            optimizer.step()
        expected = 1.0 - 1e-8 * 10
        np.testing.assert_allclose(optimizer._master[0], expected, rtol=1e-12)

    def test_refresh_dtype_aligns_state(self):
        model = MLP(4, [3], 2, rng=np.random.default_rng(0))
        optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
        model.to(np.float32)
        optimizer.refresh_dtype()
        assert all(v.dtype == F32 for v in optimizer._velocity)

    def test_float64_sgd_step_bit_identical(self):
        rng = np.random.default_rng(5)
        values, grad = rng.standard_normal(16), rng.standard_normal(16)
        param = nn.Parameter(values.copy())
        optimizer = nn.SGD([param], lr=0.1, momentum=0.9, weight_decay=0.01)
        param.grad = grad.copy()
        optimizer.step()
        decayed = grad + 0.01 * values
        np.testing.assert_array_equal(param.data, values - 0.1 * decayed)


class TestEndToEndFloat32Training:
    def test_quantized_mlp_step_stays_float32(self):
        model = MLP(16, [8], 4, rng=np.random.default_rng(0)).to(np.float32)
        schedule = _bfp_schedule(stochastic=True)
        schedule.prepare(model, 4)
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        x = np.random.default_rng(1).standard_normal((8, 16)).astype(np.float32)
        y = np.random.default_rng(2).integers(0, 4, 8)
        for step in range(2):
            schedule.on_iteration(step)
            logits = model(x)
            assert logits.dtype == F32
            loss = cross_entropy(logits, y)
            assert loss.dtype == F32
            optimizer.zero_grad()
            loss.backward()
            for param in model.parameters():
                assert param.grad.dtype == F32
            optimizer.step()
            for param in model.parameters():
                assert param.data.dtype == F32

    def test_transformer_forward_backward_float32(self):
        model = Seq2SeqTransformer(vocab_size=12, embed_dim=16, num_heads=2,
                                   num_encoder_layers=1, num_decoder_layers=1,
                                   max_length=8, rng=np.random.default_rng(0)).to(np.float32)
        tokens = np.random.default_rng(1).integers(1, 12, size=(2, 6))
        logits = model(tokens, tokens)
        assert logits.dtype == F32
        loss = sequence_cross_entropy(logits, tokens, pad_index=0)
        assert loss.dtype == F32
        loss.backward()
        assert all(p.grad.dtype == F32 for p in model.parameters() if p.grad is not None)

    def test_trainer_compute_dtype_float32(self):
        dataset = SyntheticImageDataset(num_samples=32, image_size=8, num_classes=4,
                                        seed=0, dtype=np.float32)
        model = MLP(3 * 8 * 8, [16], 4, rng=np.random.default_rng(0))
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9,
                           master_dtype=np.float64)
        trainer = ClassificationTrainer(model, optimizer, schedule=_bfp_schedule(),
                                        compute_dtype=np.float32)
        loader = DataLoader(dataset, batch_size=8, shuffle=False)
        result = trainer.fit(loader, loader, epochs=1)
        assert np.isfinite(result.loss_history[0])
        assert all(p.data.dtype == F32 for p in model.parameters())
        assert all(m.dtype == F64 for m in optimizer._master)

    def test_trainer_casts_float64_batches(self):
        dataset = SyntheticImageDataset(num_samples=16, image_size=8, num_classes=4, seed=0)
        model = MLP(3 * 8 * 8, [8], 4, rng=np.random.default_rng(0))
        optimizer = nn.SGD(model.parameters(), lr=0.05)
        trainer = ClassificationTrainer(model, optimizer, compute_dtype=np.float32)
        result = trainer.fit(DataLoader(dataset, batch_size=8, shuffle=False), epochs=1)
        assert np.isfinite(result.loss_history[0])
        assert all(p.data.dtype == F32 for p in model.parameters())


class TestFloat64DefaultPath:
    """The default path must keep producing float64 everywhere (bit-exact)."""

    def test_default_training_step_all_float64(self):
        model = MLP(8, [4], 3, rng=np.random.default_rng(0))
        schedule = _bfp_schedule()
        schedule.prepare(model, 2)
        schedule.on_iteration(0)
        optimizer = nn.SGD(model.parameters(), lr=0.1)
        x = np.random.default_rng(1).standard_normal((4, 8))
        logits = model(x)
        assert logits.dtype == F64
        loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.dtype == F64
        loss.backward()
        optimizer.step()
        for param in model.parameters():
            assert param.data.dtype == F64 and param.grad.dtype == F64

    def test_float32_and_float64_runs_agree(self):
        """The float32 run is a rounding of the float64 run, not a different
        computation: a few deterministic quantized steps stay within float32
        tolerance of the float64 losses."""
        def run(cast):
            model = MLP(16, [8], 4, rng=np.random.default_rng(0))
            if cast:
                model.to(np.float32)
            schedule = _bfp_schedule()
            schedule.prepare(model, 4)
            optimizer = nn.SGD(model.parameters(), lr=0.05)
            x = np.random.default_rng(1).standard_normal((8, 16))
            if cast:
                x = x.astype(np.float32)
            y = np.random.default_rng(2).integers(0, 4, 8)
            losses = []
            for step in range(4):
                schedule.on_iteration(step)
                loss = cross_entropy(model(x), y)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            return np.asarray(losses)

        np.testing.assert_allclose(run(True), run(False), rtol=2e-4, atol=1e-6)
