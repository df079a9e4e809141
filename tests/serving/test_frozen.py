"""Frozen-model export: bit-identity with the live quantized model."""

import copy

import numpy as np
import pytest

from recording_policy import recorded
from repro import nn
from repro.core.bfp import BFPConfig
from repro.core.precision_policy import FixedPrecisionPolicy, PrecisionDecision, PrecisionPolicy
from repro.formats.registry import available_formats
from repro.models import (
    MLP,
    mobilenet_v2,
    resnet20,
    tiny_yolo,
    transformer_small,
    vgg11,
)
from repro.nn.quantized import BFPScheme, quantized_modules
from repro.serving import InferenceEngine, freeze, freeze_module, load_frozen, save_frozen
from repro.serving.frozen import FrozenConv2d, FrozenLinear, iter_ops
from repro.training.schedules import (
    FASTSchedule,
    FixedBFPSchedule,
    FormatSchedule,
    FP32Schedule,
    LayerwiseSchedule,
)

CONFIG = BFPConfig(exponent_bits=8, group_size=16)
NARROW_CONFIG = BFPConfig(exponent_bits=3, group_size=16)


class PerKindPolicy(PrecisionPolicy):
    """A data-free policy with its own mantissa width per tensor kind."""

    def __init__(self, **bits):
        super().__init__()
        self.bits = bits

    def decide(self, tensor_kind, layer_index, iteration, r=None):
        return PrecisionDecision(layer_index, iteration, tensor_kind, self.bits[tensor_kind])


def attach(model, schedule):
    schedule.prepare(model, 8)
    model.eval()
    return model


def live_logits(model, inputs):
    with nn.no_grad():
        return model(inputs).data


FAMILY_BUILDERS = {
    "mlp": lambda rng: (MLP(64, [32, 16], 10, rng=rng), (3, 64)),
    "vgg": lambda rng: (vgg11(width=4, rng=rng), (2, 3, 16, 16)),
    "resnet": lambda rng: (resnet20(width=4, rng=rng), (2, 3, 16, 16)),
    "mobilenet": lambda rng: (mobilenet_v2(width=8, rng=rng), (2, 3, 16, 16)),
    "yolo": lambda rng: (tiny_yolo(num_classes=3, image_size=16, rng=rng), (2, 3, 16, 16)),
}


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_bfp_scheme_logits_bit_identical(self, family, rng):
        model, input_shape = FAMILY_BUILDERS[family](np.random.default_rng(7))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        np.testing.assert_array_equal(frozen.predict(inputs), live_logits(model, inputs))

    @pytest.mark.parametrize("family", ["mlp", "mobilenet"])
    def test_fp32_identity_scheme_bit_identical(self, family, rng):
        model, input_shape = FAMILY_BUILDERS[family](np.random.default_rng(3))
        attach(model, FP32Schedule())
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        np.testing.assert_array_equal(frozen.predict(inputs), live_logits(model, inputs))

    def test_narrow_exponent_window_bit_identical(self, rng):
        model, input_shape = FAMILY_BUILDERS["mlp"](np.random.default_rng(5))
        attach(model, FixedBFPSchedule(2, config=NARROW_CONFIG, seed=0))
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        np.testing.assert_array_equal(frozen.predict(inputs), live_logits(model, inputs))

    def test_transformer_teacher_forced_bit_identical(self, rng):
        model = transformer_small(vocab_size=30, max_length=12,
                                  rng=np.random.default_rng(11))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        src = rng.integers(1, 30, size=(3, 10))
        tgt = rng.integers(1, 30, size=(3, 10))
        with nn.no_grad():
            live = model(src, tgt).data
        frozen = freeze(model)
        np.testing.assert_array_equal(frozen.forward_logits(src, tgt), live)

    def test_transformer_greedy_decode_bit_identical(self, rng):
        model = transformer_small(vocab_size=30, max_length=12,
                                  rng=np.random.default_rng(11))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        src = rng.integers(3, 30, size=(4, 8))
        live = model.greedy_decode(src, bos_index=1, eos_index=2)
        frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
        np.testing.assert_array_equal(frozen.predict(src), live)


class TestFormatSchedules:
    @pytest.mark.parametrize("format_name", available_formats())
    def test_frozen_matches_live_and_roundtrips(self, format_name, rng, tmp_path):
        """Every registered format freezes bit-identically and reloads from
        its saved spec -- including the formats whose instance names
        (``flexpoint_m16``, ``tile_bfp_m12_t24``) are not registry names."""
        model, input_shape = FAMILY_BUILDERS["mlp"](np.random.default_rng(4))
        attach(model, FormatSchedule(format_name))
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        np.testing.assert_array_equal(frozen.predict(inputs), live_logits(model, inputs))
        loaded = load_frozen(save_frozen(frozen, tmp_path / f"{format_name}.npz"))
        np.testing.assert_array_equal(loaded.predict(inputs), frozen.predict(inputs))


class TestFastAdaptiveSnapshot:
    def test_snapshot_matches_equivalent_fixed_scheme(self, rng):
        model = MLP(64, [32], 10, rng=np.random.default_rng(6))
        attach(model, FASTSchedule(config=CONFIG, seed=0))
        frozen = freeze(model)
        frozen_layers = [op for op in iter_ops(frozen.root)
                         if isinstance(op, FrozenLinear)]
        reference = MLP(64, [32], 10, rng=np.random.default_rng(6))
        attach(reference, FASTSchedule(config=CONFIG, seed=0))
        for layer, frozen_layer in zip(quantized_modules(reference), frozen_layers):
            desc = frozen_layer.scheme_desc
            assert desc["frozen_from"] == "fast_adaptive"
            policy = PerKindPolicy(weight=desc["weight_bits"],
                                   activation=desc["activation_bits"], gradient=4)
            layer.scheme = BFPScheme(policy, config=CONFIG, stochastic_gradients=False)
        inputs = rng.standard_normal((3, 64))
        np.testing.assert_array_equal(frozen.predict(inputs),
                                      live_logits(reference, inputs))

    def test_freeze_does_not_record_into_policy(self):
        model = MLP(64, [32], 10, rng=np.random.default_rng(6))
        schedule = FASTSchedule(config=CONFIG, seed=0)
        attach(model, schedule)
        live_logits(model, np.random.default_rng(0).standard_normal((3, 64)))
        # r(W) is due again at iteration 1: freezing evaluates it, but must
        # neither record the decision nor restart the evaluation interval.
        schedule.on_iteration(1)
        before = copy.deepcopy(schedule.policy.records)
        assert recorded(schedule.policy) == 4
        freeze(model)
        assert schedule.policy.records == before
        assert recorded(schedule.policy) == 4

    def test_freeze_supports_any_policy(self, rng):
        """Policies without high_bits (e.g. fixed) must still freeze."""
        model = MLP(64, [32], 10, rng=np.random.default_rng(6))
        attach(model, FASTSchedule(config=CONFIG, seed=0))
        for layer in quantized_modules(model):
            layer.scheme = BFPScheme(FixedPrecisionPolicy(4), config=CONFIG,
                                     stochastic_gradients=False)
        frozen = freeze(model)
        descs = [op.scheme_desc for op in iter_ops(frozen.root)
                 if isinstance(op, FrozenLinear)]
        assert all(d["weight_bits"] == 4 and d["activation_bits"] == 4 for d in descs)
        assert all("frozen_from" not in d for d in descs)
        inputs = rng.standard_normal((3, 64))
        np.testing.assert_array_equal(frozen.predict(inputs),
                                      live_logits(model, inputs))


    def test_data_free_policy_freezes_its_own_activation_bits(self, rng):
        """A layerwise schedule's activations keep each layer's decided width
        (not the widest one), so the snapshot equals live eval."""
        model = MLP(64, [32, 16], 10, rng=np.random.default_rng(6))
        attach(model, LayerwiseSchedule(low_to_high=False, config=CONFIG, seed=0))
        frozen = freeze(model)
        descs = [op.scheme_desc for op in iter_ops(frozen.root)
                 if isinstance(op, FrozenLinear)]
        assert [d["activation_bits"] for d in descs] == [4, 4, 2]
        assert [d["weight_bits"] for d in descs] == [4, 4, 2]
        inputs = rng.standard_normal((3, 64))
        np.testing.assert_array_equal(frozen.predict(inputs), live_logits(model, inputs))

class TestFrozenStructure:
    def test_dropout_is_stripped(self):
        model = nn.Sequential(nn.Linear(8, 8), nn.Dropout(0.5), nn.ReLU())
        frozen_op = freeze_module(model)
        kinds = [op.kind for op in iter_ops(frozen_op)]
        assert "identity" in kinds  # dropout froze to identity
        x = np.random.default_rng(0).standard_normal((4, 8))
        first = frozen_op.run(x)
        second = frozen_op.run(x)
        np.testing.assert_array_equal(first, second)

    def test_training_mode_model_freezes_to_eval_behavior(self, rng):
        """Freezing a model left in training mode still exports eval semantics."""
        model = nn.Sequential(nn.Linear(8, 8, rng=np.random.default_rng(0)),
                              nn.Dropout(0.9, rng=np.random.default_rng(1)))
        model.train()
        frozen_op = freeze_module(model)
        x = rng.standard_normal((4, 8))
        model.eval()
        with nn.no_grad():
            expected = model(x).data
        np.testing.assert_array_equal(frozen_op.run(x), expected)

    def test_unknown_module_raises(self):
        class Strange(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError, match="no freezer registered"):
            freeze_module(Strange())

    def test_storage_report_counts_packed_weights(self):
        model, _ = FAMILY_BUILDERS["mlp"](np.random.default_rng(2))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        report = freeze(model).storage_report()
        assert report["packed_values"] > 0
        assert report["total_values"] == model.num_parameters()
        # 4-bit mantissas in the chunked layout beat FP32 by several times
        # on matmul-shaped weights.
        assert report["compression_vs_fp32"] > 3.0

    def test_gelu_avgpool_ops_match_live(self, rng):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.GELU(),
            nn.AvgPool2d(2),
            nn.Sigmoid(),
            nn.Tanh(),
            nn.Flatten(),
        )
        model.eval()
        inputs = rng.standard_normal((2, 3, 8, 8))
        frozen_op = freeze_module(model)
        np.testing.assert_array_equal(frozen_op.run(inputs), live_logits(model, inputs))


class TestFloat32Serving:
    def test_cast_holds_float32_through_gelu_and_pooling(self, rng):
        """No op may silently promote a cast pipeline back to float64
        (np.float64 scalar factors in GELU/attention did exactly that)."""
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.GELU(), nn.AvgPool2d(2), nn.LeakyReLU(0.1), nn.Flatten(),
            nn.Linear(4 * 4 * 4, 5, rng=np.random.default_rng(1)),
        )
        model.eval()
        frozen = freeze(model).cast(np.float32)
        inputs = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = frozen.predict(inputs)
        assert out.dtype == np.float32
        with nn.no_grad():
            reference = model(inputs.astype(np.float64)).data
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_cast_transformer_logits_stay_float32(self, rng):
        model = transformer_small(vocab_size=30, max_length=12,
                                  rng=np.random.default_rng(2))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        src = rng.integers(1, 30, size=(2, 8))
        tgt = rng.integers(1, 30, size=(2, 8))
        with nn.no_grad():
            reference = model(src, tgt).data
        frozen = freeze(model).cast(np.float32)
        logits = frozen.forward_logits(src, tgt)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, reference, rtol=1e-3, atol=1e-4)

    def test_cast_roundtrips_through_checkpoint(self, rng, tmp_path):
        from repro.serving import load_frozen, save_frozen

        model, input_shape = FAMILY_BUILDERS["mlp"](np.random.default_rng(3))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        frozen = freeze(model).cast(np.float32)
        inputs = rng.standard_normal(input_shape).astype(np.float32)
        loaded = load_frozen(save_frozen(frozen, tmp_path / "f32.npz"))
        out = loaded.predict(inputs)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, frozen.predict(inputs))


class TestEngine:
    def test_warmup_and_stats(self, rng):
        model, input_shape = FAMILY_BUILDERS["mlp"](np.random.default_rng(1))
        attach(model, FixedBFPSchedule(4, config=CONFIG, seed=0))
        engine = InferenceEngine(freeze(model))
        warmup_s = engine.warmup(rng.standard_normal(input_shape))
        assert warmup_s > 0 and engine.warmed_up
        outputs = engine.predict(rng.standard_normal(input_shape))
        assert outputs.shape == (input_shape[0], 10)
        stats = engine.stats()
        assert stats.calls == 1  # warmup is untimed-for-stats
        assert stats.samples == input_shape[0]
        assert stats.throughput_sps > 0
