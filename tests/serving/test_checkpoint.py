"""Checkpoint round-trips: freeze -> save -> load -> bit-identical outputs."""

import json

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import BFPConfig
from repro.models import (
    MLP,
    mobilenet_v2,
    resnet20,
    resnet50,
    tiny_yolo,
    transformer_small,
    vgg11,
)
from repro.serving import CheckpointError, freeze, load_frozen, load_state, save_frozen, save_state
from repro.training.schedules import FixedBFPSchedule, FP32Schedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)


def attach(model, schedule=None):
    schedule = schedule if schedule is not None else FixedBFPSchedule(4, config=CONFIG, seed=0)
    schedule.prepare(model, 8)
    model.eval()
    return model


FAMILY_BUILDERS = {
    "mlp": lambda rng: (MLP(64, [32], 10, rng=rng), (3, 64)),
    "vgg": lambda rng: (vgg11(width=4, rng=rng), (2, 3, 16, 16)),
    "resnet": lambda rng: (resnet20(width=4, rng=rng), (2, 3, 16, 16)),
    "resnet50": lambda rng: (resnet50(width=4, rng=rng), (2, 3, 16, 16)),
    "mobilenet": lambda rng: (mobilenet_v2(width=8, rng=rng), (2, 3, 16, 16)),
    "yolo": lambda rng: (tiny_yolo(num_classes=3, image_size=16, rng=rng), (2, 3, 16, 16)),
}


class TestFrozenRoundTrip:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_logits_bit_identical_after_roundtrip(self, family, rng, tmp_path):
        model, input_shape = FAMILY_BUILDERS[family](np.random.default_rng(9))
        attach(model)
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        with nn.no_grad():
            live = model(inputs).data
        path = save_frozen(frozen, tmp_path / f"{family}.npz")
        loaded = load_frozen(path)
        np.testing.assert_array_equal(loaded.predict(inputs), live)
        assert loaded.family == frozen.family

    def test_transformer_roundtrip_bit_identical(self, rng, tmp_path):
        model = transformer_small(vocab_size=30, max_length=12,
                                  rng=np.random.default_rng(4))
        attach(model)
        src = rng.integers(3, 30, size=(3, 8))
        tgt = rng.integers(3, 30, size=(3, 8))
        frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
        path = save_frozen(frozen, tmp_path / "transformer.npz")
        loaded = load_frozen(path)
        np.testing.assert_array_equal(loaded.forward_logits(src, tgt),
                                      frozen.forward_logits(src, tgt))
        np.testing.assert_array_equal(loaded.predict(src), frozen.predict(src))
        assert loaded.meta["bos_index"] == 1 and loaded.meta["eos_index"] == 2

    def test_fp32_frozen_roundtrip(self, rng, tmp_path):
        model, input_shape = FAMILY_BUILDERS["mlp"](np.random.default_rng(1))
        attach(model, FP32Schedule())
        inputs = rng.standard_normal(input_shape)
        frozen = freeze(model)
        loaded = load_frozen(save_frozen(frozen, tmp_path / "fp32.npz"))
        np.testing.assert_array_equal(loaded.predict(inputs), frozen.predict(inputs))

    def test_packed_weights_stored_compactly(self, tmp_path):
        """Quantized weights land on disk as small integer arrays, not floats."""
        model, _ = FAMILY_BUILDERS["mlp"](np.random.default_rng(2))
        attach(model)
        path = save_frozen(freeze(model), tmp_path / "mlp.npz")
        with np.load(path) as data:
            packed_keys = [key for key in data.files if key.endswith("mantissas")]
            assert packed_keys, "expected packed mantissa arrays in the checkpoint"
            for key in packed_keys:
                assert data[key].dtype == np.uint8

    def test_rejects_non_frozen_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, values=np.zeros(3))
        with pytest.raises(ValueError, match="not a frozen-model checkpoint"):
            load_frozen(path)


class TestStateCheckpoint:
    def test_state_roundtrip_includes_batchnorm_buffers(self, rng, tmp_path):
        source = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
                               nn.BatchNorm2d(4), nn.ReLU())
        # Run a training step so the running statistics move off their init.
        source.train()
        with nn.no_grad():
            source(rng.standard_normal((4, 3, 8, 8)))
        target = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(99)),
                               nn.BatchNorm2d(4), nn.ReLU())
        path = save_state(source, tmp_path / "state.npz")
        load_state(target, path)
        for (name, value), (_, expected) in zip(sorted(target.state_dict().items()),
                                                sorted(source.state_dict().items())):
            np.testing.assert_array_equal(value, expected, err_msg=name)
        source.eval()
        target.eval()
        inputs = rng.standard_normal((2, 3, 8, 8))
        with nn.no_grad():
            np.testing.assert_array_equal(target(inputs).data, source(inputs).data)

    def test_load_state_invalidates_weight_caches(self, rng, tmp_path):
        model = MLP(16, [8], 4, rng=np.random.default_rng(0))
        attach(model)
        versions = [p.version for p in model.parameters()]
        path = save_state(model, tmp_path / "mlp_state.npz")
        load_state(model, path)
        assert all(p.version > v for p, v in zip(model.parameters(), versions))


class TestCorruptCheckpoints:
    """Damaged or mismatched checkpoints fail fast with named diagnostics."""

    def _frozen_path(self, tmp_path):
        model, _ = FAMILY_BUILDERS["mlp"](np.random.default_rng(0))
        attach(model)
        return save_frozen(freeze(model), tmp_path / "mlp.npz")

    def test_truncated_frozen_file_raises_checkpoint_error(self, tmp_path):
        path = self._frozen_path(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="mlp.npz"):
            load_frozen(path)

    def test_non_zip_garbage_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError, match="garbage.npz"):
            load_frozen(path)

    def test_missing_array_named_in_error(self, tmp_path):
        path = self._frozen_path(tmp_path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        victim = next(key for key in sorted(arrays) if key.endswith("mantissas"))
        del arrays[victim]
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="missing 1 of"):
            load_frozen(path)
        with pytest.raises(CheckpointError, match=victim.split("/")[-1]):
            load_frozen(path)

    def test_corrupted_spec_raises_checkpoint_error(self, tmp_path):
        path = self._frozen_path(tmp_path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["__spec__"] = np.array('{"format": "repro-frozen", truncated')
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="spec is corrupted"):
            load_frozen(path)

    def _rewrite_spec(self, path, edit):
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        spec = json.loads(str(arrays["__spec__"][()]))
        edit(spec)
        arrays["__spec__"] = np.array(json.dumps(spec))
        np.savez(path, **arrays)

    def test_unknown_op_type_names_file_and_op(self, tmp_path):
        path = self._frozen_path(tmp_path)
        self._rewrite_spec(path, lambda spec: spec["root"]["children"]["layers"]
                           ["children"]["ops"][1].update(type="warp_drive"))
        with pytest.raises(CheckpointError,
                           match=r"mlp\.npz: op 'root/layers/ops\.1' .*'warp_drive'"):
            load_frozen(path)

    def test_missing_config_key_named_as_config_key(self, tmp_path):
        path = self._frozen_path(tmp_path)
        self._rewrite_spec(path, lambda spec: spec["root"]["children"]["layers"]
                           ["children"]["ops"][0]["config"]["packed"].pop("axis"))
        with pytest.raises(CheckpointError,
                           match=r"mlp\.npz: op 'root/layers/ops\.0' \(linear\) is "
                                 r"missing config key 'packed\.axis'"):
            load_frozen(path)

    def test_state_checkpoint_architecture_mismatch_names_keys(self, tmp_path):
        source = MLP(16, [8], 4, rng=np.random.default_rng(0))
        path = save_state(source, tmp_path / "state.npz")
        target = MLP(16, [8, 8], 4, rng=np.random.default_rng(1))
        with pytest.raises(CheckpointError, match="does not match the model"):
            load_state(target, path)
        # The error names concrete offending keys, not just a count.
        with pytest.raises(CheckpointError, match="missing"):
            load_state(target, path)

    def test_truncated_state_checkpoint_raises_checkpoint_error(self, tmp_path):
        model = MLP(16, [8], 4, rng=np.random.default_rng(0))
        path = save_state(model, tmp_path / "state.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(CheckpointError, match="corrupted or truncated"):
            load_state(model, path)

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frozen(tmp_path / "nope.npz")

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)
