"""Write the frozen-checkpoint compatibility fixtures in this directory.

Each fixture is a pair of files:

* ``<name>.npz`` -- a :func:`repro.serving.save_frozen` checkpoint;
* ``<name>.expected.npz`` -- the arguments fed to it and the outputs the
  writing commit produced (``<method>.arg<i>`` / ``<method>.outputs`` keys),
  plus its ``storage_report()`` as a JSON string.

``tests/serving/test_checkpoint_compat.py`` loads every checkpoint with the
current code and requires the same outputs bit for bit, so a change to the
frozen-op serializer cannot silently break checkpoints written before it.
The fixtures are written once and committed; re-running this script at a
later commit rewrites them from that commit's code (which defeats the point
of the test unless the format changes on purpose).

Run from the repository root::

    PYTHONPATH=src python tests/serving/fixtures/make_fixtures.py
"""

import json
from pathlib import Path

import numpy as np

from repro import nn
from repro.core.bfp import BFPConfig
from repro.models import (
    MLP,
    Seq2SeqTransformer,
    mobilenet_v2,
    resnet20,
    resnet50,
    tiny_yolo,
    vgg11,
)
from repro.serving import freeze, save_frozen
from repro.training.schedules import FASTSchedule, FixedBFPSchedule, FormatSchedule

HERE = Path(__file__).resolve().parent
CONFIG = BFPConfig(exponent_bits=8, group_size=16)
IMAGE = (2, 3, 16, 16)


def prepared(model, schedule, warm_shape=None):
    """Attach ``schedule``; move batch-norm statistics off their init."""
    schedule.prepare(model, 8)
    if warm_shape is not None:
        model.train()
        with nn.no_grad():
            model(grid_values(np.random.default_rng(1), warm_shape))
    model.eval()
    return model


def grid_values(rng, shape):
    """Normal-ish inputs on a 1/8 grid: exact in any dtype, and compress well."""
    return np.round(rng.standard_normal(shape) * 8.0) / 8.0


def bfp():
    return FixedBFPSchedule(4, config=CONFIG, seed=0)


def pool_stack(rng):
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.GELU(), nn.AvgPool2d(2),
        nn.MaxPool2d(2), nn.LeakyReLU(0.1), nn.Tanh(), nn.Sigmoid(), nn.Flatten(),
        nn.Linear(4 * 2 * 2, 5, rng=rng))


def classifiers():
    rng = np.random.default_rng
    return {
        "mlp": (prepared(MLP(16, [16], 4, rng=rng(1)), bfp()), (3, 16)),
        "vgg": (prepared(vgg11(width=2, rng=rng(2)), bfp(), IMAGE), IMAGE),
        "resnet20": (prepared(resnet20(width=2, rng=rng(3)), bfp(), IMAGE), IMAGE),
        "resnet50": (prepared(resnet50(width=1, rng=rng(4)), bfp(), IMAGE), IMAGE),
        "mobilenet": (prepared(mobilenet_v2(width=4, rng=rng(5)), bfp(), IMAGE), IMAGE),
        "yolo": (prepared(tiny_yolo(num_classes=2, image_size=16, width=2, rng=rng(6)),
                          bfp(), IMAGE), IMAGE),
        "fast_snapshot": (prepared(MLP(16, [16], 4, rng=rng(7)),
                                   FASTSchedule(config=CONFIG, seed=0)), (3, 16)),
        "int8_format": (prepared(MLP(16, [16], 4, rng=rng(8)), FormatSchedule("int8")),
                        (3, 16)),
        "pool_stack": (prepared(pool_stack(rng(9)), bfp()), (2, 3, 8, 8)),
    }


def write(name, frozen, calls):
    """Save ``frozen`` and record the outputs of ``calls`` ({method: args})."""
    save_frozen(frozen, HERE / f"{name}.npz")
    expected = {"storage_report": np.array(json.dumps(frozen.storage_report(),
                                                      sort_keys=True))}
    for method, args in calls.items():
        for index, value in enumerate(args):
            expected[f"{method}.arg{index}"] = value
        expected[f"{method}.outputs"] = getattr(frozen, method)(*args)
    np.savez_compressed(HERE / f"{name}.expected.npz", **expected)


def main():
    inputs_rng = np.random.default_rng(2024)
    for name, (model, shape) in classifiers().items():
        write(name, freeze(model),
              {"predict": [grid_values(inputs_rng, shape)]})
    for name, dtype in (("transformer_f64", None), ("transformer_f32", np.float32)):
        model = prepared(Seq2SeqTransformer(
            16, embed_dim=16, num_heads=2, num_encoder_layers=1, num_decoder_layers=1,
            hidden_dim=32, max_length=8, rng=np.random.default_rng(10)), bfp())
        frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
        if dtype is not None:
            frozen.cast(dtype)
        write(name, frozen, {
            "forward_logits": [inputs_rng.integers(3, 16, size=(2, 6)),
                               inputs_rng.integers(3, 16, size=(2, 6))],
            "predict": [inputs_rng.integers(3, 16, size=(3, 6))],
        })
    total = sum(path.stat().st_size for path in HERE.glob("*.npz"))
    print(f"wrote {len(list(HERE.glob('*.npz')))} files, {total / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
