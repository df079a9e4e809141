"""The train-step bench's uncached arm really runs the golden models.

``bench_perf_train_step.uncached_step()`` patches each production op in
``UNCACHED_OPS`` with its ``repro.reference`` namesake.  A patch on a name
that production code no longer calls would leave the arm running the cached
step, and the step-speedup gate would compare the cached step with itself.
So one tiny quantized step, run inside the arm, must call every patched
golden model.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from repro import nn, reference
from repro.nn.losses import cross_entropy
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.training.schedules import FixedBFPSchedule

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def tiny_step():
    """One SGD step of a CNN whose forward and backward pass through every
    op the uncached arm replaces: ReLU folded into max pooling, plain max
    pooling, average pooling and a convolution input gradient."""
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        QuantizedConv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(4, 4, 3, padding=1, rng=rng),
        nn.MaxPool2d(2), nn.AvgPool2d(2),
        nn.Flatten(),
        QuantizedLinear(4, 3, rng=rng),
    )
    schedule = FixedBFPSchedule(4, stochastic_gradients=True, seed=0)
    schedule.prepare(model, 1)
    schedule.on_iteration(0)
    optimizer = nn.SGD(model.parameters(), lr=0.01)
    loss = cross_entropy(model(rng.standard_normal((2, 3, 8, 8))), np.array([0, 2]))
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()


def test_uncached_step_calls_every_patched_reference_op(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    bench = importlib.import_module("bench_perf_train_step")
    calls = Counter()

    def counting(name, original):
        def op(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return op

    names = [name for _, name in bench.UNCACHED_OPS]
    for name in names:
        monkeypatch.setattr(reference, name, counting(name, getattr(reference, name)))
    with bench.uncached_step():
        tiny_step()
    never_called = [name for name in names if not calls[name]]
    assert not never_called, f"the uncached arm never ran these reference ops: {never_called}"
    # Leaving the arm restores every production op.
    for owner, name in bench.UNCACHED_OPS:
        assert getattr(owner, name) is not getattr(reference, name)
