"""Memory gates for the FAST train step.

FAST-Adaptive steps of the benchmark CNN (two quantized 3x3 convolutions
with ReLU and 2x2 pooling, then a quantized linear layer; batch 32,
float32, pooled stochastic gradient noise) run under ``tracemalloc``.
The traced peak of one step -- everything NumPy and Python allocate during
it, on top of what the earlier steps left alive (the noise pools among
it) -- must stay under a fixed bound, so the lean step cannot regress
silently.  Two steps are gated: the second, which reuses the first
decisions, and the fifth (iteration 4), an evaluation iteration where
every conversion also measures ``r(X)``.

Measured with Python 3.11.7 and NumPy 2.4.6: the second step 31.5 MB
(59.1 MB while ReLU ran apart from max pooling, noise pools held float32
values and the convolution input gradient formed its full column
matrix), the evaluation step 31.8 MB (37.4 MB while ``r(X)`` was summed
over full-size float64 copies and both nearest results stayed alive
through the stochastic rounding).  The bound sits ~10% above the
larger reading.  The count has not been measured under Python 3.12:
NumPy's temporary elision, which decides how many full-size temporaries
a step allocates, depends on the interpreter, so a failure there first
calls for a reading on that interpreter.
"""

import tracemalloc

import numpy as np

from repro import nn
from repro.core.bfp import BFPConfig
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.training import ClassificationTrainer, FASTSchedule

STEP_PEAK_BOUND_MB = 35.0


def traced_step_peak_mb(step):
    """Traced peak, in MB, of FAST step ``step`` of the benchmark CNN run
    from its first step, on top of what the earlier steps left alive."""
    rng = np.random.default_rng(0)
    model = nn.Sequential(
        QuantizedConv2d(3, 32, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(32, 64, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(), QuantizedLinear(64 * 8 * 8, 10, rng=rng))
    schedule = FASTSchedule(low_bits=2, high_bits=4,
                            config=BFPConfig(exponent_bits=8, group_size=16),
                            stochastic_gradients=True, evaluation_interval=4, seed=3,
                            noise_pool=True)
    trainer = ClassificationTrainer(model, nn.SGD(model.parameters(), lr=0.01, momentum=0.9),
                                    schedule, compute_dtype=np.float32)
    data = np.random.default_rng(1)
    batches = [(data.standard_normal((32, 3, 32, 32)).astype(np.float32),
                data.integers(0, 10, 32)) for _ in range(step + 1)]

    iterations = []
    on_iteration = schedule.on_iteration

    def reset_peak_at_step(iteration):
        iterations.append(iteration)
        if iteration == step:
            tracemalloc.reset_peak()
        return on_iteration(iteration)

    schedule.on_iteration = reset_peak_at_step
    tracemalloc.start()
    try:
        trainer.fit(batches, epochs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iterations == list(range(step + 1))
    return peak / 2 ** 20


def test_second_fast_step_traced_peak_stays_under_bound():
    assert traced_step_peak_mb(1) < STEP_PEAK_BOUND_MB


def test_evaluation_fast_step_traced_peak_stays_under_bound():
    # Iteration 4 measures r(X) for every tensor (evaluation_interval=4).
    assert traced_step_peak_mb(4) < STEP_PEAK_BOUND_MB
