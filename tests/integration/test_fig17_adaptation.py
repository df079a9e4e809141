"""Figure 17 pinned on the train-step benchmark's CNN.

FAST-Adaptive training of the two-conv + linear CNN that perfbench's
``train_fast_cnn`` phase trains (same layers, batch size, BFP grouping,
pooled stochastic gradient rounding, ``evaluation_interval`` and float32
compute), for a fixed eight steps at a fixed seed.  Algorithm 1 must move
at least one (layer, tensor kind) to the high precision, and every
recorded decision must follow Equation 1: ``r < ε`` exactly when the low
precision is chosen.  The step count is part of the test, so the pin does
not depend on how long any benchmark runs.
"""

import numpy as np

from recording_policy import record_schedules
from repro import nn
from repro.core.bfp import BFPConfig
from repro.data import DataLoader, synthetic_cifar
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.training import ClassificationTrainer, FASTSchedule

CONV_CHANNELS = (32, 64)
IMAGE_SIZE = 32
NUM_CLASSES = 10
BATCH_SIZE = 32
STEPS_PER_EPOCH = 4
EPOCHS = 2
EVALUATION_INTERVAL = 4
LOW_BITS, HIGH_BITS = 2, 4


def train_fast_cnn(seed=1):
    rng = np.random.default_rng(11)
    c1, c2 = CONV_CHANNELS
    model = nn.Sequential(
        QuantizedConv2d(3, c1, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(c1, c2, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(c2 * (IMAGE_SIZE // 4) ** 2, NUM_CLASSES, rng=rng),
    )
    data = synthetic_cifar(num_samples=STEPS_PER_EPOCH * BATCH_SIZE, image_size=IMAGE_SIZE,
                           num_classes=NUM_CLASSES, noise=2.0, seed=seed, dtype=np.float32)
    data.images /= np.float32(np.sqrt(5.0))
    loader = DataLoader(data, batch_size=BATCH_SIZE, shuffle=True, drop_last=True,
                        seed=seed + 1)
    schedule = FASTSchedule(low_bits=LOW_BITS, high_bits=HIGH_BITS,
                            config=BFPConfig(exponent_bits=8, group_size=16),
                            stochastic_gradients=True,
                            evaluation_interval=EVALUATION_INTERVAL,
                            seed=seed + 2, noise_pool=True)
    optimizer = nn.SGD(model.parameters(), lr=0.01, momentum=0.9)
    trainer = ClassificationTrainer(model, optimizer, schedule, compute_dtype=np.float32)
    trainer.fit(loader, epochs=EPOCHS)
    return schedule.policy


def test_fast_adaptive_switches_by_equation_one(monkeypatch):
    record_schedules(monkeypatch)
    policy = train_fast_cnn()
    steps = STEPS_PER_EPOCH * EPOCHS
    history = policy.log
    assert {d.iteration for d in history} == set(range(steps))

    high = {(d.layer_index, d.tensor_kind) for d in history if d.mantissa_bits == HIGH_BITS}
    assert high, "no (layer, kind) reached the high precision"

    evaluated = {}
    for decision in history:
        # r(X) is evaluated every EVALUATION_INTERVAL iterations and the
        # decision is memoized in between, so it answers to the threshold
        # of the iteration that evaluated it.
        at = decision.iteration - decision.iteration % EVALUATION_INTERVAL
        key = (decision.layer_index, decision.tensor_kind, at)
        r_value = evaluated.setdefault(key, decision.relative_improvement)
        assert decision.relative_improvement == r_value
        threshold = policy.threshold(decision.layer_index, at)
        assert (r_value < threshold) == (decision.mantissa_bits == LOW_BITS), decision
        assert decision.mantissa_bits in (LOW_BITS, HIGH_BITS)
