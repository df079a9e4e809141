"""The policy-driven BFP scheme against the push path it replaced.

Before the fixed, temporal and layerwise schedules asked their policy on
every quantize call, the schedule *pushed* the policy's widths into each
layer's scheme once per iteration, and the scheme quantized every tensor of
that kind with the stored width.  :class:`PushedBFPScheme` and
:class:`PushPathSchedule` copy that path (same layout cache, rounding rule
and per-layer noise source).  A small CNN trained for a few steps under
either copy must produce the same per-step losses, the same final
parameters and the same eval logits, array for array.  Both copies run on
the same host, so the check does not depend on the BLAS build.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import bfp_quantize
from repro.core.kernels import LayoutCache
from repro.core.precision_policy import TENSOR_KINDS
from repro.core.rounding import NoisePool
from repro.formats.base import TensorKind
from repro.nn.quantized import QuantizationScheme, QuantizedConv2d, QuantizedLinear
from repro.training.schedules import (
    FixedBFPSchedule,
    LayerwiseSchedule,
    PrecisionSchedule,
    TemporalSchedule,
)

STEPS = 8
BATCH = 8


class PushedBFPScheme(QuantizationScheme):
    """BFP quantization with per-kind widths set from outside."""

    def __init__(self, config, stochastic_gradients, rng):
        self.config = config
        self.bits = {kind: None for kind in TENSOR_KINDS}
        self.stochastic_gradients = stochastic_gradients
        self.rng = rng
        self._layouts = LayoutCache(max_entries=16)

    def _quantize(self, values, kind):
        rounding = "nearest"
        if kind == TensorKind.GRADIENT and self.stochastic_gradients:
            rounding = "stochastic"
        values = np.asarray(values)
        return bfp_quantize(
            values,
            mantissa_bits=self.bits[kind],
            group_size=self.config.group_size,
            exponent_bits=self.config.exponent_bits,
            rounding=rounding,
            rng=self.rng,
            layout=self._layouts.layout_for(values, self.config.group_size),
        )

    def quantize_weight(self, values):
        return self._quantize(values, TensorKind.WEIGHT)

    def quantize_activation(self, values):
        return self._quantize(values, TensorKind.ACTIVATION)

    def quantize_gradient(self, values):
        return self._quantize(values, TensorKind.GRADIENT)

    def weight_cache_token(self, values=None):
        return ("bfp", self.bits[TensorKind.WEIGHT], self.config.group_size,
                self.config.exponent_bits)


class PushPathSchedule(PrecisionSchedule):
    """Runs ``schedule``'s policy through the push path."""

    def __init__(self, schedule):
        super().__init__()
        self.schedule = schedule

    def prepare(self, model, total_iterations):
        self.schedule.prepare(model, total_iterations)  # builds the policy
        super().prepare(model, total_iterations)

    def _attach(self):
        schedule = self.schedule
        for index, layer in enumerate(self.layers):
            if schedule.stochastic_gradients and schedule.noise_pool:
                rng = NoisePool(schedule.seed + index)
            else:
                rng = np.random.default_rng(schedule.seed + index)
            layer.scheme = PushedBFPScheme(schedule.config, schedule.stochastic_gradients, rng)
        self.on_iteration(0)

    def on_iteration(self, iteration):
        for layer in self.layers:
            for kind in TENSOR_KINDS:
                layer.scheme.bits[kind] = self.schedule.policy.select(
                    kind, layer.layer_index, iteration)


def build_cnn():
    rng = np.random.default_rng(3)
    model = nn.Sequential(
        QuantizedConv2d(3, 8, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(8, 8, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(8 * 2 * 2, 4, rng=rng),
    )
    return model.float()


def train(schedule):
    """Per-step losses, final parameters and eval logits of a short run."""
    data = np.random.default_rng(5)
    inputs = data.standard_normal((STEPS, BATCH, 3, 8, 8)).astype(np.float32)
    labels = data.integers(0, 4, size=(STEPS, BATCH))
    model = build_cnn()
    schedule.prepare(model, STEPS)
    optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
    losses = []
    for step in range(STEPS):
        schedule.on_iteration(step)
        optimizer.zero_grad()
        loss = nn.cross_entropy(model(inputs[step]), labels[step])
        loss.backward()
        optimizer.step()
        losses.append(loss.data.copy())
    model.eval()
    with nn.no_grad():
        logits = model(inputs[0]).data.copy()
    return losses, [p.data.copy() for p in model.parameters()], logits


SCHEDULES = {
    "fixed_m2_stochastic": lambda: FixedBFPSchedule(2, stochastic_gradients=True, seed=1),
    "fixed_m4_nearest": lambda: FixedBFPSchedule(4, stochastic_gradients=False, seed=1),
    "temporal_low_to_high": lambda: TemporalSchedule(low_to_high=True, seed=1),
    "layerwise_high_to_low": lambda: LayerwiseSchedule(low_to_high=False, seed=1),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_policy_driven_scheme_matches_push_path(name):
    pulled = train(SCHEDULES[name]())
    pushed = train(PushPathSchedule(SCHEDULES[name]()))
    losses, params, logits = pulled
    pushed_losses, pushed_params, pushed_logits = pushed
    assert len(losses) == len(pushed_losses) == STEPS
    for ours, theirs in zip(losses, pushed_losses):
        np.testing.assert_array_equal(ours, theirs)
    assert len(params) == len(pushed_params)
    for ours, theirs in zip(params, pushed_params):
        assert ours.dtype == theirs.dtype
        np.testing.assert_array_equal(ours, theirs)
    np.testing.assert_array_equal(logits, pushed_logits)
