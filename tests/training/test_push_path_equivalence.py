"""The policy-driven BFP scheme against the routes it replaced.

Before the fixed, temporal and layerwise schedules asked their policy on
every quantize call, the schedule *pushed* the policy's widths into each
layer's scheme once per iteration, and the scheme quantized every tensor of
that kind with the stored width.  :class:`PushedBFPScheme` and
:class:`PushPathSchedule` copy that path (same layout cache, rounding rule
and per-layer noise source).

Before the scheme alone measured ``r(X)``, FAST-Adaptive had two routes to
it: the policy measured ``r(W)`` from the weight under its own grouping
(then the weight was quantized afresh), while activations and gradients
took ``r`` from their own conversion.  :class:`TensorFASTPolicy` and
:class:`TwoRouteFASTScheme` copy those routes.

A small CNN trained for a few steps under either copy must produce the same
per-step losses, the same final parameters and the same eval logits, array
for array (and under FAST, the same Figure 17 map).  Both copies run on the
same host, so the check does not depend on the BLAS build.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import bfp_quantize
from repro.core.converter import AdaptiveConversion, relative_improvement
from repro.core.kernels import LayoutCache
from repro.core.precision_policy import (
    TENSOR_KINDS,
    PrecisionDecision,
    PrecisionPolicy,
    fast_threshold,
)
from repro.core.rounding import NoisePool
from repro.formats.base import TensorKind
from repro.nn.quantized import QuantizationScheme, QuantizedConv2d, QuantizedLinear
from repro.training.schedules import (
    FASTSchedule,
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


class TensorFASTPolicy(PrecisionPolicy):
    """Algorithm 1 with ``r(X)`` measured from the tensor under the policy's
    own grouping, memoized for ``evaluation_interval`` iterations."""

    def __init__(self, schedule, total_layers):
        super().__init__()
        self.schedule = schedule
        self.total_layers = total_layers
        self.low_bits, self.high_bits = schedule.low_bits, schedule.high_bits

    def threshold(self, layer_index, iteration):
        schedule = self.schedule
        return fast_threshold(layer_index, iteration, self.total_layers,
                              schedule.total_iterations, schedule.alpha, schedule.beta)

    def cached_decision(self, kind, layer_index, iteration):
        entry = self.records.get((layer_index, kind))
        if entry is None or iteration - entry.evaluated_at >= self.schedule.evaluation_interval:
            return None
        return PrecisionDecision(layer_index, iteration, kind, entry.last.mantissa_bits,
                                 relative_improvement=entry.last.relative_improvement,
                                 threshold=self.threshold(layer_index, iteration))

    def decide_from_improvement(self, kind, layer_index, iteration, r_value):
        eps = self.threshold(layer_index, iteration)
        bits = self.low_bits if r_value < eps else self.high_bits
        return PrecisionDecision(layer_index, iteration, kind, bits,
                                 relative_improvement=r_value, threshold=eps)

    def decide(self, kind, layer_index, iteration, tensor=None):
        decision = self.cached_decision(kind, layer_index, iteration)
        if decision is not None:
            return decision
        r_value = relative_improvement(tensor, self.schedule.config,
                                       self.low_bits, self.high_bits)
        return self.decide_from_improvement(kind, layer_index, iteration, r_value)

    def select(self, kind, layer_index, iteration, tensor=None):
        decision = self.decide(kind, layer_index, iteration, tensor)
        self.record(decision)
        return decision.mantissa_bits

    def record(self, decision):
        due = self.cached_decision(decision.tensor_kind, decision.layer_index,
                                   decision.iteration) is None
        entry = super().record(decision)
        if due:
            entry.evaluated_at = decision.iteration
        return entry


class TwoRouteFASTScheme(PushedBFPScheme):
    """W: the policy measures ``r(W)``, then the weight is quantized afresh.
    A and G: ``r`` from their own :class:`AdaptiveConversion` when due."""

    def __init__(self, policy, layer_index, config, stochastic_gradients, rng):
        super().__init__(config, stochastic_gradients, rng)
        self.policy = policy
        self.layer_index = layer_index
        self.iteration = 0
        self._pending = None

    def _quantize(self, values, kind):
        policy = self.policy
        decision = policy.cached_decision(kind, self.layer_index, self.iteration)
        if decision is not None:
            policy.record(decision)
            self.bits[kind] = decision.mantissa_bits
            return super()._quantize(values, kind)
        values = np.asarray(values)
        conversion = AdaptiveConversion(
            values, self.config, policy.low_bits, policy.high_bits,
            layout=self._layouts.layout_for(values, self.config.group_size))
        decision = policy.decide_from_improvement(kind, self.layer_index, self.iteration,
                                                  conversion.relative_improvement)
        policy.record(decision)
        rounding = "nearest"
        if kind == TensorKind.GRADIENT and self.stochastic_gradients:
            rounding = "stochastic"
        return conversion.quantize(decision.mantissa_bits, rounding, rng=self.rng)

    def weight_cache_token(self, values=None):
        bits = self.policy.select(TensorKind.WEIGHT, self.layer_index, self.iteration,
                                  tensor=values)
        self._pending = (self.iteration, bits, values)
        return ("bfp", bits, self.config.group_size, self.config.exponent_bits)

    def quantize_weight(self, values):
        pending, self._pending = self._pending, None
        if pending is not None and pending[0] == self.iteration and pending[2] is values:
            self.bits[TensorKind.WEIGHT] = pending[1]
            return PushedBFPScheme._quantize(self, values, TensorKind.WEIGHT)
        return self._quantize(values, TensorKind.WEIGHT)


class TwoRouteFASTSchedule(PrecisionSchedule):
    """Runs ``schedule``'s FAST settings through :class:`TwoRouteFASTScheme`."""

    def __init__(self, schedule):
        super().__init__()
        self.schedule = schedule
        self.policy = None

    def prepare(self, model, total_iterations):
        self.schedule.prepare(model, total_iterations)  # sets total_iterations
        super().prepare(model, total_iterations)

    def _attach(self):
        schedule = self.schedule
        self.policy = TensorFASTPolicy(schedule, max(len(self.layers), 1))
        for index, layer in enumerate(self.layers):
            rng = NoisePool(schedule.seed + index)
            layer.scheme = TwoRouteFASTScheme(self.policy, index, schedule.config,
                                              schedule.stochastic_gradients, rng)

    def on_iteration(self, iteration):
        for layer in self.layers:
            layer.scheme.iteration = iteration

    def setting_history(self):
        return self.policy.setting_history()


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


@pytest.mark.parametrize("interval", [1, 4])
def test_fast_scheme_matches_the_two_route_statistic(interval):
    def schedule():
        return FASTSchedule(alpha=0.4, evaluation_interval=interval, seed=1)

    ours, theirs = schedule(), TwoRouteFASTSchedule(schedule())
    assert ours.stochastic_gradients and ours.noise_pool
    losses, params, logits = train(ours)
    two_route_losses, two_route_params, two_route_logits = train(theirs)
    assert len(losses) == len(two_route_losses) == STEPS
    for new, old in zip(losses, two_route_losses):
        np.testing.assert_array_equal(new, old)
    assert len(params) == len(two_route_params)
    for new, old in zip(params, two_route_params):
        assert new.dtype == old.dtype == np.float32
        np.testing.assert_array_equal(new, old)
    np.testing.assert_array_equal(logits, two_route_logits)
    history = ours.setting_history()
    assert history == theirs.setting_history()
    assert len(history) == 3 * STEPS
    assert len(set(history.values())) > 1
