"""Tests for the precision policies (Equation 1, Algorithm 1, Figure 9 schedules)."""

import tracemalloc

import numpy as np
import pytest

from recording_policy import record_schedules, recording
from repro import nn
from repro.core.bfp import BFPConfig
from repro.core.converter import relative_improvement
from repro.core.precision_policy import (
    SETTING_ORDER,
    TENSOR_KINDS,
    FASTAdaptivePolicy,
    FixedPrecisionPolicy,
    LayerwisePrecisionPolicy,
    PrecisionDecision,
    PrecisionPolicy,
    TemporalPrecisionPolicy,
    fast_threshold,
    setting_cost_rank,
)
from repro.models import MLP
from repro.training.schedules import (
    FASTSchedule,
    FixedBFPSchedule,
    LayerwiseSchedule,
    TemporalSchedule,
)


class TestFastThreshold:
    def test_paper_hyperparameters_at_origin(self):
        assert fast_threshold(0, 0, 20, 100, alpha=0.6, beta=0.3) == pytest.approx(0.6)

    def test_decreases_with_iteration(self):
        early = fast_threshold(5, 10, 20, 100)
        late = fast_threshold(5, 90, 20, 100)
        assert late < early

    def test_decreases_with_depth(self):
        shallow = fast_threshold(1, 50, 20, 100)
        deep = fast_threshold(18, 50, 20, 100)
        assert deep < shallow

    def test_final_value(self):
        assert fast_threshold(20, 100, 20, 100, 0.6, 0.3) == pytest.approx(0.0)

    def test_invalid_totals(self):
        with pytest.raises(ValueError):
            fast_threshold(0, 0, 0, 100)


class TestSettingOrder:
    def test_eight_settings(self):
        assert len(SETTING_ORDER) == 8
        assert len(set(SETTING_ORDER)) == 8

    def test_extremes(self):
        assert SETTING_ORDER[0] == (2, 2, 2)
        assert SETTING_ORDER[-1] == (4, 4, 4)

    def test_gradient_promotion_costs_more_than_activation(self):
        """(4, 2, 2) ranks below (2, 2, 4), as discussed in Section VI-A."""
        assert setting_cost_rank(4, 2, 2) < setting_cost_rank(2, 2, 4)

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            setting_cost_rank(3, 3, 3)


class TestFixedPolicy:
    def test_always_returns_configured_bits(self):
        policy = FixedPrecisionPolicy(3)
        for layer in range(5):
            for iteration in (0, 10, 99):
                assert policy.select("weight", layer, iteration) == 3

    def test_history_recorded(self):
        policy = FixedPrecisionPolicy(2)
        policy.select("weight", 0, 0)
        policy.select("activation", 0, 0)
        assert {key: entry.count for key, entry in policy.records.items()} == {
            (0, "weight"): 1, (0, "activation"): 1}


class TestTemporalPolicy:
    def test_low_to_high(self):
        policy = TemporalPrecisionPolicy(total_iterations=100, low_to_high=True)
        assert policy.select("weight", 0, 10) == 2
        assert policy.select("weight", 0, 80) == 4

    def test_high_to_low(self):
        policy = TemporalPrecisionPolicy(total_iterations=100, low_to_high=False)
        assert policy.select("weight", 0, 10) == 4
        assert policy.select("weight", 0, 80) == 2

    def test_switch_fraction(self):
        policy = TemporalPrecisionPolicy(total_iterations=100, switch_fraction=0.25)
        assert policy.select("weight", 0, 24) == 2
        assert policy.select("weight", 0, 25) == 4

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TemporalPrecisionPolicy(100, switch_fraction=1.5)


class TestLayerwisePolicy:
    def test_low_to_high_over_depth(self):
        policy = LayerwisePrecisionPolicy(total_layers=20, low_to_high=True)
        assert policy.select("weight", 2, 0) == 2
        assert policy.select("weight", 18, 0) == 4

    def test_high_to_low_over_depth(self):
        policy = LayerwisePrecisionPolicy(total_layers=20, low_to_high=False)
        assert policy.select("weight", 2, 0) == 4
        assert policy.select("weight", 18, 0) == 2

    def test_independent_of_iteration(self):
        policy = LayerwisePrecisionPolicy(total_layers=10)
        assert policy.select("weight", 3, 0) == policy.select("weight", 3, 10000)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.5])
    def test_invalid_fraction(self, fraction):
        with pytest.raises(ValueError, match="switch_fraction"):
            LayerwisePrecisionPolicy(10, switch_fraction=fraction)
        schedule = LayerwiseSchedule(switch_fraction=fraction)
        with pytest.raises(ValueError, match="switch_fraction"):
            schedule.prepare(MLP(8, [8], 2, rng=np.random.default_rng(0)), 4)


#: Grouping under which the FAST-Adaptive tests measure r(X).
CONFIG = BFPConfig(group_size=16, exponent_bits=8)


def r_of(tensor):
    return relative_improvement(tensor, CONFIG)


class TestFASTAdaptivePolicy:
    def make_policy(self, **kwargs):
        defaults = dict(total_layers=10, total_iterations=100)
        defaults.update(kwargs)
        return FASTAdaptivePolicy(**defaults)

    def test_requires_r_when_due(self):
        policy = self.make_policy()
        assert policy.needs_statistic("weight", 0, 0)
        with pytest.raises(ValueError, match="requires r"):
            policy.select("weight", 0, 0)

    def test_coarse_tensor_stays_low_precision(self):
        policy = self.make_policy()
        coarse = np.array([[1.0, 0.5, -1.0, 2.0] * 4])
        assert policy.select("weight", 0, 0, r=r_of(coarse)) == 2

    def test_fine_tensor_promoted_late_in_training(self, rng):
        policy = self.make_policy(alpha=0.6, beta=0.3)
        fine = rng.standard_normal((4, 64))
        late_bits = policy.select("weight", 9, 99, r=r_of(fine))
        assert late_bits == 4

    def test_precision_never_exceeds_high_bits(self, rng):
        policy = self.make_policy()
        for layer in range(10):
            bits = policy.select("gradient", layer, 50, r=r_of(rng.standard_normal((2, 32))))
            assert bits in (2, 4)

    def test_threshold_matches_equation(self):
        policy = self.make_policy(alpha=0.6, beta=0.3)
        assert policy.threshold(5, 50) == pytest.approx(0.6 - 0.3 * 0.5 - 0.3 * 0.5)

    def test_evaluation_interval_caches_decision(self, rng):
        policy = self.make_policy(evaluation_interval=10)
        tensor = rng.standard_normal((2, 32))
        first = policy.select("weight", 0, 0, r=r_of(tensor))
        # Different tensor within the interval: cached decision reused.
        second = policy.select("weight", 0, 5, r=r_of(rng.standard_normal((2, 32)) * 100))
        assert first == second

    def test_setting_history_collects_full_triples(self, rng):
        policy = self.make_policy()
        tensor = rng.standard_normal((2, 32))
        for kind in ("weight", "activation", "gradient"):
            policy.select(kind, 0, 0, r=r_of(tensor))
        history = policy.setting_history()
        assert (0, 0) in history
        assert len(history[(0, 0)]) == 3

    def test_average_precision_grows_over_training(self, rng):
        """The Figure 17 behaviour: precision increases with training progress."""
        policy = self.make_policy(alpha=0.6, beta=0.3)
        tensor = rng.standard_normal((8, 64))
        early = np.mean([policy.select("weight", layer, 1, r=r_of(tensor)) for layer in range(10)])
        policy_late = self.make_policy(alpha=0.6, beta=0.3)
        late = np.mean([policy_late.select("weight", layer, 99, r=r_of(tensor)) for layer in range(10)])
        assert late >= early


def collapse(decisions):
    """The decision-list collapse ``setting_history`` used to run: per
    (layer, iteration) the last bits of each kind, full triples only."""
    table = {}
    for decision in decisions:
        key = (decision.layer_index, decision.iteration)
        table.setdefault(key, {})[decision.tensor_kind] = decision.mantissa_bits
    return {key: (kinds["weight"], kinds["activation"], kinds["gradient"])
            for key, kinds in table.items() if all(kind in kinds for kind in TENSOR_KINDS)}


ORACLE_STEPS = 12
ORACLE_SCHEDULES = {
    "fixed": lambda: FixedBFPSchedule(2, seed=1),
    "temporal": lambda: TemporalSchedule(low_to_high=True, seed=1),
    "layerwise": lambda: LayerwiseSchedule(low_to_high=False, seed=1),
    "fast_interval1": lambda: FASTSchedule(alpha=0.4, evaluation_interval=1, seed=1),
    "fast_interval4": lambda: FASTSchedule(alpha=0.4, evaluation_interval=4, seed=1),
}


class TestPrecisionRecord:
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEDULES))
    def test_setting_history_matches_the_decision_list(self, name, monkeypatch):
        """Training with an eval forward after every step: the record's map
        equals the old collapse of every recorded decision."""
        record_schedules(monkeypatch)
        data = np.random.default_rng(4)
        inputs = data.standard_normal((ORACLE_STEPS, 8, 16))
        labels = data.integers(0, 4, size=(ORACLE_STEPS, 8))
        model = MLP(16, [32, 16], 4, rng=np.random.default_rng(0))
        schedule = ORACLE_SCHEDULES[name]()
        schedule.prepare(model, ORACLE_STEPS)
        optimizer = nn.SGD(model.parameters(), lr=0.05, momentum=0.9)
        for step in range(ORACLE_STEPS):
            schedule.on_iteration(step)
            model.train()
            optimizer.zero_grad()
            nn.cross_entropy(model(inputs[step]), labels[step]).backward()
            optimizer.step()
            model.eval()
            with nn.no_grad():
                model(inputs[step])
        policy = schedule.policy
        history = schedule.setting_history()
        assert history == collapse(policy.log)
        assert set(history) == {(layer, step) for layer in range(3)
                                for step in range(ORACLE_STEPS)}
        # Train forward, backward and eval forward: W and A twice, G once.
        for (layer, kind), entry in policy.records.items():
            per_step = 1 if kind == "gradient" else 2
            assert entry.count == per_step * ORACLE_STEPS
            assert entry.last == [d for d in policy.log
                                  if (d.layer_index, d.tensor_kind) == (layer, kind)][-1]
        if name != "fixed":
            assert len({setting for setting in history.values()}) > 1

    def test_random_decision_streams_match_the_collapse(self):
        """Repeated, skipped and overwritten iterations, in any kind order."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            policy = recording(PrecisionPolicy)()
            iterations = {}
            for _ in range(200):
                key = (int(rng.integers(0, 2)), TENSOR_KINDS[rng.integers(0, 3)])
                iteration = iterations.get(key, 0) + int(rng.choice([0, 0, 1, 1, 2]))
                iterations[key] = iteration
                policy.record(PrecisionDecision(key[0], iteration, key[1],
                                                int(rng.choice([2, 4]))))
            assert policy.setting_history() == collapse(policy.log)
            for entry in policy.records.values():
                runs = entry.runs
                assert all(first <= last for first, last, _ in runs)
                # Canonical: a new run only where the bits change or an
                # iteration is skipped.
                assert all(a[1] < b[0] and (a[2] != b[2] or a[1] + 1 < b[0])
                           for a, b in zip(runs, runs[1:]))

    def test_later_decision_at_the_same_iteration_wins(self):
        policy = PrecisionPolicy()
        for iteration, bits in [(0, 4), (1, 4), (2, 4), (2, 2)]:
            policy.record(PrecisionDecision(0, iteration, "weight", bits))
        assert policy.records[0, "weight"].runs == [[0, 1, 4], [2, 2, 2]]
        policy.record(PrecisionDecision(0, 2, "weight", 4))
        assert policy.records[0, "weight"].runs == [[0, 2, 4]]
        policy.record(PrecisionDecision(0, 4, "weight", 4))
        assert policy.records[0, "weight"].runs == [[0, 2, 4], [4, 4, 4]]
        assert policy.records[0, "weight"].count == 6

    def test_backwards_iteration_is_rejected(self):
        policy = FixedPrecisionPolicy(4)
        policy.select("weight", 0, 5)
        before = policy.records[0, "weight"]
        snapshot = (before.last, [list(run) for run in before.runs], before.count)
        with pytest.raises(ValueError, match="iteration 4 recorded after 5"):
            policy.select("weight", 0, 4)
        entry = policy.records[0, "weight"]
        assert (entry.last, entry.runs, entry.count) == snapshot
        # Each (layer, kind) keeps its own order.
        assert policy.select("weight", 1, 0) == 4
        assert policy.select("activation", 0, 0) == 4

    def test_fast_memo_is_the_record(self, rng):
        """Inside the interval the recorded decision is reused; ``decide``
        alone neither records nor restarts the interval."""
        policy = FASTAdaptivePolicy(total_layers=2, total_iterations=20,
                                    evaluation_interval=4)
        tensor = rng.standard_normal((2, 32))
        assert policy.needs_statistic("weight", 0, 0)
        policy.decide("weight", 0, 0, r=r_of(tensor))
        assert policy.records == {}
        first = policy.select("weight", 0, 0, r=r_of(tensor))
        assert policy.records[0, "weight"].evaluated_at == 0
        for iteration in (1, 3):
            assert not policy.needs_statistic("weight", 0, iteration)
            cached = policy.decide("weight", 0, iteration)
            assert cached.mantissa_bits == first
            assert cached.relative_improvement == policy.records[0, "weight"].last.relative_improvement
            assert cached.threshold == policy.threshold(0, iteration)
            policy.select("weight", 0, iteration, r=r_of(tensor * 100))
        assert policy.records[0, "weight"].evaluated_at == 0
        assert policy.needs_statistic("weight", 0, 4)
        policy.decide("weight", 0, 4, r=r_of(tensor))
        assert policy.records[0, "weight"].evaluated_at == 0
        policy.select("weight", 0, 4, r=r_of(tensor))
        assert policy.records[0, "weight"].evaluated_at == 4

    def test_record_memory_is_flat_in_iterations(self):
        """Direct ``select`` calls for 3 layers x 3 kinds: the record does
        not grow with the number of iterations."""
        def traced_growth(iterations):
            policy = FixedPrecisionPolicy(4)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for iteration in range(iterations):
                    for layer in range(3):
                        for kind in TENSOR_KINDS:
                            policy.select(kind, layer, iteration)
                return tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()

        short, long = traced_growth(200), traced_growth(2000)
        # A per-decision list grows ~2.25 MB over the extra 16200 decisions.
        assert long - short < 16 * 1024, (short, long)
