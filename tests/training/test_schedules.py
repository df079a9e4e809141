"""Tests for the trainer-facing precision schedules."""

import numpy as np
import pytest

from repro import nn
from repro.models import MLP
from repro.nn.quantized import BFPScheme, FormatScheme, IdentityScheme, quantized_modules
from repro.training.schedules import (
    FASTSchedule,
    FixedBFPSchedule,
    FormatSchedule,
    FP32Schedule,
    LayerwiseSchedule,
    TemporalSchedule,
    build_schedule,
)


def make_model():
    return MLP(8, [8, 8], 4, rng=np.random.default_rng(0))


class TestFP32Schedule:
    def test_attaches_identity_schemes(self):
        model = make_model()
        schedule = FP32Schedule()
        schedule.prepare(model, total_iterations=10)
        assert all(isinstance(layer.scheme, IdentityScheme) for layer in quantized_modules(model))
        assert schedule.name == "fp32"


class TestFormatSchedule:
    def test_attaches_format_schemes(self):
        model = make_model()
        schedule = FormatSchedule("int8")
        schedule.prepare(model, 10)
        assert all(isinstance(layer.scheme, FormatScheme) for layer in quantized_modules(model))
        assert schedule.name == "int8"

    def test_fp32_format_maps_to_identity(self):
        model = make_model()
        schedule = FormatSchedule("fp32")
        schedule.prepare(model, 10)
        assert all(layer.scheme.is_identity for layer in quantized_modules(model))

    def test_accepts_format_instance(self):
        from repro.formats import BFloat16Format

        schedule = FormatSchedule(BFloat16Format())
        assert schedule.name == "bfloat16"


class TestFixedBFPSchedule:
    def test_attaches_bfp_schemes_with_bits(self):
        model = make_model()
        schedule = FixedBFPSchedule(3)
        schedule.prepare(model, 10)
        for layer in quantized_modules(model):
            assert isinstance(layer.scheme, BFPScheme)
            assert layer.scheme.precision_setting() == {"weight": 3, "activation": 3, "gradient": 3}

    def test_snapshot_reports_bits(self):
        model = make_model()
        schedule = FixedBFPSchedule(2)
        schedule.prepare(model, 10)
        snapshot = schedule.precision_snapshot()
        assert len(snapshot) == 3
        assert snapshot[0]["weight"] == 2


class TestTemporalSchedule:
    def test_low_to_high_switches_at_midpoint(self):
        model = make_model()
        schedule = TemporalSchedule(low_to_high=True)
        schedule.prepare(model, total_iterations=100)
        schedule.on_iteration(10)
        assert schedule.precision_snapshot()[0]["weight"] == 2
        schedule.on_iteration(80)
        assert schedule.precision_snapshot()[0]["weight"] == 4

    def test_high_to_low(self):
        model = make_model()
        schedule = TemporalSchedule(low_to_high=False)
        schedule.prepare(model, 100)
        schedule.on_iteration(10)
        assert schedule.precision_snapshot()[0]["weight"] == 4

    def test_name(self):
        assert TemporalSchedule(low_to_high=True).name == "temporal_low_to_high"
        assert TemporalSchedule(low_to_high=False).name == "temporal_high_to_low"


class TestLayerwiseSchedule:
    def test_low_to_high_over_depth(self):
        model = make_model()
        schedule = LayerwiseSchedule(low_to_high=True)
        schedule.prepare(model, 100)
        schedule.on_iteration(0)
        snapshot = schedule.precision_snapshot()
        assert snapshot[0]["weight"] == 2    # shallow layer
        assert snapshot[-1]["weight"] == 4   # deep layer

    def test_high_to_low_over_depth(self):
        model = make_model()
        schedule = LayerwiseSchedule(low_to_high=False)
        schedule.prepare(model, 100)
        snapshot = schedule.precision_snapshot()
        assert snapshot[0]["weight"] == 4
        assert snapshot[-1]["weight"] == 2


class TestFASTSchedule:
    def test_attaches_policy_driven_schemes(self):
        model = make_model()
        schedule = FASTSchedule(evaluation_interval=5)
        schedule.prepare(model, 50)
        layers = quantized_modules(model)
        assert all(isinstance(layer.scheme, BFPScheme) for layer in layers)
        assert schedule.policy.total_layers == len(layers)
        assert schedule.policy.total_iterations == 50

    def test_on_iteration_updates_schemes(self):
        model = make_model()
        schedule = FASTSchedule()
        schedule.prepare(model, 50)
        schedule.on_iteration(17)
        assert all(layer.scheme.iteration == 17 for layer in quantized_modules(model))

    def test_setting_history_after_training_step(self, rng):
        model = make_model()
        schedule = FASTSchedule()
        schedule.prepare(model, 10)
        schedule.on_iteration(0)
        loss = nn.cross_entropy(model(rng.standard_normal((4, 8))), np.zeros(4, dtype=int))
        loss.backward()
        history = schedule.setting_history()
        assert history  # every layer recorded a (W, A, G) decision
        for setting in history.values():
            assert all(bits in (2, 4) for bits in setting)


def run_steps(schedule, steps, seed=0):
    """Forward and backward passes of ``make_model`` for ``steps`` iterations."""
    model = make_model()
    schedule.prepare(model, steps)
    data = np.random.default_rng(seed)
    for step in range(steps):
        schedule.on_iteration(step)
        loss = nn.cross_entropy(model(data.standard_normal((4, 8))), np.zeros(4, dtype=int))
        loss.backward()
    return len(quantized_modules(model))


class TestSettingHistory:
    """Every BFP schedule reports (layer, iteration) -> (W, A, G) decisions."""

    def test_empty_before_prepare(self):
        assert FixedBFPSchedule(2).setting_history() == {}

    def test_fixed_is_constant(self):
        schedule = FixedBFPSchedule(3)
        layers = run_steps(schedule, 4)
        history = schedule.setting_history()
        assert set(history) == {(layer, it) for layer in range(layers) for it in range(4)}
        assert set(history.values()) == {(3, 3, 3)}

    @pytest.mark.parametrize("low_to_high", [True, False])
    def test_temporal_switches_at_fraction_of_iterations(self, low_to_high):
        steps, fraction = 8, 0.25
        schedule = TemporalSchedule(low_to_high=low_to_high, switch_fraction=fraction)
        layers = run_steps(schedule, steps)
        history = schedule.setting_history()
        assert len(history) == layers * steps
        for (layer, iteration), setting in history.items():
            late = iteration >= fraction * steps
            bits = 4 if late == low_to_high else 2
            assert setting == (bits, bits, bits), (layer, iteration)

    @pytest.mark.parametrize("low_to_high", [True, False])
    def test_layerwise_switches_at_fraction_of_layers(self, low_to_high):
        fraction = 0.3
        schedule = LayerwiseSchedule(low_to_high=low_to_high, switch_fraction=fraction)
        layers = run_steps(schedule, 3)
        history = schedule.setting_history()
        assert len(history) == layers * 3
        deep_layers = set()
        for (layer, iteration), setting in history.items():
            deep = layer >= fraction * layers
            bits = 4 if deep == low_to_high else 2
            assert setting == (bits, bits, bits), (layer, iteration)
            if deep:
                deep_layers.add(layer)
        assert deep_layers == {1, 2}  # layer 1 of 3 is at depth 0.33 >= 0.3

class TestBuildSchedule:
    @pytest.mark.parametrize("name,expected_type", [
        ("fp32", FP32Schedule),
        ("fast_adaptive", FASTSchedule),
        ("low_bfp", FixedBFPSchedule),
        ("mid_bfp", FixedBFPSchedule),
        ("high_bfp", FixedBFPSchedule),
        ("temporal_low_to_high", TemporalSchedule),
        ("layerwise_high_to_low", LayerwiseSchedule),
        ("bfloat16", FormatSchedule),
        ("msfp12", FormatSchedule),
    ])
    def test_names_resolve(self, name, expected_type):
        assert isinstance(build_schedule(name), expected_type)

    def test_bfp_bit_mapping(self):
        assert build_schedule("low_bfp").mantissa_bits == 2
        assert build_schedule("mid_bfp").mantissa_bits == 3
        assert build_schedule("high_bfp").mantissa_bits == 4

    def test_direction_parsed(self):
        assert build_schedule("temporal_high_to_low").low_to_high is False
        assert build_schedule("layerwise_low_to_high").low_to_high is True

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            build_schedule("fp64")
