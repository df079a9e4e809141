"""Tests for the version-keyed weight-quantization cache of quantized layers."""

import numpy as np
import pytest

from repro import nn
from repro.core.bfp import BFPConfig
from recording_policy import recorded
from repro.core.precision_policy import (
    FASTAdaptivePolicy,
    FixedPrecisionPolicy,
    PrecisionDecision,
    PrecisionPolicy,
    TemporalPrecisionPolicy,
)
from repro.nn.quantized import BFPScheme, QuantizedConv2d, QuantizedLinear
from repro.nn.tensor import Tensor


class CountingBFPScheme(BFPScheme):
    """BFPScheme that counts weight-quantization invocations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.weight_calls = 0

    def quantize_weight(self, values):
        self.weight_calls += 1
        return super().quantize_weight(values)


def make_linear(rng_seed=0, policy=None):
    if policy is None:
        policy = FixedPrecisionPolicy(4)
    scheme = CountingBFPScheme(policy, stochastic_gradients=False)
    layer = QuantizedLinear(8, 4, scheme=scheme, rng=np.random.default_rng(rng_seed))
    return layer, scheme


class TestCacheHits:
    def test_repeated_forward_quantizes_once(self, rng):
        layer, scheme = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        outputs = [layer(x).data for _ in range(5)]
        assert scheme.weight_calls == 1
        for out in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], out)

    def test_cached_output_matches_uncached(self, rng):
        layer, scheme = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        cached = layer(x).data
        expected = scheme.quantize_activation(x.data) @ scheme.quantize_weight(layer.weight.data).T \
            + layer.bias.data
        np.testing.assert_allclose(cached, expected)

    def test_conv_layer_caches_too(self, rng):
        scheme = CountingBFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        layer = QuantizedConv2d(3, 4, 3, padding=1, scheme=scheme, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        a = layer(x).data
        b = layer(x).data
        assert scheme.weight_calls == 1
        np.testing.assert_array_equal(a, b)


class TestInvalidation:
    def test_optimizer_step_bumps_version_and_invalidates(self, rng):
        layer, scheme = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        version_before = layer.weight.version
        layer(x).sum().backward()
        optimizer = nn.SGD(layer.parameters(), lr=0.5)
        optimizer.step()
        assert layer.weight.version == version_before + 1
        before = scheme.weight_calls
        layer(x)
        assert scheme.weight_calls == before + 1

    def test_changing_scheme_bits_invalidates(self, rng):
        # 2 bits before iteration 5, 4 bits from it on.
        policy = TemporalPrecisionPolicy(total_iterations=10, low_to_high=True)
        layer, scheme = make_linear(policy=policy)
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x)
        assert scheme.precision_setting()["weight"] == 2
        scheme.iteration = 5
        layer(x)
        assert scheme.weight_calls == 2
        assert scheme.precision_setting()["weight"] == 4

    def test_load_state_dict_invalidates(self, rng):
        layer, scheme = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        out_before = layer(x).data.copy()
        state = {name: value * 2.0 for name, value in layer.state_dict().items()}
        layer.load_state_dict(state)
        out_after = layer(x).data
        assert scheme.weight_calls == 2
        assert not np.allclose(out_before, out_after)

    def test_clear_weight_cache_forces_requantization(self, rng):
        layer, scheme = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x)
        layer.clear_weight_cache()
        layer(x)
        assert scheme.weight_calls == 2

    def test_gradients_flow_with_cache_active(self, rng):
        layer, _ = make_linear()
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        layer(x)  # prime the cache
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.shape
        assert x.grad is not None


class TogglePolicy(PrecisionPolicy):
    """Minimal pure policy whose bits decision tests can flip at will."""

    def __init__(self, bits=2):
        super().__init__()
        self.bits = bits

    def decide(self, tensor_kind, layer_index, iteration, r=None):
        return PrecisionDecision(layer_index, iteration, tensor_kind, self.bits)


class TestFASTSchemeCaching:
    """The decision/quantization split lets adaptive training cache weights."""

    def make_fast_linear(self, policy=None):
        if policy is None:
            policy = FASTAdaptivePolicy(total_layers=2, total_iterations=10)
        scheme = CountingBFPScheme(policy, stochastic_gradients=False,
                                   config=BFPConfig(exponent_bits=8))
        layer = QuantizedLinear(8, 4, scheme=scheme, rng=np.random.default_rng(0))
        return layer, scheme, policy

    def test_repeated_forwards_quantize_once(self, rng):
        layer, scheme, _ = self.make_fast_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        outputs = [layer(x).data for _ in range(5)]
        assert scheme.weight_calls == 1
        for out in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], out)

    def test_every_forward_still_records_a_weight_decision(self, rng):
        layer, _, policy = self.make_fast_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x)
        weight_decisions = policy.records[0, "weight"].count
        layer(x)  # cache hit: decision recorded, quantization skipped
        after = policy.records[0, "weight"].count
        assert after == weight_decisions + 1

    def test_version_bump_invalidates(self, rng):
        layer, scheme, _ = self.make_fast_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x).sum().backward()
        nn.SGD(layer.parameters(), lr=0.5).step()
        before = scheme.weight_calls
        layer(x)
        assert scheme.weight_calls == before + 1

    def test_bits_flip_invalidates_without_version_change(self, rng):
        """A changed policy decision must refresh the cached weight even when
        the parameter version is unchanged."""
        policy = TogglePolicy(bits=2)
        layer, scheme, _ = self.make_fast_linear(policy)
        x = Tensor(rng.standard_normal((3, 8)))
        low = layer(x).data.copy()
        assert scheme.weight_calls == 1
        policy.bits = 4
        high = layer(x).data
        assert scheme.weight_calls == 2
        assert not np.allclose(low, high)
        assert scheme.precision_setting()["weight"] == 4

    def test_adaptive_threshold_flip_invalidates(self, rng):
        """Same, driven through the real FASTAdaptivePolicy threshold."""
        from repro.core.converter import relative_improvement
        layer, scheme, _ = self.make_fast_linear()
        r_value = relative_improvement(layer.weight.data,
                                       BFPConfig(exponent_bits=8), 2, 4)
        # Pin the threshold just above r(W) at iteration 0 (choose 2 bits)
        # and well below it at the final iteration (choose 4 bits).
        policy = FASTAdaptivePolicy(total_layers=1, total_iterations=10,
                                    alpha=r_value + 0.01, beta=0.5)
        scheme.policy = policy
        x = Tensor(rng.standard_normal((3, 8)))
        layer.clear_weight_cache()
        scheme.weight_calls = 0
        layer(x)
        assert scheme.precision_setting()["weight"] == 2
        scheme.iteration = 10
        layer(x)
        assert scheme.precision_setting()["weight"] == 4
        assert scheme.weight_calls == 2

    def test_token_requires_weight_values(self, rng):
        layer, scheme, _ = self.make_fast_linear()
        assert scheme.weight_cache_token() is None
        token = scheme.weight_cache_token(layer.weight.data)
        assert token is not None and token[0] == "bfp"
        assert token[1] in (2, 4)

    def test_standalone_quantize_weight_selects_fresh(self, rng):
        layer, scheme, policy = self.make_fast_linear()
        values = rng.standard_normal((4, 32))
        before = recorded(policy)
        scheme.quantize_weight(values)
        assert recorded(policy) == before + 1

    def test_stale_pending_bits_not_reused_after_cache_hit(self, rng):
        """A cache-hit forward leaves a pending weight decision unconsumed; a
        later standalone quantize_weight on a different array must still
        select (and record) freshly instead of inheriting those bits."""
        layer, scheme, policy = self.make_fast_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x)
        layer(x)  # cache hit: weight_cache_token sets pending, nothing consumes it
        other = rng.standard_normal((4, 32))
        before = recorded(policy)
        scheme.quantize_weight(other)
        assert recorded(policy) == before + 1


class TestUncachedSchemes:
    def test_base_scheme_token_is_none(self):
        from repro.nn.quantized import QuantizationScheme
        assert QuantizationScheme().weight_cache_token() is None
        assert QuantizationScheme().weight_cache_token(np.zeros(4)) is None


class TestParameterVersioning:
    def test_parameter_starts_at_version_zero(self):
        param = nn.Parameter(np.zeros(3))
        assert param.version == 0
        param.bump_version()
        assert param.version == 1

    def test_adam_bumps_versions(self, rng):
        layer, _ = make_linear()
        x = Tensor(rng.standard_normal((3, 8)))
        layer(x).sum().backward()
        optimizer = nn.Adam(layer.parameters(), lr=0.01)
        optimizer.step()
        assert layer.weight.version == 1

    def test_params_without_grad_not_bumped(self, rng):
        layer, _ = make_linear()
        optimizer = nn.SGD(layer.parameters(), lr=0.1)
        optimizer.step()  # no gradients accumulated
        assert layer.weight.version == 0
