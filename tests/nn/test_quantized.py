"""Tests for quantization schemes and quantized layers."""

import numpy as np

from repro import nn
from repro.core.bfp import BFPConfig, bfp_quantize
from repro.core.precision_policy import (
    FASTAdaptivePolicy,
    FixedPrecisionPolicy,
    PrecisionDecision,
    PrecisionPolicy,
)
from repro.formats import get_format
from repro.nn.quantized import (
    BFPScheme,
    FormatScheme,
    IdentityScheme,
    QuantizedConv2d,
    QuantizedLinear,
    assign_layer_indices,
    quantized_modules,
)
from repro.nn.tensor import Tensor


class PerKindPolicy(PrecisionPolicy):
    """A data-free policy with its own mantissa width per tensor kind."""

    def __init__(self, **bits):
        super().__init__()
        self.bits = bits

    def decide(self, tensor_kind, layer_index, iteration, r=None):
        return PrecisionDecision(layer_index, iteration, tensor_kind, self.bits[tensor_kind])


class TestSchemes:
    def test_identity_scheme_is_noop(self, rng):
        scheme = IdentityScheme()
        values = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(scheme.quantize_weight(values), values)
        assert scheme.is_identity

    def test_format_scheme_uses_tensor_kind(self, rng):
        scheme = FormatScheme(get_format("hfp8"))
        values = np.full((4, 4), 3e-5)
        forward = scheme.quantize_activation(values)
        backward = scheme.quantize_gradient(values)
        assert not np.allclose(forward, backward)

    def test_bfp_scheme_independent_bits(self, rng):
        scheme = BFPScheme(PerKindPolicy(weight=4, activation=2, gradient=4),
                           stochastic_gradients=False)
        values = rng.standard_normal((2, 32))
        weight_error = np.abs(scheme.quantize_weight(values) - values).mean()
        activation_error = np.abs(scheme.quantize_activation(values) - values).mean()
        assert activation_error > weight_error

    def test_bfp_scheme_gradient_stochastic(self, rng):
        values = rng.standard_normal((2, 32))
        scheme_a = BFPScheme(FixedPrecisionPolicy(2), rng=np.random.default_rng(0))
        scheme_b = BFPScheme(FixedPrecisionPolicy(2), rng=np.random.default_rng(1))
        assert not np.allclose(scheme_a.quantize_gradient(values),
                               scheme_b.quantize_gradient(values))

    def test_fast_scheme_records_decisions(self, rng):
        policy = FASTAdaptivePolicy(total_layers=4, total_iterations=10)
        scheme = BFPScheme(policy, layer_index=2)
        scheme.iteration = 3
        scheme.quantize_weight(rng.standard_normal((2, 32)))
        assert list(policy.records) == [(2, "weight")]
        decision = policy.records[2, "weight"].last
        assert decision.layer_index == 2
        assert decision.iteration == 3
        assert scheme.precision_setting()["weight"] == decision.mantissa_bits
        assert decision.mantissa_bits in (2, 4)


class TestQuantizedLinear:
    def test_identity_scheme_matches_plain_linear(self, rng):
        layer = QuantizedLinear(8, 4, rng=np.random.default_rng(0))
        plain = nn.Linear(8, 4, rng=np.random.default_rng(0))
        x = rng.standard_normal((3, 8))
        np.testing.assert_allclose(layer(Tensor(x)).data, plain(Tensor(x)).data)

    def test_forward_uses_quantized_weights_and_activations(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(2), config=BFPConfig(exponent_bits=3),
                           stochastic_gradients=False)
        layer = QuantizedLinear(16, 4, scheme=scheme, rng=rng)
        x = rng.standard_normal((2, 16))
        expected = scheme.quantize_activation(x) @ scheme.quantize_weight(layer.weight.data).T \
            + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_weight_gradient_flows_to_master_copy(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        layer = QuantizedLinear(8, 4, scheme=scheme, rng=rng)
        out = layer(Tensor(rng.standard_normal((3, 8))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.shape

    def test_gradient_quantization_applied_in_backward(self, rng):
        marker = {"called": False}

        class MarkerScheme(BFPScheme):
            def quantize_gradient(self, values):
                marker["called"] = True
                return super().quantize_gradient(values)

        layer = QuantizedLinear(8, 4, scheme=MarkerScheme(FixedPrecisionPolicy(4)), rng=rng)
        layer(Tensor(rng.standard_normal((2, 8)), requires_grad=True)).sum().backward()
        assert marker["called"]


class TestQuantizedConv2d:
    def test_identity_scheme_matches_plain_conv(self, rng):
        quantized = QuantizedConv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        plain = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 3, 6, 6))
        np.testing.assert_allclose(quantized(Tensor(x)).data, plain(Tensor(x)).data)

    def test_quantized_forward_changes_output(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(2), config=BFPConfig(exponent_bits=3),
                           stochastic_gradients=False)
        layer = QuantizedConv2d(3, 4, 3, padding=1, scheme=scheme, rng=rng)
        x = rng.standard_normal((1, 3, 6, 6))
        quantized_out = layer(Tensor(x)).data
        layer.scheme = IdentityScheme()
        plain_out = layer(Tensor(x)).data
        assert not np.allclose(quantized_out, plain_out)

    def test_master_weight_not_overwritten(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        layer = QuantizedConv2d(3, 4, 3, scheme=scheme, rng=rng)
        original = layer.weight.data.copy()
        layer(Tensor(rng.standard_normal((1, 3, 5, 5))))
        np.testing.assert_array_equal(layer.weight.data, original)
        assert layer.weight is layer._parameters["weight"]

    def test_grouped_quantized_conv(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        layer = QuantizedConv2d(4, 4, 3, padding=1, groups=2, scheme=scheme, rng=rng)
        out = layer(Tensor(rng.standard_normal((1, 4, 5, 5))))
        assert out.shape == (1, 4, 5, 5)

    def test_backward_produces_gradients(self, rng):
        scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        layer = QuantizedConv2d(3, 4, 3, padding=1, scheme=scheme, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.weight.grad is not None


class TestLayerDiscovery:
    def build_model(self):
        return nn.Sequential(
            QuantizedConv2d(3, 4, 3, padding=1),
            nn.ReLU(),
            QuantizedConv2d(4, 4, 3, padding=1),
            nn.Flatten(),
            QuantizedLinear(4 * 4 * 4, 10),
        )

    def test_quantized_modules_found_in_order(self):
        model = self.build_model()
        layers = quantized_modules(model)
        assert len(layers) == 3
        assert isinstance(layers[0], QuantizedConv2d)
        assert isinstance(layers[-1], QuantizedLinear)

    def test_assign_layer_indices(self):
        model = self.build_model()
        count = assign_layer_indices(model)
        assert count == 3
        assert [layer.layer_index for layer in quantized_modules(model)] == [0, 1, 2]

    def test_fast_scheme_layer_index_updated(self):
        model = self.build_model()
        policy = FixedPrecisionPolicy(2)
        for layer in quantized_modules(model):
            layer.scheme = BFPScheme(policy)
        assign_layer_indices(model)
        assert [layer.scheme.layer_index for layer in quantized_modules(model)] == [0, 1, 2]

    def test_quantized_training_reduces_loss(self, rng):
        """A small quantized model still learns (straight-through estimator works)."""
        scheme_factory = lambda: BFPScheme(FixedPrecisionPolicy(4),
                                           config=BFPConfig(exponent_bits=3))
        model = nn.Sequential(QuantizedLinear(8, 16), nn.ReLU(), QuantizedLinear(16, 2))
        for layer in quantized_modules(model):
            layer.scheme = scheme_factory()
        optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
        inputs = rng.standard_normal((64, 8))
        labels = (inputs[:, 0] > 0).astype(int)
        first_loss = None
        for _ in range(30):
            optimizer.zero_grad()
            loss = nn.cross_entropy(model(Tensor(inputs)), labels)
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < first_loss * 0.7
