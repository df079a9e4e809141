"""Tests for multi-head attention and Transformer blocks."""

import numpy as np
import pytest

from repro import nn
from repro.nn.attention import (
    MultiHeadAttention,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    causal_mask,
    positional_encoding,
    scaled_dot_product_attention,
)
from repro.nn.tensor import Tensor


class TestAttentionPrimitives:
    def test_causal_mask_blocks_future(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert np.all(mask[np.triu_indices(4, k=1)] < -1e8)
        assert np.all(mask[np.tril_indices(4)] == 0)

    def test_positional_encoding_shape_and_range(self):
        encoding = positional_encoding(10, 16)
        assert encoding.shape == (10, 16)
        assert np.abs(encoding).max() <= 1.0

    def test_positional_encoding_rows_distinct(self):
        encoding = positional_encoding(8, 32)
        distances = np.abs(encoding[:, None] - encoding[None, :]).sum(axis=-1)
        assert np.all(distances[~np.eye(8, dtype=bool)] > 0.1)

    def test_scaled_dot_product_attention_weights(self, rng):
        query = Tensor(rng.standard_normal((1, 1, 3, 4)))
        key = Tensor(rng.standard_normal((1, 1, 5, 4)))
        value = Tensor(rng.standard_normal((1, 1, 5, 4)))
        out = scaled_dot_product_attention(query, key, value)
        assert out.shape == (1, 1, 3, 4)

    def test_uniform_keys_average_values(self):
        """Identical keys give uniform attention, so the output is the mean value."""
        query = Tensor(np.ones((1, 1, 1, 2)))
        key = Tensor(np.ones((1, 1, 4, 2)))
        value = Tensor(np.arange(8.0).reshape(1, 1, 4, 2))
        out = scaled_dot_product_attention(query, key, value)
        np.testing.assert_allclose(out.data[0, 0, 0], value.data[0, 0].mean(axis=0))

    def test_causal_mask_prevents_information_flow(self, rng):
        """Changing a later position must not change earlier outputs under the mask."""
        attention = MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = rng.standard_normal((1, 4, 8))
        mask = causal_mask(4)
        base = attention(Tensor(x), mask=mask).data
        perturbed = x.copy()
        perturbed[0, 3] += 10.0
        changed = attention(Tensor(perturbed), mask=mask).data
        np.testing.assert_allclose(base[0, :3], changed[0, :3], atol=1e-10)
        assert not np.allclose(base[0, 3], changed[0, 3])


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attention = MultiHeadAttention(16, 4, rng=rng)
        out = attention(Tensor(rng.standard_normal((2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_embed_dim_must_divide(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)

    def test_cross_attention_uses_memory(self, rng):
        attention = MultiHeadAttention(8, 2, rng=rng)
        query = Tensor(rng.standard_normal((1, 3, 8)))
        memory = rng.standard_normal((1, 6, 8))
        out_a = attention(query, key=Tensor(memory), value=Tensor(memory)).data
        out_b = attention(query, key=Tensor(memory * 2), value=Tensor(memory * 2)).data
        assert not np.allclose(out_a, out_b)

    def test_gradients_reach_all_projections(self, rng):
        attention = MultiHeadAttention(8, 2, rng=rng)
        out = attention(Tensor(rng.standard_normal((1, 4, 8)), requires_grad=True))
        out.sum().backward()
        for name, parameter in attention.named_parameters():
            if name.endswith("weight"):
                assert parameter.grad is not None, name


class TestTransformerLayers:
    def test_encoder_layer_shape_preserved(self, rng):
        layer = TransformerEncoderLayer(16, 4, 32, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_decoder_layer_shape_preserved(self, rng):
        layer = TransformerDecoderLayer(16, 4, 32, rng=rng)
        memory = Tensor(rng.standard_normal((2, 7, 16)))
        out = layer(Tensor(rng.standard_normal((2, 5, 16))), memory, self_mask=causal_mask(5))
        assert out.shape == (2, 5, 16)

    def test_residual_path_keeps_input_influence(self, rng):
        """With tiny weights the encoder layer behaves nearly as identity."""
        layer = TransformerEncoderLayer(8, 2, 16, rng=np.random.default_rng(0))
        for parameter in layer.parameters():
            if parameter.ndim >= 2:
                parameter.data = parameter.data * 1e-4
        x = rng.standard_normal((1, 3, 8))
        out = layer(Tensor(x)).data
        np.testing.assert_allclose(out, x, atol=1e-2)

    def test_encoder_layer_is_quantizable(self, rng):
        from repro.core.precision_policy import FixedPrecisionPolicy
        from repro.nn.quantized import BFPScheme, quantized_modules

        layer = TransformerEncoderLayer(16, 4, 32, rng=rng)
        quantized = quantized_modules(layer)
        assert len(quantized) >= 6  # q, k, v, out projections + 2 ffn layers
        for module in quantized:
            module.scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        out = layer(Tensor(rng.standard_normal((1, 4, 16))))
        assert out.shape == (1, 4, 16)
