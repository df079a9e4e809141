"""Tests for the evaluation models: shapes, gradients, quantizability, structure."""

import numpy as np
import pytest

from repro import nn
from repro.core.precision_policy import FixedPrecisionPolicy
from repro.models import (
    MLP,
    MobileNetV2,
    Seq2SeqTransformer,
    TinyYOLO,
    mobilenet_v2,
    resnet18,
    resnet20,
    resnet20_uniform,
    resnet50,
    tiny_yolo,
    transformer_small,
    vgg11,
    vgg16,
)
from repro.nn.quantized import BFPScheme, quantized_modules
from repro.nn.tensor import Tensor


RNG = np.random.default_rng(0)


class TestMLP:
    def test_forward_shape(self, rng):
        model = MLP(12, [8, 8], 3, rng=rng)
        assert model(rng.standard_normal((5, 12))).shape == (5, 3)

    def test_flattens_images(self, rng):
        model = MLP(3 * 4 * 4, [8], 2, rng=rng)
        assert model(rng.standard_normal((2, 3, 4, 4))).shape == (2, 2)

    def test_all_linear_layers_are_quantized_type(self, rng):
        model = MLP(6, [4], 2, rng=rng)
        assert len(quantized_modules(model)) == 2


class TestResNets:
    def test_resnet20_structure(self, rng):
        model = resnet20(num_classes=10, width=8, rng=rng)
        # 3 stages x 3 blocks x 2 convs + stem + downsample shortcuts (2) + fc = 22 layers.
        layers = quantized_modules(model)
        assert len(layers) == 22
        out = model(rng.standard_normal((2, 3, 16, 16)))
        assert out.shape == (2, 10)

    def test_resnet20_uniform_has_uniform_channels(self, rng):
        model = resnet20_uniform(num_classes=10, width=8, rng=rng)
        widths = {layer.out_channels for layer in quantized_modules(model)
                  if hasattr(layer, "out_channels")}
        assert widths == {8}
        assert model(rng.standard_normal((1, 3, 16, 16))).shape == (1, 10)

    def test_resnet18_forward(self, rng):
        model = resnet18(num_classes=5, width=8, rng=rng)
        assert model(rng.standard_normal((2, 3, 16, 16))).shape == (2, 5)

    def test_resnet50_uses_bottleneck_expansion(self, rng):
        model = resnet50(num_classes=4, width=4, rng=rng)
        assert model.classifier.in_features == 4 * 8 * 4  # width*8 channels x expansion 4
        assert model(rng.standard_normal((1, 3, 16, 16))).shape == (1, 4)

    def test_gradients_flow_through_skip_connections(self, rng):
        model = resnet20(num_classes=3, width=4, rng=rng)
        loss = nn.cross_entropy(model(rng.standard_normal((2, 3, 16, 16))), np.array([0, 1]))
        loss.backward()
        for name, parameter in model.named_parameters():
            if name.endswith("weight") and parameter.ndim == 4:
                assert parameter.grad is not None, name

    def test_downsample_halves_resolution(self, rng):
        model = resnet20(num_classes=2, width=4, rng=rng)
        # Input 16x16 -> stage strides 1, 2, 2 -> final feature map 4x4.
        features = model.stages(model.stem(Tensor(rng.standard_normal((1, 3, 16, 16)))).relu())
        assert features.shape[-2:] == (4, 4)


class TestVGGAndMobileNet:
    def test_vgg11_forward(self, rng):
        model = vgg11(num_classes=7, width=4, rng=rng)
        assert model(rng.standard_normal((2, 3, 16, 16))).shape == (2, 7)

    def test_vgg16_has_13_conv_layers(self, rng):
        model = vgg16(num_classes=10, width=2, rng=rng)
        convs = [m for m in quantized_modules(model) if isinstance(m, nn.QuantizedConv2d)]
        assert len(convs) == 13

    def test_mobilenet_forward(self, rng):
        model = mobilenet_v2(num_classes=6, width=4, rng=rng)
        assert model(rng.standard_normal((2, 3, 16, 16))).shape == (2, 6)

    def test_mobilenet_uses_depthwise_convolutions(self, rng):
        model = mobilenet_v2(num_classes=2, width=4, rng=rng)
        depthwise = [m for m in quantized_modules(model)
                     if isinstance(m, nn.QuantizedConv2d) and m.groups > 1]
        assert len(depthwise) >= 3
        for layer in depthwise:
            assert layer.groups == layer.in_channels

    def test_mobilenet_residual_only_at_matching_shapes(self, rng):
        model = MobileNetV2(((2, 8, 2, 1),), num_classes=2, stem_channels=8, rng=rng)
        blocks = list(model.blocks)
        assert blocks[0].use_residual  # 8 -> 8, stride 1
        assert model(rng.standard_normal((1, 3, 8, 8))).shape == (1, 2)


class TestTransformer:
    def test_forward_logits_shape(self, rng):
        model = transformer_small(vocab_size=20, max_length=12, rng=rng)
        src = rng.integers(0, 20, size=(2, 6))
        tgt = rng.integers(0, 20, size=(2, 5))
        assert model(src, tgt).shape == (2, 5, 20)

    def test_sequence_too_long_rejected(self, rng):
        model = transformer_small(vocab_size=10, max_length=4, rng=rng)
        with pytest.raises(ValueError):
            model.encode(np.zeros((1, 10), dtype=int))

    def test_greedy_decode_output_format(self, rng):
        model = transformer_small(vocab_size=12, max_length=8, rng=rng)
        generated = model.greedy_decode(rng.integers(3, 12, size=(3, 5)), bos_index=1, eos_index=2)
        assert generated.shape[0] == 3
        assert np.all(generated[:, 0] == 1)
        assert generated.shape[1] <= 8

    def test_decoder_is_causal(self, rng):
        model = transformer_small(vocab_size=15, max_length=10, rng=np.random.default_rng(1))
        src = rng.integers(3, 15, size=(1, 5))
        tgt = rng.integers(3, 15, size=(1, 6))
        base = model(src, tgt).data
        altered = tgt.copy()
        altered[0, 5] = (altered[0, 5] + 1) % 15
        changed = model(src, altered).data
        np.testing.assert_allclose(base[0, :5], changed[0, :5], atol=1e-8)

    def test_attention_projections_are_quantizable(self, rng):
        model = transformer_small(vocab_size=10, rng=rng)
        layers = quantized_modules(model)
        assert len(layers) > 10
        for layer in layers:
            layer.scheme = BFPScheme(FixedPrecisionPolicy(4), stochastic_gradients=False)
        out = model(rng.integers(0, 10, size=(1, 4)), rng.integers(0, 10, size=(1, 4)))
        assert out.shape == (1, 4, 10)

    def test_gradients_reach_embedding(self, rng):
        model = transformer_small(vocab_size=10, rng=rng)
        src = rng.integers(0, 10, size=(2, 4))
        tgt_in = rng.integers(0, 10, size=(2, 4))
        tgt_out = rng.integers(0, 10, size=(2, 4))
        loss = nn.sequence_cross_entropy(model(src, tgt_in), tgt_out)
        loss.backward()
        assert model.embedding.weight.grad is not None


class TestYOLO:
    def test_output_grid_shape(self, rng):
        model = tiny_yolo(num_classes=3, image_size=32, width=4, rng=rng)
        out = model(rng.standard_normal((2, 3, 32, 32)))
        assert out.shape == (2, 4, 4, 5 + 3)

    def test_grid_size_derived_from_image_size(self, rng):
        model = tiny_yolo(num_classes=2, image_size=64, width=4, rng=rng)
        assert model.grid_size == 8

    def test_backbone_is_quantizable(self, rng):
        model = TinyYOLO(num_classes=2, width=4, rng=rng)
        assert len(quantized_modules(model)) == 4  # 3 backbone convs + head

    def test_gradients_flow(self, rng):
        from repro.models import yolo_loss

        model = tiny_yolo(num_classes=2, image_size=16, width=4, rng=rng)
        images = rng.standard_normal((2, 3, 16, 16))
        targets = np.zeros((2, 2, 2, 7))
        targets[:, 0, 0, 4] = 1.0
        targets[:, 0, 0, 5] = 1.0
        loss = yolo_loss(model(images), targets)
        loss.backward()
        assert model.head.weight.grad is not None
