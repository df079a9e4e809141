"""The fused-statistic contract of ``BFPScheme`` under a FAST-Adaptive policy.

On an evaluation iteration the FAST-Adaptive scheme converts a tensor once
and reads ``r(X)`` off that conversion (Figure 14) instead of asking the
policy to quantize the tensor twice more for the statistic.  The result must be
indistinguishable from the unfused route: the recorded ``r`` equals the
float64 ``relative_improvement`` exactly, the output is bit-identical to
``bfp_quantize`` at the decided width, and stochastic rounding consumes the
noise stream identically.  Inside ``evaluation_interval`` no ``r`` is
computed at all, and a weight is grouped once per iteration.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.bfp import BFPConfig, bfp_quantize
from repro.core.converter import AdaptiveConversion, relative_improvement
from repro.core.precision_policy import FASTAdaptivePolicy
from repro.core.rounding import NoisePool
from recording_policy import recording
from repro.nn import quantized
from repro.nn.quantized import BFPScheme, QuantizedLinear

CONFIG = BFPConfig(exponent_bits=3, group_size=16)
# One value per group: each group maximum is the value's own magnitude.
SINGLETON_CONFIG = BFPConfig(exponent_bits=3, group_size=1)
CONFIGS = {"group16": CONFIG, "group1": SINGLETON_CONFIG}


def reference_improvement(values, config, low_bits=2, high_bits=4):
    """Equation 2 on a float64 copy, quantizing each width separately."""
    grouped = kernels.GroupedTensor(np.asarray(values, dtype=np.float64), config.group_size,
                                    config.exponent_bits)
    low, high = grouped.quantize(low_bits), grouped.quantize(high_bits)
    denominator = float(np.abs(low).sum())
    numerator = float(np.abs(high - low).sum())
    if denominator == 0.0:
        return float("inf") if numerator > 0.0 else 0.0
    return numerator / denominator


def padded_tensor(dtype):
    # A last axis of 30 pads every row to two groups of 16; 15360 values,
    # enough that float32 sums of the quantized tensors would round.
    return np.random.default_rng(0).standard_normal((512, 30)).astype(dtype)


def zero_tensor(dtype):
    return np.zeros((4, 32), dtype=dtype)


def clamped_tensor(dtype):
    # Group exponents span ~2**10 .. 2**-12: with a 3-bit exponent field
    # the small groups are clamped to the bottom of the 8-wide window.
    values = np.random.default_rng(1).standard_normal((4, 64))
    values[:, :16] *= 1024.0
    values[:, 32:48] *= 2.0 ** -12
    return values.astype(dtype)


TENSORS = {"padded": padded_tensor, "zeros": zero_tensor, "clamped": clamped_tensor}


def make_scheme(seed=7, evaluation_interval=1, config=CONFIG):
    policy = recording(FASTAdaptivePolicy)(total_layers=3, total_iterations=20,
                                           evaluation_interval=evaluation_interval)
    scheme = BFPScheme(policy, layer_index=1, config=config,
                       stochastic_gradients=True, rng=NoisePool(seed, capacity=4096))
    return policy, scheme


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(TENSORS))
@pytest.mark.parametrize("kind,rounding", [("activation", "nearest"),
                                           ("gradient", "stochastic")])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_fused_conversion_matches_unfused(dtype, name, kind, rounding, config_name):
    config = CONFIGS[config_name]
    values = TENSORS[name](dtype)
    policy, scheme = make_scheme(config=config)
    out = getattr(scheme, f"quantize_{kind}")(values)

    assert list(policy.records) == [(1, kind)]
    assert policy.records[1, kind].count == 1
    decision = policy.records[1, kind].last
    assert decision.tensor_kind == kind
    expected_r = relative_improvement(values.astype(np.float64), config,
                                      policy.low_bits, policy.high_bits)
    assert decision.relative_improvement == expected_r
    assert expected_r == reference_improvement(values, config,
                                               policy.low_bits, policy.high_bits)
    assert decision.threshold == policy.threshold(1, 0)
    bits = policy.low_bits if expected_r < decision.threshold else policy.high_bits
    assert decision.mantissa_bits == bits
    assert scheme.precision_setting()[kind] == bits

    reference_pool = NoisePool(7, capacity=4096)
    expected = bfp_quantize(values, mantissa_bits=bits, group_size=config.group_size,
                            exponent_bits=config.exponent_bits, rounding=rounding,
                            rng=reference_pool)
    assert out.dtype == expected.dtype == dtype
    assert out.shape == values.shape
    np.testing.assert_array_equal(out.view(np.uint8), expected.view(np.uint8))
    # Same number of noise values consumed: the streams stay in step.
    np.testing.assert_array_equal(scheme.rng.uniform((33,)), reference_pool.uniform((33,)))


def test_clamped_tensor_hits_the_window():
    values = clamped_tensor(np.float64)
    unclamped = BFPConfig(exponent_bits=None, group_size=16)
    assert relative_improvement(values, CONFIG) != relative_improvement(values, unclamped)


def test_relative_improvement_float32_equals_float64():
    """No float64 copy of the tensor, yet the float64 ``r`` to the last bit --
    also for an 8-bit exponent window, where the quantized grid spans more
    bits than a float32 sum can hold."""
    rng = np.random.default_rng(2)
    wide = rng.standard_normal((256, 96)) * np.exp2(rng.integers(-30, 30, size=(256, 1)))
    tensors = [make(np.float32) for make in TENSORS.values()] + [wide.astype(np.float32)]
    for config in (CONFIG, SINGLETON_CONFIG, BFPConfig(exponent_bits=8, group_size=16),
                   BFPConfig(exponent_bits=8, group_size=1)):
        for values in tensors:
            expected = reference_improvement(values, config)
            assert relative_improvement(values, config) == expected
            assert relative_improvement(values.astype(np.float64), config) == expected


def test_conversion_quantizes_each_width_from_intact_exponents():
    """Every width of one conversion matches its own single-width conversion,
    whatever the call order -- also with one value per group, where the
    group maxima are the magnitudes themselves."""
    values = np.array([[-0.3, 0.7, -1.9, 0.0, -5e-3, 2.5]])
    for config in (SINGLETON_CONFIG, CONFIG):
        conversion = AdaptiveConversion(values, config)
        for bits in (2, 4, 3, 2, 8):
            expected = bfp_quantize(values, mantissa_bits=bits, group_size=config.group_size,
                                    exponent_bits=config.exponent_bits)
            np.testing.assert_array_equal(conversion.quantize(bits), expected)
        assert conversion.relative_improvement == reference_improvement(values, config)
    single = AdaptiveConversion(np.array([[-0.3]]), SINGLETON_CONFIG)
    assert single.relative_improvement == 0.25
    assert single.quantize(4)[0, 0] == -0.3125


class _RecordingProfiler:
    def __init__(self):
        self.records = []

    def record(self, kernel, seconds, elements=0):
        self.records.append((kernel, elements))


def test_fused_conversion_records_one_bfp_quantize_fast():
    """The kernel metric counts one conversion per A/G quantization, on
    evaluation iterations (fused) and memoized ones alike."""
    policy, scheme = make_scheme(evaluation_interval=2)
    values = padded_tensor(np.float32)
    profiler = _RecordingProfiler()
    previous = kernels.set_profiler(profiler)
    try:
        for iteration in range(3):
            scheme.iteration = iteration
            scheme.quantize_activation(values)
            scheme.quantize_gradient(values)
    finally:
        kernels.set_profiler(previous)
    conversions = [elements for kernel, elements in profiler.records
                   if kernel == "bfp_quantize_fast"]
    assert conversions == [values.size] * 6


def test_statistic_only_on_evaluation_iterations(monkeypatch):
    conversions = []
    original = quantized.AdaptiveConversion

    def counting(*args, **kwargs):
        conversions.append(args[0].shape)
        return original(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("relative_improvement called during training")

    monkeypatch.setattr(quantized, "AdaptiveConversion", counting)
    monkeypatch.setattr("repro.core.converter.relative_improvement", forbidden)
    policy, scheme = make_scheme(evaluation_interval=4)
    values = padded_tensor(np.float32)
    per_iteration = []
    for iteration in range(9):
        scheme.iteration = iteration
        scheme.quantize_activation(values)
        scheme.quantize_gradient(values)
        per_iteration.append(len(conversions))
    # r(A) and r(G) are computed at iterations 0, 4 and 8 only.
    assert per_iteration == [2, 2, 2, 2, 4, 4, 4, 4, 6]
    memoized = [d for d in policy.log if d.iteration in (1, 2, 3)]
    assert len(memoized) == 6
    first = {d.tensor_kind: d for d in policy.log if d.iteration == 0}
    for decision in memoized:
        assert decision.mantissa_bits == first[decision.tensor_kind].mantissa_bits
        assert (decision.relative_improvement
                == first[decision.tensor_kind].relative_improvement)


def test_weight_is_grouped_once_per_iteration(monkeypatch):
    """A due weight's conversion measures r(W) and also gives the quantized
    weight: each forward with a cleared weight cache groups the weight once,
    on evaluation iterations and memoized ones alike."""
    layer = QuantizedLinear(32, 4, rng=np.random.default_rng(0))
    policy, layer.scheme = make_scheme(evaluation_interval=4)
    shape = layer.weight.data.shape
    groupings = []
    original_init = kernels.GroupedTensor.__init__

    def grouped_init(self, x, *args, **kwargs):
        groupings.append(np.shape(x))
        original_init(self, x, *args, **kwargs)

    monkeypatch.setattr(kernels.GroupedTensor, "__init__", grouped_init)
    inputs = np.random.default_rng(1).standard_normal((5, 32))
    per_iteration = []
    for iteration in range(5):
        layer.scheme.iteration = iteration
        layer.clear_weight_cache()
        groupings.clear()
        layer(inputs)
        per_iteration.append(groupings.count(shape))
    assert per_iteration == [1] * 5
    assert policy.records[1, "weight"].evaluated_at == 4
