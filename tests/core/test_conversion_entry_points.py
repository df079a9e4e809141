"""The three ways into the BFP converter give the same numbers.

Fake quantization (``bfp_quantize``), packing (``bfp_quantize_tensor``) and
the FAST converter (``AdaptiveConversion``) must agree bit for bit on every
input: either dtype, any grouping axis, padded or unpadded groups, with or
without an exponent window, and under every rounding mode.  Stochastic
rounding gives each entry point its own ``NoisePool`` with the same seed,
so all three draw the same noise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bfp import BFPConfig, bfp_quantize, bfp_quantize_tensor
from repro.core.converter import AdaptiveConversion
from repro.core.rounding import NoisePool


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.dtype(f"u{values.itemsize}"))


def _arrays(dtype):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=3, max_side=20),
                      elements=st.floats(width=np.dtype(dtype).itemsize * 8,
                                         allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(_arrays),
       st.integers(min_value=0, max_value=5),
       st.sampled_from([1, 3, 4, 8, 16]),
       st.sampled_from([8, 3, None]),
       st.sampled_from(["nearest", "truncate", "stochastic"]),
       st.sampled_from([2, 3, 4]),
       st.integers(min_value=0, max_value=2 ** 16))
def test_entry_points_agree_bit_for_bit(values, axis_choice, group_size, exponent_bits,
                                        rounding, mantissa_bits, seed):
    axis = axis_choice % (2 * values.ndim) - values.ndim  # in [-ndim, ndim)
    config = BFPConfig(mantissa_bits=mantissa_bits, group_size=group_size,
                       exponent_bits=exponent_bits, rounding=rounding)

    fake = bfp_quantize(values, mantissa_bits, group_size, exponent_bits, rounding,
                        axis=axis, rng=NoisePool(seed))
    assert fake.dtype == values.dtype and fake.shape == values.shape

    # AdaptiveConversion groups along the last axis: grouping the moved
    # tensor there is grouping ``values`` along ``axis``, row for row.
    conversion = AdaptiveConversion(np.moveaxis(values, axis, -1), config)
    adaptive = np.moveaxis(conversion.quantize(mantissa_bits, rounding,
                                               rng=NoisePool(seed)), -1, axis)
    assert adaptive.dtype == values.dtype
    np.testing.assert_array_equal(_bits(adaptive), _bits(fake))

    # Packing keeps no sign for a zero mantissa, so compare with -0.0 as +0.0.
    packed = bfp_quantize_tensor(values, config, rng=NoisePool(seed), axis=axis)
    unpacked = packed.to_float()
    assert unpacked.shape == values.shape
    np.testing.assert_array_equal(_bits(unpacked + 0.0), _bits(fake.astype(np.float64) + 0.0))
