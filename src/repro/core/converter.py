"""Software model of the BFP converter (Figure 14).

The converter takes a group of FP values and produces BFP values following
the pipeline of Figure 4: max-exponent search (comparator tree), mantissa
alignment (barrel shifters), stochastic noise injection (LFSR) and
truncation.  It also computes the relative-improvement statistic ``r(X)``
(Equation 2) that Algorithm 1 uses to choose between the 2-bit and 4-bit
mantissa, because in hardware that statistic is produced as a by-product of
conversion.

All outputs of the hardware converter are stored with 4-bit mantissas split
into two 2-bit chunks; when the policy selects 2 bits the low-order chunk is
simply discarded (Section V-D).  :class:`AdaptiveConversion` mirrors that by
exposing both precisions and ``r(X)`` from a single conversion; training
measures ``r(X)`` only there, through :class:`~repro.nn.quantized.BFPScheme`.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from . import kernels
from .bfp import BFPConfig

__all__ = ["AdaptiveConversion", "relative_improvement"]


def _improvement_ratio(low: np.ndarray, high: np.ndarray) -> float:
    """Equation 2 from the two unsigned quantized results, summed in float64.

    Both results lie on BFP grids with the same exponents, so ``high - low``
    is exact in their own dtype; the sums run over contiguous float64
    arrays, so float32 and float64 inputs of the same values give the same
    ``r`` to the last bit.
    """
    denominator = float(low.astype(np.float64).sum())
    difference = np.subtract(high, low)
    np.abs(difference, out=difference)
    numerator = float(difference.astype(np.float64).sum())
    if denominator == 0.0:
        # An all-zero low-precision tensor means everything was truncated
        # away; any non-zero difference is an infinite relative improvement.
        return float("inf") if numerator > 0.0 else 0.0
    return numerator / denominator


class AdaptiveConversion:
    """One BFP conversion of a tensor at both FAST precisions (Figure 14).

    The grouping and the shared-exponent search run once; one scaled
    ``|x|`` pass yields the unsigned low- and high-precision nearest results
    (:meth:`~repro.core.kernels.GroupedTensor.nearest_magnitudes`), and the
    relative improvement ``r(X)`` of Equation 2 is read off the two -- the
    by-product Algorithm 1 needs, exactly as in the hardware converter,
    whose 4-bit result is two 2-bit chunks (Section V-D).  :meth:`quantize`
    then returns the result at the chosen width: one of the two nearest
    results with its signs restored, or a fresh rounding (e.g. stochastic)
    from the same exponents.

    Quantization runs in float32 for float32 tensors and in float64
    otherwise, and results come back in the tensor's floating dtype;
    ``layout`` is passed to
    :class:`~repro.core.kernels.GroupedTensor`, whose lifetime rule applies.
    ``low_bits`` must be strictly smaller than ``high_bits``.
    """

    def __init__(self, x, config: Optional[BFPConfig] = None, low_bits: int = 2,
                 high_bits: int = 4, layout=None):
        if low_bits >= high_bits:
            raise ValueError("low_bits must be strictly smaller than high_bits")
        if config is None:
            config = BFPConfig()
        x = np.asarray(x)
        self._dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(np.float64)
        if x.dtype != np.float32 and x.dtype != np.float64:
            # A layout for the original dtype cannot group the float64 copy.
            x, layout = x.astype(np.float64), None
        self._unrecorded_start = time.perf_counter()
        self._grouped = kernels.GroupedTensor(x, config.group_size, config.exponent_bits,
                                              layout=layout)
        low, high = self._grouped.nearest_magnitudes(low_bits, high_bits)
        self._nearest = {low_bits: low, high_bits: high}
        self.relative_improvement = _improvement_ratio(low, high)

    def quantize(self, mantissa_bits: int, rounding: str = "nearest", rng=None,
                 noise_bits: Optional[int] = 8) -> np.ndarray:
        """The tensor quantized at ``mantissa_bits``, in its own shape and dtype.

        Nearest rounding at either precision restores the signs of the
        result already computed for ``r(X)``; any other width or rounding
        mode quantizes once more from the same exponents, drawing noise of
        the same shape (and from the same stream) as
        :func:`~repro.core.bfp.bfp_quantize`.

        Each call is one conversion of the tensor, so an installed kernel
        profiler records it as ``bfp_quantize_fast``; the first call's time
        includes the shared grouping, exponent search and ``r(X)``.
        """
        start, self._unrecorded_start = self._unrecorded_start, None
        if start is None:
            start = time.perf_counter()
        nearest = self._nearest.get(mantissa_bits) if rounding == "nearest" else None
        if nearest is not None:
            grouped = self._grouped.restore_signs(nearest)
        else:
            grouped = self._grouped.quantize(mantissa_bits, rounding, rng=rng,
                                             noise_bits=noise_bits)
        result = self._grouped.ungroup(grouped).astype(self._dtype, copy=False)
        profiler = kernels._PROFILER
        if profiler is not None:
            profiler.record("bfp_quantize_fast", time.perf_counter() - start, result.size)
        return result


def relative_improvement(x, config: Optional[BFPConfig] = None, low_bits: int = 2, high_bits: int = 4) -> float:
    """Relative improvement ``r(X)`` of high- over low-precision BFP (Eq. 2).

    ``r(X) = sum_n |BFP(X_n, high) - BFP(X_n, low)| / sum_n |BFP(X_n, low)|``

    A small value means the extra mantissa bits barely change the quantized
    tensor, so the cheaper low-precision format is good enough; a large value
    means low precision is losing significant information.

    The shared exponents do not depend on the mantissa width, so the grouping
    and exponent derivation are done once and reused for both precisions
    (:class:`AdaptiveConversion`).  There is no float64 copy of the tensor:
    float32 tensors are quantized in float32 -- bit-identical to float64
    quantization of the same values -- and only the two sums accumulate in
    float64, so ``r`` equals the float64 computation exactly.  Padded
    positions quantize to zero at both precisions and therefore do not
    perturb either sum.
    """
    return AdaptiveConversion(x, config, low_bits, high_bits).relative_improvement
