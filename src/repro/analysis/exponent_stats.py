"""Exponent-spread statistics (Figure 6).

Figure 6 plots, for the weight, activation and gradient tensors of a layer in
mid-training, the distribution of the difference between each value's own
exponent and the BFP shared (maximum) exponent of its group, for group sizes
8, 16 and 32.  Large differences mean the value's mantissa is shifted far to
the right during alignment and loses bits -- the mechanism that makes
gradients (with their wide dynamic range) so sensitive to the mantissa width
and motivates stochastic rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..core.kernels import MIN_EXPONENT, GroupedTensor

__all__ = ["exponent_differences", "difference_histogram", "ExponentSpreadReport", "exponent_spread_report"]


def exponent_differences(values: np.ndarray, group_size: int, axis: int = -1) -> np.ndarray:
    """Per-value difference between the group's shared exponent and the value's exponent.

    Zero values are excluded (they have no exponent).  The result is clipped
    below at 0 (a value cannot exceed its group maximum).
    """
    grouped = GroupedTensor(np.asarray(values, dtype=np.float64), group_size,
                            exponent_bits=None, axis=axis)
    groups, shared = grouped.groups, grouped.exponents
    magnitudes = np.abs(groups)
    # Padded positions are zero, so the nonzero mask excludes them.
    nonzero = magnitudes > 0
    # Per-value floor(log2 |x|) via exact frexp extraction (x = m * 2**e with
    # m in [0.5, 1) implies floor(log2 x) == e - 1), vectorized over the
    # whole tensor instead of a masked log2.
    exponents = np.full(groups.shape, MIN_EXPONENT, dtype=np.float64)
    raw = np.frexp(magnitudes)[1]
    exponents[nonzero] = raw[nonzero].astype(np.float64) - 1.0
    differences = shared[..., None] - exponents
    return np.clip(differences[nonzero], 0, None)


def difference_histogram(values: np.ndarray, group_size: int, max_difference: int = 16,
                         axis: int = -1) -> Dict[int, float]:
    """Histogram (percent frequency) of exponent differences, as plotted in Figure 6."""
    differences = exponent_differences(values, group_size, axis=axis)
    histogram: Dict[int, float] = {}
    total = differences.size
    if total == 0:
        return {bin_index: 0.0 for bin_index in range(max_difference + 1)}
    clipped = np.minimum(differences, max_difference)
    for bin_index in range(max_difference + 1):
        histogram[bin_index] = float((clipped == bin_index).sum() / total * 100.0)
    return histogram


@dataclass
class ExponentSpreadReport:
    """Summary statistics of one tensor's exponent spread at several group sizes."""

    tensor_name: str
    group_sizes: Sequence[int]
    mean_difference: Dict[int, float]
    truncated_fraction: Dict[int, float]
    histograms: Dict[int, Dict[int, float]]


def exponent_spread_report(tensor_name: str, values: np.ndarray,
                           group_sizes: Iterable[int] = (8, 16, 32),
                           mantissa_bits: int = 4) -> ExponentSpreadReport:
    """Compute Figure 6-style statistics for one tensor.

    ``truncated_fraction`` is the fraction of non-zero values whose exponent
    difference is at least ``mantissa_bits`` -- these values lose *all* their
    mantissa bits during alignment (the failure mode discussed in
    Section III-C).
    """
    group_sizes = list(group_sizes)
    mean_difference: Dict[int, float] = {}
    truncated_fraction: Dict[int, float] = {}
    histograms: Dict[int, Dict[int, float]] = {}
    for group_size in group_sizes:
        differences = exponent_differences(values, group_size)
        mean_difference[group_size] = float(differences.mean()) if differences.size else 0.0
        truncated_fraction[group_size] = (
            float((differences >= mantissa_bits).mean()) if differences.size else 0.0
        )
        histograms[group_size] = difference_histogram(values, group_size)
    return ExponentSpreadReport(
        tensor_name=tensor_name,
        group_sizes=group_sizes,
        mean_difference=mean_difference,
        truncated_fraction=truncated_fraction,
        histograms=histograms,
    )
