"""Precision policies: how the BFP mantissa width evolves during training.

The paper studies several schedules (Section IV):

* fixed precision throughout training (LowBFP / MidBFP / HighBFP baselines),
* *temporal* schedules that switch precision at the halfway point of training
  (Low-to-High and High-to-Low, Figure 9 left),
* *layerwise* schedules that use different precisions for the first and
  second halves of the network (Figure 9 right),
* the FAST-Adaptive policy (Algorithm 1) that picks 2- or 4-bit mantissas per
  tensor, per layer and per iteration by comparing the relative improvement
  ``r(X)`` against the decaying threshold ``ε(l, i)`` of Equation 1.

Every policy implements :meth:`PrecisionPolicy.select`, which maps
``(tensor_kind, layer_index, iteration, tensor)`` to a mantissa bitwidth, so
trainers and benchmarks can swap policies freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .bfp import BFPConfig
from .converter import relative_improvement

__all__ = [
    "fast_threshold",
    "PrecisionDecision",
    "PrecisionPolicy",
    "FixedPrecisionPolicy",
    "TemporalPrecisionPolicy",
    "LayerwisePrecisionPolicy",
    "FASTAdaptivePolicy",
    "TENSOR_KINDS",
    "SETTING_ORDER",
    "setting_cost_rank",
]

#: The three tensor kinds whose precision is selected independently.
TENSOR_KINDS = ("weight", "activation", "gradient")

#: The eight (W, A, G) precision settings of Figure 17, ordered by the
#: computational cost of deploying them on the FAST system (cheapest first).
#: Gradients participate in two of the three matrix products of the backward
#: pass, so raising the gradient precision costs slightly more than raising
#: the weight or activation precision (Section VI-A).
SETTING_ORDER: Tuple[Tuple[int, int, int], ...] = (
    (2, 2, 2),
    (2, 4, 2),
    (4, 2, 2),
    (2, 2, 4),
    (4, 4, 2),
    (2, 4, 4),
    (4, 2, 4),
    (4, 4, 4),
)


def setting_cost_rank(weight_bits: int, activation_bits: int, gradient_bits: int) -> int:
    """Rank of a (W, A, G) precision setting in :data:`SETTING_ORDER`."""
    setting = (weight_bits, activation_bits, gradient_bits)
    try:
        return SETTING_ORDER.index(setting)
    except ValueError as exc:
        raise ValueError(f"unknown precision setting {setting}") from exc


def fast_threshold(
    layer_index: int,
    iteration: int,
    total_layers: int,
    total_iterations: int,
    alpha: float = 0.6,
    beta: float = 0.3,
) -> float:
    """The FAST threshold ``ε(l, i) = α − β·i/I − β·l/L`` (Equation 1).

    The threshold decreases with both training progress and layer depth, so
    high precision is adopted first by the deepest layers late in training.
    """
    if total_layers <= 0 or total_iterations <= 0:
        raise ValueError("total_layers and total_iterations must be positive")
    return alpha - beta * (iteration / total_iterations) - beta * (layer_index / total_layers)


@dataclass
class PrecisionDecision:
    """Record of one precision choice, used for the Figure 17 visualization."""

    layer_index: int
    iteration: int
    tensor_kind: str
    mantissa_bits: int
    relative_improvement: Optional[float] = None
    threshold: Optional[float] = None


class PrecisionPolicy:
    """Base class for precision policies.

    Subclasses implement :meth:`decide`, which maps ``(tensor_kind,
    layer_index, iteration, tensor)`` to a :class:`PrecisionDecision`
    *without* appending to :attr:`history`.  Keeping the decision function
    side-effect-free is what lets quantized layers fold the chosen bits into
    their weight-cache key: the bits for a given ``(kind, layer, iteration,
    tensor)`` can be (re)computed at cache-lookup time, and recording happens
    exactly once per quantize call via :meth:`select`.
    """

    #: Mantissa widths this policy may return (used by cost models).
    supported_bits: Tuple[int, ...] = (2, 4)

    def __init__(self):
        self.history: List[PrecisionDecision] = []

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               tensor=None) -> PrecisionDecision:
        """Choose the mantissa bitwidth for the given tensor (no recording)."""
        raise NotImplementedError

    def select(self, tensor_kind: str, layer_index: int, iteration: int, tensor=None) -> int:
        """Return the mantissa bitwidth for the given tensor and record it."""
        decision = self.decide(tensor_kind, layer_index, iteration, tensor=tensor)
        self.record(decision)
        return decision.mantissa_bits

    def record(self, decision: PrecisionDecision) -> None:
        self.history.append(decision)

    def setting_history(self) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
        """Collapse the decision history into ``(layer, iteration) -> (W, A, G)``."""
        table: Dict[Tuple[int, int], Dict[str, int]] = {}
        for decision in self.history:
            key = (decision.layer_index, decision.iteration)
            table.setdefault(key, {})[decision.tensor_kind] = decision.mantissa_bits
        result = {}
        for key, kinds in table.items():
            if all(kind in kinds for kind in TENSOR_KINDS):
                result[key] = (kinds["weight"], kinds["activation"], kinds["gradient"])
        return result


class FixedPrecisionPolicy(PrecisionPolicy):
    """Always use the same mantissa width (LowBFP / MidBFP / HighBFP)."""

    def __init__(self, mantissa_bits: int):
        super().__init__()
        self.mantissa_bits = mantissa_bits
        self.supported_bits = (mantissa_bits,)

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               tensor=None) -> PrecisionDecision:
        return PrecisionDecision(layer_index, iteration, tensor_kind, self.mantissa_bits)


class TemporalPrecisionPolicy(PrecisionPolicy):
    """Switch precision at a fraction of training (Figure 9, left).

    ``low_to_high=True`` reproduces the Temporal Low-to-High scheme (low
    precision early, high precision late); ``False`` gives High-to-Low.
    """

    def __init__(
        self,
        total_iterations: int,
        low_bits: int = 2,
        high_bits: int = 4,
        switch_fraction: float = 0.5,
        low_to_high: bool = True,
    ):
        super().__init__()
        if not 0.0 < switch_fraction < 1.0:
            raise ValueError("switch_fraction must be in (0, 1)")
        self.total_iterations = total_iterations
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.switch_fraction = switch_fraction
        self.low_to_high = low_to_high
        self.supported_bits = (low_bits, high_bits)

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               tensor=None) -> PrecisionDecision:
        progress = iteration / self.total_iterations
        in_second_half = progress >= self.switch_fraction
        if self.low_to_high:
            bits = self.high_bits if in_second_half else self.low_bits
        else:
            bits = self.low_bits if in_second_half else self.high_bits
        return PrecisionDecision(layer_index, iteration, tensor_kind, bits)


class LayerwisePrecisionPolicy(PrecisionPolicy):
    """Use different precisions for the shallow and deep halves of the network.

    ``low_to_high=True`` reproduces Layerwise Low-to-High (low precision in
    the early layers, high precision in the later layers, Figure 9 right).
    """

    def __init__(
        self,
        total_layers: int,
        low_bits: int = 2,
        high_bits: int = 4,
        switch_fraction: float = 0.5,
        low_to_high: bool = True,
    ):
        super().__init__()
        if total_layers <= 0:
            raise ValueError("total_layers must be positive")
        self.total_layers = total_layers
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.switch_fraction = switch_fraction
        self.low_to_high = low_to_high
        self.supported_bits = (low_bits, high_bits)

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               tensor=None) -> PrecisionDecision:
        depth_fraction = layer_index / self.total_layers
        in_deep_half = depth_fraction >= self.switch_fraction
        if self.low_to_high:
            bits = self.high_bits if in_deep_half else self.low_bits
        else:
            bits = self.low_bits if in_deep_half else self.high_bits
        return PrecisionDecision(layer_index, iteration, tensor_kind, bits)


class FASTAdaptivePolicy(PrecisionPolicy):
    """The FAST-Adaptive precision policy (Algorithm 1).

    For each tensor ``X`` in ``{A_l, W_l, G_l}`` of every layer ``l`` at every
    iteration ``i``, compute the relative improvement ``r(X)`` of the 4-bit
    mantissa over the 2-bit one and compare it with the threshold
    ``ε(l, i)``: below the threshold the tensor stays at 2 bits, otherwise it
    is promoted to 4 bits.

    Parameters
    ----------
    total_layers, total_iterations:
        ``L`` and ``I`` of Equation 1.
    alpha, beta:
        Threshold hyperparameters (0.6 and 0.3 in the paper's experiments).
    config:
        BFP configuration (group size and exponent width) used when
        evaluating ``r(X)``.
    evaluation_interval:
        Recompute ``r(X)`` every this many iterations and reuse the cached
        decision in between.  The paper recomputes every iteration in
        hardware (where the statistic is free); software callers typically
        want a coarser interval.
    """

    def __init__(
        self,
        total_layers: int,
        total_iterations: int,
        alpha: float = 0.6,
        beta: float = 0.3,
        low_bits: int = 2,
        high_bits: int = 4,
        config: Optional[BFPConfig] = None,
        evaluation_interval: int = 1,
    ):
        super().__init__()
        if total_layers <= 0 or total_iterations <= 0:
            raise ValueError("total_layers and total_iterations must be positive")
        if evaluation_interval < 1:
            raise ValueError("evaluation_interval must be >= 1")
        self.total_layers = total_layers
        self.total_iterations = total_iterations
        self.alpha = alpha
        self.beta = beta
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.config = config if config is not None else BFPConfig()
        self.evaluation_interval = evaluation_interval
        self.supported_bits = (low_bits, high_bits)
        self._cache: Dict[Tuple[str, int], Tuple[int, int, float]] = {}

    def threshold(self, layer_index: int, iteration: int) -> float:
        """Evaluate ``ε(l, i)`` for this policy's hyperparameters."""
        return fast_threshold(
            layer_index,
            iteration,
            self.total_layers,
            self.total_iterations,
            self.alpha,
            self.beta,
        )

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               tensor=None) -> PrecisionDecision:
        """Evaluate Algorithm 1 for one tensor without recording the decision.

        Deterministic given ``(tensor_kind, layer_index, iteration, tensor)``:
        the only internal state touched is the ``evaluation_interval`` memo,
        which caches the *same* decision that a fresh evaluation at its
        recorded iteration would produce.  Calling ``decide`` twice for the
        same arguments therefore returns identical bits, which is what lets
        quantized layers consult it from their weight-cache key.
        """
        if tensor is None:
            raise ValueError("FASTAdaptivePolicy.decide requires the tensor values")
        decision = self.cached_decision(tensor_kind, layer_index, iteration)
        if decision is not None:
            return decision
        r_value = relative_improvement(tensor, self.config, self.low_bits, self.high_bits)
        return self.decide_from_improvement(tensor_kind, layer_index, iteration, r_value)

    def cached_decision(self, tensor_kind: str, layer_index: int,
                        iteration: int) -> Optional[PrecisionDecision]:
        """The memoized decision inside ``evaluation_interval``, else ``None``.

        ``None`` means ``r(X)`` is due at this iteration: a converter that
        produces it as a by-product (see
        :class:`~repro.core.converter.AdaptiveConversion`) passes it to
        :meth:`decide_from_improvement`.
        """
        cached = self._cache.get((tensor_kind, layer_index))
        if cached is None or iteration - cached[0] >= self.evaluation_interval:
            return None
        return PrecisionDecision(
            layer_index,
            iteration,
            tensor_kind,
            cached[1],
            relative_improvement=cached[2],
            threshold=self.threshold(layer_index, iteration),
        )

    def decide_from_improvement(self, tensor_kind: str, layer_index: int, iteration: int,
                                r_value: float) -> PrecisionDecision:
        """Algorithm 1's comparison of ``r(X)`` with ``ε(l, i)``; refreshes the memo.

        ``r_value`` must be :func:`~repro.core.converter.relative_improvement`
        of the tensor under this policy's ``config``, ``low_bits`` and
        ``high_bits``.  Like :meth:`decide`, nothing is recorded.
        """
        eps = self.threshold(layer_index, iteration)
        bits = self.low_bits if r_value < eps else self.high_bits
        self._cache[(tensor_kind, layer_index)] = (iteration, bits, r_value)
        return PrecisionDecision(
            layer_index,
            iteration,
            tensor_kind,
            bits,
            relative_improvement=r_value,
            threshold=eps,
        )
