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

Every policy implements :meth:`PrecisionPolicy.decide`, a pure map from
``(tensor_kind, layer_index, iteration, r)`` to a mantissa bitwidth, so
trainers and benchmarks can swap policies freely.  Only FAST-Adaptive reads
``r``, the relative improvement ``r(X)`` of Equation 2, and only when
:meth:`PrecisionPolicy.needs_statistic` says it is due; the quantization
scheme that converts the tensor measures it (Figure 14).  The decisions used
are recorded into one bounded :class:`PrecisionRecord` per (layer, tensor
kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "fast_threshold",
    "PrecisionDecision",
    "PrecisionRecord",
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
    """One precision choice: the bits, and for FAST-Adaptive ``r(X)`` and ``ε(l, i)``."""

    layer_index: int
    iteration: int
    tensor_kind: str
    mantissa_bits: int
    relative_improvement: Optional[float] = None
    threshold: Optional[float] = None


@dataclass
class PrecisionRecord:
    """What a policy keeps about one ``(layer, tensor kind)``: the current
    decision and the bits as runs ``[first_iteration, last_iteration, bits]``,
    which grow only when the bits change or an iteration is skipped."""

    last: PrecisionDecision
    runs: List[List[int]] = field(default_factory=list)
    #: Iteration whose ``r(X)`` the current decision carries (FAST-Adaptive).
    evaluated_at: Optional[int] = None
    #: Decisions recorded so far.
    count: int = 0


class PrecisionPolicy:
    """Base class for precision policies.

    Subclasses implement :meth:`decide`, which maps ``(tensor_kind,
    layer_index, iteration, r)`` to a :class:`PrecisionDecision` and
    touches no state, so quantized layers can (re)compute the bits at
    weight-cache lookup.  ``r`` is ``r(X)`` of the tensor, passed when
    :meth:`needs_statistic` is true and ignored otherwise.  Each quantize
    call records its decision once (:meth:`select` or :meth:`record`) into
    :attr:`records`, whose size does not grow with the number of calls.
    """

    #: Mantissa widths this policy may return (used by cost models).
    supported_bits: Tuple[int, ...] = (2, 4)

    def __init__(self):
        #: ``(layer_index, tensor_kind) -> PrecisionRecord``; written only
        #: by :meth:`record`.
        self.records: Dict[Tuple[int, str], PrecisionRecord] = {}

    def needs_statistic(self, tensor_kind: str, layer_index: int, iteration: int) -> bool:
        """Whether :meth:`decide` needs ``r(X)`` of this tensor (data-free
        policies never do)."""
        return False

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> PrecisionDecision:
        """Choose the mantissa bitwidth for the given tensor (no recording)."""
        raise NotImplementedError

    def select(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> int:
        """Return the mantissa bitwidth for the given tensor and record it."""
        decision = self.decide(tensor_kind, layer_index, iteration, r=r)
        self.record(decision)
        return decision.mantissa_bits

    def record(self, decision: PrecisionDecision) -> PrecisionRecord:
        """Make ``decision`` the current one of its ``(layer, kind)``: a later
        decision at the same iteration replaces that iteration's bits, and an
        earlier iteration than the last recorded one is a ``ValueError``."""
        key = (decision.layer_index, decision.tensor_kind)
        iteration, bits = decision.iteration, decision.mantissa_bits
        entry = self.records.get(key)
        if entry is None:
            entry = self.records[key] = PrecisionRecord(decision)
        elif iteration < entry.last.iteration:
            raise ValueError(f"{key}: iteration {iteration} recorded after "
                             f"{entry.last.iteration}")
        runs = entry.runs
        if runs and runs[-1][1] == iteration and runs[-1][2] != bits:
            runs[-1][1] -= 1
            if runs[-1][1] < runs[-1][0]:
                runs.pop()
        if runs and runs[-1][2] == bits and runs[-1][1] >= iteration - 1:
            runs[-1][1] = iteration
        else:
            runs.append([iteration, iteration, bits])
        entry.last = decision
        entry.count += 1
        return entry

    def setting_history(self) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
        """``(layer, iteration) -> (W, A, G)`` wherever all three kinds of the
        layer were recorded, each with its last bits at that iteration."""
        expanded = {key: {i: bits for first, last, bits in entry.runs
                          for i in range(first, last + 1)}
                    for key, entry in self.records.items()}
        result = {}
        for layer in sorted({layer for layer, _ in expanded}):
            weight, activation, gradient = (expanded.get((layer, kind), {})
                                            for kind in TENSOR_KINDS)
            for iteration in sorted(weight.keys() & activation.keys() & gradient.keys()):
                result[layer, iteration] = (weight[iteration], activation[iteration],
                                            gradient[iteration])
        return result


class FixedPrecisionPolicy(PrecisionPolicy):
    """Always use the same mantissa width (LowBFP / MidBFP / HighBFP)."""

    def __init__(self, mantissa_bits: int):
        super().__init__()
        self.mantissa_bits = mantissa_bits
        self.supported_bits = (mantissa_bits,)

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> PrecisionDecision:
        return PrecisionDecision(layer_index, iteration, tensor_kind, self.mantissa_bits)


class _SwitchPolicy(PrecisionPolicy):
    """Low bits before ``switch_fraction`` of some progress measure, high bits
    from it on (``low_to_high``), or the reverse."""

    def __init__(self, low_bits: int, high_bits: int, switch_fraction: float,
                 low_to_high: bool):
        super().__init__()
        if not 0.0 < switch_fraction < 1.0:
            raise ValueError("switch_fraction must be in (0, 1)")
        self.low_bits = low_bits
        self.high_bits = high_bits
        self.switch_fraction = switch_fraction
        self.low_to_high = low_to_high
        self.supported_bits = (low_bits, high_bits)

    def _bits(self, progress: float) -> int:
        switched = progress >= self.switch_fraction
        if self.low_to_high:
            return self.high_bits if switched else self.low_bits
        return self.low_bits if switched else self.high_bits


class TemporalPrecisionPolicy(_SwitchPolicy):
    """Switch precision at a fraction of training (Figure 9, left).

    ``low_to_high=True`` reproduces the Temporal Low-to-High scheme (low
    precision early, high precision late); ``False`` gives High-to-Low.
    """

    def __init__(self, total_iterations: int, low_bits: int = 2, high_bits: int = 4,
                 switch_fraction: float = 0.5, low_to_high: bool = True):
        super().__init__(low_bits, high_bits, switch_fraction, low_to_high)
        self.total_iterations = total_iterations

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> PrecisionDecision:
        bits = self._bits(iteration / self.total_iterations)
        return PrecisionDecision(layer_index, iteration, tensor_kind, bits)


class LayerwisePrecisionPolicy(_SwitchPolicy):
    """Use different precisions for the shallow and deep halves of the network.

    ``low_to_high=True`` reproduces Layerwise Low-to-High (low precision in
    the early layers, high precision in the later layers, Figure 9 right).
    """

    def __init__(self, total_layers: int, low_bits: int = 2, high_bits: int = 4,
                 switch_fraction: float = 0.5, low_to_high: bool = True):
        super().__init__(low_bits, high_bits, switch_fraction, low_to_high)
        if total_layers <= 0:
            raise ValueError("total_layers must be positive")
        self.total_layers = total_layers

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> PrecisionDecision:
        bits = self._bits(layer_index / self.total_layers)
        return PrecisionDecision(layer_index, iteration, tensor_kind, bits)


class FASTAdaptivePolicy(PrecisionPolicy):
    """The FAST-Adaptive precision policy (Algorithm 1).

    For each tensor ``X`` in ``{A_l, W_l, G_l}`` of every layer ``l`` at every
    iteration ``i``, compare the relative improvement ``r(X)`` of the 4-bit
    mantissa over the 2-bit one with the threshold ``ε(l, i)``: below the
    threshold the tensor stays at 2 bits, otherwise it is promoted to 4 bits.
    ``r(X)`` is measured by the converter of the tensor, under its grouping
    (:class:`~repro.core.converter.AdaptiveConversion`).

    Parameters
    ----------
    total_layers, total_iterations:
        ``L`` and ``I`` of Equation 1.
    alpha, beta:
        Threshold hyperparameters (0.6 and 0.3 in the paper's experiments).
    evaluation_interval:
        Measure ``r(X)`` every this many iterations and reuse the recorded
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
        self.evaluation_interval = evaluation_interval
        self.supported_bits = (low_bits, high_bits)

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

    def needs_statistic(self, tensor_kind: str, layer_index: int, iteration: int) -> bool:
        """True unless a decision recorded within ``evaluation_interval``
        iterations still holds for this ``(layer, kind)``."""
        entry = self.records.get((layer_index, tensor_kind))
        return entry is None or iteration - entry.evaluated_at >= self.evaluation_interval

    def decide(self, tensor_kind: str, layer_index: int, iteration: int,
               r: Optional[float] = None) -> PrecisionDecision:
        """Algorithm 1 for one tensor, without recording the decision.

        When ``r(X)`` is due, ``r`` must be
        :func:`~repro.core.converter.relative_improvement` of the tensor at
        ``low_bits`` and ``high_bits``, and is compared with ``ε(l, i)``;
        otherwise the recorded bits and ``r`` are reused.
        """
        eps = self.threshold(layer_index, iteration)
        if self.needs_statistic(tensor_kind, layer_index, iteration):
            if r is None:
                raise ValueError("FASTAdaptivePolicy.decide requires r(X) when it is due")
            bits = self.low_bits if r < eps else self.high_bits
        else:
            last = self.records[layer_index, tensor_kind].last
            bits, r = last.mantissa_bits, last.relative_improvement
        return PrecisionDecision(layer_index, iteration, tensor_kind, bits,
                                 relative_improvement=r, threshold=eps)

    def record(self, decision: PrecisionDecision) -> PrecisionRecord:
        """Record ``decision``; recorded while ``r(X)`` is due, it starts the
        next ``evaluation_interval``."""
        due = self.needs_statistic(decision.tensor_kind, decision.layer_index,
                                   decision.iteration)
        entry = super().record(decision)
        if due:
            entry.evaluated_at = decision.iteration
        return entry
