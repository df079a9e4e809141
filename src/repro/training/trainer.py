"""Training loops for the three task families the paper evaluates.

One loop, :meth:`_BaseTrainer._fit`, trains every task.  Each step:

1. the precision schedule is told the current iteration so it can update
   the per-layer quantization schemes (Algorithm 1, or the temporal/layerwise
   switches of Figure 9),
2. the forward/backward pass runs through the quantized layers, and
3. the FP32 master weights are updated by the optimizer.

Each epoch it records the mean loss, the train metric, the validation metric
and the per-layer precisions.  A trainer supplies only what differs by task:
its ``fit`` signature, its batch loss (``_batch_loss``; classification also
records per-step accuracy there, the others record the negated mean loss),
its validation metric (``evaluate``, ``evaluate_bleu``, ``evaluate_map``,
each run inside the one :meth:`_BaseTrainer._evaluating` wrapper) and the
metrics of its log line.  The accuracy/BLEU/mAP curves feed the
time-to-accuracy analysis (Figure 19/20) with the hardware performance model.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import nn, observability
from ..data.loader import DataLoader, cast_floating
from ..models.yolo import decode_predictions, yolo_loss
from ..nn.losses import cross_entropy, sequence_cross_entropy
from .metrics import accuracy, corpus_bleu, mean_average_precision
from .schedules import FP32Schedule, PrecisionSchedule

__all__ = ["NonFiniteLossError", "TrainingResult", "ClassificationTrainer",
           "Seq2SeqTrainer", "DetectionTrainer"]


class NonFiniteLossError(FloatingPointError):
    """Training produced a NaN/inf loss and ``abort_on_nonfinite`` is set.

    Raised at the offending step so quantized-training divergence fails
    fast with a diagnostic, instead of silently poisoning every later loss
    in :class:`TrainingResult`.
    """


@dataclass
class TrainingResult:
    """History of one training run."""

    schedule_name: str
    epochs: int = 0
    iterations: int = 0
    loss_history: List[float] = field(default_factory=list)
    train_metric_history: List[float] = field(default_factory=list)
    val_metric_history: List[float] = field(default_factory=list)
    precision_history: List[List[Dict[str, Optional[int]]]] = field(default_factory=list)
    epoch_time_history: List[float] = field(default_factory=list)

    @property
    def final_val_metric(self) -> float:
        return self.val_metric_history[-1] if self.val_metric_history else float("nan")

    @property
    def best_val_metric(self) -> float:
        return max(self.val_metric_history) if self.val_metric_history else float("nan")

    def epochs_to_reach(self, target: float) -> Optional[int]:
        """First epoch (1-based) whose validation metric reaches ``target``."""
        for epoch, value in enumerate(self.val_metric_history, start=1):
            if value >= target:
                return epoch
        return None


def _train_metrics(registry, **labels):
    return (
        registry.counter("training_steps_total",
                         help="Optimization steps taken", **labels),
        registry.histogram("training_step_ms",
                           help="Wall time per optimization step (ms)",
                           **labels),
        registry.counter("training_epochs_total",
                         help="Training epochs completed", **labels),
        registry.histogram("training_epoch_ms",
                           help="Wall time per epoch (ms)", **labels),
        registry.gauge("training_last_loss",
                       help="Mean loss of the last completed epoch",
                       **labels),
    )


class _BaseTrainer:
    """The training loop, the evaluation wrapper and the compute dtype.

    ``compute_dtype`` selects the precision the forward/backward pass runs
    at.  ``None`` (the default) leaves the model and data untouched -- the
    bit-exact float64 path.  ``np.float32`` casts the model once
    (``Module.to``), re-aligns the optimizer state dtype, and casts every
    floating mini-batch on the way in, so the whole training step -- matrix
    products, quantization kernels, gradients, optimizer update -- runs in
    float32.  Master weights stay FP32-or-better either way, per the paper's
    setup (pass ``master_dtype=np.float64`` to the optimizer for a
    higher-precision master copy under float32 compute).
    """

    #: The log line's metrics after the loss, formatted with ``train``/``val``.
    _log_metrics = ""

    def __init__(self, model: nn.Module, optimizer: nn.Optimizer,
                 schedule: Optional[PrecisionSchedule] = None,
                 compute_dtype=None, abort_on_nonfinite: bool = False):
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule if schedule is not None else FP32Schedule()
        self.iteration = 0
        self.abort_on_nonfinite = abort_on_nonfinite
        self._metrics = observability.LazyMetrics(
            _train_metrics, trainer=type(self).__name__, schedule=self.schedule.name)
        self.compute_dtype = None if compute_dtype is None else np.dtype(compute_dtype)
        if self.compute_dtype is not None:
            self.model.to(self.compute_dtype)
            refresh = getattr(self.optimizer, "refresh_dtype", None)
            if refresh is not None:
                refresh()

    def _cast(self, array):
        """Cast a floating batch array to the compute dtype (no-op otherwise)."""
        return cast_floating(array, self.compute_dtype)

    def _batch_loss(self, batch, step_metrics: List[float]) -> nn.Tensor:
        """Forward one mini-batch and return its loss.  A trainer whose train
        metric is per-step appends it to ``step_metrics``; otherwise the
        epoch's train metric is its negated mean loss."""
        raise NotImplementedError

    @contextmanager
    def _evaluating(self):
        """Run the block in eval mode without autograd; the previous mode is
        restored even if the block raises."""
        was_training = self.model.training
        self.model.eval()
        try:
            with nn.no_grad():
                yield
        finally:
            self.model.train(was_training)

    def _check_loss(self, value: float, epoch: int, step: int) -> float:
        """Opt-in divergence guard: raise on the first NaN/inf loss."""
        if self.abort_on_nonfinite and not np.isfinite(value):
            raise NonFiniteLossError(
                f"non-finite loss {value!r} at epoch {epoch + 1}, step {step + 1} "
                f"(global iteration {self.iteration}) under schedule "
                f"{self.schedule.name!r}: training diverged -- lower the learning "
                "rate, widen the mantissa/exponent budget, or disable "
                "abort_on_nonfinite to keep going")
        return value

    def _fit(self, loader, evaluate: Callable, val_data, epochs: int,
             log_fn: Optional[Callable[[str], None]], lr_scheduler) -> TrainingResult:
        """The training loop: ``epochs`` passes over ``loader``, scored by
        ``evaluate(val_data)`` after each epoch when ``val_data`` is given."""
        self.schedule.prepare(self.model, max(len(loader) * epochs, 1))
        self.iteration = 0
        result = TrainingResult(schedule_name=self.schedule.name)
        self.model.train()
        for epoch in range(epochs):
            epoch_start = time.perf_counter()
            losses = []
            step_metrics = []
            for batch in loader:
                self.schedule.on_iteration(self.iteration)
                step_start = time.perf_counter() if observability.enabled() else None
                loss = self._batch_loss(batch, step_metrics)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                losses.append(self._check_loss(loss.item(), epoch, len(losses)))
                self.iteration += 1
                if step_start is not None:
                    steps, step_ms = self._metrics()[:2]
                    steps.inc()
                    step_ms.observe((time.perf_counter() - step_start) * 1e3)
            epoch_seconds = time.perf_counter() - epoch_start
            mean_loss = float(np.mean(losses))
            result.epoch_time_history.append(epoch_seconds)
            result.loss_history.append(mean_loss)
            if observability.enabled():
                _, _, epochs_done, epoch_ms, last_loss = self._metrics()
                epochs_done.inc()
                epoch_ms.observe(epoch_seconds * 1e3)
                last_loss.set(mean_loss)
            result.train_metric_history.append(
                float(np.mean(step_metrics)) if step_metrics else -mean_loss)
            if val_data is not None:
                result.val_metric_history.append(evaluate(val_data))
            result.precision_history.append(self.schedule.precision_snapshot())
            result.epochs = epoch + 1
            result.iterations = self.iteration
            if lr_scheduler is not None:
                lr_scheduler.step()
            if log_fn is not None:
                val = result.val_metric_history[-1] if result.val_metric_history else float("nan")
                log_fn(f"epoch {epoch + 1}/{epochs} loss={mean_loss:.4f} "
                       + self._log_metrics.format(train=result.train_metric_history[-1],
                                                  val=val))
        return result


class ClassificationTrainer(_BaseTrainer):
    """Image-classification training loop (CNNs and MLPs)."""

    _log_metrics = "train_acc={train:.2f}% val_acc={val:.2f}%"

    def __init__(self, model: nn.Module, optimizer: nn.Optimizer,
                 schedule: Optional[PrecisionSchedule] = None,
                 loss_fn: Callable = cross_entropy,
                 compute_dtype=None, abort_on_nonfinite: bool = False):
        super().__init__(model, optimizer, schedule, compute_dtype=compute_dtype,
                         abort_on_nonfinite=abort_on_nonfinite)
        self.loss_fn = loss_fn

    def _batch_loss(self, batch, step_metrics):
        inputs, labels = batch
        logits = self.model(self._cast(inputs))
        loss = self.loss_fn(logits, labels)
        step_metrics.append(accuracy(logits.data, labels))
        return loss

    def evaluate(self, loader: DataLoader) -> float:
        """Validation accuracy (percent)."""
        correct_weighted = 0.0
        total = 0
        with self._evaluating():
            for inputs, labels in loader:
                logits = self.model(self._cast(inputs))
                batch = len(labels)
                correct_weighted += accuracy(logits.data, labels) * batch
                total += batch
        return correct_weighted / max(total, 1)

    def fit(self, train_loader: DataLoader, val_loader: Optional[DataLoader] = None,
            epochs: int = 1, log_fn: Optional[Callable[[str], None]] = None,
            lr_scheduler=None) -> TrainingResult:
        return self._fit(train_loader, self.evaluate, val_loader, epochs, log_fn, lr_scheduler)


class Seq2SeqTrainer(_BaseTrainer):
    """Transformer training loop for the synthetic transduction task."""

    _log_metrics = "BLEU={val:.2f}"

    def __init__(self, model, optimizer: nn.Optimizer,
                 schedule: Optional[PrecisionSchedule] = None, pad_index: int = 0,
                 compute_dtype=None, abort_on_nonfinite: bool = False):
        super().__init__(model, optimizer, schedule, compute_dtype=compute_dtype,
                         abort_on_nonfinite=abort_on_nonfinite)
        self.pad_index = pad_index

    def _batch_loss(self, batch, step_metrics):
        sources, (decoder_inputs, decoder_targets) = batch
        logits = self.model(sources, decoder_inputs)
        return sequence_cross_entropy(logits, decoder_targets, pad_index=self.pad_index)

    def evaluate_bleu(self, dataset, max_samples: int = 64) -> float:
        """Greedy-decode a validation subset and score corpus BLEU."""
        count = min(len(dataset), max_samples)
        sources = dataset.sources[:count]
        references = dataset.reference_sentences(range(count))
        with self._evaluating():
            generated = self.model.greedy_decode(sources, dataset.bos_index, dataset.eos_index,
                                                 max_length=dataset.sequence_length)
        candidates = []
        for row in generated:
            tokens = []
            for token in row[1:]:
                if token == dataset.eos_index or token == self.pad_index:
                    break
                tokens.append(int(token))
            candidates.append(tokens)
        return corpus_bleu(candidates, references)

    def fit(self, train_dataset, val_dataset=None, epochs: int = 1, batch_size: int = 16,
            log_fn: Optional[Callable[[str], None]] = None, lr_scheduler=None) -> TrainingResult:
        loader = DataLoader(train_dataset, batch_size=batch_size, shuffle=True)
        return self._fit(loader, self.evaluate_bleu, val_dataset, epochs, log_fn, lr_scheduler)


class DetectionTrainer(_BaseTrainer):
    """YOLO-style detection training loop."""

    _log_metrics = "mAP={val:.2f}"

    def __init__(self, model, optimizer: nn.Optimizer,
                 schedule: Optional[PrecisionSchedule] = None, confidence_threshold: float = 0.5,
                 compute_dtype=None, abort_on_nonfinite: bool = False):
        super().__init__(model, optimizer, schedule, compute_dtype=compute_dtype,
                         abort_on_nonfinite=abort_on_nonfinite)
        self.confidence_threshold = confidence_threshold

    def _batch_loss(self, batch, step_metrics):
        images, targets = batch
        return yolo_loss(self.model(self._cast(images)), targets)

    def evaluate_map(self, dataset) -> float:
        """mAP@0.5 on a detection dataset."""
        images, _ = dataset.arrays()
        with self._evaluating():
            raw = self.model(self._cast(images)).data
        predictions = decode_predictions(raw, threshold=self.confidence_threshold)
        return mean_average_precision(predictions, dataset.ground_truth_boxes(),
                                      dataset.num_classes)

    def fit(self, train_dataset, val_dataset=None, epochs: int = 1, batch_size: int = 16,
            log_fn: Optional[Callable[[str], None]] = None, lr_scheduler=None) -> TrainingResult:
        loader = DataLoader(train_dataset, batch_size=batch_size, shuffle=True)
        return self._fit(loader, self.evaluate_map, val_dataset, epochs, log_fn, lr_scheduler)
