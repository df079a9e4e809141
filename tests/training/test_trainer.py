"""Tests for the training loops (classification, seq2seq, detection)."""

import re

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, SyntheticDetectionDataset, SyntheticImageDataset, SyntheticTranslationDataset
from repro.models import MLP, tiny_yolo, transformer_small
from repro.training import (
    ClassificationTrainer,
    DetectionTrainer,
    FASTSchedule,
    FixedBFPSchedule,
    FP32Schedule,
    NonFiniteLossError,
    Seq2SeqTrainer,
    TrainingResult,
)


def make_classification_setup(schedule=None, num_samples=96, seed=0):
    dataset = SyntheticImageDataset(num_samples=num_samples, num_classes=4, image_size=8,
                                    noise=0.4, seed=seed)
    train, validation = dataset.split(0.75)
    model = MLP(3 * 8 * 8, [32], 4, rng=np.random.default_rng(seed))
    optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    trainer = ClassificationTrainer(model, optimizer, schedule)
    return trainer, DataLoader(train, 24, seed=1), DataLoader(validation, 48, shuffle=False)


class Task:
    """One trainer on its small task: what ``fit`` takes, how many steps an
    epoch has, its validation method and the model call evaluation goes
    through."""

    def __init__(self, trainer, train, val, fit_kwargs, evaluate, entry, log_label):
        self.trainer = trainer
        self.train = train
        self.val = val
        self.fit_kwargs = fit_kwargs
        self.evaluate = getattr(trainer, evaluate)
        self.entry = entry
        self.log_label = log_label
        batch_size = fit_kwargs.get("batch_size")
        self.steps_per_epoch = len(train if batch_size is None else DataLoader(train, batch_size))

    def fit(self, epochs, val=None, **kwargs):
        return self.trainer.fit(self.train, val, epochs=epochs, **self.fit_kwargs, **kwargs)


def classification_task(schedule=None):
    trainer, train_loader, val_loader = make_classification_setup(schedule)
    return Task(trainer, train_loader, val_loader, {}, "evaluate", "forward",
                r"train_acc=\d+\.\d\d% val_acc=\d+\.\d\d%")


def seq2seq_task(schedule=None):
    dataset = SyntheticTranslationDataset(num_samples=96, vocab_size=12, min_length=3,
                                          max_length=5, seed=0)
    train, validation = dataset.split(0.8)
    model = transformer_small(vocab_size=12, max_length=dataset.sequence_length,
                              rng=np.random.default_rng(0))
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    trainer = Seq2SeqTrainer(model, optimizer, schedule, pad_index=dataset.pad_index)
    return Task(trainer, train, validation, {"batch_size": 16}, "evaluate_bleu", "encode",
                r"BLEU=\d+\.\d\d")


def detection_task(schedule=None):
    dataset = SyntheticDetectionDataset(num_samples=32, num_classes=2, image_size=16,
                                        grid_size=2, max_objects=1, seed=0)
    train, validation = dataset.split(0.75)
    model = tiny_yolo(num_classes=2, image_size=16, width=4, rng=np.random.default_rng(0))
    optimizer = nn.Adam(model.parameters(), lr=0.01)
    trainer = DetectionTrainer(model, optimizer, schedule)
    return Task(trainer, train, validation, {"batch_size": 8}, "evaluate_map", "forward",
                r"mAP=\d+\.\d\d")


TASKS = {"classification": classification_task, "seq2seq": seq2seq_task,
         "detection": detection_task}


@pytest.fixture(params=list(TASKS))
def make_task(request):
    return TASKS[request.param]


def poison_forward(monkeypatch, model, from_step):
    """Make the model's output NaN from training step ``from_step`` (0-based) on."""
    forward = model.forward
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        out = forward(*args, **kwargs)
        calls["n"] += 1
        return out * np.nan if calls["n"] > from_step else out

    monkeypatch.setattr(model, "forward", poisoned)


class TestOneLoop:
    """What the shared training loop guarantees for every trainer."""

    @pytest.mark.parametrize("schedule", [FP32Schedule, lambda: FixedBFPSchedule(4),
                                          lambda: FASTSchedule(evaluation_interval=4)],
                             ids=["fp32", "bfp4", "fast"])
    def test_result_bookkeeping(self, make_task, schedule):
        task = make_task(schedule())
        result = task.fit(2, task.val)
        assert result.epochs == 2
        assert result.iterations == task.trainer.iteration == 2 * task.steps_per_epoch
        assert len(result.loss_history) == len(result.epoch_time_history) == 2
        assert len(result.train_metric_history) == 2
        assert len(result.val_metric_history) == 2
        assert len(result.precision_history) == 2
        assert task.trainer.model.training
        if not isinstance(task.trainer, ClassificationTrainer):
            assert result.train_metric_history == [-loss for loss in result.loss_history]

    def test_log_callback_invoked(self, make_task):
        messages = []
        task = make_task(FP32Schedule())
        task.fit(2, task.val, log_fn=messages.append)
        assert len(messages) == 2
        for epoch, message in enumerate(messages, start=1):
            assert re.fullmatch(rf"epoch {epoch}/2 loss=\d+\.\d{{4}} {task.log_label}",
                                message), message

    @pytest.mark.parametrize("training", [True, False])
    def test_evaluation_restores_the_mode_when_the_model_raises(self, make_task,
                                                               monkeypatch, training):
        task = make_task(FP32Schedule())

        def fail(*args, **kwargs):
            raise RuntimeError("model failed")

        monkeypatch.setattr(task.trainer.model, task.entry, fail)
        task.trainer.model.train(training)
        with pytest.raises(RuntimeError, match="model failed"):
            task.evaluate(task.val)
        assert task.trainer.model.training is training


class TestClassificationTrainer:
    def test_fp32_training_learns(self):
        trainer, train_loader, val_loader = make_classification_setup(FP32Schedule())
        result = trainer.fit(train_loader, val_loader, epochs=3)
        assert result.loss_history[-1] < result.loss_history[0]
        assert result.val_metric_history[-1] > 50.0
        assert result.epochs == 3
        assert result.iterations == 3 * len(train_loader)

    def test_bfp_training_learns(self):
        trainer, train_loader, val_loader = make_classification_setup(FixedBFPSchedule(4))
        result = trainer.fit(train_loader, val_loader, epochs=3)
        assert result.val_metric_history[-1] > 50.0

    def test_fast_adaptive_training_learns_and_records_precisions(self):
        trainer, train_loader, val_loader = make_classification_setup(
            FASTSchedule(evaluation_interval=4))
        result = trainer.fit(train_loader, val_loader, epochs=2)
        assert result.val_metric_history[-1] > 40.0
        assert trainer.schedule.setting_history()
        assert len(result.precision_history) == 2

    def test_result_bookkeeping(self):
        trainer, train_loader, _ = make_classification_setup(FP32Schedule())
        result = trainer.fit(train_loader, epochs=1)
        assert isinstance(result, TrainingResult)
        assert result.schedule_name == "fp32"
        assert result.val_metric_history == []
        assert len(result.train_metric_history) == 1

    def test_evaluate_does_not_update_weights(self):
        trainer, train_loader, val_loader = make_classification_setup(FP32Schedule())
        trainer.fit(train_loader, epochs=1)
        weights_before = trainer.model.state_dict()
        trainer.evaluate(val_loader)
        for name, value in trainer.model.state_dict().items():
            np.testing.assert_array_equal(value, weights_before[name])


    def test_custom_loss_fn_drives_training(self):
        from repro.nn.losses import cross_entropy
        batch_sizes = []

        def loss_fn(logits, labels):
            batch_sizes.append(len(labels))
            return cross_entropy(logits, labels)

        trainer, train_loader, _ = make_classification_setup(FP32Schedule())
        trainer.loss_fn = loss_fn
        trainer.fit(train_loader, epochs=1)
        assert batch_sizes == [24] * len(train_loader)


class TestTrainingResult:
    def test_epochs_to_reach(self):
        result = TrainingResult("fp32", val_metric_history=[10.0, 40.0, 70.0, 80.0])
        assert result.epochs_to_reach(50.0) == 3
        assert result.epochs_to_reach(90.0) is None
        assert result.best_val_metric == 80.0
        assert result.final_val_metric == 80.0

    def test_empty_history(self):
        result = TrainingResult("fp32")
        assert np.isnan(result.final_val_metric)


class TestSeq2SeqTrainer:
    def test_transformer_learns_copy_task(self):
        task = seq2seq_task(FP32Schedule())
        result = task.fit(2, task.val)
        assert result.loss_history[-1] < result.loss_history[0]
        assert len(result.val_metric_history) == 2
        assert result.val_metric_history[-1] >= 0.0

    def test_bleu_evaluation_returns_score(self):
        dataset = SyntheticTranslationDataset(num_samples=16, vocab_size=10, seed=1)
        model = transformer_small(vocab_size=10, max_length=dataset.sequence_length,
                                  rng=np.random.default_rng(1))
        optimizer = nn.Adam(model.parameters(), lr=1e-3)
        trainer = Seq2SeqTrainer(model, optimizer)
        score = trainer.evaluate_bleu(dataset, max_samples=8)
        assert 0.0 <= score <= 100.0


class TestDetectionTrainer:
    def test_yolo_training_reduces_loss(self):
        task = detection_task(FP32Schedule())
        result = task.fit(3, task.val)
        assert result.loss_history[-1] < result.loss_history[0]
        assert 0.0 <= result.val_metric_history[-1] <= 100.0


class TestNonFiniteGuard:
    """Opt-in divergence guard: ``abort_on_nonfinite=True`` stops on NaN/inf."""

    @staticmethod
    def _make_task(make_task, monkeypatch, poison_at_step, abort_on_nonfinite):
        task = make_task(FP32Schedule())
        task.trainer.abort_on_nonfinite = abort_on_nonfinite
        poison_forward(monkeypatch, task.trainer.model, poison_at_step)
        return task

    def test_raises_with_epoch_and_step_in_message(self, make_task, monkeypatch):
        task = self._make_task(make_task, monkeypatch, 1, True)
        with pytest.raises(NonFiniteLossError, match=r"epoch 1, step 2 \(global iteration 1\)"):
            task.fit(2)

    def test_message_names_schedule_and_value(self, make_task, monkeypatch):
        task = self._make_task(make_task, monkeypatch, 0, True)
        with pytest.raises(NonFiniteLossError, match=r"nan.*'fp32'"):
            task.fit(1)

    def test_disabled_by_default_keeps_training(self, make_task, monkeypatch):
        task = self._make_task(make_task, monkeypatch, 0, False)
        result = task.fit(1)
        assert np.isnan(result.loss_history[-1])
        assert result.iterations == task.steps_per_epoch

    def test_finite_training_never_trips_the_guard(self, make_task):
        task = make_task(FP32Schedule())
        task.trainer.abort_on_nonfinite = True
        result = task.fit(1, task.val)
        assert np.isfinite(result.loss_history[-1])

    def test_is_a_floating_point_error(self):
        assert issubclass(NonFiniteLossError, FloatingPointError)
