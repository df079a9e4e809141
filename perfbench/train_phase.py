"""``train_fast_cnn``: FAST-Adaptive training of a small quantized CNN.

A closed loop, because training is a batch job: ``ClassificationTrainer.fit``
runs a fixed number of steps at batch 32 under ``FASTSchedule`` with pooled
stochastic gradient rounding and float32 compute.  It is the paper's own
workload and the only phase that runs autograd, the optimizer, gradient
quantization, pooled noise and the FAST policy.

A step is the interval between successive ``schedule.on_iteration`` calls
(the last one ends when ``fit`` returns).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

from repro import nn, observability
from repro.core.bfp import BFPConfig
from repro.core.kernels import LayoutCache
from repro.data import DataLoader, synthetic_cifar
from repro.hardware.performance import fast_adaptive_iteration_cost, iteration_cost
from repro.hardware.system import iso_area_systems
from repro.hardware.workloads import GemmShape, Workload, conv_gemm
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear, quantized_modules
from repro.training import ClassificationTrainer, FASTSchedule

from perfbench import report
from perfbench.probes import Recorder

TENSOR_KINDS = ("weight", "activation", "gradient")
#: The parts of a step the traced run times; what they leave is unaccounted.
STEP_PHASES = ("data.loader.wait", "nn.modules.forward", "nn.tensor.backward",
               "nn.optim.step", "training.schedules.on_iteration")


def build_cnn(cfg: dict, rng) -> nn.Sequential:
    """Two quantized 3x3 convolutions with ReLU and 2x2 pooling, then a
    quantized linear classifier (the train-step benchmark's CNN)."""
    c1, c2 = cfg["conv_channels"]
    return nn.Sequential(
        QuantizedConv2d(3, c1, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(c1, c2, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(c2 * (cfg["image_size"] // 4) ** 2, cfg["num_classes"], rng=rng),
    )


class Run:
    """Everything one training run needs, built by :func:`setup`."""

    def __init__(self, cfg: dict, seed: int, steps: int, model_seed: int):
        seeds = np.random.SeedSequence([seed, 1]).generate_state(5)
        size = cfg["image_size"]
        self.model = build_cnn(cfg, np.random.default_rng(model_seed))
        self.epochs = cfg["epochs"]
        self.steps_per_epoch = max(1, steps // self.epochs)
        self.batch_size = cfg["batch_size"]
        self.data = synthetic_cifar(num_samples=self.steps_per_epoch * self.batch_size,
                                    image_size=size, num_classes=cfg["num_classes"],
                                    noise=cfg["data_noise"], seed=int(seeds[1]),
                                    dtype=np.float32)
        # Unit-variance inputs (prototype energy 1 plus the noise), and a
        # fixed share of labels replaced at random.
        self.data.images /= np.float32(np.sqrt(1.0 + cfg["data_noise"] ** 2))
        relabel = np.random.default_rng(int(seeds[4]))
        flipped = relabel.random(len(self.data.labels)) < cfg["label_noise"]
        self.data.labels = np.where(
            flipped, relabel.integers(0, cfg["num_classes"], len(self.data.labels)),
            self.data.labels)
        self.loader = DataLoader(self.data, batch_size=self.batch_size, shuffle=True,
                                 drop_last=True, seed=int(seeds[2]))
        self.schedule = FASTSchedule(
            low_bits=cfg["low_bits"], high_bits=cfg["high_bits"],
            config=BFPConfig(exponent_bits=cfg["exponent_bits"],
                             group_size=cfg["group_size"]),
            stochastic_gradients=True, evaluation_interval=cfg["evaluation_interval"],
            seed=int(seeds[3]), noise_pool=True)
        self.optimizer = nn.SGD(self.model.parameters(), lr=cfg["lr"],
                                momentum=cfg["momentum"])
        self.trainer = ClassificationTrainer(self.model, self.optimizer, self.schedule,
                                             compute_dtype=np.float32)


def setup(cfg: dict, seed: int, steps: int, model_seed: int) -> Run:
    """Build a run and warm every cache with one step of a throwaway twin.

    The twin shares the shapes, so the process-wide im2col and layout caches
    and the BLAS pools are warm when the timed run starts; the timed model
    itself is untouched.
    """
    run = Run(cfg, seed, steps, model_seed)
    twin = Run(cfg, seed, steps, model_seed)
    first = next(iter(twin.loader))
    twin.trainer.fit([first], epochs=1)
    return run


def _step_clock(run: Run, recorder: Recorder = None):
    """Stamp every ``on_iteration`` call; returns the stamp list."""
    stamps = []
    original = run.schedule.on_iteration

    def on_iteration(iteration):
        stamps.append(time.perf_counter())
        if recorder is None:
            return original(iteration)
        recorder.tag(step=iteration)
        return recorder.call("training.schedules.on_iteration", original, iteration)

    run.schedule.on_iteration = on_iteration
    return stamps


class _TimedLoader:
    """Times how long the trainer waits for each batch."""

    def __init__(self, loader, recorder: Recorder):
        self.loader = loader
        self.recorder = recorder

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        iterator = iter(self.loader)
        while True:
            start = time.monotonic()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            self.recorder.add_span("data.loader.wait", start, time.monotonic() - start)
            yield batch


def _instrument(run: Run, recorder: Recorder) -> dict:
    """Wrap the public calls each layer of the step goes through."""
    recorder.wrap(run.model, "forward", "nn.modules.forward")
    recorder.wrap(nn.Tensor, "backward", "nn.tensor.backward")
    recorder.wrap(run.optimizer, "step", "nn.optim.step")
    for layer in quantized_modules(run.model):
        recorder.wrap(layer, "forward", "nn.quantized.layer_forward")
    original_prepare = run.schedule.prepare

    def prepare(model, total_iterations):
        original_prepare(model, total_iterations)
        # The schedule attaches fresh schemes and a fresh policy here.
        for layer in run.schedule.layers:
            for kind in TENSOR_KINDS:
                recorder.wrap(layer.scheme, f"quantize_{kind}",
                              f"nn.quantized.quantize_{kind}")
        recorder.wrap(run.schedule.policy, "decide", "core.precision_policy.decide")

    recorder.patch(run.schedule, "prepare", prepare)
    layout = {"hits": 0, "lookups": 0}
    original_get = LayoutCache.get

    def get(cache, *args, **kwargs):
        before = cache.hits
        result = original_get(cache, *args, **kwargs)
        layout["hits"] += cache.hits - before
        layout["lookups"] += 1
        return result

    recorder.patch(LayoutCache, "get", get)
    return layout


def _fast_history(run: Run):
    """Per iteration, the per-layer (W, A, G) settings the policy chose."""
    table = run.schedule.setting_history()
    by_iteration = defaultdict(dict)
    for (layer, iteration), setting in table.items():
        by_iteration[iteration][layer] = setting
    return table, by_iteration


def check(losses, table, by_iteration, layers: int, steps: int, low: int, high: int) -> None:
    """Finite losses; every layer has a low/high (W, A, G) at every step."""
    report.require(len(losses) > 0, "training recorded no loss")
    report.require(all(math.isfinite(value) for value in losses),
                   f"non-finite training loss: {losses}")
    report.require(sorted(by_iteration) == list(range(steps)),
                   f"FAST history covers iterations {sorted(by_iteration)[:5]}..., "
                   f"expected 0..{steps - 1}")
    for iteration, settings in by_iteration.items():
        report.require(sorted(settings) == list(range(layers)),
                       f"iteration {iteration}: FAST settings for layers "
                       f"{sorted(settings)}, expected {layers}")
    for key, setting in table.items():
        report.require(all(bits in (low, high) for bits in setting),
                       f"FAST setting {setting} at {key} is outside ({low}, {high})")


def _sim_workload(cfg: dict) -> Workload:
    """This CNN's training GEMMs at its batch size, for the hardware model."""
    c1, c2 = cfg["conv_channels"]
    size, batch = cfg["image_size"], cfg["batch_size"]
    return Workload(
        name="train_fast_cnn",
        layers=[conv_gemm("conv1", 3, c1, 3, size, batch),
                conv_gemm("conv2", c1, c2, 3, size // 2, batch),
                GemmShape("fc", cfg["num_classes"], c2 * (size // 4) ** 2, batch)],
        batch_size=batch, target_metric=0.0, target_name="loss")


def _fit(run: Run, recorder: Recorder = None):
    stamps = _step_clock(run, recorder)
    loader = run.loader if recorder is None else _TimedLoader(run.loader, recorder)
    start = time.perf_counter()
    result = run.trainer.fit(loader, epochs=run.epochs)
    end = time.perf_counter()
    step_ms = np.diff(stamps + [end]) * 1e3
    return result, step_ms, end - start


def measure(cfg: dict, run: Run, metrics: dict, notes: dict) -> tuple:
    """Time ``fit`` with tracing off; fill the end-to-end metrics.
    Returns (attempted, failed) steps."""
    result, step_ms, wall = _fit(run)
    table, by_iteration = _fast_history(run)
    layers = len(quantized_modules(run.model))
    total = run.steps_per_epoch * run.epochs
    check(result.loss_history, table, by_iteration, layers, total,
          cfg["low_bits"], cfg["high_bits"])
    metrics["train_samples_per_s"] = total * run.batch_size / wall
    metrics["train_step_ms_p50"] = report.median(step_ms)
    metrics["train_step_ms_p90"] = report.percentile(step_ms, 90)
    metrics["train_loss_final"] = result.loss_history[-1]
    fast, all_high = _simulated_cycles(cfg, by_iteration, layers)
    metrics["train_sim_speedup"] = all_high / fast
    notes["train_step_ms_p50"] = notes["train_step_ms_p90"] = f"n={len(step_ms)} steps"
    notes["train_sim_speedup"] = "simulated FAST hardware, not measured"
    return total, 0


def _simulated_cycles(cfg: dict, by_iteration, layers: int):
    workload = _sim_workload(cfg)
    system = iso_area_systems()["fast_adaptive"]
    trajectory = [[by_iteration[i][layer] for layer in range(layers)]
                  for i in sorted(by_iteration)]
    high = cfg["high_bits"]
    fast = fast_adaptive_iteration_cost(workload, system, precision_trajectory=trajectory)
    all_high = iteration_cost(workload, system, precisions=(high, high, high))
    return fast.cycles, all_high.cycles


def measure_traced(cfg: dict, untraced: Run, traced: Run,
                   layers_out: dict, events: list) -> tuple:
    """Run the same training twice, untraced then traced; per-layer metrics.

    Everything is normalised per training step.  Returns (attempted, failed)
    steps of the traced run.
    """
    _, base_ms, _ = _fit(untraced)
    recorder = Recorder()
    layout = _instrument(traced, recorder)
    before = report.kernel_totals(observability.registry().snapshot(), worker=False)
    observability.set_enabled(True)
    try:
        result, step_ms, _ = _fit(traced, recorder)
    finally:
        observability.set_enabled(False)
        recorder.restore()
    after = report.kernel_totals(observability.registry().snapshot(), worker=False)
    table, by_iteration = _fast_history(traced)
    layers = len(quantized_modules(traced.model))
    check(result.loss_history, table, by_iteration, layers,
          traced.steps_per_epoch * traced.epochs, cfg["low_bits"], cfg["high_bits"])
    n = len(step_ms)
    out = layers_out
    for name in STEP_PHASES:
        out[f"train.{name}_ms"] = recorder.ms(name) / n
    for kind in TENSOR_KINDS:
        out[f"train.nn.quantized.quantize_{kind}_ms"] = \
            recorder.ms(f"nn.quantized.quantize_{kind}") / n
        out[f"train.nn.quantized.quantize_{kind}_calls"] = \
            recorder.calls[f"nn.quantized.quantize_{kind}"] / n
    forwards = recorder.calls["nn.quantized.layer_forward"]
    out["train.nn.quantized.weight_cache_hit_ratio"] = (
        1.0 - recorder.calls["nn.quantized.quantize_weight"] / forwards if forwards else 0.0)
    out["train.core.precision_policy.decide_ms"] = \
        recorder.ms("core.precision_policy.decide") / n
    out["train.core.precision_policy.decide_calls"] = \
        recorder.calls["core.precision_policy.decide"] / n
    for index, kind in enumerate(TENSOR_KINDS):
        high = [setting[index] == cfg["high_bits"] for setting in table.values()]
        out[f"train.core.precision_policy.high_bits_share.{kind}"] = float(np.mean(high))
    out.update(report.kernel_metrics(
        "train", ("bfp_quantize_fast", "quantize_groups", "im2col", "conv2d_forward",
                  "linear"), before, after, n))
    out["train.core.kernels.layout_cache_hit_ratio"] = (
        layout["hits"] / layout["lookups"] if layout["lookups"] else 0.0)
    fast, _ = _simulated_cycles(cfg, by_iteration, layers)
    out["train.hardware.performance.sim_cycles_per_iter"] = fast
    accounted = sum(recorder.ms(name) for name in STEP_PHASES)
    out["train.step_unaccounted_share"] = 1.0 - accounted / float(np.sum(step_ms))
    out["train.trace_overhead"] = report.median(step_ms) / report.median(base_ms)
    events.extend(recorder.events)
    return n, 0
