"""``serve_cnn_sharded``: open-loop traffic into one sharded worker.

A frozen 4-bit float32 CNN runs behind ``ShardedServer`` with one worker
process whose BLAS threads are pinned to 1.  Against a ~1 ms forward, the
per-request work in admission, batching, the shared-memory ring and the
pipe is a large share, so the ``serving.server``/``cluster``/``transport``
layers dominate.  The kernels run inference-only here: nearest rounding,
activations only, weights packed once at freeze time.

Latency counts from each request's scheduled arrival.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np

from repro import observability
from repro.core.bfp import BFPConfig
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    FamilyLoad,
    InferenceEngine,
    OpenLoopGenerator,
    ShardedServer,
    WorkerSpec,
    freeze,
    load_frozen,
    save_frozen,
)
from repro.training import FixedBFPSchedule

from perfbench import report
from perfbench.openloop import Tap, median_of_windows, rate_windows
from perfbench.probes import Recorder
from perfbench.train_phase import build_cnn

PIN_BLAS = (("MKL_NUM_THREADS", "1"), ("OMP_NUM_THREADS", "1"),
            ("OPENBLAS_NUM_THREADS", "1"))


class Run:
    """A warmed one-worker cluster plus the local engine used for checks."""

    def __init__(self, cfg: dict, seed: int, model_seed: int, workdir: Path):
        size = cfg["image_size"]
        model = build_cnn(cfg, np.random.default_rng(model_seed))
        FixedBFPSchedule(cfg["mantissa_bits"],
                         config=BFPConfig(exponent_bits=cfg["exponent_bits"],
                                          group_size=cfg["group_size"]),
                         stochastic_gradients=False, seed=0).prepare(model, 1)
        model.eval()
        workdir.mkdir(parents=True, exist_ok=True)
        self.checkpoint = save_frozen(freeze(model), workdir / "serve_cnn.npz")
        self.local = InferenceEngine(load_frozen(self.checkpoint).cast(np.float32))
        shape = (3, size, size)
        data = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        self.payloads = tuple(data.standard_normal((cfg["payloads"],) + shape)
                              .astype(np.float32))
        self.spec = WorkerSpec(
            checkpoint=str(self.checkpoint), model="cnn",
            warmup_shapes=((1,) + shape, (cfg["max_batch_size"],) + shape),
            warmup_dtype="float32", cast_dtype="float32", env=PIN_BLAS)
        self.config = ClusterConfig(batching=BatchingConfig(
            max_batch_size=cfg["max_batch_size"], max_delay_ms=cfg["max_delay_ms"]))
        self.cluster = None

    def spawn(self) -> "Run":
        self.cluster = ShardedServer([self.spec], self.config)
        return self

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


def setup(cfg: dict, seed: int, model_seed: int, workdir: Path) -> Run:
    run = Run(cfg, seed, model_seed, workdir).spawn()
    _window(run, cfg["rate_qps"], cfg["warmup_seconds"], seed + 7)
    return run


def _window(run: Run, qps: float, seconds: float, seed: int, on_submit=None):
    tap = Tap(run.cluster.submit, qps, seconds, seed, on_submit=on_submit)
    mix = (FamilyLoad(payloads=run.payloads),)
    load = OpenLoopGenerator(tap, mix, qps=qps, duration_s=seconds, seed=seed,
                             drain_timeout_s=30.0).run()
    return tap, load


def check(local, payloads, outputs: dict, rows: int) -> None:
    """Sharded outputs of the first ``rows`` requests match a local forward
    of the same rows to float32 rounding."""
    report.require(all(index in outputs for index in range(rows)),
                   "a checked serving request did not complete")
    for index in range(rows):
        expected = local.predict(payloads[index % len(payloads)][None])[0]
        served = outputs[index]
        report.require(served.shape == expected.shape and np.allclose(
            served, expected, rtol=1e-5, atol=1e-5 * float(np.abs(expected).max())),
            f"request {index}: sharded output differs from the local engine "
            f"by {float(np.max(np.abs(served - expected)))}")


def _check_rows(tap: Tap, cfg: dict) -> int:
    """The first ``check_rows`` requests of a window (fewer if it sent fewer)."""
    return max(1, min(cfg["check_rows"], len(tap.sent)))


def _outputs(tap: Tap) -> dict:
    return {index: result.output for index, _, _, _, result in tap.completed()}


def measure(cfg: dict, run: Run, scale: float, seed: int, slip_limit_ms: float,
            metrics: dict, notes: dict) -> tuple:
    """Fixed-rate windows, then request bursts.  Returns (attempted, failed).

    Their figures are printed for reading; ``BENCHMARK.json`` does not
    declare them (a comment in ``config.py`` says why).
    """
    valid, runs = rate_windows(functools.partial(_window, run), cfg, scale, seed,
                               slip_limit_ms)
    check(run.local, run.payloads, _outputs(valid[0][0]), _check_rows(valid[0][0], cfg))
    latencies = [tap.latencies_ms() for tap, _ in valid]
    metrics["serve_p50_ms"] = median_of_windows(latencies, 50)
    metrics["serve_p95_ms"] = median_of_windows(latencies, 95)
    notes["serve_p50_ms"] = notes["serve_p95_ms"] = report.windows_note(
        latencies, len(runs), f"requests at {cfg['rate_qps']:g} req/s")
    attempted = sum(load.sent for _, load in runs)
    failed = sum(load.failed for _, load in runs)
    rates = [_burst(run, cfg) for _ in range(cfg["burst_repeats"])]
    metrics["serve_burst_req_per_s"] = report.median(rates)
    notes["serve_burst_req_per_s"] = (f"median over {len(rates)} bursts of "
                                      f"{cfg['burst_requests']} requests")
    return attempted + len(rates) * cfg["burst_requests"], failed


def _burst(run: Run, cfg: dict) -> float:
    """Submit ``burst_requests`` at once; completed requests per second."""
    start = time.monotonic()
    futures = [run.cluster.submit(run.payloads[i % len(run.payloads)])
               for i in range(cfg["burst_requests"])]
    for future in futures:
        future.result(timeout=120)
    return len(futures) / (time.monotonic() - start)


def measure_traced(cfg: dict, run: Run, scale: float, seed: int, slip_limit_ms: float,
                   layers_out: dict, events: list) -> tuple:
    """Fixed-rate window untraced, then again on a freshly spawned worker with
    the observability gate on (workers arm telemetry at spawn).

    Kernel figures are the worker's, normalised per request.  Returns
    (attempted, failed) of the traced window.
    """
    seconds = cfg["rate_seconds"] * cfg["rate_windows"] * scale
    base_tap, _ = _window(run, cfg["rate_qps"], seconds, seed)
    run.close()
    observability.set_enabled(True, sample_rate=0.1)
    recorder = Recorder()
    try:
        run.spawn()
        before = report.kernel_totals(run.cluster.metrics_snapshot(), worker=True)

        def on_submit(index, submit):
            recorder.tag(request=index)
            return lambda payload, **kw: recorder.call("serving.cluster.submit",
                                                       submit, payload, **kw)

        tap, load = _window(run, cfg["rate_qps"], seconds, seed, on_submit=on_submit)
        after = report.kernel_totals(run.cluster.metrics_snapshot(), worker=True)
        stats = run.cluster.stats()
        run.close()
    finally:
        observability.set_enabled(False)
    report.require(load.max_slip_ms <= slip_limit_ms,
                   f"serve traced window: the load generator fell {load.max_slip_ms:.1f} ms "
                   f"behind its schedule; the offered load is invalid")
    check(run.local, run.payloads, _outputs(tap), _check_rows(tap, cfg))
    rows = tap.completed()
    for index, scheduled, _, finished, _ in rows:
        recorder.add_span("request", scheduled, finished - scheduled, count=False,
                          request=index)
    timings = [result.timing for *_, result in rows]
    n = len(rows)
    out = layers_out
    queue = [t.queue_ms for t in timings]
    transport = [t.transport_ms for t in timings if t.transport_ms is not None]
    compute = [t.compute_ms for t in timings]
    out["serve.serving.server.queue_ms_p50"] = report.median(queue)
    out["serve.serving.server.queue_ms_p99"] = report.percentile(queue, 99)
    out["serve.serving.server.assemble_ms_p50"] = report.median(
        [t.assemble_ms for t in timings])
    out["serve.serving.cluster.transport_ms_p50"] = report.median(transport)
    out["serve.serving.cluster.transport_ms_p99"] = report.percentile(transport, 99)
    out["serve.serving.engine.compute_ms_p50"] = report.median(compute)
    out["serve.serving.engine.compute_ms_p99"] = report.percentile(compute, 99)
    out["serve.serving.server.batch_size_mean"] = float(np.mean(
        [t.batch_size for t in timings]))
    out.update(report.kernel_metrics(
        "serve", ("bfp_quantize_fast", "quantize_groups", "conv2d_forward"),
        before, after, n))
    out["serve.serving.server.shed"] = float(stats.shed_deadline + stats.shed_watermark)
    out["serve.serving.server.rejected"] = float(stats.rejected)
    out["serve.serving.server.requeues"] = float(stats.requeues)
    out["serve.serving.transport.oversized_transfers"] = float(stats.oversized_transfers)
    out["serve.serving.loadgen.slip_ms_max"] = load.max_slip_ms
    out["serve.trace_overhead"] = (report.median(tap.latencies_ms())
                                   / report.median(base_tap.latencies_ms()))
    events.extend(recorder.events)
    return load.sent, load.failed
