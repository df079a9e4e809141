"""Performance benchmark: frozen-model serving, single-request vs. batched.

PR 3 added the serving subsystem (``repro.serving``): frozen BFP model
export, ``.npz`` checkpoints, and a dynamic micro-batching request server.
This benchmark measures what serving buys per model family:

* **single-request latency** -- every request runs alone through the engine
  (a ``max_batch_size=1`` server), which is what one-at-a-time submission
  costs,
* **batched throughput** -- the same requests submitted concurrently and
  coalesced by the micro-batching queue.

* **sharded-tier scaling** -- the multi-process ``ShardedServer`` (1/2/4
  engine worker processes over a frozen checkpoint, shared-memory batch
  transport) measured with the *open-loop* Poisson traffic rig
  (``repro.serving.loadgen``): goodput and p50/p95/p99 latency vs. offered
  QPS, plus a mixed-family routing run.  Two workers must sustain >= 1.7x
  the single-process open-loop goodput on the CNN family; the gate is
  enforced only on hosts with >= 2 usable CPUs (recorded as skipped
  otherwise -- worker processes cannot run in parallel on one core).

An equivalence harness runs first -- timings of a wrong serving path are
worthless: per family it asserts that frozen logits are **bit-identical**
to the live quantized model in eval mode and that a save/load round trip
through the checkpoint format is also bit-identical.  The sharded tier has
its own equivalence harness: outputs served through worker processes and
shared-memory rings must match the local engine bit for bit before any
throughput is measured.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_serving.py
    PYTHONPATH=src python benchmarks/bench_perf_serving.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_serving.py --output results.json

An equivalence failure raises.  Otherwise the exit status is 1 iff an
enforced gate in the ``gates`` list of :func:`main` fails: batched serving
of the standard CNN workload must reach 2x the one-at-a-time throughput,
instrumented serving 0.95x the bare throughput, and two worker processes
1.7x the single-process goodput (enforced only on hosts with >= 2 usable
CPUs).  PERFORMANCE.md's "Benchmark reports" section tabulates the gates
of every bench.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import nn, observability
from repro.core.bfp import BFPConfig
from repro.observability import validate_chrome_trace, validate_prometheus_text
from repro.observability.tracing import PIPELINE_STAGES
from repro.models import MLP, mobilenet_v2, resnet20, tiny_yolo, transformer_small, vgg11
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    DeadlineExceeded,
    EngineCrash,
    FamilyLoad,
    FaultInjectingEngine,
    FaultPlan,
    InferenceEngine,
    InferenceServer,
    OpenLoopGenerator,
    ServingError,
    ShardedServer,
    WorkerSpec,
    freeze,
    load_frozen,
    save_frozen,
)
from repro.training.schedules import FixedBFPSchedule

from bench_utils import (best_of, finish_report, gate, print_banner, print_rows,
                         usable_cpus)

STANDARD_CONFIG = "cnn"
SPEEDUP_GATE = 2.0
#: Sharded-tier gate: 2 worker processes must sustain at least this multiple
#: of the single-process server's open-loop goodput on the CNN family.  Only
#: enforceable where the workers can actually run in parallel, so the gate is
#: skipped (and recorded as skipped) on hosts with a single usable CPU.
CLUSTER_GATE = 1.7
CLUSTER_WORKER_COUNTS = (1, 2, 4)
#: Offered-load levels as multiples of the measured single-process capacity:
#: below saturation, at saturation, and well past it (where goodput flattens
#: at the backend's real capacity and the scaling story is visible).
CLUSTER_LOAD_LEVELS = (0.6, 1.25, 2.5)
#: Ceiling on offered QPS: past this the single-threaded generator's own
#: submit loop becomes the bottleneck and "offered load" stops being honest.
CLUSTER_MAX_QPS = 6000.0
#: Observability gate: with metrics + tracing enabled, serving throughput
#: must stay at or above this fraction of the disabled-gate throughput
#: (instrumentation may cost at most 5%).
OBSERVABILITY_GATE = 0.95
#: Trace sample rate used for the overhead measurement -- the documented
#: production setting (every request still updates metrics; one in ten gets
#: a full span timeline).
OBSERVABILITY_SAMPLE_RATE = 0.1
#: Paper-standard 8-bit exponent window: batch composition never changes the
#: shared-exponent clamping, so batched and single-request quantization agree.
BFP_CONFIG = BFPConfig(exponent_bits=8, group_size=16)


# --------------------------------------------------------------------------- #
# Model families
# --------------------------------------------------------------------------- #
def build_cnn(seed=0):
    """The standard serving CNN: the train-step benchmark's two-conv
    architecture at the repo's usual CPU-scale width (16/32 channels)."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        QuantizedConv2d(3, 16, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(16, 32, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(32 * 8 * 8, 10, rng=rng),
    )
    return model, (3, 32, 32)


def build_mlp(seed=0):
    return MLP(784, [256, 128], 10, rng=np.random.default_rng(seed)), (784,)


def build_vgg(seed=0):
    return vgg11(width=8, rng=np.random.default_rng(seed)), (3, 32, 32)


def build_resnet(seed=0):
    return resnet20(width=8, rng=np.random.default_rng(seed)), (3, 32, 32)


def build_mobilenet(seed=0):
    return mobilenet_v2(width=8, rng=np.random.default_rng(seed)), (3, 32, 32)


def build_yolo(seed=0):
    return tiny_yolo(num_classes=3, image_size=32, rng=np.random.default_rng(seed)), (3, 32, 32)


FAMILY_BUILDERS = {
    "cnn": build_cnn,
    "mlp": build_mlp,
    "vgg": build_vgg,
    "resnet": build_resnet,
    "mobilenet": build_mobilenet,
    "yolo": build_yolo,
}

#: Per-family batch caps (a per-deployment serving knob).  MobileNet's
#: depthwise/1x1 structure is memory-bandwidth-bound: large batches overflow
#: cache and run *slower* per sample, so it serves best with a small cap.
FAMILY_BATCH_CAPS = {"mobilenet": 8}
DEFAULT_BATCH_CAP = 32


def frozen_engine(family: str, seed=0, compute_dtype=None):
    model, input_shape = FAMILY_BUILDERS[family](seed)
    FixedBFPSchedule(4, config=BFP_CONFIG, stochastic_gradients=False,
                     seed=0).prepare(model, 1)
    model.eval()
    frozen = freeze(model)
    if compute_dtype is not None:
        frozen.cast(compute_dtype)
    return model, InferenceEngine(frozen), input_shape


# --------------------------------------------------------------------------- #
# Equivalence harness
# --------------------------------------------------------------------------- #
def verify_family(family: str, rng) -> None:
    model, engine, input_shape = frozen_engine(family)
    inputs = rng.standard_normal((4,) + input_shape)
    with nn.no_grad():
        live = model(inputs).data
    frozen_out = engine.model.predict(inputs)
    assert np.array_equal(frozen_out, live), f"{family}: frozen logits diverge from live"
    with tempfile.TemporaryDirectory() as tmp:
        path = save_frozen(engine.model, Path(tmp) / f"{family}.npz")
        reloaded = load_frozen(path)
        assert np.array_equal(reloaded.predict(inputs), live), \
            f"{family}: checkpoint round trip diverges"
    # The float32 serving cast leaves every BFP grid value exact; only the
    # accumulations run at single precision, so logits agree tightly.
    _, engine32, _ = frozen_engine(family, compute_dtype=np.float32)
    served = engine32.model.predict(inputs)
    assert served.dtype == np.float32, f"{family}: float32 cast not applied"
    assert np.allclose(served, live, rtol=1e-4, atol=1e-5), \
        f"{family}: float32 serving drifted from the float64 reference"


def verify_transformer(rng) -> None:
    model = transformer_small(vocab_size=40, max_length=16, rng=np.random.default_rng(0))
    FixedBFPSchedule(4, config=BFP_CONFIG, stochastic_gradients=False,
                     seed=0).prepare(model, 1)
    model.eval()
    src = rng.integers(3, 40, size=(4, 12))
    tgt = rng.integers(3, 40, size=(4, 12))
    with nn.no_grad():
        live = model(src, tgt).data
    frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
    assert np.array_equal(frozen.forward_logits(src, tgt), live), \
        "transformer: frozen logits diverge from live"
    live_decode = model.greedy_decode(src, 1, 2)
    assert np.array_equal(frozen.predict(src), live_decode), \
        "transformer: frozen greedy decode diverges"
    with tempfile.TemporaryDirectory() as tmp:
        reloaded = load_frozen(save_frozen(frozen, Path(tmp) / "transformer.npz"))
        assert np.array_equal(reloaded.forward_logits(src, tgt), live), \
            "transformer: checkpoint round trip diverges"


# --------------------------------------------------------------------------- #
# Serving measurements
# --------------------------------------------------------------------------- #
def bench_family(family: str, num_requests: int, max_batch_size: int, rng) -> dict:
    # Serve in float32 (the production mode): BFP grid values are exact in
    # float32, and half the memory traffic is what batched GEMMs feed on.
    _, engine, input_shape = frozen_engine(family, compute_dtype=np.float32)
    requests = rng.standard_normal((num_requests,) + input_shape).astype(np.float32)
    # Warm both serving shapes: index/layout caches plus the allocator's
    # large-block pools for the full-batch activations.
    engine.warmup(requests[:1])
    engine.warmup(requests[:max_batch_size])

    # Single-request latency: a server restricted to batches of one, fed
    # synchronously (each request waits for its result).
    engine.reset_stats()
    single_config = BatchingConfig(max_batch_size=1, max_delay_ms=0.0)
    latencies = []
    with InferenceServer(engine, single_config) as server:
        start = time.perf_counter()
        for request in requests:
            result = server.predict(request, timeout=120)
            latencies.append(result.timing.total_ms)
        single_wall = time.perf_counter() - start
    single_rps = num_requests / single_wall

    # Batched throughput: the same requests submitted all at once and
    # coalesced by the micro-batching queue.
    engine.reset_stats()
    batched_config = BatchingConfig(max_batch_size=max_batch_size, max_delay_ms=2.0)
    with InferenceServer(engine, batched_config) as server:
        start = time.perf_counter()
        futures = [server.submit(request) for request in requests]
        results = [future.result(timeout=300) for future in futures]
        batched_wall = time.perf_counter() - start
        stats = server.stats()
    batched_rps = num_requests / batched_wall
    mean_batch = stats.mean_batch_size
    batched_latency_p50 = float(np.percentile([r.timing.total_ms for r in results], 50))

    return {
        "family": family,
        "requests": num_requests,
        "max_batch_size": max_batch_size,
        "single_latency_ms_p50": float(np.percentile(latencies, 50)),
        "single_latency_ms_p95": float(np.percentile(latencies, 95)),
        "single_rps": single_rps,
        "batched_rps": batched_rps,
        "batched_latency_ms_p50": batched_latency_p50,
        "mean_batch_size": mean_batch,
        "speedup": batched_rps / single_rps,
    }


# --------------------------------------------------------------------------- #
# Degraded-mode serving: the fault-injection harness drives the robustness
# layer (retries, deadline shedding, supervised engine restart) under a
# hostile engine, and the numbers below are what graceful degradation costs.
# --------------------------------------------------------------------------- #
def bench_degraded(num_requests: int, rng) -> dict:
    _, engine, input_shape = frozen_engine(STANDARD_CONFIG, compute_dtype=np.float32)
    # Explicit call schedule: a short run only makes ~6-10 predict calls, so
    # rate-based injection could draw zero faults; scheduling by call index
    # guarantees each fault class actually exercises its recovery path.
    plan = FaultPlan(
        seed=7,
        latency_calls=(1, 4), latency_ms=25.0,   # slow-node stalls
        transient_calls=(2,),                    # a retryable batch blip
        crash_calls=(5,), rewarms_to_recover=1,  # one supervised restart mid-run
    )
    faulty = FaultInjectingEngine(engine, plan)
    requests = rng.standard_normal((num_requests,) + input_shape).astype(np.float32)
    faulty.warmup(requests[:1])
    faulty.warmup(requests[:16])

    config = BatchingConfig(
        max_batch_size=16, max_delay_ms=2.0,
        max_retries=4, retry_backoff_ms=1.0, retry_backoff_max_ms=8.0,
        engine_restart_limit=3, restart_backoff_ms=5.0,
    )
    # A quarter of the traffic carries a deadline tighter than one injected
    # latency spike: requests queued behind a stall shed instead of waiting.
    deadlines = [8.0 if index % 4 == 0 else 5000.0 for index in range(num_requests)]

    start = time.perf_counter()
    with InferenceServer(faulty, config) as server:
        futures = [server.submit(request, deadline_ms=deadline)
                   for request, deadline in zip(requests, deadlines)]
        latencies, shed, failed = [], 0, 0
        for future in futures:
            try:
                latencies.append(future.result(timeout=300).timing.total_ms)
            except DeadlineExceeded:
                shed += 1
            except (ServingError, EngineCrash):
                # Retry budget exhausted, or the batch was in flight when the
                # engine hard-crashed (those futures fail descriptively).
                failed += 1
        wall = time.perf_counter() - start
    # Read after close(): the worker has counted every outcome by then.
    stats = server.stats()
    final_state = stats.state

    assert len(latencies) + shed + failed == num_requests, \
        "degraded mode: request accounting does not close"
    assert (stats.submitted, stats.completed, stats.shed_deadline, stats.failed) == \
        (num_requests, len(latencies), shed, failed), \
        f"degraded mode: the server's counts disagree with its callers' ({stats})"
    assert latencies, "degraded mode: no request survived the fault injection"
    assert faulty.log.crashes >= 1, "degraded mode: the scheduled crash never fired"
    assert final_state == "healthy", \
        f"degraded mode: server did not recover from the injected crash ({final_state})"

    return {
        "requests": num_requests,
        "successes": len(latencies),
        "deadline_shed": shed,
        "failed": failed,
        "shed_rate": shed / num_requests,
        "failure_rate": failed / num_requests,
        "rps": num_requests / wall,
        "latency_ms_p50": float(np.percentile(latencies, 50)),
        "latency_ms_p95": float(np.percentile(latencies, 95)),
        "latency_ms_p99": float(np.percentile(latencies, 99)),
        "requeues": stats.requeues,
        "engine_crashes": stats.engine_crashes,
        "engine_restarts": stats.engine_restarts,
        "final_state": final_state,
        "faults_injected": faulty.log.as_dict(),
    }


# --------------------------------------------------------------------------- #
# Observability: what enabling metrics + tracing costs, and whether the
# exported formats actually validate (Prometheus text, Chrome trace JSON).
# --------------------------------------------------------------------------- #
def bench_observability(num_requests: int, rng):
    """Instrumented-vs-bare serving throughput plus schema validation.

    Runs the standard CNN workload through the batching server twice per
    attempt -- observability gate off, then on (metrics + tracing at the
    documented production sample rate) -- and returns the report section
    with the gate on the throughput ratio.  The ratio is taken best-of-3
    (``bench_utils.best_of``): a noisy host can make either run slower, and
    the gate should trip on real instrumentation cost, not an unlucky time
    slice.  While the gate is on,
    the Prometheus exposition and the exported Chrome trace are validated
    against their schemas, including every in-process pipeline stage.
    """
    cap = FAMILY_BATCH_CAPS.get(STANDARD_CONFIG, DEFAULT_BATCH_CAP)
    _, engine, input_shape = frozen_engine(STANDARD_CONFIG,
                                           compute_dtype=np.float32)
    requests = rng.standard_normal((num_requests,) + input_shape).astype(np.float32)
    engine.warmup(requests[:1])
    engine.warmup(requests[:cap])
    batching = BatchingConfig(max_batch_size=cap, max_delay_ms=2.0)

    def serve_once() -> float:
        engine.reset_stats()
        with InferenceServer(engine, batching, name="obs-bench") as server:
            start = time.perf_counter()
            futures = [server.submit(request) for request in requests]
            for future in futures:
                future.result(timeout=300)
            return num_requests / (time.perf_counter() - start)

    local_stages = tuple(s for s in PIPELINE_STAGES if s != "transport")
    prometheus_samples = trace_events = 0

    def measure() -> dict:
        nonlocal prometheus_samples, trace_events
        was_enabled = observability.set_enabled(False)
        assert not was_enabled, "observability gate unexpectedly on"
        observability.reset()
        bare_rps = serve_once()
        observability.set_enabled(True, sample_rate=OBSERVABILITY_SAMPLE_RATE)
        try:
            instrumented_rps = serve_once()
            prometheus_samples = validate_prometheus_text(
                observability.registry().render_prometheus())
            trace_events = validate_chrome_trace(
                observability.tracer().to_chrome(),
                require_stages=local_stages)
        finally:
            observability.set_enabled(False)
            observability.reset()
        return {"bare_rps": bare_rps, "instrumented_rps": instrumented_rps,
                "ratio": instrumented_rps / bare_rps}

    best, attempts = best_of(
        measure, attempts=3,
        key=lambda result: result["ratio"],
        good_enough=lambda ratio: ratio >= OBSERVABILITY_GATE,
        label="observability overhead gate")
    section = {
        "requests": num_requests,
        "sample_rate": OBSERVABILITY_SAMPLE_RATE,
        "bare_rps": best["bare_rps"],
        "instrumented_rps": best["instrumented_rps"],
        "ratio": best["ratio"],
        "prometheus_samples": prometheus_samples,
        "trace_events": trace_events,
        "schemas": "pass",
    }
    return section, gate("observability_ratio", best["ratio"], OBSERVABILITY_GATE,
                         attempts=attempts)


# --------------------------------------------------------------------------- #
# Sharded tier: N worker processes behind one front end, measured open-loop.
# --------------------------------------------------------------------------- #
_PIN_BLAS = (("OMP_NUM_THREADS", "1"), ("OPENBLAS_NUM_THREADS", "1"),
             ("MKL_NUM_THREADS", "1"))


def _worker_specs(checkpoint: Path, family: str, input_shape, cap: int,
                  count: int):
    """``count`` CNN-family worker specs warmed for both serving shapes."""
    return [
        WorkerSpec(
            checkpoint=str(checkpoint), model=family,
            warmup_shapes=((1,) + input_shape, (cap,) + input_shape),
            warmup_dtype="float32", cast_dtype="float32",
            # One BLAS thread per worker: parallelism comes from the worker
            # processes themselves, and oversubscribing threads x processes
            # on a small host destroys the scaling being measured.
            env=_PIN_BLAS,
        )
        for _ in range(count)
    ]


def verify_cluster(checkpoint: Path, input_shape, rng) -> None:
    """Bit-identical equivalence of the sharded tier vs. a local engine.

    Shards are restricted to batches of one so every request runs the same
    arithmetic as a local single-row forward; outputs must then match the
    in-process engine **bit for bit** -- the batch bytes crossed two shared
    -memory rings and a process boundary, and none of that may touch values.
    """
    local = InferenceEngine(load_frozen(checkpoint).cast(np.float32))
    requests = rng.standard_normal((24,) + input_shape).astype(np.float32)
    specs = _worker_specs(checkpoint, "cnn", input_shape, cap=1, count=2)
    config = ClusterConfig(batching=BatchingConfig(max_batch_size=1,
                                                   max_delay_ms=0.0))
    with ShardedServer(specs, config) as cluster:
        futures = [cluster.submit(request) for request in requests]
        outputs = [future.result(timeout=120).output for future in futures]
    for request, output in zip(requests, outputs):
        expected = local.model.predict(request[None])[0]
        assert np.array_equal(output, expected), \
            "cluster: outputs diverge from the single-process engine"


def _load_point(report) -> dict:
    return {
        "offered_qps": report.offered_qps,
        "goodput_rps": report.goodput_rps,
        "sent": report.sent,
        "completed": report.completed,
        "failed": report.failed,
        "latency_ms_p50": report.latency_ms_p50,
        "latency_ms_p95": report.latency_ms_p95,
        "latency_ms_p99": report.latency_ms_p99,
        "max_slip_ms": report.max_slip_ms,
    }


def bench_cluster(num_requests: int, duration_s: float, rng):
    """Open-loop goodput/latency of 1/2/4-worker clusters vs. one process;
    returns the report section and the 2-worker scaling gate.

    Offered loads are set relative to the *measured* closed-loop capacity of
    the single-process server, so the sweep always covers under-, at-, and
    past-saturation regardless of host speed.  Latency is coordinated-
    omission-free (measured from scheduled arrival; see
    :mod:`repro.serving.loadgen`).
    """
    cpus = usable_cpus()
    family = STANDARD_CONFIG
    cap = FAMILY_BATCH_CAPS.get(family, DEFAULT_BATCH_CAP)
    _, engine, input_shape = frozen_engine(family, compute_dtype=np.float32)
    payloads = tuple(rng.standard_normal((32,) + input_shape).astype(np.float32))
    engine.warmup(payloads[0][None])
    engine.warmup(np.stack(payloads)[:cap])
    batching = BatchingConfig(max_batch_size=cap, max_delay_ms=2.0)

    # Closed-loop capacity anchor for the offered-load levels.
    with InferenceServer(engine, batching) as server:
        start = time.perf_counter()
        futures = [server.submit(payloads[i % len(payloads)])
                   for i in range(num_requests)]
        for future in futures:
            future.result(timeout=300)
        capacity_rps = num_requests / (time.perf_counter() - start)
    offered_levels = [min(capacity_rps * level, CLUSTER_MAX_QPS)
                      for level in CLUSTER_LOAD_LEVELS]

    def open_loop(submit, qps, seed):
        mix = (FamilyLoad(payloads=payloads, model=None),)
        return OpenLoopGenerator(submit, mix, qps=qps, duration_s=duration_s,
                                 seed=seed, drain_timeout_s=120.0).run()

    # Single-process baseline under the same open-loop rig.
    baseline = []
    with InferenceServer(engine, batching) as server:
        for index, qps in enumerate(offered_levels):
            baseline.append(_load_point(open_loop(server.submit, qps, seed=100 + index)))
    baseline_top = baseline[-1]["goodput_rps"]

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = save_frozen(engine.model, Path(tmp) / f"{family}.npz")
        verify_cluster(checkpoint, input_shape, rng)
        print("cluster equivalence harness: PASS (sharded outputs bit-identical "
              "to the single-process engine)")

        scaling = {}
        enforced = cpus >= 2
        for workers in CLUSTER_WORKER_COUNTS:
            specs = _worker_specs(checkpoint, family, input_shape, cap, workers)
            config = ClusterConfig(batching=batching)
            spinup = time.perf_counter()
            with ShardedServer(specs, config) as cluster:
                spinup = time.perf_counter() - spinup
                # The sharded submit has a model= keyword; adapt to the
                # generator's positional convention for a fair comparison.
                points = [_load_point(open_loop(cluster.submit, qps,
                                                seed=200 + 10 * workers + index))
                          for index, qps in enumerate(offered_levels)]
                if workers == 2:
                    # Gate statistic, best-of-3: rerun only the top-load
                    # point, and only while the ratio is below the gate
                    # (interference only ever lowers throughput).
                    retry_seeds = iter(range(301, 303))
                    best, attempts = best_of(
                        lambda: _load_point(open_loop(cluster.submit, offered_levels[-1],
                                                      seed=next(retry_seeds))),
                        attempts=3 if enforced else 1, first=points[-1],
                        key=lambda point: point["goodput_rps"],
                        good_enough=lambda rps: rps >= CLUSTER_GATE * baseline_top,
                        label="cluster 2-worker gate")
                    points[-1] = best
                    ratios = [rps / baseline_top for rps in attempts]
            scaling[str(workers)] = {"spinup_s": spinup, "points": points}

    skipped_reason = None if enforced else (
        f"only {cpus} usable CPU(s): worker processes cannot run in "
        "parallel, so the scaling gate is not measurable on this host")
    section = {
        "family": family,
        "duration_s": duration_s,
        "capacity_single_rps": capacity_rps,
        "offered_levels_qps": offered_levels,
        "baseline": baseline,
        "scaling": scaling,
        "equivalence": "pass",
    }
    return section, gate("cluster_2worker_ratio", max(ratios), CLUSTER_GATE,
                         enforced=enforced, skipped_reason=skipped_reason,
                         attempts=ratios)


def bench_cluster_mixed(duration_s: float, rng) -> dict:
    """Mixed-family open-loop traffic over one cluster (routing exercise):
    CNN and MLP checkpoints served side by side, 70/30 offered split."""
    cnn_cap = FAMILY_BATCH_CAPS.get("cnn", DEFAULT_BATCH_CAP)
    _, cnn_engine, cnn_shape = frozen_engine("cnn", compute_dtype=np.float32)
    _, mlp_engine, mlp_shape = frozen_engine("mlp", compute_dtype=np.float32)
    cnn_payloads = tuple(rng.standard_normal((16,) + cnn_shape).astype(np.float32))
    mlp_payloads = tuple(rng.standard_normal((16,) + mlp_shape).astype(np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        cnn_ckpt = save_frozen(cnn_engine.model, Path(tmp) / "cnn.npz")
        mlp_ckpt = save_frozen(mlp_engine.model, Path(tmp) / "mlp.npz")
        specs = (_worker_specs(cnn_ckpt, "cnn", cnn_shape, cnn_cap, 1)
                 + _worker_specs(mlp_ckpt, "mlp", mlp_shape, DEFAULT_BATCH_CAP, 1))
        config = ClusterConfig(
            batching=BatchingConfig(max_batch_size=DEFAULT_BATCH_CAP,
                                    max_delay_ms=2.0),
            routing="least_loaded")
        with ShardedServer(specs, config) as cluster:
            mix = (FamilyLoad(payloads=cnn_payloads, model="cnn", weight=0.7),
                   FamilyLoad(payloads=mlp_payloads, model="mlp", weight=0.3))
            report = OpenLoopGenerator(cluster.submit, mix, qps=200.0,
                                       duration_s=duration_s, seed=42,
                                       drain_timeout_s=120.0).run()
            stats = cluster.stats()
    point = _load_point(report)
    point["models"] = {"cnn": 0.7, "mlp": 0.3}
    point["per_shard_requests"] = [s.completed for s in stats.shards]
    return point


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced family matrix + request counts for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "results" / "perf_serving.json")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per family measurement")
    args = parser.parse_args(argv)

    print_banner("Frozen-model serving: single-request vs. dynamic batching")

    rng = np.random.default_rng(1234)
    if args.quick:
        families = ["cnn", "mlp"]
        num_requests = args.requests or 96
    else:
        families = ["cnn", "mlp", "vgg", "resnet", "mobilenet", "yolo"]
        num_requests = args.requests or 96

    for family in families:
        verify_family(family, rng)
    verify_transformer(rng)
    print("equivalence harness: PASS (frozen logits and checkpoint round trips "
          "bit-identical to the live quantized models, greedy decode included)")

    results = [
        bench_family(family, num_requests,
                     max_batch_size=FAMILY_BATCH_CAPS.get(family, DEFAULT_BATCH_CAP),
                     rng=rng)
        for family in families
    ]

    # The speedup gate is checked against the best of up to three
    # measurements (bench_utils.best_of): on small shared hosts a single
    # threaded run can lose half its throughput to scheduler noise, and a
    # regression gate should trip on regressions, not on an unlucky time
    # slice.  The table measurement above counts as the first attempt.
    standard_index = next(i for i, r in enumerate(results)
                          if r["family"] == STANDARD_CONFIG)
    best, gate_values = best_of(
        lambda: bench_family(
            STANDARD_CONFIG, num_requests,
            max_batch_size=FAMILY_BATCH_CAPS.get(STANDARD_CONFIG, DEFAULT_BATCH_CAP),
            rng=rng),
        attempts=3, first=results[standard_index],
        key=lambda result: result["speedup"],
        good_enough=lambda speedup: speedup >= SPEEDUP_GATE,
        label=f"{STANDARD_CONFIG} speedup gate")
    results[standard_index] = best

    rows = [(r["family"], str(r["max_batch_size"]), f"{r['single_latency_ms_p50']:.2f}",
             f"{r['single_rps']:.0f}", f"{r['batched_rps']:.0f}",
             f"{r['mean_batch_size']:.1f}", f"{r['speedup']:.2f}x")
            for r in results]
    print_rows(["family", "cap", "single p50 (ms)", "single (req/s)",
                "batched (req/s)", "mean batch", "speedup"],
               rows, title=f"Serving throughput ({num_requests} requests)")

    # Degraded mode: the same serving stack under injected faults.
    degraded = bench_degraded(num_requests, rng)
    print_rows(
        ["p50 (ms)", "p95 (ms)", "p99 (ms)", "req/s", "shed", "failed",
         "requeues", "restarts", "state"],
        [(f"{degraded['latency_ms_p50']:.2f}", f"{degraded['latency_ms_p95']:.2f}",
          f"{degraded['latency_ms_p99']:.2f}", f"{degraded['rps']:.0f}",
          f"{degraded['deadline_shed']} ({degraded['shed_rate']:.0%})",
          str(degraded['failed']), str(degraded['requeues']),
          str(degraded['engine_restarts']), degraded['final_state'])],
        title=(f"Degraded mode ({STANDARD_CONFIG}, {num_requests} requests: "
               "2 latency spikes, 1 transient error, 1 crash)"))
    print("degraded-mode gate: PASS (request accounting closed, crash recovered, "
          f"{degraded['successes']}/{degraded['requests']} served)")

    # Observability: instrumentation overhead + exported-format validation.
    obs, obs_gate = bench_observability(num_requests, rng)
    print_rows(
        ["bare (req/s)", "instrumented (req/s)", "ratio", "sample rate",
         "prom samples", "trace events"],
        [(f"{obs['bare_rps']:.0f}", f"{obs['instrumented_rps']:.0f}",
          f"{obs['ratio']:.3f}", f"{obs['sample_rate']:.2f}",
          str(obs['prometheus_samples']), str(obs['trace_events']))],
        title=(f"Observability overhead ({STANDARD_CONFIG}, {num_requests} "
               "requests; metrics + tracing vs. disabled gate)"))
    print("observability schemas: PASS (Prometheus exposition and Chrome "
          "trace JSON validated, all in-process pipeline stages present)")

    # Sharded tier: 1/2/4 worker processes, open-loop Poisson traffic.
    print_banner("Sharded serving tier: open-loop goodput vs. offered load")
    cluster, cluster_gate = bench_cluster(
        num_requests, duration_s=1.2 if args.quick else 2.5, rng=rng)
    cluster_rows = []
    for index, qps in enumerate(cluster["offered_levels_qps"]):
        point = cluster["baseline"][index]
        cluster_rows.append(("1 (in-proc)", f"{qps:.0f}",
                             f"{point['goodput_rps']:.0f}",
                             f"{point['latency_ms_p50']:.1f}",
                             f"{point['latency_ms_p95']:.1f}",
                             f"{point['latency_ms_p99']:.1f}"))
    for workers, entry in sorted(cluster["scaling"].items(), key=lambda kv: int(kv[0])):
        for index, point in enumerate(entry["points"]):
            cluster_rows.append((workers, f"{point['offered_qps']:.0f}",
                                 f"{point['goodput_rps']:.0f}",
                                 f"{point['latency_ms_p50']:.1f}",
                                 f"{point['latency_ms_p95']:.1f}",
                                 f"{point['latency_ms_p99']:.1f}"))
    print_rows(["workers", "offered (qps)", "goodput (req/s)", "p50 (ms)",
                "p95 (ms)", "p99 (ms)"],
               cluster_rows,
               title=(f"Open-loop {cluster['family']} serving "
                      f"({usable_cpus()} CPU(s), {cluster['duration_s']:.1f}s "
                      "offered window, latency from scheduled arrival)"))
    cluster["mixed"] = bench_cluster_mixed(1.2 if args.quick else 2.5, rng)
    print(f"mixed-family run (cnn 70% / mlp 30%, least_loaded): "
          f"goodput {cluster['mixed']['goodput_rps']:.0f} req/s, "
          f"p95 {cluster['mixed']['latency_ms_p95']:.1f} ms, "
          f"per-shard requests {cluster['mixed']['per_shard_requests']}")

    # Storage accounting for the standard CNN export.
    _, engine, _ = frozen_engine(STANDARD_CONFIG)
    storage = engine.model.storage_report()
    print(f"\nfrozen {STANDARD_CONFIG} storage: {storage['total_bytes'] / 1024:.1f} KiB "
          f"({storage['compression_vs_fp32']:.2f}x vs FP32 under the chunked BFP layout)")

    gates = [gate(f"batched_speedup/{STANDARD_CONFIG}", best["speedup"], SPEEDUP_GATE,
                  attempts=gate_values),
             obs_gate, cluster_gate]
    headline = {f"{r['family']}.{key}": r[key] for r in results
                for key in ("batched_rps", "single_latency_ms_p50")}
    headline.update({f"cluster.{workers}_workers.goodput_rps":
                     entry["points"][-1]["goodput_rps"]
                     for workers, entry in cluster["scaling"].items()})
    headline.update({
        "cluster.baseline_goodput_rps": cluster["baseline"][-1]["goodput_rps"],
        "cluster.mixed_goodput_rps": cluster["mixed"]["goodput_rps"],
        "degraded.rps": degraded["rps"],
        "degraded.latency_ms_p99": degraded["latency_ms_p99"],
        "storage.compression_vs_fp32": storage["compression_vs_fp32"],
    })
    return finish_report(args.output, "bench_perf_serving",
                         "quick" if args.quick else "full", gates, headline,
                         requests=num_requests, storage_standard=storage, results=results,
                         degraded=degraded, observability=obs, cluster=cluster)


if __name__ == "__main__":
    sys.exit(main())
