"""Cross-process observability: traces, metric aggregation, EngineStats.

These tests drive the real multi-process serving tier with the global
observability gate on and assert the PR's acceptance criteria: a sampled
request trace through a 2-worker :class:`ShardedServer` shows every
pipeline stage with per-stage durations, worker metric deltas aggregate
into one cluster-wide registry view (surviving a worker respawn), and a
disabled gate leaves the hot path untouched.
"""

import numpy as np
import pytest

from repro import observability
from repro.core.bfp import BFPConfig
from repro.models import MLP
from repro.observability import validate_chrome_trace, validate_prometheus_text
from repro.observability.tracing import PIPELINE_STAGES
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    EngineCrash,
    EngineStats,
    FaultPlan,
    InferenceEngine,
    InferenceServer,
    ServingError,
    ShardedServer,
    WorkerSpec,
    freeze,
    save_frozen,
)
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)


@pytest.fixture(autouse=True)
def observability_sandbox():
    """Each test starts disabled with fresh registry/tracer state."""
    observability.set_enabled(False)
    observability.reset()
    yield
    observability.set_enabled(False)
    observability.reset()


def build_mlp_checkpoint(path, seed=0):
    model = MLP(32, [16], 4, rng=np.random.default_rng(seed))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    return save_frozen(freeze(model), path)


@pytest.fixture(scope="module")
def mlp_checkpoint(tmp_path_factory):
    return str(build_mlp_checkpoint(
        tmp_path_factory.mktemp("telemetry") / "mlp.npz"))


def mlp_spec(checkpoint, **overrides):
    defaults = dict(checkpoint=checkpoint, model="mlp",
                    warmup_shapes=((1, 32),))
    defaults.update(overrides)
    return WorkerSpec(**defaults)


def frozen_engine(checkpoint):
    from repro.serving import load_frozen
    return InferenceEngine(load_frozen(checkpoint))


class TestEngineStats:
    def test_inference_engine_stats_is_typed_and_mapping_compatible(
            self, mlp_checkpoint, rng):
        engine = frozen_engine(mlp_checkpoint)
        engine.predict(rng.standard_normal((2, 32)))
        stats = engine.stats()
        assert isinstance(stats, EngineStats)
        assert stats.calls == 1 and stats.samples == 2
        # Attribute access is the API; as_dict() is the plain-dict view.
        assert stats.calls == 1
        assert "throughput_sps" in stats.as_dict()
        assert stats.as_dict()["samples"] == 2
        assert stats.as_dict()["calls"] == 1
        with pytest.raises(AttributeError):
            stats.no_such_counter
        # Remote-only fields stay None for the in-process engine.
        assert stats.pid is None and stats.respawns is None

    def test_remote_engine_stats_same_type(self, mlp_checkpoint, rng):
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        with ShardedServer([mlp_spec(mlp_checkpoint)], config) as cluster:
            cluster.predict(rng.standard_normal(32), timeout=60)
            stats = cluster._shards[0].engine.stats()
        assert isinstance(stats, EngineStats)
        assert stats.alive is True and isinstance(stats.pid, int)
        assert stats.respawns == 0


class TestInProcessTracing:
    def test_server_trace_has_local_stages_and_metrics(self, mlp_checkpoint,
                                                       rng):
        observability.set_enabled(True, sample_rate=1.0)
        with InferenceServer(frozen_engine(mlp_checkpoint),
                             BatchingConfig(max_batch_size=4, max_delay_ms=2.0),
                             name="local") as server:
            futures = [server.submit(row)
                       for row in rng.standard_normal((12, 32))]
            results = [future.result(timeout=60) for future in futures]
        trace = observability.tracer().to_chrome()
        # In-process: every stage except transport (no process boundary).
        local_stages = tuple(s for s in PIPELINE_STAGES if s != "transport")
        validate_chrome_trace(trace, require_stages=local_stages)
        stage_names = {event["name"] for event in trace["traceEvents"]}
        assert "transport" not in stage_names
        timing = results[0].timing
        assert timing.trace_id is not None
        assert timing.transport_ms is None
        assert timing.assemble_ms >= 0.0
        assert timing.compute_ms >= 0.0
        registry = observability.registry()
        requests = registry.get("serving_requests_total", server="local")
        assert requests is not None and requests.value == len(futures)
        assert validate_prometheus_text(registry.render_prometheus()) > 0

    def test_sampling_rate_traces_a_subset(self, mlp_checkpoint, rng):
        observability.set_enabled(True, sample_rate=0.25)
        with InferenceServer(frozen_engine(mlp_checkpoint),
                             BatchingConfig(max_batch_size=4,
                                            max_delay_ms=2.0)) as server:
            futures = [server.submit(row)
                       for row in rng.standard_normal((16, 32))]
            results = [future.result(timeout=60) for future in futures]
        traced = [r.timing.trace_id for r in results
                  if r.timing.trace_id is not None]
        assert len(traced) == 4  # deterministic every-4th
        assert len(traced) == len(set(traced))


class TestShardedTracing:
    def test_two_worker_trace_covers_full_pipeline(self, mlp_checkpoint, rng):
        """Acceptance: a sampled request trace through a 2-worker
        ShardedServer shows queue, batch, transport, and compute stages
        with per-stage durations."""
        observability.set_enabled(True, sample_rate=1.0)
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row)
                       for row in rng.standard_normal((20, 32))]
            results = [future.result(timeout=60) for future in futures]
            prometheus = cluster.render_prometheus()
            snapshot = cluster.metrics_snapshot()
        trace = observability.tracer().to_chrome()
        validate_chrome_trace(trace, require_stages=PIPELINE_STAGES)
        durations = {}
        for event in trace["traceEvents"]:
            durations.setdefault(event["name"], []).append(event["dur"])
        # Per-stage durations: the engine forward and the queue wait are
        # real elapsed intervals, not zero-width markers.
        assert max(durations["compute"]) > 0.0
        assert max(durations["queue"]) > 0.0
        # The worker-side compute spans carry worker pids: more than one
        # process contributed events to the one timeline.
        assert len({event["pid"] for event in trace["traceEvents"]}) >= 3
        # Request timings expose the transport split.
        traced = [r.timing for r in results if r.timing.trace_id is not None]
        assert traced and all(t.transport_ms is not None for t in traced)
        assert all(t.transport_ms >= 0.0 for t in traced)
        # The cluster-wide registry holds worker kernel metrics labelled by
        # shard -- one view, per-shard breakdown.
        shards_seen = {dict(metric["labels"]).get("shard")
                       for metric in snapshot["metrics"]
                       if metric["name"] == "kernel_calls_total"}
        assert {"0", "1"} <= shards_seen
        assert validate_prometheus_text(prometheus) > 0

    def test_cluster_metrics_survive_worker_respawn(self, mlp_checkpoint, rng):
        """Deltas are additive: a respawned worker restarts its local
        registry at zero, and the cluster aggregate keeps growing."""
        observability.set_enabled(True, sample_rate=0.0)
        plan = FaultPlan(exit_calls=(2,), exit_code=43)
        specs = [mlp_spec(mlp_checkpoint, fault_plan=plan),
                 mlp_spec(mlp_checkpoint)]
        config = ClusterConfig(batching=BatchingConfig(
            max_batch_size=4, max_delay_ms=2.0,
            engine_restart_limit=3, restart_backoff_ms=10.0))

        def shard0_kernel_calls():
            return sum(metric["value"]
                       for metric in observability.registry().snapshot()["metrics"]
                       if metric["name"] == "kernel_calls_total"
                       and metric["labels"].get("shard") == "0")

        inputs = rng.standard_normal((40, 32))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            for future in futures:
                try:
                    future.result(timeout=120)
                except (EngineCrash, ServingError):
                    pass  # the batch in flight at the kill
            assert cluster.stats().worker_respawns >= 1
            before = shard0_kernel_calls()
            assert before > 0.0
            # Traffic served by the *respawned* worker keeps accumulating
            # under the same shard label.
            for row in inputs[:12]:
                cluster.predict(row, timeout=60)
            assert shard0_kernel_calls() > before

    def test_disabled_gate_leaves_no_telemetry(self, mlp_checkpoint, rng):
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        with ShardedServer([mlp_spec(mlp_checkpoint)], config) as cluster:
            futures = [cluster.submit(row)
                       for row in rng.standard_normal((8, 32))]
            results = [future.result(timeout=60) for future in futures]
            stats = cluster.stats()
        assert len(observability.tracer()) == 0
        assert observability.registry().snapshot()["metrics"] == []
        assert all(r.timing.trace_id is None for r in results)
        assert all(r.timing.transport_ms is None for r in results)
        # The always-on bounded histogram still yields percentiles.
        assert np.isfinite(stats.latency_ms_p50)
        assert np.isfinite(stats.latency_ms_p99)
