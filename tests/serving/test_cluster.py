"""Sharded serving tier: equivalence, routing, admission, supervision.

Every cluster here runs real worker processes (spawn) over real frozen
checkpoints with real shared-memory transport -- nothing is mocked, because
the subject under test *is* the process boundary.  Models are kept tiny
(the 32->16->4 MLP the rest of the serving suite uses) so worker startup is
a few hundred milliseconds.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.bfp import BFPConfig
from repro.models import MLP, transformer_small
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    EngineCrash,
    FaultPlan,
    InferenceEngine,
    InvalidRequest,
    ServerClosed,
    ServerOverloaded,
    ServerStats,
    ServingError,
    ShardedServer,
    WorkerSpec,
    WorkerStartupError,
    freeze,
    load_frozen,
    save_frozen,
)
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)
SHM_DIR = Path("/dev/shm")


def repro_ring_segments():
    if not SHM_DIR.is_dir():
        return set()
    return {entry for entry in os.listdir(SHM_DIR)
            if entry.startswith("repro_ring_")}


def build_mlp_checkpoint(path, seed=0):
    model = MLP(32, [16], 4, rng=np.random.default_rng(seed))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    return save_frozen(freeze(model), path)


@pytest.fixture(scope="module")
def mlp_checkpoint(tmp_path_factory):
    return str(build_mlp_checkpoint(
        tmp_path_factory.mktemp("cluster") / "mlp.npz"))


@pytest.fixture(scope="module")
def seq_checkpoint(tmp_path_factory):
    model = transformer_small(vocab_size=20, max_length=12,
                              rng=np.random.default_rng(0))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
    return str(save_frozen(frozen,
                           tmp_path_factory.mktemp("cluster") / "seq.npz"))


def mlp_spec(checkpoint, model="mlp", **overrides):
    defaults = dict(checkpoint=checkpoint, model=model,
                    warmup_shapes=((1, 32),))
    defaults.update(overrides)
    return WorkerSpec(**defaults)


class TestEquivalenceAndOrdering:
    def test_results_bit_identical_to_local_engine(self, mlp_checkpoint, rng):
        """Batch-size-1 shards run the exact arithmetic of a local
        single-row forward, so outputs must match bit for bit after two
        shared-memory hops and a process boundary."""
        local = InferenceEngine(load_frozen(mlp_checkpoint))
        inputs = rng.standard_normal((12, 32))
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=1,
                                                       max_delay_ms=0.0))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            outputs = [f.result(timeout=60).output for f in futures]
        for row, output in zip(inputs, outputs):
            assert np.array_equal(output, local.model.predict(row[None])[0])

    def test_batched_results_map_to_their_requests(self, mlp_checkpoint, rng):
        local = InferenceEngine(load_frozen(mlp_checkpoint))
        inputs = rng.standard_normal((24, 32))
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=8,
                                                       max_delay_ms=10.0))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            results = [f.result(timeout=60) for f in futures]
        for row, result in zip(inputs, results):
            expected = local.model.predict(row[None])[0]
            np.testing.assert_allclose(result.output, expected,
                                       rtol=1e-9, atol=1e-12)

    def test_oversized_payloads_fall_back_to_pipe(self, mlp_checkpoint, rng):
        """Payloads larger than a ring slot must still serve correctly
        (pickled over the control pipe) and be counted."""
        local = InferenceEngine(load_frozen(mlp_checkpoint))
        inputs = rng.standard_normal((6, 32))  # one row = 256 B > 128 B slot
        specs = [mlp_spec(mlp_checkpoint)]
        config = ClusterConfig(
            batching=BatchingConfig(max_batch_size=2, max_delay_ms=5.0),
            slot_size=128, ring_slots=2)
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            outputs = [f.result(timeout=60).output for f in futures]
            stats = cluster.stats()
        assert stats.oversized_transfers > 0
        for row, output in zip(inputs, outputs):
            np.testing.assert_allclose(output, local.model.predict(row[None])[0],
                                       rtol=1e-9, atol=1e-12)


class TestRoutingAndFamilies:
    def test_round_robin_uses_every_shard(self, mlp_checkpoint, rng):
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=1,
                                                       max_delay_ms=0.0))
        with ShardedServer(specs, config) as cluster:
            for _ in range(8):
                cluster.predict(rng.standard_normal(32), timeout=60)
            shard_requests = [s.completed for s in cluster.stats().shards]
        assert shard_requests == [4, 4]

    def test_least_loaded_routing_serves_correctly(self, mlp_checkpoint, rng):
        local = InferenceEngine(load_frozen(mlp_checkpoint))
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        config = ClusterConfig(routing="least_loaded",
                               batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        inputs = rng.standard_normal((16, 32))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            outputs = [f.result(timeout=60).output for f in futures]
        for row, output in zip(inputs, outputs):
            np.testing.assert_allclose(output, local.model.predict(row[None])[0],
                                       rtol=1e-9, atol=1e-12)

    def test_multiple_families_route_by_model(self, mlp_checkpoint, tmp_path, rng):
        other_checkpoint = str(build_mlp_checkpoint(tmp_path / "other.npz",
                                                    seed=9))
        local_a = InferenceEngine(load_frozen(mlp_checkpoint))
        local_b = InferenceEngine(load_frozen(other_checkpoint))
        specs = [mlp_spec(mlp_checkpoint, model="a"),
                 mlp_spec(other_checkpoint, model="b")]
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        row = rng.standard_normal(32)
        with ShardedServer(specs, config) as cluster:
            assert cluster.models == ("a", "b")
            out_a = cluster.predict(row, model="a", timeout=60).output
            out_b = cluster.predict(row, model="b", timeout=60).output
            with pytest.raises(InvalidRequest, match="unknown model"):
                cluster.submit(row, model="zebra")
            with pytest.raises(InvalidRequest, match="must name one"):
                cluster.submit(row)  # ambiguous: two families hosted
        assert np.array_equal(out_a, local_a.model.predict(row[None])[0])
        assert np.array_equal(out_b, local_b.model.predict(row[None])[0])
        assert not np.array_equal(out_a, out_b)  # different weights served

    def test_token_buckets_have_shard_affinity(self, seq_checkpoint, rng):
        """All requests padded to one bucket land on one shard, so each
        worker sees a single batch geometry per bucket (padding locality
        survives sharding)."""
        specs = [WorkerSpec(checkpoint=seq_checkpoint, model="seq",
                            warmup_shapes=((1, 6),), warmup_dtype="int64")
                 for _ in range(2)]
        config = ClusterConfig(batching=BatchingConfig(
            max_batch_size=4, max_delay_ms=2.0, pad_lengths=(6, 12),
            pad_value=0))
        with ShardedServer(specs, config) as cluster:
            short = [cluster.submit(rng.integers(3, 20, size=4))
                     for _ in range(6)]
            long = [cluster.submit(rng.integers(3, 20, size=10))
                    for _ in range(6)]
            for future in short + long:
                future.result(timeout=60)
            shard_requests = [s.completed for s in cluster.stats().shards]
        # Bucket 0 (len<=6) -> shard 0, bucket 1 (len<=12) -> shard 1.
        assert shard_requests == [6, 6]


class TestAdmissionControl:
    def test_reject_policy_bounds_cluster_queue(self, mlp_checkpoint, rng):
        # A scheduled latency fault holds the worker busy long enough that
        # the second submit deterministically finds the cluster at capacity.
        plan = FaultPlan(latency_calls=(0,), latency_ms=500.0)
        specs = [mlp_spec(mlp_checkpoint, fault_plan=plan)]
        config = ClusterConfig(
            batching=BatchingConfig(max_batch_size=1, max_delay_ms=0.0),
            max_queue_depth=1, admission_policy="reject")
        with ShardedServer(specs, config) as cluster:
            first = cluster.submit(rng.standard_normal(32))
            with pytest.raises(ServerOverloaded, match="capacity"):
                cluster.submit(rng.standard_normal(32))
            first.result(timeout=60)
            # Capacity released on completion: admission works again.
            cluster.predict(rng.standard_normal(32), timeout=60)
            assert cluster.stats().rejected >= 1

    def test_block_policy_times_out(self, mlp_checkpoint, rng):
        plan = FaultPlan(latency_calls=(0,), latency_ms=500.0)
        specs = [mlp_spec(mlp_checkpoint, fault_plan=plan)]
        config = ClusterConfig(
            batching=BatchingConfig(max_batch_size=1, max_delay_ms=0.0),
            max_queue_depth=1, admission_policy="block", block_timeout_ms=50.0)
        with ShardedServer(specs, config) as cluster:
            first = cluster.submit(rng.standard_normal(32))
            with pytest.raises(ServerOverloaded):
                cluster.submit(rng.standard_normal(32))
            first.result(timeout=60)


class TestSupervisionAndChaos:
    def test_worker_exit_loses_no_healthy_request(self, mlp_checkpoint, rng):
        """Acceptance criterion: kill a worker process mid-load (the
        worker_exit fault = os._exit inside the worker, no cleanup) and
        account for every request -- each either completes (possibly after
        the respawn) or fails fast with a descriptive EngineCrash.  Nothing
        hangs, nothing is silently dropped, and the cluster ends healthy."""
        plan = FaultPlan(exit_calls=(2,), exit_code=43)
        specs = [mlp_spec(mlp_checkpoint, fault_plan=plan),
                 mlp_spec(mlp_checkpoint)]
        config = ClusterConfig(batching=BatchingConfig(
            max_batch_size=4, max_delay_ms=2.0,
            engine_restart_limit=3, restart_backoff_ms=10.0))
        inputs = rng.standard_normal((40, 32))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(row) for row in inputs]
            completed, crashed = 0, 0
            for future in futures:
                try:
                    future.result(timeout=120)
                    completed += 1
                except (EngineCrash, ServingError) as error:
                    crashed += 1
                    assert str(error)  # descriptive, not a bare failure
            stats = cluster.stats()
            # Every request resolved one way or the other...
            assert completed + crashed == len(inputs)
            # ...only the batch in flight at the kill could have failed...
            assert 0 < crashed <= 4
            # ...the dead worker was respawned and re-warmed...
            assert stats.worker_respawns >= 1
            assert stats.engine_crashes >= 1
            # ...and the cluster serves healthily again afterwards.
            for row in inputs[:8]:
                cluster.predict(row, timeout=60)
            assert cluster.stats().state == "healthy"
            assert all(s.state == "healthy" for s in cluster.stats().shards)

    def test_startup_failure_raises_and_leaks_nothing(self, tmp_path):
        before = repro_ring_segments()
        spec = WorkerSpec(checkpoint=str(tmp_path / "missing.npz"),
                          model="ghost")
        with pytest.raises(WorkerStartupError, match="ghost"):
            ShardedServer([spec], ClusterConfig(spawn_timeout_s=60.0))
        assert repro_ring_segments() <= before


class TestStatsAndLifecycle:
    def test_stats_aggregate_with_per_shard_entries(self, mlp_checkpoint, rng):
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        config = ClusterConfig(batching=BatchingConfig(max_batch_size=4,
                                                       max_delay_ms=2.0))
        with ShardedServer(specs, config) as cluster:
            futures = [cluster.submit(rng.standard_normal(32))
                       for _ in range(16)]
            for future in futures:
                future.result(timeout=60)
            stats = cluster.stats()
        assert isinstance(stats, ServerStats)
        assert stats.workers == 2 and len(stats.shards) == 2
        assert stats.completed == 16
        assert sum(s.completed for s in stats.shards) == 16
        assert stats.state == "healthy"
        assert stats.latency_ms_p95 >= stats.latency_ms_p50 > 0
        assert all(isinstance(s, ServerStats) and s.shards == ()
                   for s in stats.shards)
        rendered = stats.as_dict()
        assert rendered["workers"] == 2 and len(rendered["shards"]) == 2

    def test_close_releases_every_segment_and_refuses_new_work(
            self, mlp_checkpoint, rng):
        before = repro_ring_segments()
        specs = [mlp_spec(mlp_checkpoint) for _ in range(2)]
        cluster = ShardedServer(specs, ClusterConfig())
        try:
            if SHM_DIR.is_dir():
                assert len(repro_ring_segments()) >= len(before) + 4
            cluster.predict(rng.standard_normal(32), timeout=60)
        finally:
            cluster.close()
        assert repro_ring_segments() <= before  # nothing leaked
        with pytest.raises(ServerClosed):
            cluster.submit(rng.standard_normal(32))
        cluster.close()  # idempotent
