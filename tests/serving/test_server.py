"""Dynamic-batching server invariants: ordering, timeout flush, bucketing."""

import threading
import time

import numpy as np
import pytest

from repro.core.bfp import BFPConfig
from repro.models import MLP, transformer_small
from repro.serving import (
    BatchingConfig,
    InferenceEngine,
    InferenceServer,
    ServerStats,
    freeze,
)
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)


def make_engine(rng_seed=0):
    model = MLP(32, [16], 4, rng=np.random.default_rng(rng_seed))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    engine = InferenceEngine(freeze(model))
    engine.warmup(np.zeros((1, 32)))
    return engine


def make_seq_engine(rng_seed=0, vocab=20, max_length=12):
    model = transformer_small(vocab_size=vocab, max_length=max_length,
                              rng=np.random.default_rng(rng_seed))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    frozen = freeze(model, meta={"bos_index": 1, "eos_index": 2})
    return InferenceEngine(frozen)


class TestOrderingAndCorrectness:
    def test_results_map_to_their_requests(self, rng):
        engine = make_engine()
        inputs = rng.standard_normal((40, 32))
        with InferenceServer(engine, BatchingConfig(max_batch_size=8,
                                                    max_delay_ms=20.0)) as server:
            futures = [server.submit(inputs[i]) for i in range(len(inputs))]
            results = [f.result(timeout=10) for f in futures]
        for i, result in enumerate(results):
            expected = engine.model.predict(inputs[i][None])[0]
            np.testing.assert_allclose(result.output, expected, rtol=1e-9, atol=1e-12)

    def test_batches_bounded_by_max_batch_size(self, rng):
        engine = make_engine()
        inputs = rng.standard_normal((30, 32))
        with InferenceServer(engine, BatchingConfig(max_batch_size=4,
                                                    max_delay_ms=50.0)) as server:
            futures = [server.submit(row) for row in inputs]
            results = [f.result(timeout=10) for f in futures]
        assert all(r.timing.batch_size <= 4 for r in results)
        assert max(r.timing.batch_size for r in results) > 1  # coalescing happened

    def test_sync_predict(self, rng):
        engine = make_engine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=4,
                                                    max_delay_ms=1.0)) as server:
            result = server.predict(rng.standard_normal(32), timeout=10)
        assert result.output.shape == (4,)
        assert result.timing.total_ms >= result.timing.compute_ms


class TestTimeoutFlush:
    def test_single_request_flushes_on_timeout(self, rng):
        engine = make_engine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=64,
                                                    max_delay_ms=10.0)) as server:
            start = time.perf_counter()
            result = server.submit(rng.standard_normal(32)).result(timeout=10)
            elapsed_ms = (time.perf_counter() - start) * 1e3
        assert result.timing.batch_size == 1
        # The flush must wait for the configured delay, not block forever.
        assert elapsed_ms >= 5.0

    def test_trickled_requests_all_complete(self, rng):
        engine = make_engine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=64,
                                                    max_delay_ms=5.0)) as server:
            futures = []
            for _ in range(5):
                futures.append(server.submit(rng.standard_normal(32)))
                time.sleep(0.002)
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == 5

    def test_close_flushes_pending(self, rng):
        engine = make_engine()
        server = InferenceServer(engine, BatchingConfig(max_batch_size=64,
                                                        max_delay_ms=10_000.0))
        future = server.submit(rng.standard_normal(32))
        server.close()
        assert future.result(timeout=1).output.shape == (4,)
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(rng.standard_normal(32))


class TestBucketedPadding:
    def test_variable_lengths_share_padded_buckets(self, rng):
        engine = make_seq_engine()
        config = BatchingConfig(max_batch_size=8, max_delay_ms=30.0,
                                pad_lengths=(6, 10), pad_value=0)
        lengths = [4, 5, 6, 8, 9, 10, 3, 7]
        requests = [rng.integers(3, 20, size=length) for length in lengths]
        with InferenceServer(engine, config) as server:
            futures = [server.submit(request) for request in requests]
            results = [f.result(timeout=30) for f in futures]
        for request, result in zip(requests, results):
            bucket_length = 6 if len(request) <= 6 else 10
            assert result.timing.bucket == ("tokens", bucket_length)
            padded = np.pad(request, (0, bucket_length - len(request)))
            expected = engine.model.predict(padded[None])[0]
            np.testing.assert_array_equal(result.output, expected)

    def test_oversized_token_request_rejected(self, rng):
        engine = make_seq_engine()
        config = BatchingConfig(max_batch_size=4, max_delay_ms=5.0, pad_lengths=(6,))
        with InferenceServer(engine, config) as server:
            with pytest.raises(ValueError, match="exceeds the largest bucket"):
                server.submit(rng.integers(3, 20, size=9))

    def test_mixed_shapes_never_mix_batches(self, rng):
        engine = make_engine()
        # Same feature count reshaped differently must not share a batch.
        flat = rng.standard_normal(32)
        square = rng.standard_normal((2, 16))
        with InferenceServer(engine, BatchingConfig(max_batch_size=8,
                                                    max_delay_ms=10.0)) as server:
            result_flat = server.submit(flat).result(timeout=10)
            result_square = server.submit(square).result(timeout=10)
        assert result_flat.timing.bucket != result_square.timing.bucket


class GatedEngine:
    """Echoes its batch once ``release`` is set; ``started`` marks entry."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.rows = 0

    def predict(self, batch):
        self.started.set()
        assert self.release.wait(10)
        self.rows += len(batch)
        return np.asarray(batch)


class TestAccountingAndErrors:
    def test_stats_aggregate(self, rng):
        engine = make_engine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=8,
                                                    max_delay_ms=5.0)) as server:
            futures = [server.submit(rng.standard_normal(32)) for _ in range(16)]
            for future in futures:
                future.result(timeout=10)
            stats = server.stats()
        # stats() is a typed ServerStats dataclass (shared with the sharded
        # server); attribute access is the API, as_dict() the plain-dict view.
        assert isinstance(stats, ServerStats)
        assert stats.completed == 16
        assert stats.batches >= 2
        assert stats.latency_ms_p95 >= stats.latency_ms_p50 > 0
        assert stats.throughput_rps > 0
        assert stats.workers == 1 and stats.shards == ()
        assert stats.as_dict()["batches"] == stats.batches
        with pytest.raises(AttributeError):
            stats.no_such_counter
        assert stats.as_dict()["completed"] == 16

    def test_cancelled_requests_never_reach_the_engine(self):
        engine = GatedEngine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=1)) as server:
            first = server.submit(np.zeros(4))
            assert engine.started.wait(10)
            cancelled = [server.submit(np.ones(4)) for _ in range(3)]
            assert all(future.cancel() for future in cancelled)
            engine.release.set()
            first.result(timeout=10)
        stats = server.stats()
        assert engine.rows == 1
        assert stats.completed == 1
        assert stats.failed == 3
        assert stats.queue_depth == 0

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_request_cancelled_mid_batch_counts_as_failed(self, value):
        """Also when its output row is non-finite and fails validation."""
        engine = GatedEngine()
        config = BatchingConfig(max_batch_size=1, validate_requests=False,
                                validate_outputs=True)
        with InferenceServer(engine, config) as server:
            future = server.submit(np.full(4, value))
            assert engine.started.wait(10)
            assert future.cancel()
            engine.release.set()
        stats = server.stats()
        assert engine.rows == 1
        assert stats.completed == 0
        assert stats.failed == 1
        assert stats.nonfinite_outputs == int(np.isnan(value))
        assert np.isnan(stats.latency_ms_mean)
        assert stats.queue_depth == 0

    def test_engine_failure_propagates_to_futures(self):
        engine = make_engine()
        with InferenceServer(engine, BatchingConfig(max_batch_size=4,
                                                    max_delay_ms=1.0)) as server:
            future = server.submit(np.zeros((7,)))  # wrong feature count
            with pytest.raises(ValueError):
                future.result(timeout=10)

    def test_concurrent_submitters(self, rng):
        engine = make_engine()
        inputs = rng.standard_normal((24, 32))
        outputs = {}
        errors = []

        def client(index):
            try:
                result = server.predict(inputs[index], timeout=20)
                outputs[index] = result.output
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        with InferenceServer(engine, BatchingConfig(max_batch_size=6,
                                                    max_delay_ms=10.0)) as server:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(24)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(outputs) == 24
        for index, output in outputs.items():
            expected = engine.model.predict(inputs[index][None])[0]
            np.testing.assert_allclose(output, expected, rtol=1e-9, atol=1e-12)
