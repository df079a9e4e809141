"""Chaos suite: the server's robustness layer under injected faults.

Every test drives the real ``InferenceServer`` through a
``FaultInjectingEngine`` (deterministic: explicit call schedules, seeded
rates, or a ``threading.Event`` gate that freezes the engine at a known
point) and asserts the isolation/recovery invariants the robustness layer
claims: healthy requests survive poisoned batches, deadlines shed cleanly,
admission control bounds the queue, crashed engines recover under
supervision, and no code path ever leaks an unresolved future.

The lifecycle tests (``TestLifecycleRaces``) run on both front ends, which
share one worker lifecycle: the ``GenerationServer`` is frozen at a known
point by the same kind of gate, on its decode step.
"""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.bfp import BFPConfig
from repro.models import MLP, transformer_small
from repro.serving import (
    BatchingConfig,
    DeadlineExceeded,
    EngineCrash,
    FaultInjectingEngine,
    FaultPlan,
    GenerationConfig,
    GenerationServer,
    InferenceEngine,
    InferenceServer,
    InvalidRequest,
    NonFiniteOutput,
    ServerClosed,
    ServerOverloaded,
    ServerUnavailable,
    ServingError,
    TransientEngineError,
    freeze,
)
from repro.serving.server import CLOSE_GRACE_S
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)
POISON = 777.0  # finite on purpose: passes submit validation, crashes the "kernel"


def make_engine(seed=0):
    model = MLP(32, [16], 4, rng=np.random.default_rng(seed))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    engine = InferenceEngine(freeze(model))
    engine.warmup(np.zeros((1, 32)))
    return engine


def faulty_engine(plan=None, gate=None, seed=0):
    return FaultInjectingEngine(make_engine(seed), plan, gate=gate)


def wait_until(predicate, timeout=10.0):
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestSubmitValidation:
    def test_nonfinite_payload_rejected(self):
        engine = make_engine()
        with InferenceServer(engine) as server:
            bad = np.zeros(32)
            bad[3] = np.nan
            with pytest.raises(InvalidRequest, match="non-finite"):
                server.submit(bad)

    def test_empty_and_non_numeric_payloads_rejected(self):
        engine = make_engine()
        with InferenceServer(engine) as server:
            with pytest.raises(InvalidRequest, match="empty"):
                server.submit(np.zeros((0, 32)))
            with pytest.raises(InvalidRequest, match="not numeric"):
                server.submit(np.array(["a", "b"]))

    def test_invalid_deadline_rejected(self):
        engine = make_engine()
        with InferenceServer(engine) as server:
            with pytest.raises(InvalidRequest, match="deadline_ms"):
                server.submit(np.zeros(32), deadline_ms=-5.0)

    def test_validation_can_be_disabled(self):
        engine = make_engine()
        config = BatchingConfig(max_batch_size=2, max_delay_ms=1.0,
                                validate_requests=False)
        with InferenceServer(engine, config) as server:
            bad = np.zeros(32)
            bad[0] = np.inf
            result = server.predict(bad, timeout=10)  # engine tolerates it
        assert result.output.shape == (4,)

    def test_invalid_request_is_a_value_error(self):
        assert issubclass(InvalidRequest, ValueError)
        assert issubclass(InvalidRequest, ServingError)


class TestPoisonIsolation:
    def test_full_batch_with_poison_isolates_exactly_the_offender(self, rng):
        """Deterministic single contaminated batch: plug the engine with one
        request, coalesce a full batch behind it, poison one member."""
        gate = threading.Event()
        engine = faulty_engine(FaultPlan(poison_marker=POISON), gate=gate)
        inputs = rng.standard_normal((8, 32))
        inputs[3, 0] = POISON
        config = BatchingConfig(max_batch_size=8, max_delay_ms=1.0, max_retries=1,
                                retry_backoff_ms=1.0)
        with InferenceServer(engine, config) as server:
            plug = server.submit(rng.standard_normal(32))
            assert wait_until(lambda: engine.entered == 1)  # plug is in flight
            futures = [server.submit(row) for row in inputs]
            gate.set()
            assert plug.result(timeout=10).output.shape == (4,)
            for index, future in enumerate(futures):
                if index == 3:
                    with pytest.raises(TransientEngineError, match="poison"):
                        future.result(timeout=10)
                else:
                    result = future.result(timeout=10)
                    expected = engine.model.predict(inputs[index][None])[0]
                    np.testing.assert_array_equal(result.output, expected)
                    assert result.timing.retries >= 1  # rode through a bisection
            stats = server.stats()
        assert stats.failed_requests == 1
        assert stats.requeues > 0
        assert stats.state == "healthy"
        assert engine.log.poison_hits >= 2  # original batch + poisoned halves

    def test_one_in_n_poison_every_healthy_request_resolves(self, rng):
        """The acceptance invariant: with 1-in-N requests poisoned, every
        healthy request in every contaminated batch still resolves."""
        engine = faulty_engine(FaultPlan(poison_marker=POISON))
        inputs = rng.standard_normal((24, 32))
        poison_indices = set(range(0, 24, 8))  # 1 in 8
        for index in poison_indices:
            inputs[index, 0] = POISON
        config = BatchingConfig(max_batch_size=8, max_delay_ms=5.0, max_retries=1,
                                retry_backoff_ms=1.0)
        with InferenceServer(engine, config) as server:
            futures = [server.submit(row) for row in inputs]
            for index, future in enumerate(futures):
                if index in poison_indices:
                    with pytest.raises(TransientEngineError):
                        future.result(timeout=30)
                else:
                    result = future.result(timeout=30)
                    expected = engine.model.predict(inputs[index][None])[0]
                    np.testing.assert_array_equal(result.output, expected)
            stats = server.stats()
        assert stats.failed_requests == len(poison_indices)
        assert stats.requests == 24 - len(poison_indices)


class TestTransientErrors:
    def test_singleton_transient_failure_retries_and_succeeds(self, rng):
        engine = faulty_engine(FaultPlan(transient_calls=(0,)))
        config = BatchingConfig(max_batch_size=4, max_delay_ms=1.0, max_retries=2,
                                retry_backoff_ms=1.0)
        with InferenceServer(engine, config) as server:
            result = server.predict(rng.standard_normal(32), timeout=10)
        assert result.timing.retries == 1
        assert engine.log.transient_errors == 1

    def test_retry_budget_exhaustion_fails_with_engine_error(self, rng):
        engine = faulty_engine(FaultPlan(transient_calls=(0, 1, 2, 3)))
        config = BatchingConfig(max_batch_size=4, max_delay_ms=1.0, max_retries=2,
                                retry_backoff_ms=1.0)
        with InferenceServer(engine, config) as server:
            future = server.submit(rng.standard_normal(32))
            with pytest.raises(TransientEngineError):
                future.result(timeout=10)
            stats = server.stats()
        assert stats.failed_requests == 1
        assert stats.requeues == 2  # bounded by max_retries


class TestNaNOutputIsolation:
    def test_poisoned_output_row_fails_only_that_request(self, rng):
        gate = threading.Event()
        engine = faulty_engine(FaultPlan(nan_calls=(1,)), gate=gate)
        config = BatchingConfig(max_batch_size=4, max_delay_ms=1.0,
                                validate_outputs=True)
        inputs = rng.standard_normal((4, 32))
        with InferenceServer(engine, config) as server:
            plug = server.submit(rng.standard_normal(32))        # engine call 0
            assert wait_until(lambda: engine.entered == 1)       # plug in flight
            futures = [server.submit(row) for row in inputs]     # engine call 1
            gate.set()
            assert plug.result(timeout=10).output.shape == (4,)
            for index, future in enumerate(futures):
                if index == 1:  # nan row = call_index % batch = 1
                    with pytest.raises(NonFiniteOutput, match="NaN"):
                        future.result(timeout=10)
                else:
                    result = future.result(timeout=10)
                    expected = engine.model.predict(inputs[index][None])[0]
                    np.testing.assert_array_equal(result.output, expected)
            stats = server.stats()
        assert stats.nonfinite_outputs == 1
        assert stats.requests == 4  # plug + 3 healthy


class TestDeadlines:
    def test_expired_requests_shed_before_assembly_in_order(self, rng):
        gate = threading.Event()
        engine = faulty_engine(gate=gate)
        config = BatchingConfig(max_batch_size=1, max_delay_ms=1.0)
        with InferenceServer(engine, config) as server:
            blocker = server.submit(rng.standard_normal(32))
            tight = server.submit(rng.standard_normal(32), deadline_ms=40.0)
            loose = server.submit(rng.standard_normal(32), deadline_ms=10_000.0)
            free = server.submit(rng.standard_normal(32))
            time.sleep(0.1)  # tight expires while the engine is held
            gate.set()
            assert blocker.result(timeout=10).output.shape == (4,)
            with pytest.raises(DeadlineExceeded, match="expired"):
                tight.result(timeout=10)
            loose_result = loose.result(timeout=10)
            assert loose_result.timing.deadline_ms == 10_000.0
            assert free.result(timeout=10).timing.deadline_ms is None
            stats = server.stats()
        assert stats.shed_deadline == 1
        # The shed request never cost an engine call.
        assert engine.log.calls == 3

    def test_watermark_sheds_expired_backlog(self, rng):
        gate = threading.Event()
        engine = faulty_engine(gate=gate)
        config = BatchingConfig(max_batch_size=64, max_delay_ms=50.0,
                                shed_watermark=2)
        with InferenceServer(engine, config) as server:
            blocker = server.submit(rng.standard_normal(32))
            doomed = [server.submit(rng.standard_normal(32), deadline_ms=10.0)
                      for _ in range(4)]
            time.sleep(0.08)
            gate.set()
            assert blocker.result(timeout=10).output.shape == (4,)
            for future in doomed:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=10)
            stats = server.stats()
        assert stats.shed_deadline == 4
        assert stats.shed_watermark >= 1  # proactively shed, not at assembly


class TestAdmissionControl:
    def test_reject_policy_raises_at_capacity(self, rng):
        gate = threading.Event()
        engine = faulty_engine(gate=gate)
        config = BatchingConfig(max_batch_size=8, max_delay_ms=1.0,
                                max_queue_depth=2, admission_policy="reject")
        with InferenceServer(engine, config) as server:
            first = server.submit(rng.standard_normal(32))
            second = server.submit(rng.standard_normal(32))
            with pytest.raises(ServerOverloaded, match="capacity"):
                server.submit(rng.standard_normal(32))
            gate.set()
            assert first.result(timeout=10).output.shape == (4,)
            assert second.result(timeout=10).output.shape == (4,)
            # Capacity released on resolution: admission works again.
            assert server.predict(rng.standard_normal(32), timeout=10) is not None
            stats = server.stats()
        assert stats.rejected == 1

    def test_block_policy_times_out_then_raises(self, rng):
        gate = threading.Event()
        engine = faulty_engine(gate=gate)
        config = BatchingConfig(max_batch_size=8, max_delay_ms=1.0,
                                max_queue_depth=1, admission_policy="block",
                                block_timeout_ms=60.0)
        with InferenceServer(engine, config) as server:
            held = server.submit(rng.standard_normal(32))
            start = time.perf_counter()
            with pytest.raises(ServerOverloaded):
                server.submit(rng.standard_normal(32))
            waited = time.perf_counter() - start
            gate.set()
            held.result(timeout=10)
        assert waited >= 0.05  # actually blocked for the timeout

    def test_block_policy_admits_when_capacity_frees(self, rng):
        gate = threading.Event()
        engine = faulty_engine(gate=gate)
        config = BatchingConfig(max_batch_size=8, max_delay_ms=1.0,
                                max_queue_depth=1, admission_policy="block",
                                block_timeout_ms=5000.0)
        with InferenceServer(engine, config) as server:
            held = server.submit(rng.standard_normal(32))
            threading.Timer(0.03, gate.set).start()
            # Blocks until the first request resolves, then is admitted.
            result = server.predict(rng.standard_normal(32), timeout=10)
            held.result(timeout=10)
        assert result.output.shape == (4,)


class TestEngineSupervision:
    def test_crash_recovers_via_rewarm_and_serves_again(self, rng):
        engine = faulty_engine(FaultPlan(crash_calls=(0,), rewarms_to_recover=1))
        config = BatchingConfig(max_batch_size=4, max_delay_ms=1.0,
                                engine_restart_limit=2, restart_backoff_ms=1.0)
        with InferenceServer(engine, config) as server:
            doomed = server.submit(rng.standard_normal(32))
            with pytest.raises(EngineCrash, match="crashed while serving"):
                doomed.result(timeout=10)
            assert wait_until(lambda: server.stats().state == "healthy")
            # Subsequent traffic is served by the restarted engine.
            result = server.predict(rng.standard_normal(32), timeout=10)
            assert result.output.shape == (4,)
            stats = server.stats()
        assert stats.engine_crashes == 1
        assert stats.engine_restarts == 1
        assert engine.log.rewarm_attempts >= 1

    def test_unrecoverable_crash_refuses_new_work(self, rng):
        engine = faulty_engine(FaultPlan(crash_calls=(0,), rewarms_to_recover=5))
        config = BatchingConfig(max_batch_size=4, max_delay_ms=1.0,
                                engine_restart_limit=1, restart_backoff_ms=1.0)
        server = InferenceServer(engine, config)
        doomed = server.submit(rng.standard_normal(32))
        with pytest.raises(EngineCrash):
            doomed.result(timeout=10)
        assert wait_until(lambda: server.stats().state == "failed")
        with pytest.raises(ServerUnavailable, match="rewarm attempts failed"):
            server.submit(rng.standard_normal(32))
        server.close()  # clean close: handled failure, not a worker bug

    def test_recovery_under_sustained_chaos_traffic(self, rng):
        engine = faulty_engine(FaultPlan(seed=7, transient_rate=0.08,
                                         crash_calls=(5,), rewarms_to_recover=1))
        config = BatchingConfig(max_batch_size=8, max_delay_ms=2.0, max_retries=3,
                                retry_backoff_ms=1.0, engine_restart_limit=3,
                                restart_backoff_ms=1.0)
        inputs = rng.standard_normal((60, 32))
        failures = 0
        with InferenceServer(engine, config) as server:
            futures = [server.submit(row) for row in inputs]
            for future in futures:
                try:
                    future.result(timeout=30)  # every future must resolve
                except (ServingError, EngineCrash, TransientEngineError):
                    failures += 1
            assert wait_until(lambda: server.stats().state == "healthy")
            # The server recovered: follow-up traffic completes.
            follow_up = [server.submit(row) for row in inputs[:10]]
            resolved = sum(1 for f in follow_up
                           if not isinstance(f.exception(timeout=30), Exception))
            stats = server.stats()
        assert engine.log.crashes == 1
        assert stats.engine_restarts == 1
        assert failures <= len(inputs) // 6  # transient blips mostly retried away
        assert resolved >= 9


class BatchingFrontEnd:
    """The batching server over a gated engine.  A long flush delay keeps
    submissions queued until ``close()`` drains them."""

    def __init__(self, _seq2seq):
        self.gate = threading.Event()
        self.gate.set()
        self.server = InferenceServer(
            faulty_engine(gate=self.gate),
            BatchingConfig(max_batch_size=64, max_delay_ms=10_000.0))
        self._rng = np.random.default_rng(0)

    def submit(self, index=0):
        # Two shapes: two buckets, so a drain makes two engine calls.
        shape = (32,) if index % 2 == 0 else (2, 16)
        return self.server.submit(self._rng.standard_normal(shape))

    def break_worker(self):
        def boom(payload):
            raise RuntimeError("injected worker bug")

        self.server._bucket_key = boom

    @staticmethod
    def check(result):
        # The MLP flattens either payload shape to its 32 inputs.
        assert result.output.shape == (4,)

    def leaks_nothing(self):
        return self.server.queue_depth == 0


class BrokenPrefill:
    """A frozen seq2seq whose prefill raises: a bug in the model code the
    scheduler runs."""

    def __init__(self, root):
        self._root = root

    def __getattr__(self, name):
        return getattr(self._root, name)

    def prefill(self, src):
        raise RuntimeError("injected worker bug")


class GenerationFrontEnd:
    """The generation server with a gate on its decode step.  One sequence
    decodes at a time, so later submissions wait in its queue."""

    def __init__(self, seq2seq):
        self.gate = threading.Event()
        self.gate.set()
        self.server = GenerationServer(seq2seq, GenerationConfig(max_active=1))
        decode_step = self.server._decode_step

        def gated_decode_step():
            self.gate.wait()
            decode_step()

        self.server._decode_step = gated_decode_step

    def submit(self, index=0):
        return self.server.submit(np.arange(3, 7 + index % 3), max_new_tokens=8)

    def break_worker(self):
        self.server.root = BrokenPrefill(self.server.root)

    @staticmethod
    def check(result):
        # BOS, then 1 to max_new_tokens generated tokens.
        assert result.tokens[0] == 1 and 2 <= len(result.tokens) <= 9

    def leaks_nothing(self):
        cache = self.server.cache
        return cache.free_blocks == cache.total_blocks


@pytest.fixture(scope="module")
def seq2seq():
    model = transformer_small(vocab_size=30, max_length=24,
                              rng=np.random.default_rng(11))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 8)
    model.eval()
    return freeze(model, meta={"bos_index": 1, "eos_index": 2})


@pytest.fixture(params=[BatchingFrontEnd, GenerationFrontEnd],
                ids=["inference", "generation"])
def front(request, seq2seq):
    front = request.param(seq2seq)
    yield front
    front.gate.set()
    try:
        front.server.close(drain=False)
    except RuntimeError:
        pass  # the test already checked what close() raises


def count_resolutions(futures):
    resolutions = Counter()
    for future in futures:
        future.add_done_callback(lambda f: resolutions.update([id(f)]))
    return resolutions


class TestLifecycleRaces:
    """The one ``close()`` contract and worker-death capture, on both
    front ends."""

    def test_submit_during_close_raises_and_leaks_nothing(self, front):
        front.gate.clear()
        held = front.submit()
        closer = threading.Thread(target=front.server.close)
        closer.start()
        assert wait_until(front.server._closing)
        with pytest.raises(ServerClosed, match="closed"):
            front.submit()
        front.gate.set()
        closer.join(timeout=15)
        assert not closer.is_alive()
        front.check(held.result(timeout=10))
        assert front.leaks_nothing()

    def test_close_drains_pending_batches(self, front):
        futures = [front.submit(index) for index in range(6)]
        front.server.close()
        for future in futures:
            front.check(future.result(timeout=1))
        assert front.leaks_nothing()

    def test_close_without_drain_cancels_pending(self, front):
        front.gate.clear()
        futures = [front.submit(index) for index in range(3)]
        closer = threading.Thread(target=front.server.close,
                                  kwargs={"drain": False})
        closer.start()
        assert wait_until(front.server._closing)
        front.gate.set()
        closer.join(timeout=15)
        assert not closer.is_alive()
        for future in futures:
            with pytest.raises(ServerClosed, match="before request completed"):
                future.result(timeout=1)
        assert front.leaks_nothing()

    def test_close_timeout_zero_fails_queued_work_promptly(self, front):
        futures = [front.submit(index) for index in range(4)]
        started = time.monotonic()
        front.server.close(timeout=0)
        assert time.monotonic() - started < 0.5
        first = futures[0].exception(timeout=1)  # may be mid-call at close
        if first is None:
            front.check(futures[0].result())
        else:
            assert isinstance(first, ServerClosed)
        for future in futures[1:]:
            with pytest.raises(ServerClosed):
                future.result(timeout=1)
        assert front.leaks_nothing()

    def test_double_close_is_idempotent(self, front):
        future = front.submit()
        front.server.close()
        front.server.close()  # second close: no error, no hang
        front.check(future.result(timeout=1))

    def test_close_is_keyword_only(self, front):
        with pytest.raises(TypeError):
            front.server.close(True)

    def test_concurrent_closes_do_not_race(self, front):
        futures = [front.submit(index) for index in range(3)]
        errors = []

        def close_it():
            try:
                front.server.close()
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=close_it) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not errors
        for future in futures:
            front.check(future.result(timeout=1))

    def test_exit_after_an_exception_drains(self, front):
        futures = []
        with pytest.raises(ValueError, match="caller error"):
            with front.server:
                futures = [front.submit(index) for index in range(3)]
                raise ValueError("caller error")
        for future in futures:
            front.check(future.result(timeout=1))

    def test_worker_death_resolves_futures_and_close_raises(self, front):
        front.break_worker()
        future = front.submit()
        # A ServerUnavailable is a RuntimeError carrying the traceback.
        with pytest.raises(ServerUnavailable, match="injected worker bug"):
            future.result(timeout=10)  # future resolved, not leaked
        with pytest.raises(RuntimeError, match="injected worker bug"):
            front.server.close()  # raises with the worker's traceback
        with pytest.raises(ServerUnavailable, match="injected worker bug"):
            front.server.close()  # ... on every close
        assert "injected worker bug" in front.server.failure
        assert front.server.state == "failed"
        with pytest.raises(ServerClosed):
            front.submit()
        assert front.leaks_nothing()

    def test_drain_overrun_fails_the_rest_on_the_worker(self, front):
        """A call wedged past the close horizon: the worker, not close(),
        fails what it still holds once the call returns -- so a drain
        overrun cannot kill the worker or free what it is still using."""
        front.gate.clear()
        futures = [front.submit(index) for index in range(2)]
        resolutions = count_resolutions(futures)
        errors = []

        def close():
            try:
                front.server.close(timeout=0.1)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        closer = threading.Thread(target=close)
        started = time.monotonic()
        closer.start()
        try:
            time.sleep(0.6)  # past the horizon, inside the grace
            # The worker is still inside the wedged call: nothing it holds
            # is resolved or freed under it.
            assert closer.is_alive()
            assert not any(future.done() for future in futures)
            assert not front.leaks_nothing()
        finally:
            front.gate.set()
        closer.join(timeout=15)
        assert not closer.is_alive() and not errors
        assert time.monotonic() - started < 0.1 + CLOSE_GRACE_S
        assert front.server.failure is None
        assert all(resolutions[id(future)] == 1 for future in futures)
        if futures[0].exception() is None:  # the wedged call completed it
            front.check(futures[0].result())
        for future in futures[1:]:
            with pytest.raises(ServerClosed, match="before request completed"):
                future.result(timeout=1)
        assert front.leaks_nothing()

    def test_call_wedged_past_the_grace_makes_close_raise(self, front):
        front.gate.clear()
        futures = [front.submit(index) for index in range(2)]
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="did not exit within"):
            front.server.close(timeout=0.05)
        assert time.monotonic() - started >= 0.05 + CLOSE_GRACE_S - 0.01
        front.gate.set()
        assert wait_until(lambda: all(future.done() for future in futures))
        assert front.server.failure is None
        assert wait_until(front.leaks_nothing)


class TestWorkerExitFault:
    """The worker_exit fault: hard process death, scheduled deterministically.

    In-process tests must not actually die, so they inject a recording
    ``exit_hook``; the cluster suite (``test_cluster.py``) runs the same
    fault with the real ``os._exit`` inside a worker process.
    """

    def test_scheduled_exit_runs_hook_with_exit_code(self):
        recorded = []
        plan = FaultPlan(exit_calls=(1,), exit_code=17)
        engine = FaultInjectingEngine(make_engine(), plan,
                                      exit_hook=recorded.append)
        batch = np.zeros((2, 32))
        engine.predict(batch)  # call 0: clean
        with pytest.raises(EngineCrash, match="injected worker exit at call 1"):
            engine.predict(batch)
        assert recorded == [17]
        assert engine.log.worker_exits == 1
        # Unlike a crash fault, an exit leaves no sticky down state in the
        # wrapper -- a real exit destroys the process, and a hooked one
        # must not wedge the engine for later calls.
        engine.predict(batch)
        assert engine.log.calls == 3

    def test_rate_based_exit_is_deterministic(self):
        def exits_for(seed):
            plan = FaultPlan(seed=seed, exit_rate=0.3)
            engine = FaultInjectingEngine(make_engine(), plan,
                                          exit_hook=lambda code: None)
            fired = []
            for index in range(20):
                try:
                    engine.predict(np.zeros((1, 32)))
                except EngineCrash:
                    fired.append(index)
            return fired

        first, second = exits_for(5), exits_for(5)
        assert first == second  # same seed, same schedule
        assert first  # 20 calls at 30%: some exits certainly fired
        assert exits_for(6) != first  # different seed, different schedule

    def test_exit_rate_validated(self):
        with pytest.raises(ValueError, match="exit_rate"):
            FaultPlan(exit_rate=1.5)
