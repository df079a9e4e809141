"""The admission gate's contract, shared by every serving front end.

``InferenceServer``, ``ShardedServer`` and ``GenerationServer`` admit
through one :class:`~repro.serving.server.AdmissionGate`, and their configs
check the admission fields with one validator.  The concurrency contract is
tested by enumerating every ordering of a small scenario -- two submitters,
one ``close()`` and one caller cancel -- through injected hook points, in
the ``FaultPlan`` call-index idiom: an actor's k-th hook call ends its k-th
step, and a schedule says which actor takes the next step.  After every
ordering each future has resolved exactly once, the gate's capacity is whole
again, ``rejected`` equals the ``ServerOverloaded`` raised, the server is
alive, and the lock-order detector has recorded no cycle.
"""

import itertools
import queue
import sys
import threading
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.bfp import BFPConfig
from repro.devtools import lockcheck
from repro.models import transformer_small
from repro.serving import (
    BatchingConfig,
    ClusterConfig,
    GenerationConfig,
    GenerationServer,
    InferenceServer,
    ServerClosed,
    ServerOverloaded,
    freeze,
)
from repro.serving.server import AdmissionGate
from repro.training.schedules import FixedBFPSchedule

DEPTH = 1
SCENARIO = ("s1", "s1", "s2", "s2", "close", "cancel")
ORDERINGS = sorted(set(itertools.permutations(SCENARIO)))


class Interleaving:
    """Runs actor threads one step at a time, in the order of ``schedule``.

    ``point()`` is the hook: an actor's k-th call ends its k-th step and
    parks the actor until the schedule grants its next step.  Calls past an
    actor's last scheduled step, and calls from threads that are not
    actors (the server's own worker), pass straight through.
    """

    def __init__(self, schedule):
        self.schedule = tuple(schedule)
        self._steps = Counter(self.schedule)
        self._cond = threading.Condition()
        self._granted = Counter()
        self._points = Counter()
        self._done = set()
        self._local = threading.local()
        self.errors = {}

    def point(self) -> None:
        name = getattr(self._local, "name", None)
        if name is None:
            return
        with self._cond:
            index = self._points[name]
            self._points[name] += 1
            if index + 1 >= self._steps[name]:
                return
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._granted[name] > index + 1)

    def _actor(self, name, body) -> None:
        self._local.name = name
        try:
            body()
        except BaseException as error:  # noqa: BLE001 - reported by run()
            self.errors[name] = error
        finally:
            with self._cond:
                self._done.add(name)
                self._cond.notify_all()

    def run(self, actors) -> None:
        threads = []
        for name in self.schedule:
            with self._cond:
                self._granted[name] += 1
                step = self._granted[name]
                self._cond.notify_all()
            if step == 1:
                thread = threading.Thread(target=self._actor,
                                          args=(name, actors[name]), daemon=True)
                threads.append(thread)
                thread.start()
            with self._cond:
                assert self._cond.wait_for(
                    lambda: name in self._done or self._points[name] >= step,
                    timeout=10.0), f"{name} stuck in step {step} of {self.schedule}"
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive(), f"actor did not finish: {self.schedule}"


class HookedLock:
    """A server lock whose acquisition is a hook point of ``interleaving``."""

    def __init__(self, lock, interleaving):
        self._lock = lock
        self._interleaving = interleaving

    def __enter__(self):
        self._interleaving.point()
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class MirrorEngine:
    def predict(self, batch):
        return np.asarray(batch)


def frozen_seq2seq():
    model = transformer_small(vocab_size=30, max_length=24,
                              rng=np.random.default_rng(11))
    FixedBFPSchedule(4, config=BFPConfig(exponent_bits=8, group_size=16),
                     seed=0).prepare(model, 8)
    model.eval()
    return freeze(model, meta={"bos_index": 1, "eos_index": 2})


@pytest.fixture()
def lock_order():
    """Record lock order during the test (the suite-wide REPRO_LOCKCHECK
    fixture may already be recording)."""
    if lockcheck.installed():
        yield lockcheck
        return
    lockcheck.reset()
    lockcheck.install(raise_inline=False)
    try:
        yield lockcheck
    finally:
        lockcheck.uninstall()
        lockcheck.reset()


@pytest.fixture(scope="module")
def seq2seq():
    return frozen_seq2seq()


def make_inference_server(policy, _seq2seq):
    # A long flush delay keeps admitted requests queued until close().
    config = BatchingConfig(max_batch_size=8, max_delay_ms=10_000.0,
                            max_queue_depth=DEPTH, admission_policy=policy,
                            block_timeout_ms=2.0)
    server = InferenceServer(MirrorEngine(), config)
    return server, "_submit_lock", lambda: server.submit(np.ones(4))


def make_generation_server(policy, seq2seq):
    config = GenerationConfig(max_active=2, max_queue_depth=DEPTH,
                              admission_policy=policy, block_timeout_ms=2.0)
    server = GenerationServer(seq2seq, config)
    return server, "_lock", lambda: server.submit(np.array([3, 4, 5, 6]),
                                                  max_new_tokens=4)


def run_ordering(make_server, policy, seq2seq, schedule, drain):
    server, lock_name, submit = make_server(policy, seq2seq)
    interleaving = Interleaving(schedule)
    setattr(server, lock_name, HookedLock(getattr(server, lock_name), interleaving))
    outcomes = {}
    resolutions = Counter()

    def submitter(name):
        def body():
            try:
                future = submit()
            except (ServerOverloaded, ServerClosed) as error:
                outcomes[name] = error
                return
            outcomes[name] = future
            future.add_done_callback(lambda f: resolutions.update([id(f)]))
        return body

    def cancel():
        for name in ("s1", "s2"):
            if isinstance(outcomes.get(name), Future):
                outcomes[name].cancel()
                return

    interleaving.run({"s1": submitter("s1"), "s2": submitter("s2"),
                      "close": lambda: server.close(drain=drain),
                      "cancel": cancel})
    assert interleaving.errors == {}, schedule
    futures = [f for f in outcomes.values() if isinstance(f, Future)]
    for future in futures:
        assert future.done(), schedule
        assert resolutions[id(future)] == 1, schedule
    overloaded = sum(isinstance(o, ServerOverloaded) for o in outcomes.values())
    assert server.stats().rejected == overloaded, schedule
    if isinstance(server, GenerationServer):
        assert server.failure is None, schedule
        assert server.cache.free_blocks == server.cache.total_blocks, schedule
    # Capacity is whole again: exactly DEPTH admissions fit.
    releases = [server._gate.admit() for _ in range(DEPTH)]
    with pytest.raises(ServerOverloaded):
        server._gate.admit()
    for release in releases:
        release()


class TestGateInterleavings:
    @pytest.mark.parametrize("policy", ["reject", "block"])
    @pytest.mark.parametrize("make_server", [make_inference_server,
                                             make_generation_server],
                             ids=["inference", "generation"])
    def test_every_ordering_keeps_the_contract(self, make_server, policy,
                                               seq2seq, lock_order):
        assert len(ORDERINGS) == 180
        for index, schedule in enumerate(ORDERINGS):
            run_ordering(make_server, policy, seq2seq, schedule,
                         drain=bool(index % 2))
        lock_order.check()

    def test_release_runs_once_however_often_called(self):
        server = InferenceServer(MirrorEngine(), BatchingConfig(max_queue_depth=1))
        try:
            release = server._gate.admit()
            release()
            release()
            again = server._gate.admit()  # one unit, freed exactly once
            with pytest.raises(ServerOverloaded, match="at capacity"):
                server._gate.admit()
            again()
            assert server.stats().rejected == 1
        finally:
            server.close()


class TestGateStress:
    def test_concurrent_admits_and_repeated_releases(self):
        """More threads than cores admit and release while other threads
        call every release again: each unit is freed exactly once."""
        gate = AdmissionGate(BatchingConfig(max_queue_depth=2), "server")
        handed = queue.SimpleQueue()
        releases, overloaded = [], []

        def admitter():
            for _ in range(300):
                try:
                    release = gate.admit()
                except ServerOverloaded:
                    overloaded.append(1)
                else:
                    releases.append(release)
                    handed.put(release)
                try:
                    handed.get_nowait()()
                except queue.Empty:
                    pass

        def re_releaser():
            for _ in range(20):
                for release in list(releases):
                    release()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = ([threading.Thread(target=admitter) for _ in range(6)]
                       + [threading.Thread(target=re_releaser) for _ in range(2)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        for release in releases:
            release()
        assert gate.rejected == len(overloaded)
        held = [gate.admit(), gate.admit()]
        with pytest.raises(ServerOverloaded):
            gate.admit()
        for release in held:
            release()


class TestAdmissionValidation:
    @pytest.mark.parametrize("make_config", [
        lambda **kw: BatchingConfig(**kw),
        lambda **kw: ClusterConfig(**kw),
        lambda **kw: GenerationConfig(**kw),
    ], ids=["batching", "cluster", "generation"])
    @pytest.mark.parametrize("fields, message", [
        ({"block_timeout_ms": -1.0}, "block_timeout_ms"),
        ({"admission_policy": "drop"}, "admission_policy"),
        ({"max_queue_depth": 0}, "max_queue_depth"),
    ], ids=["negative-timeout", "bad-policy", "zero-depth"])
    def test_every_config_validates_admission(self, make_config, fields, message):
        with pytest.raises(ValueError, match=message):
            make_config(**fields)
