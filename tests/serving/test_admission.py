"""The admission gate's contract, shared by every serving front end.

``InferenceServer``, ``ShardedServer`` and ``GenerationServer`` admit
through one :class:`~repro.serving.server.AdmissionGate`, and their configs
check the admission fields with one validator.  The concurrency contract is
tested by enumerating every ordering of a small scenario -- two submitters,
one ``close()`` and one caller cancel -- through injected hook points, in
the ``FaultPlan`` call-index idiom: an actor's k-th hook call ends its k-th
step, and a schedule says which actor takes the next step.  The hook is
the one lock of the servers' shared
:class:`~repro.serving.server.LifecycleServer`.  After every ordering each
future has resolved exactly once, the gate's capacity is whole again,
``rejected`` equals the ``ServerOverloaded`` raised, the worker died only
where the scenario killed it, and the lock-order detector has recorded no
cycle.

The same enumeration runs with the lifecycle's faults in it: a worker
death in place of the cancel (both servers), a close whose horizon the
worker's slowed calls overrun (both servers), and an engine crash in place
of the cancel, whose supervised restart goes through the engine's
``rewarm`` hook (``InferenceServer``; a ``GenerationServer`` has no engine
supervisor, so a decode-step error there is a worker death).
"""

import itertools
import queue
import sys
import threading
import time
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
    EngineCrash,
    InferenceServer,
    ServerClosed,
    ServerOverloaded,
    ServerUnavailable,
    freeze,
)
from repro.serving.server import AdmissionGate, _Request
from repro.training.schedules import FixedBFPSchedule

DEPTH = 1
SCENARIO = ("s1", "s1", "s2", "s2", "close", "cancel")
ORDERINGS = sorted(set(itertools.permutations(SCENARIO)))
# The fault scenarios replace the cancel with a "fault" actor.
FAULT_ORDERINGS = [tuple("fault" if name == "cancel" else name for name in schedule)
                   for schedule in ORDERINGS]
SLOW_S = 0.004      # each worker call in the overrun scenario
OVERRUN_TIMEOUT_S = 0.001  # the close horizon those calls overrun


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
    """Echoes its batch.  ``delay_s`` slows every call.  ``crash`` makes
    calls raise :class:`EngineCrash` until ``rewarm`` -- the hook the
    supervisor's restart goes through -- recovers it, if ``recovers``."""

    def __init__(self, delay_s=0.0, recovers=True):
        self.delay_s = delay_s
        self.recovers = recovers
        self.crash = False

    def predict(self, batch):
        if self.crash:
            raise EngineCrash("injected engine crash")
        time.sleep(self.delay_s)
        return np.asarray(batch)

    def rewarm(self):
        if not self.recovers:
            raise EngineCrash("injected rewarm failure")
        self.crash = False


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


class FrontEnd:
    """A server under the enumeration, with its fault injectors."""

    def __init__(self, server, depth, submit, kill, engine=None):
        self.server = server
        self.depth = depth
        self.submit = submit  # actor name -> future
        self.kill = kill
        self.engine = engine


def depth_for(fault):
    # The overrun scenario admits both submitters, so one is still held
    # when the other's call passes the horizon.
    return 2 if fault == "overrun" else DEPTH


def make_inference_server(policy, _seq2seq, fault=None, recovers=True):
    # A long flush delay keeps admitted requests queued until close(); in
    # the crash scenario a batch of one sends each request to the engine.
    config = BatchingConfig(max_batch_size=1 if fault == "crash" else 8,
                            max_delay_ms=10_000.0, max_queue_depth=depth_for(fault),
                            admission_policy=policy, block_timeout_ms=2.0,
                            engine_restart_limit=1, restart_backoff_ms=0.0)
    engine = MirrorEngine(delay_s=SLOW_S if fault == "overrun" else 0.0,
                          recovers=recovers)
    server = InferenceServer(engine, config)

    def kill():
        # A request the worker cannot bucket: the worker dies of it.
        server._queue.put(_Request(None, Future(), time.monotonic()))

    def submit(name):
        # Overrun: two shapes, two buckets, two engine calls in the drain.
        width = 5 if fault == "overrun" and name == "s2" else 4
        return server.submit(np.ones(width))

    return FrontEnd(server, depth_for(fault), submit, kill, engine)


def make_generation_server(policy, seq2seq, fault=None, recovers=True):
    config = GenerationConfig(max_active=2, max_queue_depth=depth_for(fault),
                              admission_policy=policy, block_timeout_ms=2.0)
    server = GenerationServer(seq2seq, config)
    if fault == "overrun":
        decode_step = server._decode_step

        def slow_decode_step():
            time.sleep(SLOW_S)
            decode_step()

        server._decode_step = slow_decode_step

    def kill():
        # The scheduler's next loop iteration raises.
        def broken_retire():
            raise RuntimeError("injected scheduler bug")

        server._retire = broken_retire
        server._wake.set()

    return FrontEnd(server, depth_for(fault),
                    lambda name: server.submit(np.array([3, 4, 5, 6]),
                                               max_new_tokens=4), kill)


def run_ordering(make_server, policy, seq2seq, schedule, drain, fault=None):
    front = make_server(policy, seq2seq, fault=fault, recovers=drain)
    server = front.server
    interleaving = Interleaving(schedule)
    server._lock = HookedLock(server._lock, interleaving)
    outcomes = {}
    resolutions = Counter()
    refusals = (ServerOverloaded, ServerClosed)
    if fault in ("death", "crash"):  # a failed server refuses work
        refusals += (ServerUnavailable,)

    def submitter(name):
        def body():
            try:
                future = front.submit(name)
            except refusals as error:
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

    def inject():
        if fault == "crash":
            front.engine.crash = True
        elif server._thread.is_alive():  # "death": not yet closed
            front.kill()
            server._thread.join(timeout=10.0)
            assert not server._thread.is_alive(), schedule

    def close():
        if fault == "overrun":
            server.close(timeout=OVERRUN_TIMEOUT_S)
        else:
            server.close(drain=drain)

    interleaving.run({"s1": submitter("s1"), "s2": submitter("s2"),
                      "close": close, "cancel": cancel, "fault": inject})
    # An actor's last step ends at its last hook call, so the rest of
    # close() -- the wait for the worker -- may overlap the kill.
    died = server.failure is not None
    if fault == "death" and schedule.index("fault") < schedule.index("close"):
        assert died, schedule
    if fault != "death":
        assert not died, schedule
    if died:
        assert set(interleaving.errors) == {"close"}, schedule
        assert isinstance(interleaving.errors["close"], ServerUnavailable), schedule
        assert "died from an uncaught error" in str(interleaving.errors["close"])
    else:
        assert interleaving.errors == {}, schedule
    futures = [f for f in outcomes.values() if isinstance(f, Future)]
    for future in futures:
        assert future.done(), schedule
        assert resolutions[id(future)] == 1, schedule
    overloaded = sum(isinstance(o, ServerOverloaded) for o in outcomes.values())
    assert server.stats().rejected == overloaded, schedule
    if isinstance(server, GenerationServer):
        assert server.cache.free_blocks == server.cache.total_blocks, schedule
    # Capacity is whole again: exactly `depth` admissions fit.
    releases = [server._gate.admit() for _ in range(front.depth)]
    with pytest.raises(ServerOverloaded):
        server._gate.admit()
    for release in releases:
        release()
    errors = [f.exception() for f in futures if not f.cancelled()]
    return {"died": died,
            "crashed": any(isinstance(e, EngineCrash) for e in errors),
            "closed": any(isinstance(e, ServerClosed) for e in errors)}


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

    @pytest.mark.parametrize("policy", ["reject", "block"])
    @pytest.mark.parametrize("make_server, fault", [
        (make_inference_server, "death"),
        (make_generation_server, "death"),
        (make_inference_server, "overrun"),
        (make_generation_server, "overrun"),
        (make_inference_server, "crash"),
    ], ids=["inference-death", "generation-death", "inference-overrun",
            "generation-overrun", "inference-crash"])
    def test_every_ordering_keeps_the_contract_under_faults(
            self, make_server, fault, policy, seq2seq, lock_order):
        """Odd orderings drain on close and, in the crash scenario, recover
        through ``rewarm``; even ones do neither."""
        orderings = ORDERINGS if fault == "overrun" else FAULT_ORDERINGS
        assert len(orderings) == 180
        seen = Counter()
        for index, schedule in enumerate(orderings):
            seen.update(key for key, happened in run_ordering(
                make_server, policy, seq2seq, schedule,
                drain=bool(index % 2), fault=fault).items() if happened)
        lock_order.check()
        # The fault happened in the enumeration, not just the scenario.
        assert seen[{"death": "died", "crash": "crashed",
                     "overrun": "closed"}[fault]] > 0, seen

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
