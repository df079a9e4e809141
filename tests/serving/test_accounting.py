"""The one request-accounting rule, checked as a state machine.

Every server counts a request in ``submitted`` when it takes it and in
exactly one of ``completed``, ``failed`` or ``shed_deadline`` when it lets
go of it; a refusal at capacity counts in ``rejected`` (the rule of the
:mod:`repro.serving` docstring).  A ``hypothesis.stateful`` machine drives
each server through a gated front end -- the engine gate of the
``InferenceServer`` and the decode-step gate of the ``GenerationServer``,
as in ``test_faults.py::TestLifecycleRaces`` -- with submits (with and
without a short deadline), caller cancels, waits past that deadline,
engine crashes, worker deaths and ``close``.  The gate stays shut except
while a deadline passes and at ``close``, so every run starts with a call
in flight at the gate, and a cancel, crash or close can land on it there.
At every step each future has resolved at most once and the outcome
counts stay within ``submitted``; after ``close()`` every count equals
what the callers saw.  Its examples are derandomized, so every run
explores the same sequences.
"""

import functools
import threading
import time
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.core.bfp import BFPConfig
from repro.models import MLP, transformer_small
from repro.serving import (
    BatchingConfig,
    CacheExhausted,
    DeadlineExceeded,
    FaultInjectingEngine,
    FaultPlan,
    GenerationConfig,
    GenerationServer,
    InferenceEngine,
    InferenceServer,
    ServerClosed,
    ServerOverloaded,
    ServerUnavailable,
    freeze,
)
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)
DEADLINE_MS = 15.0
COUNTS = ("submitted", "completed", "failed", "shed_deadline", "rejected")


@functools.lru_cache(maxsize=None)
def mlp_engine():
    model = MLP(8, [8], 4, rng=np.random.default_rng(0))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 4)
    model.eval()
    engine = InferenceEngine(freeze(model))
    engine.warmup(np.zeros((1, 8)))
    return engine


@functools.lru_cache(maxsize=None)
def frozen_seq2seq():
    model = transformer_small(vocab_size=30, max_length=24,
                              rng=np.random.default_rng(11))
    FixedBFPSchedule(4, config=CONFIG, seed=0).prepare(model, 8)
    model.eval()
    return freeze(model, meta={"bos_index": 1, "eos_index": 2})


def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.001)


def outcome_counts(server) -> dict:
    stats = server.stats()
    return {name: getattr(stats, name) for name in COUNTS}


def caller_outcome(future) -> str:
    """Where the rule counts a resolved future, from the caller's side."""
    if future.cancelled():
        return "failed"
    error = future.exception()
    if error is None:
        return "completed"
    return "shed_deadline" if isinstance(error, DeadlineExceeded) else "failed"


class InferenceFront:
    """The batching server over a gated engine.  ``big`` picks a second
    payload shape, so requests fill two buckets."""

    refusals = (ServerOverloaded,)

    def __init__(self):
        self.gate = threading.Event()
        self.engine = FaultInjectingEngine(mlp_engine(), gate=self.gate)
        self.server = InferenceServer(self.engine, BatchingConfig(
            max_batch_size=2, max_delay_ms=1.0, max_queue_depth=4,
            max_retries=0, engine_restart_limit=1, restart_backoff_ms=0.0))

    def submit(self, deadline_ms, big):
        payload = np.ones((2, 4)) if big else np.ones(8)
        return self.server.submit(payload, deadline_ms=deadline_ms)

    def parked(self):
        """Whether the worker waits at the closed gate inside the engine."""
        return self.engine.entered > self.engine.log.calls

    def crash(self, recovers):
        # The engine's next call crashes; the supervisor's one rewarm
        # brings it back only if it ``recovers``.
        self.engine.plan = FaultPlan(crash_calls=(self.engine.log.calls,),
                                     rewarms_to_recover=1 if recovers else 2)

    def break_worker(self):
        def boom(payload):
            raise RuntimeError("injected worker bug")

        self.server._bucket_key = boom


class BrokenPrefill:
    """A frozen seq2seq whose prefill raises: a bug in the model code the
    scheduler runs."""

    def __init__(self, root):
        self._root = root

    def __getattr__(self, name):
        return getattr(self._root, name)

    def prefill(self, src):
        raise RuntimeError("injected worker bug")


class GenerationFront:
    """The generation server with a gate on its decode step.  The pool
    holds two 6-token sequences; a ``big`` one needs more than the pool."""

    refusals = (ServerOverloaded, CacheExhausted)

    def __init__(self):
        self.gate = threading.Event()
        self.server = GenerationServer(frozen_seq2seq(), GenerationConfig(
            max_active=2, max_queue_depth=4, block_tokens=4, cache_blocks=4))
        self.steps = Counter()
        decode_step = self.server._decode_step

        def gated_decode_step():
            self.steps["entered"] += 1
            self.gate.wait()
            self.steps["passed"] += 1
            decode_step()

        self.server._decode_step = gated_decode_step

    def submit(self, deadline_ms, big):
        return self.server.submit(np.arange(3, 8), max_new_tokens=20 if big else 6,
                                  deadline_ms=deadline_ms)

    def parked(self):
        """Whether the scheduler waits at the closed gate before a step."""
        return self.steps["entered"] > self.steps["passed"]

    def break_worker(self):
        self.server.root = BrokenPrefill(self.server.root)


class AccountingMachine(RuleBasedStateMachine):
    front_type = InferenceFront
    accepted = Bundle("accepted")

    def __init__(self):
        super().__init__()
        self.front = self.front_type()
        self.futures = []
        self.resolved = []  # one id per done callback; appends are atomic
        self.rejected = 0
        self.closed = False
        self.broken = False

    @rule(target=accepted, deadline=st.booleans(), big=st.booleans())
    def submit(self, deadline, big):
        try:
            future = self.front.submit(DEADLINE_MS if deadline else None, big)
        except self.front.refusals:
            self.rejected += 1
            return multiple()
        except (ServerClosed, ServerUnavailable):
            return multiple()  # refused as closed or failed: counted nowhere
        future.add_done_callback(lambda f: self.resolved.append(id(f)))
        self.futures.append(future)
        # Let the worker take it up to the gate, so a cancel can land while
        # its call is in flight.
        wait_until(self.front.parked, timeout=0.05)
        return future

    @initialize(target=accepted)
    def first_request(self):
        # Every run starts with a call in flight.
        return self.submit(deadline=False, big=False)

    @rule(future=accepted)
    def cancel(self, future):
        future.cancel()

    @precondition(lambda self: not self.closed)
    @rule()
    def pass_deadline(self):
        # The worker runs only while time passes.
        self.front.gate.set()
        time.sleep(1.5 * DEADLINE_MS / 1e3)
        self.front.gate.clear()

    @precondition(lambda self: not self.closed and hasattr(self.front, "crash"))
    @rule(recovers=st.booleans())
    def crash_engine(self, recovers):
        self.front.crash(recovers)

    @precondition(lambda self: not self.closed and not self.broken)
    @rule(target=accepted, deadline=st.booleans(), big=st.booleans())
    def kill_worker(self, deadline, big):
        # The worker dies when it takes the next request.
        self.front.break_worker()
        self.broken = True
        return self.submit(deadline, big)

    @precondition(lambda self: not self.closed)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.front.gate.set()
        server = self.front.server
        try:
            server.close(drain=drain)
        except ServerUnavailable:
            assert server.failure is not None  # the worker died
        self.closed = True
        assert all(future.done() for future in self.futures)
        seen = Counter(caller_outcome(future) for future in self.futures)
        assert outcome_counts(server) == {
            "submitted": len(self.futures), "completed": seen["completed"],
            "failed": seen["failed"], "shed_deadline": seen["shed_deadline"],
            "rejected": self.rejected}

    @invariant()
    def each_future_resolves_at_most_once_within_submitted(self):
        assert all(n == 1 for n in Counter(self.resolved).values())
        counts = outcome_counts(self.front.server)
        assert (counts["completed"] + counts["failed"] + counts["shed_deadline"]
                <= counts["submitted"])

    def teardown(self):
        if not self.closed:
            self.close(drain=True)


class GenerationAccountingMachine(AccountingMachine):
    front_type = GenerationFront


# Bounded so each machine fits the chaos suite's per-test watchdog.
MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=10, deadline=None,
                            derandomize=True,
                            suppress_health_check=[HealthCheck.too_slow])
TestInferenceAccounting = AccountingMachine.TestCase
TestInferenceAccounting.settings = MACHINE_SETTINGS
TestGenerationAccounting = GenerationAccountingMachine.TestCase
TestGenerationAccounting.settings = MACHINE_SETTINGS
