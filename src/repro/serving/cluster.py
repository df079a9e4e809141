"""Multi-process sharded serving: N warmed engine workers behind one front end.

The in-process :class:`~repro.serving.server.InferenceServer` batches well,
but its NumPy forwards hold the GIL, so one process caps throughput no
matter how many cores the host has.  :class:`ShardedServer` shards requests
across N **worker processes**, each hosting its own warmed
:class:`~repro.serving.engine.InferenceEngine` over a frozen ``.npz``
checkpoint, so forwards run truly in parallel.

Topology::

    client threads
        |  submit(request, model=..., deadline_ms=...)
    ShardedServer          (admission control, routing, cluster stats)
        |  per-shard InferenceServer  (micro-batching + fault semantics)
        |       |  RemoteEngine.predict(batch)
        |       |       |-- control header ---- multiprocessing.Pipe ---.
        |       |       '-- batch bytes ------- ShmRing (shared memory) -+--> worker
        |       |                                                        |   process
        |       |<------ output bytes --------- ShmRing <----------------'
        shard 0 ... shard N-1

Every shard is a full :class:`InferenceServer` whose "engine" is a
:class:`RemoteEngine` proxy, so **all of the single-process fault semantics
apply unchanged across the process boundary**: per-request deadlines,
queue shedding, poison-batch bisection with bounded solo retries, and
engine supervision.  A worker process that dies mid-batch surfaces as an
:class:`~repro.serving.engine.EngineCrash` -- the in-flight requests fail
descriptively, the shard goes degraded, and the supervisor's ``rewarm()``
call *respawns and re-warms a fresh worker process* (bounded by
``engine_restart_limit``).  While a shard is degraded or failed, routing
skips it, so the shard map rebalances around dead workers.

Batch payloads cross the process boundary through shared-memory slot rings
(:class:`~repro.serving.transport.ShmRing`): one memcpy into the mapped
segment on the sending side, a zero-copy NumPy view on the receiving side,
and only a tiny control header through the pipe.  Payloads larger than a
ring slot fall back to pickling over the pipe (counted in
``stats().oversized_transfers``); correctness never depends on slot size.

Routing supports ``round_robin`` and ``least_loaded`` (fewest unresolved
requests), and the cluster can host **multiple model families** at once
(one checkpoint per :class:`WorkerSpec`; ``submit(model="name")`` selects
the family).  Variable-length token requests additionally get per-bucket
shard affinity: every request padded to the same bucket length lands on
the same shard, so padding locality (and the worker's batch-shape caches)
survive sharding.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import observability
from ..observability.metrics import LatencyHistogram
from .engine import EngineCrash, EngineStats, InferenceEngine
from .faults import FaultInjectingEngine, FaultPlan, TransientEngineError
from .server import (
    AdmissionGate,
    BatchingConfig,
    InferenceServer,
    InvalidRequest,
    ServerClosed,
    ServerStats,
    ServerUnavailable,
    ServingError,
    validate_admission,
    validate_payload,
)
from .transport import ShmRing

__all__ = [
    "WorkerSpec",
    "ClusterConfig",
    "WorkerStartupError",
    "RemoteEngineError",
    "RemoteEngine",
    "ShardedServer",
]


class WorkerStartupError(RuntimeError):
    """A worker process failed to load/warm its engine at spawn time."""


class RemoteEngineError(ServingError):
    """A worker-side batch failure whose exception type could not be
    reconstructed in the front-end process (message preserved)."""


#: Worker-side exception types that are reconstructed by name in the front
#: end, so the per-shard server's isolation logic sees the same classes it
#: would in-process.  Anything else becomes :class:`RemoteEngineError`.
_REBUILDABLE_ERRORS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
    "FloatingPointError": FloatingPointError,
    "ZeroDivisionError": ZeroDivisionError,
    "TransientEngineError": TransientEngineError,
    "ServingError": ServingError,
}


def _rebuild_error(type_name: str, message: str) -> BaseException:
    error_type = _REBUILDABLE_ERRORS.get(type_name)
    if error_type is None:
        return RemoteEngineError(f"{type_name}: {message}")
    try:
        return error_type(message)
    except Exception:  # noqa: BLE001 - exotic constructor signature
        return RemoteEngineError(f"{type_name}: {message}")


@dataclass(frozen=True)
class WorkerSpec:
    """One engine worker: which checkpoint it serves and how it warms up.

    Parameters
    ----------
    checkpoint:
        Path to a frozen ``.npz`` export (:func:`repro.serving.save_frozen`).
        The worker process loads it with :func:`repro.serving.load_frozen`,
        so the parent never ships model weights through pickling.
    model:
        Family label used for routing (``submit(model=...)``).  Multiple
        specs may share a label; they become that family's shard group.
    warmup_shapes:
        Full batch shapes (leading batch dim included) the worker forwards
        once at startup -- and again on every respawn -- so index/layout
        caches are primed before the shard serves traffic.
    warmup_dtype:
        Dtype of the synthetic warmup batches.
    cast_dtype:
        Optional serving dtype cast applied after load (e.g. ``"float32"``,
        the production serving mode).
    fault_plan:
        Optional deterministic :class:`~repro.serving.faults.FaultPlan`
        wrapped around the worker's engine (chaos testing).  A
        ``worker_exit`` fault in the plan kills the worker process
        mid-batch via ``os._exit``.
    fault_plan_on_respawn:
        Whether a respawned worker re-applies ``fault_plan``.  Off by
        default so a scheduled ``worker_exit`` does not re-fire at the same
        call index in every fresh worker (which would turn one injected
        death into an unrecoverable crash loop).
    env:
        Environment overrides applied to the worker process (set around
        spawn, inherited by the child -- e.g. BLAS thread pinning:
        ``{"OMP_NUM_THREADS": "1"}``).
    """

    checkpoint: str
    model: str = "default"
    warmup_shapes: Tuple[Tuple[int, ...], ...] = ()
    warmup_dtype: str = "float64"
    cast_dtype: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    fault_plan_on_respawn: bool = False
    env: Optional[Tuple[Tuple[str, str], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "checkpoint", str(self.checkpoint))
        object.__setattr__(self, "warmup_shapes",
                           tuple(tuple(int(d) for d in shape)
                                 for shape in self.warmup_shapes))
        if self.env is not None and not isinstance(self.env, tuple):
            object.__setattr__(self, "env",
                               tuple(sorted(dict(self.env).items())))


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the sharded serving tier.

    Parameters
    ----------
    batching:
        Per-shard :class:`~repro.serving.server.BatchingConfig`.  Its
        ``max_queue_depth`` is ignored -- admission control is cluster-wide
        (see ``max_queue_depth`` below) so one overloaded shard cannot
        reject traffic the cluster could still serve.
    routing:
        ``"round_robin"`` (default) or ``"least_loaded"`` (fewest
        unresolved requests).  Token requests with configured pad buckets
        override both with per-bucket shard affinity.
    max_queue_depth / admission_policy / block_timeout_ms:
        Cluster-wide admission control, same semantics as the in-process
        server: ``"reject"`` raises
        :class:`~repro.serving.server.ServerOverloaded` at capacity,
        ``"block"`` waits up to ``block_timeout_ms`` first.
    slot_size / ring_slots:
        Geometry of each worker's request/response shared-memory rings.
        Payloads above ``slot_size`` fall back to pickling over the pipe.
    spawn_timeout_s:
        How long to wait for a worker to load + warm up (at startup and on
        every respawn) before declaring the spawn failed.
    request_timeout_s:
        How long a shard waits for a worker to answer one batch before
        declaring the worker wedged, killing it, and treating the batch as
        an :class:`~repro.serving.engine.EngineCrash` (which triggers the
        supervised respawn path).
    mp_context:
        ``multiprocessing`` start method.  ``"spawn"`` is the default:
        the front end is multi-threaded, and forking a threaded process
        is a latent deadlock.
    """

    batching: BatchingConfig = field(default_factory=BatchingConfig)
    routing: str = "round_robin"
    max_queue_depth: Optional[int] = None
    admission_policy: str = "reject"
    block_timeout_ms: float = 1000.0
    slot_size: int = 1 << 20
    ring_slots: int = 4
    spawn_timeout_s: float = 120.0
    request_timeout_s: float = 120.0
    mp_context: str = "spawn"

    def __post_init__(self):
        if self.routing not in ("round_robin", "least_loaded"):
            raise ValueError("routing must be 'round_robin' or 'least_loaded'")
        validate_admission(self)
        if self.slot_size < 1 or self.ring_slots < 1:
            raise ValueError("slot_size and ring_slots must be >= 1")


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #
def _worker_main(spec: WorkerSpec, conn, req_ring_name: str, resp_ring_name: str,
                 slot_size: int, ring_slots: int, generation: int,
                 telemetry: bool = False) -> None:
    """Engine worker: load the frozen checkpoint, warm up, serve batches.

    Protocol (control messages over ``conn``; array bytes through the
    rings):

    * parent -> worker: ``("batch", req_id, slot, shape, dtype)``,
      ``("batch_pickled", req_id, array)``, ``("free", slot)`` (a response
      slot the parent is done with), ``("rewarm",)``, ``("stop",)``.
    * worker -> parent: ``("ready", pid, warmup_seconds)``,
      ``("startup_failed", message)``,
      ``("result", req_id, slot, shape, dtype, req_slot, telemetry)``,
      ``("result_pickled", req_id, array, req_slot, telemetry)``,
      ``("error", req_id, kind, type_name, message, req_slot, telemetry)``
      with ``kind`` in ``{"crash", "batch"}``, ``("rewarmed", seconds)``,
      ``("rewarm_failed", message)``.

    ``req_slot`` rides along on every reply so the parent can return the
    request's ring slot to its free list exactly when the worker no longer
    reads from it.  ``telemetry`` is ``None`` when observability was off at
    spawn time; otherwise a dict with the worker's metric delta since the
    previous reply (``"metrics"``), its drained trace spans (``"spans"``),
    and the batch's engine-only compute time (``"compute_ms"``) so the
    parent can attribute the rest of the round-trip to transport.
    """
    # The request ring is parent-produced (this side only views); the
    # response ring is produced here, so this side owns its free list.
    req_ring = ShmRing.attach(req_ring_name, slot_size, ring_slots)
    resp_ring = ShmRing.attach(resp_ring_name, slot_size, ring_slots)
    if telemetry:
        # Fresh spawn-context process: arm this worker's own registry and
        # kernel hooks so metric deltas/spans can piggyback on replies.
        observability.set_enabled(True)

    def _collect_telemetry(compute_ms: Optional[float]):
        if not telemetry:
            return None
        tracer = observability.tracer()
        return {
            "metrics": observability.registry().collect_delta(),
            "spans": tracer.drain() if tracer.armed else [],
            "compute_ms": compute_ms,
        }
    try:
        from .checkpoint import load_frozen  # deferred: spawn imports lazily

        frozen = load_frozen(spec.checkpoint)
        if spec.cast_dtype is not None:
            frozen.cast(np.dtype(spec.cast_dtype))
        engine = InferenceEngine(frozen)
        if spec.fault_plan is not None and (generation == 0 or spec.fault_plan_on_respawn):
            engine = FaultInjectingEngine(engine, spec.fault_plan)
        warmup_seconds = 0.0
        warmup_dtype = np.dtype(spec.warmup_dtype)
        for shape in spec.warmup_shapes:
            warmup_seconds += engine.warmup(np.zeros(shape, dtype=warmup_dtype))
        conn.send(("ready", os.getpid(), warmup_seconds))
    except BaseException as error:  # noqa: BLE001 - report, then exit
        try:
            conn.send(("startup_failed", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
        return

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # the front end went away; nothing left to serve
            kind = message[0]
            if kind == "stop":
                break
            if kind == "free":
                resp_ring.release(message[1])
                continue
            if kind == "rewarm":
                try:
                    conn.send(("rewarmed", engine.rewarm()))
                except BaseException as error:  # noqa: BLE001 - still down
                    conn.send(("rewarm_failed", f"{type(error).__name__}: {error}"))
                continue
            if kind == "batch":
                _, req_id, slot, shape, dtype = message
                batch = req_ring.view(slot, shape, dtype)  # zero-copy
                req_slot: Optional[int] = slot
            elif kind == "batch_pickled":
                _, req_id, batch = message
                req_slot = None
            else:
                continue  # unknown message: ignore, stay alive
            compute_started = time.monotonic()
            try:
                outputs = np.ascontiguousarray(engine.predict(batch))
            except EngineCrash as error:
                conn.send(("error", req_id, "crash", "EngineCrash", str(error),
                           req_slot, _collect_telemetry(None)))
                continue
            except Exception as error:  # noqa: BLE001 - per-batch failure
                conn.send(("error", req_id, "batch", type(error).__name__,
                           str(error), req_slot, _collect_telemetry(None)))
                continue
            compute_done = time.monotonic()
            if telemetry:
                tracer = observability.active_tracer()
                if tracer is not None and tracer.armed:
                    # CLOCK_MONOTONIC is system-wide on Linux, so this span
                    # lines up with the parent's timeline; the worker pid
                    # keeps it on its own track in the trace viewer.
                    tracer.add_event("compute", compute_started,
                                     compute_done - compute_started,
                                     args={"model": spec.model,
                                           "generation": generation,
                                           "batch_size": int(np.asarray(batch).shape[0])})
            compute_ms = (compute_done - compute_started) * 1e3
            out_slot = resp_ring.acquire() if resp_ring.fits(outputs.nbytes) else None
            if out_slot is not None:
                shape, dtype = resp_ring.write(out_slot, outputs)
                conn.send(("result", req_id, out_slot, shape, dtype, req_slot,
                           _collect_telemetry(compute_ms)))
            else:
                conn.send(("result_pickled", req_id, outputs, req_slot,
                           _collect_telemetry(compute_ms)))
    finally:
        req_ring.close()
        resp_ring.close()


# --------------------------------------------------------------------------- #
# Front-end proxy for one worker
# --------------------------------------------------------------------------- #
_SPAWN_ENV_LOCK = threading.Lock()


class RemoteEngine:
    """Engine-protocol proxy for one worker process.

    Exposes ``predict`` / ``rewarm`` / ``warmed_up`` / ``stats`` exactly
    like :class:`~repro.serving.engine.InferenceEngine`, so it drops into
    an :class:`~repro.serving.server.InferenceServer` unchanged -- that is
    how the single-process fault semantics extend across the process
    boundary.  Failure mapping:

    * worker reports a per-batch exception -> the same exception type (or
      :class:`RemoteEngineError`) raises here, feeding the server's
      poison-isolation/bisection path;
    * worker reports an engine crash, dies mid-batch, or stops answering
      (``request_timeout_s``) -> :class:`EngineCrash` raises here, feeding
      the server's supervision path; the supervisor's ``rewarm()`` either
      rewarms the live worker or **respawns and re-warms a fresh process**.
    """

    def __init__(self, spec: WorkerSpec, config: Optional[ClusterConfig] = None):
        self.spec = spec
        self.config = config if config is not None else ClusterConfig()
        self._ctx = multiprocessing.get_context(self.config.mp_context)
        #: Extra labels stamped onto worker metric deltas when they are
        #: merged into this process's registry (set by ShardedServer).
        self.telemetry_labels: Dict[str, str] = {}
        self._req_id = itertools.count(1)
        # _lock serializes the whole predict/rewarm/shutdown round-trip;
        # _stats_lock guards the cheap counters below so stats() and the
        # public read-only properties never block behind an in-flight
        # batch.  Order: _lock -> _stats_lock, never the reverse.
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closed = False  # guarded-by: _stats_lock
        self._generation = 0  # guarded-by: _stats_lock
        self._respawns = 0  # guarded-by: _stats_lock
        self._oversized_transfers = 0  # guarded-by: _stats_lock
        self._warmed_up = False  # guarded-by: _stats_lock
        self._warmup_seconds = 0.0  # guarded-by: _stats_lock
        # Transport share of the last predict() round-trip (round-trip
        # minus the worker-reported compute time), or None when the worker
        # ships no telemetry.  Read by InferenceServer for RequestTiming.
        self._last_transport_ms: Optional[float] = None  # guarded-by: _stats_lock
        with self._lock:
            self._spawn_locked()

    # -------------------------------------------------------------- #
    # Read-only views of the mutable counters (consistent snapshots for
    # ShardedServer.stats() and the supervisor, never blocking on _lock)
    # -------------------------------------------------------------- #
    @property
    def generation(self) -> int:
        with self._stats_lock:
            return self._generation

    @property
    def respawns(self) -> int:
        with self._stats_lock:
            return self._respawns

    @property
    def oversized_transfers(self) -> int:
        with self._stats_lock:
            return self._oversized_transfers

    @property
    def warmed_up(self) -> bool:
        with self._stats_lock:
            return self._warmed_up

    @property
    def warmup_seconds(self) -> float:
        with self._stats_lock:
            return self._warmup_seconds

    @property
    def last_transport_ms(self) -> Optional[float]:
        with self._stats_lock:
            return self._last_transport_ms

    # -------------------------------------------------------------- #
    # Process lifecycle
    # -------------------------------------------------------------- #
    def _spawn_locked(self) -> None:
        config = self.config
        self._req_ring = ShmRing(config.slot_size, config.ring_slots)
        self._resp_ring = ShmRing(config.slot_size, config.ring_slots)
        self._conn, child_conn = self._ctx.Pipe()
        # Telemetry enablement is latched at (re)spawn time: a worker ships
        # deltas iff the global gate was on when its process started.
        self._telemetry = observability.enabled()
        with self._stats_lock:
            generation = self._generation
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.spec, child_conn, self._req_ring.name, self._resp_ring.name,
                  config.slot_size, config.ring_slots, generation,
                  self._telemetry),
            name=f"engine-worker-{self.spec.model}",
            daemon=True,
        )
        overrides = dict(self.spec.env or ())
        with _SPAWN_ENV_LOCK:
            saved = {key: os.environ.get(key) for key in overrides}
            try:
                os.environ.update(overrides)
                process.start()
            finally:
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
        child_conn.close()
        self._process = process
        with self._stats_lock:
            self._warmed_up = False

    def wait_ready(self, timeout: Optional[float] = None) -> float:
        """Block until the worker reports its engine loaded and warmed."""
        with self._lock:
            return self._wait_ready_locked(timeout)

    def _wait_ready_locked(self, timeout: Optional[float] = None) -> float:
        timeout = timeout if timeout is not None else self.config.spawn_timeout_s
        try:
            reply = self._recv(timeout)
        except EngineCrash as error:
            raise WorkerStartupError(
                f"worker for {self.spec.model!r} did not come up: {error}") from error
        if reply[0] == "startup_failed":
            self._process.join(timeout=5.0)
            raise WorkerStartupError(
                f"worker for {self.spec.model!r} failed to start: {reply[1]}")
        if reply[0] != "ready":
            raise WorkerStartupError(
                f"worker for {self.spec.model!r} sent {reply[0]!r} before 'ready'")
        warmup_seconds = float(reply[2])
        with self._stats_lock:
            self._warmup_seconds = warmup_seconds
            self._warmed_up = True
        return warmup_seconds

    def _alive(self) -> bool:
        return self._process.is_alive()

    def _recv(self, timeout: float):
        """Receive one reply; raise :class:`EngineCrash` on death/wedge."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(0.05):
                    return self._conn.recv()
            except (EOFError, OSError) as error:
                raise EngineCrash(
                    f"worker process for {self.spec.model!r} died mid-message "
                    f"({error!r}, exit code {self._process.exitcode})") from error
            if not self._process.is_alive():
                # One final poll: a dying worker may have flushed a reply.
                try:
                    if self._conn.poll(0):
                        return self._conn.recv()
                except (EOFError, OSError):
                    pass
                raise EngineCrash(
                    f"worker process for {self.spec.model!r} died mid-batch "
                    f"(exit code {self._process.exitcode})")
            if time.monotonic() >= deadline:
                self._process.terminate()
                raise EngineCrash(
                    f"worker for {self.spec.model!r} gave no answer within "
                    f"{timeout:.0f}s (wedged); terminated for respawn")

    # -------------------------------------------------------------- #
    # Engine protocol
    # -------------------------------------------------------------- #
    def predict(self, batch) -> np.ndarray:
        batch = np.ascontiguousarray(batch)
        with self._lock:
            with self._stats_lock:
                closed = self._closed
            if closed:
                raise EngineCrash("remote engine is shut down")
            if not self._alive():
                raise EngineCrash(
                    f"worker process for {self.spec.model!r} is dead "
                    f"(exit code {self._process.exitcode})")
            req_id = next(self._req_id)
            slot = self._req_ring.acquire() if self._req_ring.fits(batch.nbytes) else None
            if slot is not None:
                shape, dtype = self._req_ring.write(slot, batch)
                self._conn.send(("batch", req_id, slot, shape, dtype))
            else:
                # Larger than a ring slot: correctness over zero-copy.
                with self._stats_lock:
                    self._oversized_transfers += 1
                self._conn.send(("batch_pickled", req_id, batch))
            sent_at = time.monotonic()
            reply = self._recv(self.config.request_timeout_s)
            roundtrip_ms = (time.monotonic() - sent_at) * 1e3
            return self._handle_reply_locked(reply, req_id, roundtrip_ms)

    __call__ = predict

    def _handle_reply_locked(self, reply, req_id: int, roundtrip_ms: float) -> np.ndarray:
        kind = reply[0]
        if kind == "result":
            _, rid, out_slot, shape, dtype, req_slot, telemetry = reply
            self._release_request_slot(req_slot)
            self._absorb_telemetry_locked(telemetry, roundtrip_ms)
            # The worker reuses the slot only after our "free" ack, but the
            # result outlives this call, so copy out of the mapping.
            outputs = np.array(self._resp_ring.view(out_slot, shape, dtype), copy=True)
            self._send_free(out_slot)
            return outputs
        if kind == "result_pickled":
            _, rid, outputs, req_slot, telemetry = reply
            self._release_request_slot(req_slot)
            self._absorb_telemetry_locked(telemetry, roundtrip_ms)
            return outputs
        if kind == "error":
            _, rid, ekind, type_name, message, req_slot, telemetry = reply
            self._release_request_slot(req_slot)
            self._absorb_telemetry_locked(telemetry, roundtrip_ms)
            if ekind == "crash":
                raise EngineCrash(f"worker engine crashed: {message}")
            raise _rebuild_error(type_name, message)
        raise EngineCrash(f"unexpected worker reply {kind!r}")

    def _absorb_telemetry_locked(self, telemetry: Optional[dict],
                                 roundtrip_ms: float) -> None:
        """Merge a worker reply's piggybacked telemetry into this process."""
        if telemetry is None:
            with self._stats_lock:
                self._last_transport_ms = None
            return
        compute_ms = telemetry.get("compute_ms")
        with self._stats_lock:
            self._last_transport_ms = (
                max(0.0, roundtrip_ms - float(compute_ms))
                if compute_ms is not None else None)
        delta = telemetry.get("metrics")
        if delta is not None and observability.enabled():
            observability.registry().apply_delta(
                delta, extra_labels=self.telemetry_labels)
        spans = telemetry.get("spans")
        if spans:
            tracer = observability.active_tracer()
            if tracer is not None:
                tracer.extend(spans)

    def _release_request_slot(self, req_slot: Optional[int]) -> None:
        if req_slot is not None:
            self._req_ring.release(req_slot)

    def _send_free(self, out_slot: int) -> None:
        try:
            self._conn.send(("free", out_slot))
        except (BrokenPipeError, OSError):
            pass  # worker died; respawn rebuilds the rings anyway

    def rewarm(self) -> float:
        """Supervised restart hook: rewarm a live worker, respawn a dead one.

        Called by the shard's :class:`InferenceServer` supervisor after an
        :class:`EngineCrash`.  If the worker process is still alive the
        rewarm is forwarded to it (covers injected in-engine crashes); if
        it is dead, the transport is torn down and a **fresh worker** is
        spawned, re-loads the checkpoint, and re-warms before this returns.
        Raises :class:`EngineCrash` if either path fails, so the
        supervisor's bounded-restart accounting still applies.
        """
        with self._lock:
            with self._stats_lock:
                closed = self._closed
            if closed:
                raise EngineCrash("remote engine is shut down")
            if self._alive():
                try:
                    self._conn.send(("rewarm",))
                    reply = self._recv(self.config.spawn_timeout_s)
                except EngineCrash:
                    if self._alive():
                        raise
                    return self._respawn_locked()
                if reply[0] == "rewarmed":
                    with self._stats_lock:
                        self._warmed_up = True
                    return float(reply[1])
                if reply[0] == "rewarm_failed":
                    raise EngineCrash(f"worker rewarm failed: {reply[1]}")
                raise EngineCrash(f"unexpected rewarm reply {reply[0]!r}")
            return self._respawn_locked()

    def _respawn_locked(self) -> float:
        self._teardown_transport()
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)
        with self._stats_lock:
            self._generation += 1
            self._respawns += 1
        self._spawn_locked()
        try:
            return self._wait_ready_locked()
        except WorkerStartupError as error:
            raise EngineCrash(f"worker respawn failed: {error}") from error

    # -------------------------------------------------------------- #
    def _teardown_transport(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        self._req_ring.close()
        self._resp_ring.close()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the worker and release every transport resource."""
        with self._lock:
            with self._stats_lock:
                if self._closed:
                    return
                self._closed = True
            if self._process.is_alive():
                try:
                    self._conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            self._process.join(timeout=timeout)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=timeout)
            self._teardown_transport()

    # -------------------------------------------------------------- #
    def stats(self) -> EngineStats:
        """One internally-consistent snapshot of the worker counters.

        Reads everything under ``_stats_lock`` (not ``_lock``), so a
        monitoring scrape never waits behind an in-flight batch round-trip.
        """
        alive = self._process.is_alive()
        pid = self._process.pid
        with self._stats_lock:
            return EngineStats(
                alive=alive and not self._closed,
                pid=pid,
                generation=self._generation,
                respawns=self._respawns,
                oversized_transfers=self._oversized_transfers,
                warmup_seconds=self._warmup_seconds,
                warmed_up=self._warmed_up,
            )

    def reset_stats(self) -> None:  # engine-protocol compatibility
        pass


# --------------------------------------------------------------------------- #
# Sharded front end
# --------------------------------------------------------------------------- #
@dataclass
class _Shard:
    index: int
    spec: WorkerSpec
    engine: RemoteEngine
    server: InferenceServer


class ShardedServer:
    """Route requests across N worker processes, each a supervised shard.

    ``workers`` is a sequence of :class:`WorkerSpec`; specs sharing a
    ``model`` label form that family's shard group.  ``submit`` validates,
    admits (cluster-wide backpressure), routes (round-robin, least-loaded,
    or token-bucket affinity) and delegates to the chosen shard's
    :class:`InferenceServer` -- deadlines, bisection, retries, and worker
    supervision all happen per shard with the single-process semantics.
    """

    def __init__(self, workers: Sequence[WorkerSpec],
                 config: Optional[ClusterConfig] = None):
        if not workers:
            raise ValueError("ShardedServer needs at least one WorkerSpec")
        self.config = config if config is not None else ClusterConfig()
        # Shard batching reuses the per-shard knobs; queue depth is governed
        # cluster-wide so a busy shard cannot reject what the cluster can
        # still serve.
        shard_batching = dataclasses.replace(self.config.batching, max_queue_depth=None)
        self._close_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._closed = False  # guarded-by: _close_lock
        self._latency_hist = LatencyHistogram("cluster_request_latency_ms")  # guarded-by: _stats_lock
        self._completed = 0  # guarded-by: _stats_lock
        self._first_enqueued: Optional[float] = None  # guarded-by: _stats_lock
        self._last_completed: Optional[float] = None  # guarded-by: _stats_lock
        self._gate = AdmissionGate(self.config, "cluster")
        self._shards: List[_Shard] = []
        engines: List[RemoteEngine] = []
        try:
            # Start every worker first, then wait: spawns overlap, so an
            # N-worker cluster comes up in ~one worker's startup time.
            for spec in workers:
                engines.append(RemoteEngine(spec, self.config))
            for engine in engines:
                engine.wait_ready()
            for index, (spec, engine) in enumerate(zip(workers, engines)):
                engine.telemetry_labels = {"model": spec.model,
                                           "shard": str(index)}
                server = InferenceServer(engine, shard_batching,
                                         name=f"shard{index}")
                self._shards.append(_Shard(index, spec, engine, server))
        except BaseException:
            for shard in self._shards:
                try:
                    shard.server.close(drain=False, timeout=5.0)
                except Exception:  # noqa: BLE001 - best-effort teardown
                    pass
            for engine in engines:
                try:
                    engine.shutdown(timeout=5.0)
                except Exception:  # noqa: BLE001
                    pass
            raise
        self._families: Dict[str, List[_Shard]] = {}
        for shard in self._shards:
            self._families.setdefault(shard.spec.model, []).append(shard)
        self._round_robin = {family: itertools.count()
                             for family in self._families}

    # -------------------------------------------------------------- #
    # Routing
    # -------------------------------------------------------------- #
    def _resolve_family(self, model: Optional[str]) -> str:
        if model is None:
            if len(self._families) == 1:
                return next(iter(self._families))
            raise InvalidRequest(
                f"cluster hosts {sorted(self._families)}; submit(model=...) "
                "must name one")
        if model not in self._families:
            raise InvalidRequest(
                f"unknown model {model!r}; cluster hosts {sorted(self._families)}")
        return model

    def _token_bucket_index(self, payload: np.ndarray) -> Optional[int]:
        """Bucket ordinal for a variable-length token request, else None."""
        pad_lengths = self.config.batching.pad_lengths
        if pad_lengths is None or payload.ndim != 1 or \
                not np.issubdtype(payload.dtype, np.integer):
            return None
        for index, bucket_length in enumerate(pad_lengths):
            if payload.shape[0] <= bucket_length:
                return index
        return len(pad_lengths)  # over-length: shard server rejects it later

    def _route(self, family: str, payload: np.ndarray) -> _Shard:
        shards = self._families[family]
        # Rebalance around unhealthy shards: degraded shards (crash
        # recovery in progress) are used only when nothing healthy remains;
        # failed shards only when nothing else exists at all.
        healthy = [s for s in shards if s.server.state == "healthy"]
        if not healthy:
            healthy = [s for s in shards if s.server.state == "degraded"]
        if not healthy:
            raise ServerUnavailable(
                f"every shard of model {family!r} is failed")
        bucket = self._token_bucket_index(payload)
        if bucket is not None:
            # Padding locality: all requests of one pad bucket share a
            # shard, so the worker sees one batch geometry per bucket.
            return healthy[bucket % len(healthy)]
        if self.config.routing == "least_loaded":
            return min(healthy, key=lambda s: s.server.queue_depth)
        return healthy[next(self._round_robin[family]) % len(healthy)]

    # -------------------------------------------------------------- #
    # Submission
    # -------------------------------------------------------------- #
    def submit(self, request, model: Optional[str] = None,
               deadline_ms: Optional[float] = None) -> "Future":
        """Route one request to a shard; returns the shard's future.

        Semantics match :meth:`InferenceServer.submit` (deadlines,
        validation, admission) with cluster-wide admission control and an
        extra ``model=`` selector when the cluster hosts multiple families.
        """
        with self._close_lock:
            closed = self._closed
        if closed:
            raise ServerClosed("sharded server is closed")
        payload = np.asarray(request)
        if self.config.batching.validate_requests:
            validate_payload(payload)
        family = self._resolve_family(model)
        release = self._gate.admit()
        now = time.monotonic()
        with self._stats_lock:
            if self._first_enqueued is None:
                self._first_enqueued = now
        try:
            last_error: Optional[BaseException] = None
            for _attempt in range(2):  # one re-route if a shard just failed
                shard = self._route(family, payload)
                try:
                    future = shard.server.submit(payload, deadline_ms=deadline_ms)
                    break
                except ServerUnavailable as error:
                    last_error = error  # shard failed between routing and submit
            else:
                raise last_error if last_error is not None else ServerUnavailable(
                    f"no shard of model {family!r} accepted the request")
        except BaseException:
            release()
            raise
        future.add_done_callback(release)
        future.add_done_callback(self._record_completion)
        return future

    def predict(self, request, model: Optional[str] = None,
                timeout: Optional[float] = None,
                deadline_ms: Optional[float] = None):
        """Synchronous submission: route and wait for the result."""
        return self.submit(request, model=model,
                           deadline_ms=deadline_ms).result(timeout=timeout)

    def _record_completion(self, future: "Future") -> None:
        if future.cancelled() or future.exception() is not None:
            return
        result = future.result()
        with self._stats_lock:
            self._completed += 1
            self._last_completed = time.monotonic()
            self._latency_hist.observe(result.timing.total_ms)

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def close(self, *, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Drain every shard, stop every worker, release every segment."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        errors: List[BaseException] = []
        for shard in self._shards:
            try:
                shard.server.close(drain=drain, timeout=timeout)
            except BaseException as error:  # noqa: BLE001 - close all anyway
                errors.append(error)
        for shard in self._shards:
            try:
                shard.engine.shutdown(timeout=timeout if timeout is not None else 10.0)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)
        if errors:
            raise errors[0]

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    @property
    def workers(self) -> int:
        return len(self._shards)

    @property
    def models(self) -> Tuple[str, ...]:
        return tuple(sorted(self._families))

    def stats(self) -> ServerStats:
        """Cluster-level :class:`ServerStats` with one per-shard entry each
        in ``shards`` (same type, ``shards`` empty in turn)."""
        shard_stats = tuple(shard.server.stats() for shard in self._shards)
        with self._stats_lock:
            mean = self._latency_hist.mean
            p50, p95, p99 = self._latency_hist.percentiles()
            completed = self._completed
            first = self._first_enqueued
            last = self._last_completed
        states = [s.state for s in shard_stats]
        if any(state == "healthy" for state in states):
            state = "healthy"
        elif any(state == "degraded" for state in states):
            state = "degraded"
        else:
            state = "failed"
        wall = (last - first) if (first is not None and last is not None) else None
        batch_sizes = [s.mean_batch_size * s.batches for s in shard_stats
                       if s.batches]
        total_batches = sum(s.batches for s in shard_stats)
        return ServerStats(
            state=state,
            requests=completed,
            batches=total_batches,
            mean_batch_size=(sum(batch_sizes) / total_batches
                             if total_batches else float("nan")),
            latency_ms_mean=mean,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            throughput_rps=(completed / wall) if wall and wall > 0 else float("nan"),
            queue_depth=sum(s.queue_depth for s in shard_stats),
            shed_deadline=sum(s.shed_deadline for s in shard_stats),
            shed_watermark=sum(s.shed_watermark for s in shard_stats),
            rejected=self._gate.rejected + sum(s.rejected for s in shard_stats),
            requeues=sum(s.requeues for s in shard_stats),
            failed_requests=sum(s.failed_requests for s in shard_stats),
            nonfinite_outputs=sum(s.nonfinite_outputs for s in shard_stats),
            engine_crashes=sum(s.engine_crashes for s in shard_stats),
            engine_restarts=sum(s.engine_restarts for s in shard_stats),
            worker_respawns=sum(shard.engine.respawns for shard in self._shards),
            oversized_transfers=sum(shard.engine.oversized_transfers
                                    for shard in self._shards),
            workers=len(self._shards),
            shards=shard_stats,
        )

    # -------------------------------------------------------------- #
    # Cluster-wide telemetry view
    # -------------------------------------------------------------- #
    # Worker metric deltas piggyback on batch replies and are merged into
    # this process's global registry with {"model", "shard"} labels (see
    # RemoteEngine._absorb_telemetry), so the registry already holds the
    # single cluster-wide view with a per-shard breakdown.  These helpers
    # just expose it from the serving front end.
    def metrics_snapshot(self) -> dict:
        """JSON-ready snapshot of every metric, worker shards included."""
        return observability.registry().snapshot()  # repro-lint: disable=RL003 -- scrape endpoint, not a hot path

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the cluster-wide registry."""
        return observability.registry().render_prometheus()  # repro-lint: disable=RL003 -- scrape endpoint, not a hot path
