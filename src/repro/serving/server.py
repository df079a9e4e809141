"""In-process inference server with dynamic micro-batching and fault tolerance.

Requests submitted concurrently are coalesced into batches before they hit
the engine, which is where serving throughput comes from: one batched
forward amortizes the per-layer Python dispatch across every request in the
batch, while the matrix products themselves were already batched.

Batching policy (the classic size/timeout-bounded queue):

* an arriving request joins the pending batch for its *bucket* (same-shape
  requests share a bucket; variable-length token requests are padded up to
  the next configured bucket length),
* a bucket is flushed to the engine as soon as it holds
  ``max_batch_size`` requests, or when the oldest request in it has waited
  ``max_delay_ms`` -- so an isolated request pays at most the configured
  delay, and a burst fills whole batches,
* requests are processed strictly FIFO within a bucket, and every future
  resolves with its own row of the batched output, so submission order maps
  to results regardless of coalescing.

Robustness layer (what makes the server fit for sustained traffic):

* **Deadlines** -- ``submit(request, deadline_ms=...)`` bounds how long a
  request may wait.  Expired requests are shed *before* batch assembly (they
  never waste engine time) and resolve with :class:`DeadlineExceeded`.
* **Admission control / backpressure** -- ``max_queue_depth`` bounds
  unresolved work.  Policy ``"reject"`` raises :class:`ServerOverloaded`
  immediately; ``"block"`` waits up to ``block_timeout_ms`` for capacity.
  A ``shed_watermark`` sheds already-expired work proactively when the
  backlog grows past it, oldest first.
* **Poison isolation** -- payloads are validated at submit time
  (:class:`InvalidRequest` for non-numeric / non-finite / empty payloads);
  when a *batch* fails inside the engine, the batch is bisected: the halves
  are re-enqueued separately (with capped exponential backoff) so healthy
  requests still complete and only the poisoned request(s) fail, after a
  bounded number of solo retries.
* **Engine supervision** -- an :class:`~repro.serving.engine.EngineCrash`
  marks the server degraded, fails the in-flight batch descriptively, and
  triggers bounded ``engine.rewarm()`` restart attempts; if they are
  exhausted the server refuses new work (:class:`ServerUnavailable`) and
  resolves everything pending.
* **One lifecycle** -- this server (so each ``ShardedServer`` shard) and the
  ``GenerationServer`` run on one :class:`LifecycleServer`.  A worker dying
  of an uncaught error fails every held future with
  :class:`ServerUnavailable` carrying the traceback; ``failure`` holds it
  and every ``close()`` raises it.
* **Graceful drain** -- ``close(*, drain=True, timeout=10.0)`` stops
  admission; the worker finishes held work until ``timeout`` seconds out
  (``None``: no limit), then -- or at once with ``drain=False`` -- fails
  the rest with :class:`ServerClosed` when its current call returns.
  ``close()`` raises if the worker outlives that horizon by
  :data:`CLOSE_GRACE_S`.  Leaving a ``with`` block is ``close()``.

Both submission styles are provided: :meth:`InferenceServer.submit` returns
a ``concurrent.futures.Future`` (async), :meth:`InferenceServer.predict`
blocks for the result (sync).  Every result carries per-request latency
accounting (queue wait, compute time, batch size, retries).
"""

from __future__ import annotations

import math
import queue
import threading
import time
import traceback
from concurrent.futures import CancelledError, Future, InvalidStateError
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import observability
from ..observability.metrics import LatencyHistogram
from .engine import EngineCrash, InferenceEngine

__all__ = [
    "AdmissionGate",
    "BatchingConfig",
    "RequestTiming",
    "InferenceResult",
    "InferenceServer",
    "ServerStats",
    "ServingError",
    "InvalidRequest",
    "DeadlineExceeded",
    "ServerOverloaded",
    "ServerClosed",
    "ServerUnavailable",
    "NonFiniteOutput",
    "validate_admission",
    "validate_payload",
]

_TIMEOUT = object()


# --------------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------------- #
class ServingError(RuntimeError):
    """Base class for request-level serving failures."""


class InvalidRequest(ServingError, ValueError):
    """The payload failed submit-time validation (shape/dtype/finiteness)."""


class DeadlineExceeded(ServingError):
    """The request's deadline expired before the engine could serve it."""


class ServerOverloaded(ServingError):
    """Admission control rejected the request: the queue is at capacity."""


class ServerClosed(ServingError):
    """The server is closed (or closed before the request completed)."""


class ServerUnavailable(ServingError):
    """The server refuses work: its engine could not be restarted, or its
    worker died (the message then carries the worker's traceback)."""


class NonFiniteOutput(ServingError):
    """Output validation found NaN/inf in this request's output row."""


def validate_admission(config) -> None:
    """Check the admission fields every serving config shares:
    ``max_queue_depth``, ``admission_policy`` and ``block_timeout_ms``."""
    if config.max_queue_depth is not None and config.max_queue_depth < 1:
        raise ValueError("max_queue_depth must be >= 1 (or None)")
    if config.admission_policy not in ("reject", "block"):
        raise ValueError("admission_policy must be 'reject' or 'block'")
    if config.block_timeout_ms < 0:
        raise ValueError("block_timeout_ms must be >= 0")


def _release_nothing(_future=None) -> None:
    pass


class AdmissionGate:
    """Bounded admission, the one implementation behind every front end.

    The gate holds ``config.max_queue_depth`` units of capacity (unbounded
    when ``None``); every admitted request holds one until it resolves.  At
    capacity, policy ``"reject"`` raises :class:`ServerOverloaded` at once
    and ``"block"`` waits up to ``block_timeout_ms`` for a unit first.  The
    gate counts every rejection, including those a server decides itself
    (:meth:`reject`).
    """

    def __init__(self, config, label: str):
        self.config = config
        self.label = label
        self._capacity = (threading.Semaphore(config.max_queue_depth)
                          if config.max_queue_depth is not None else None)
        self._lock = threading.Lock()
        self._rejected = 0  # guarded-by: _lock

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    def reject(self, error: ServingError) -> ServingError:
        """Count a rejection and return ``error`` for the caller to raise."""
        with self._lock:
            self._rejected += 1
        return error

    def admit(self) -> Callable[..., None]:
        """Take one unit of capacity or raise :class:`ServerOverloaded`.

        Returns the unit's release.  Register it with the request future's
        ``add_done_callback`` so it runs when the future resolves,
        cancellation included; call it directly on a path where no future
        was made.  It frees the unit exactly once however often it runs.
        """
        capacity = self._capacity
        if capacity is None:
            return _release_nothing
        if self.config.admission_policy == "reject":
            admitted = capacity.acquire(blocking=False)
        else:
            admitted = capacity.acquire(timeout=self.config.block_timeout_ms / 1e3)
        if not admitted:
            raise self.reject(ServerOverloaded(
                f"{self.label} at capacity ({self.config.max_queue_depth} "
                f"unresolved requests, policy={self.config.admission_policy!r})"))
        held = [capacity]

        def release(_future=None) -> None:
            try:
                unit = held.pop()  # atomic: only the first caller gets it
            except IndexError:
                return
            unit.release()

        return release


#: How long ``close()`` waits for the worker past the close horizon.
CLOSE_GRACE_S = 1.0


class _Stopped(Exception):
    """Raised by :meth:`LifecycleServer._fail` to end the serve loop."""


class LifecycleServer:
    """The lifecycle every front end runs on: one worker thread, its
    ``closed`` / ``state`` / ``failure`` under one lock, the submit-side
    check, the close horizon, the worker-death capture, the admission gate
    and the request accounting (:meth:`_resolve`, :meth:`_shed_error`).

    A subclass sets ``_label`` and ``config`` (the gate's), builds what its
    hooks use, then calls ``super().__init__()``, which starts the worker.
    The hooks: ``_serve``, the loop, which asks :meth:`_closing` /
    :meth:`_expired` when to return; ``_wake_worker``, which unblocks that
    loop; and ``_abort_all(error)``, which fails all the server holds and
    runs on the worker once ``_serve`` ends, so only the worker resolves
    what it holds.
    """

    _label = "server"  # names the worker thread and this server's errors

    def __init__(self):
        self._gate = AdmissionGate(self.config, self._label)
        self._stats_lock = threading.Lock()
        self._submitted = 0  # guarded-by: _stats_lock
        self._completed = 0  # guarded-by: _stats_lock
        self._failed = 0  # guarded-by: _stats_lock
        self._shed_deadline = 0  # guarded-by: _stats_lock
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._horizon = math.inf  # monotonic close horizon  # guarded-by: _lock
        self._state = "healthy"  # healthy | degraded | failed  # guarded-by: _lock
        self._reason: Optional[str] = None  # why the state is failed  # guarded-by: _lock
        self._failure: Optional[str] = None  # the dead worker's traceback  # guarded-by: _lock
        # The thread drops its target when it ends: a closed server is in
        # no reference cycle.
        self._thread = threading.Thread(target=self._run_worker,
                                        name=f"{self._label} worker", daemon=True)
        self._thread.start()

    def _accept(self, put: Callable[[object], None], item: object) -> None:
        """``put(item)`` and count it submitted while the server accepts
        work, else raise.  Under the lock ``close()`` takes, so no item
        lands behind the exit."""
        with self._lock:
            if self._closed:
                raise ServerClosed(f"{self._label} is closed")
            if self._state == "failed":
                raise ServerUnavailable(
                    f"{self._label} is unavailable: {self._reason}")
            with self._stats_lock:
                self._submitted += 1
            put(item)

    def _resolve(self, future: Future, result=None,
                 error: Optional[BaseException] = None) -> bool:
        """Settle a request's ``future`` unless its caller cancelled it,
        count the outcome by the :mod:`repro.serving` accounting rule, and
        return whether this call resolved it.  The worker calls this once
        for every request it took; a cancel may land at any moment, so
        checking ``done()`` before ``set_result`` would be a race."""
        try:
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
            resolved = True
        except InvalidStateError:
            resolved = False
        with self._stats_lock:
            if resolved and error is None:
                self._completed += 1
            elif resolved and isinstance(error, DeadlineExceeded):
                self._shed_deadline += 1
            else:
                self._failed += 1
        return resolved

    def _shed_error(self, future: Future, submitted: float,
                    deadline_ms: Optional[float], now: float,
                    where: str) -> Optional[BaseException]:
        """The one shed check before a request's next step: the error it
        leaves with (a :class:`CancelledError` if its caller cancelled it, a
        :class:`DeadlineExceeded` once ``now`` is ``deadline_ms`` past
        ``submitted``), or ``None``.  ``where`` names the step."""
        if future.cancelled():
            return CancelledError()
        if deadline_ms is None or now < submitted + deadline_ms / 1e3:
            return None
        return DeadlineExceeded(
            f"request deadline of {deadline_ms:.1f} ms expired {where}, "
            f"{(now - submitted) * 1e3:.1f} ms after submit")

    def _outcomes(self) -> Dict[str, int]:
        """The counts both stats types report under the same names."""
        with self._stats_lock:
            counts = {"submitted": self._submitted, "completed": self._completed,
                      "failed": self._failed, "shed_deadline": self._shed_deadline}
        counts["rejected"] = self._gate.rejected
        return counts

    def _held(self) -> int:
        """Requests taken and not yet let go of."""
        with self._stats_lock:
            return (self._submitted - self._completed - self._failed
                    - self._shed_deadline)

    @property
    def state(self) -> str:
        """``"healthy"`` | ``"degraded"`` (recovering) | ``"failed"``."""
        with self._lock:
            return self._state

    @property
    def failure(self) -> Optional[str]:
        """The traceback that killed the worker, or ``None``."""
        with self._lock:
            return self._failure

    def _closing(self) -> bool:
        """Whether ``close()`` was called: finish what is held, then return."""
        with self._lock:
            return self._closed

    def _expired(self) -> bool:
        """Whether the close horizon has passed: return now."""
        with self._lock:
            return self._closed and time.monotonic() >= self._horizon

    def _set_state(self, state: str) -> None:
        """Mark the server ``"healthy"`` or ``"degraded"``."""
        with self._lock:
            self._state = state

    def _fail(self, reason: str) -> None:
        """Refuse work and end the serve loop: a handled end, so held work
        fails with :class:`ServerUnavailable` but ``failure`` stays None."""
        with self._lock:
            self._state = "failed"
            self._reason = reason
        raise _Stopped(reason)

    def _death(self, formatted: str) -> ServerUnavailable:
        return ServerUnavailable(
            f"{self._label} worker died from an uncaught error:\n{formatted}")

    def _run_worker(self) -> None:
        try:
            self._serve()
        except _Stopped as stopped:
            error: BaseException = ServerUnavailable(
                f"{self._label} is unavailable: {stopped}")
        except BaseException:  # noqa: BLE001 - record, resolve, raise via close()
            formatted = traceback.format_exc()
            with self._lock:
                self._state = "failed"
                self._reason = "its worker died from an uncaught error"
                self._failure = formatted
            error = self._death(formatted)
        else:
            error = ServerClosed(f"{self._label} closed before request completed")
        self._abort_all(error)

    def close(self, *, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Stop admission and shut the worker down, as the
        :mod:`repro.serving.server` docstring says; closing again waits for
        the same exit."""
        with self._lock:
            first = not self._closed
            if first:
                self._closed = True
                if not drain:
                    self._horizon = time.monotonic()
                elif timeout is not None:
                    self._horizon = time.monotonic() + max(timeout, 0.0)
            horizon = self._horizon
        if first:
            self._wake_worker()
        self._thread.join(None if horizon == math.inf else
                          max(0.0, horizon + CLOSE_GRACE_S - time.monotonic()))
        failure = self.failure
        if failure is not None:
            raise self._death(failure)
        if self._thread.is_alive():
            raise RuntimeError(
                f"{self._label} worker did not exit within {CLOSE_GRACE_S}s "
                "of its close horizon (a call wedged past it?)")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the dynamic micro-batching queue and its robustness layer.

    Parameters
    ----------
    max_batch_size:
        Flush a bucket as soon as it holds this many requests.
    max_delay_ms:
        Flush a bucket when its oldest request has waited this long.  This
        bounds the latency cost of batching for sparse traffic.
    pad_lengths:
        Bucket boundaries for variable-length 1-D integer (token) requests:
        each request is padded with ``pad_value`` up to the smallest
        configured length that fits, so near-equal lengths share batches.
        ``None`` buckets token requests by exact length.  Note that the
        encoder attends over PAD positions (the training substrate pads to
        a fixed sequence length and uses no source mask), so a sequence
        model's output depends on the padded length: results are
        reproducible per bucket configuration, and changing ``pad_lengths``
        can change outputs for requests shorter than their bucket.
    pad_value:
        Padding token (the model's PAD index).
    max_queue_depth:
        Bound on unresolved requests held by the server (queued, batched, or
        retrying).  ``None`` leaves admission unbounded (the seed behavior).
    admission_policy:
        What :meth:`InferenceServer.submit` does at capacity: ``"reject"``
        raises :class:`ServerOverloaded` immediately; ``"block"`` waits up
        to ``block_timeout_ms`` for capacity, then raises.
    block_timeout_ms:
        How long a ``"block"``-policy submit waits for capacity.
    shed_watermark:
        Backlog depth above which the worker proactively sheds *expired*
        requests (oldest first) instead of waiting for their buckets to
        assemble.  ``None`` disables proactive shedding (expired requests
        are still shed at assembly time).
    max_retries:
        How many times a request that failed *alone* (a singleton batch) is
        retried before its future gets the engine's error.  Bisection
        splits of a failed multi-request batch do not count against this
        budget -- only genuine solo failures do.
    retry_backoff_ms / retry_backoff_max_ms:
        Capped exponential backoff between solo retries (the first retry
        waits ``retry_backoff_ms``, doubling up to the cap).  Bisection
        halves are re-enqueued without backoff so isolation stays fast.
    engine_restart_limit:
        Bounded number of ``engine.rewarm()`` attempts after an
        :class:`~repro.serving.engine.EngineCrash` before the server gives
        up and refuses new work.
    restart_backoff_ms:
        Capped exponential backoff between restart attempts (doubles per
        attempt, capped at 10x the base).
    validate_requests:
        Check payloads at submit time: numeric dtype, non-empty, and (for
        floating payloads) finite.  Rejects poison before it can reach a
        batch.
    validate_outputs:
        Check each request's output row for NaN/inf after the engine runs;
        poisoned rows fail with :class:`NonFiniteOutput` while the rest of
        the batch completes normally.  Off by default because some model
        families use NaN sentinels legitimately (e.g. the YOLO decoder's
        no-detection objectness).
    """

    max_batch_size: int = 16
    max_delay_ms: float = 2.0
    pad_lengths: Optional[Sequence[int]] = None
    pad_value: int = 0
    max_queue_depth: Optional[int] = None
    admission_policy: str = "reject"
    block_timeout_ms: float = 1000.0
    shed_watermark: Optional[int] = None
    max_retries: int = 1
    retry_backoff_ms: float = 1.0
    retry_backoff_max_ms: float = 20.0
    engine_restart_limit: int = 2
    restart_backoff_ms: float = 10.0
    validate_requests: bool = True
    validate_outputs: bool = False

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.pad_lengths is not None:
            object.__setattr__(self, "pad_lengths",
                               tuple(sorted(int(l) for l in self.pad_lengths)))
        validate_admission(self)
        if self.shed_watermark is not None and self.shed_watermark < 1:
            raise ValueError("shed_watermark must be >= 1 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0 or self.retry_backoff_max_ms < 0:
            raise ValueError("retry backoff must be >= 0")
        if self.engine_restart_limit < 0:
            raise ValueError("engine_restart_limit must be >= 0")


@dataclass(frozen=True)
class ServerStats:
    """Typed serving statistics, shared by the in-process
    :class:`InferenceServer` and the multi-process
    :class:`~repro.serving.cluster.ShardedServer`.

    Counts are exact since server start; ``submitted``, ``completed``,
    ``failed``, ``shed_deadline`` and ``rejected`` follow the
    :mod:`repro.serving` accounting rule.  Latency percentiles come from a
    fixed-bucket log-scale histogram
    (:class:`~repro.observability.metrics.LatencyHistogram`) covering every
    request since start in O(buckets) memory.  For a sharded server the
    top-level object aggregates the cluster and ``shards`` holds one per-shard
    :class:`ServerStats` (with ``shards`` empty in turn), so per-shard
    queue depth, sheds, rejects, retries, and restarts stay inspectable.
    """

    state: str
    submitted: int
    completed: int
    failed: int
    shed_deadline: int
    rejected: int
    batches: int
    mean_batch_size: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    throughput_rps: float
    queue_depth: int
    shed_watermark: int
    requeues: int
    nonfinite_outputs: int
    engine_crashes: int
    engine_restarts: int
    worker_respawns: int = 0
    oversized_transfers: int = 0
    workers: int = 1
    shards: Tuple["ServerStats", ...] = field(default=())

    def as_dict(self) -> dict:
        """A plain-dict rendering (shards rendered recursively)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["shards"] = [shard.as_dict() for shard in self.shards]
        return out


def validate_payload(payload: np.ndarray) -> None:
    """Submit-time poison screening shared by both serving front ends:
    numeric dtype, non-empty, and (for floating payloads) finite."""
    if payload.dtype == object or not np.issubdtype(payload.dtype, np.number):
        raise InvalidRequest(
            f"request dtype {payload.dtype} is not numeric")
    if payload.size == 0:
        raise InvalidRequest("request payload is empty")
    if np.issubdtype(payload.dtype, np.floating) and not np.all(np.isfinite(payload)):
        raise InvalidRequest(
            "request payload contains non-finite values (NaN/inf)")


@dataclass
class RequestTiming:
    """Per-request latency accounting.

    ``compute_ms`` is the engine call alone; ``assemble_ms`` is the batch
    stack/pad step that precedes it (both shared by every request in the
    batch).  ``transport_ms`` is the process-boundary overhead for batches
    served through a :class:`~repro.serving.cluster.RemoteEngine`
    (round-trip minus worker compute; ``None`` for in-process engines).
    ``trace_id`` is set when this request was sampled by the observability
    tracer -- its span timeline appears in the exported Chrome trace.
    """

    queue_ms: float
    compute_ms: float
    total_ms: float
    batch_size: int
    bucket: Tuple
    retries: int = 0
    deadline_ms: Optional[float] = None
    assemble_ms: float = 0.0
    transport_ms: Optional[float] = None
    trace_id: Optional[int] = None


@dataclass
class InferenceResult:
    """One request's output row plus its timing."""

    output: np.ndarray
    timing: RequestTiming


class _Request:
    __slots__ = ("payload", "future", "enqueued", "deadline_ms",
                 "requeues", "failures", "tag", "ready_at", "trace_id")

    def __init__(self, payload: np.ndarray, future: Future, enqueued: float,
                 deadline_ms: Optional[float] = None,
                 trace_id: Optional[int] = None):
        self.payload = payload
        self.future = future
        self.enqueued = enqueued
        self.deadline_ms = deadline_ms
        self.requeues = 0     # total re-enqueues (bisection splits + solo retries)
        self.failures = 0     # solo (singleton-batch) failures, vs. max_retries
        self.tag: Tuple[int, ...] = ()  # bisection lineage: halves never re-merge
        self.ready_at = enqueued
        self.trace_id = trace_id  # sampled-tracing id, None when unsampled


def _server_metrics(registry, **labels):
    return (
        registry.counter(
            "serving_requests_total",
            help="Requests completed by the batching server.",
            **labels),
        registry.counter(
            "serving_batches_total",
            help="Batches executed by the batching server.",
            **labels),
        registry.histogram(
            "serving_request_latency_ms",
            help="End-to-end request latency in milliseconds.",
            **labels),
        registry.histogram(
            "serving_batch_compute_ms",
            help="Engine compute time per batch in milliseconds.",
            **labels),
        registry.gauge(
            "serving_queue_depth",
            help="Requests admitted but not yet completed.",
            **labels),
    )


_SHUTDOWN = object()  # the wake hook's queue sentinel: close() was called


class InferenceServer(LifecycleServer):
    """Dynamic-batching, fault-tolerant request server over an
    :class:`InferenceEngine`."""

    def __init__(self, engine: InferenceEngine, config: Optional[BatchingConfig] = None,
                 name: str = "server"):
        self.engine = engine
        self.config = config if config is not None else BatchingConfig()
        self.name = name  # label on this server's global-registry metrics
        self._queue: "queue.Queue" = queue.Queue()
        # Worker-owned batching state.  Instance attributes (not _serve
        # locals) so the abort-all -- worker death, engine failure, drain
        # expiry -- can resolve every pending future.
        self._pending: Dict[Tuple, List[_Request]] = {}
        self._flush_deadlines: Dict[Tuple, float] = {}
        self._retry_buffer: List[_Request] = []
        # Fixed-bucket log-scale histogram: p50/p95/p99 over every request
        # since start in O(buckets) memory -- a long-lived server neither
        # grows without bound nor slows stats() down, and the percentiles
        # are computed the same way as the load rig's (loadgen.py).
        self._latency_hist = LatencyHistogram("serving_request_latency_ms")  # guarded-by: _stats_lock
        self._batched_requests = 0  # sum of executed batch sizes  # guarded-by: _stats_lock
        self._metrics = observability.LazyMetrics(_server_metrics, server=name)
        self._batches = 0  # guarded-by: _stats_lock
        self._shed_watermark = 0  # guarded-by: _stats_lock
        self._requeues = 0  # guarded-by: _stats_lock
        self._nonfinite_outputs = 0  # guarded-by: _stats_lock
        self._engine_crashes = 0  # guarded-by: _stats_lock
        self._engine_restarts = 0  # guarded-by: _stats_lock
        self._first_enqueued: Optional[float] = None  # guarded-by: _stats_lock
        self._last_completed: Optional[float] = None  # guarded-by: _stats_lock
        super().__init__()

    # -------------------------------------------------------------- #
    # Submission APIs
    # -------------------------------------------------------------- #
    def _validate_payload(self, payload: np.ndarray) -> None:
        validate_payload(payload)

    def submit(self, request, deadline_ms: Optional[float] = None) -> "Future[InferenceResult]":
        """Enqueue one request; returns a future resolving to an
        :class:`InferenceResult`.

        ``deadline_ms`` bounds the request's total time in the server: a
        request still waiting when its deadline expires is shed before
        batch assembly and its future raises :class:`DeadlineExceeded`.
        """
        tracer = observability.active_tracer()
        trace_id = tracer.sample() if tracer is not None else None
        submit_started = time.monotonic() if trace_id is not None else 0.0
        payload = np.asarray(request)
        if self.config.validate_requests:
            self._validate_payload(payload)
        if deadline_ms is not None and deadline_ms <= 0:
            raise InvalidRequest(f"deadline_ms must be positive, got {deadline_ms}")
        if self._is_token_request(payload) and self.config.pad_lengths is not None:
            if payload.shape[0] > self.config.pad_lengths[-1]:
                raise InvalidRequest(
                    f"token request of length {payload.shape[0]} exceeds the largest "
                    f"bucket length {self.config.pad_lengths[-1]}")
        admit_started = time.monotonic() if trace_id is not None else 0.0
        release = self._gate.admit()
        if trace_id is not None:
            tracer.add_event("admit", admit_started,
                             time.monotonic() - admit_started,
                             args={"trace_id": trace_id, "server": self.name})
        future: "Future[InferenceResult]" = Future()
        future.add_done_callback(release)
        now = time.monotonic()
        with self._stats_lock:
            if self._first_enqueued is None:
                self._first_enqueued = now
        try:
            self._accept(self._queue.put, _Request(
                payload, future, now, deadline_ms, trace_id=trace_id))
        except BaseException:
            # The future will never resolve; free its admission unit.
            future.set_exception(ServerClosed("request was never enqueued"))
            raise
        if trace_id is not None:
            tracer.add_event("submit", submit_started,
                             time.monotonic() - submit_started,
                             args={"trace_id": trace_id, "server": self.name})
        return future

    def predict(self, request, timeout: Optional[float] = None,
                deadline_ms: Optional[float] = None) -> InferenceResult:
        """Synchronous submission: enqueue and wait for the result."""
        return self.submit(request, deadline_ms=deadline_ms).result(timeout=timeout)

    # -------------------------------------------------------------- #
    # Load, cheap enough for a router's per-request hot path (as ``state``)
    # -------------------------------------------------------------- #
    @property
    def queue_depth(self) -> int:
        """Requests the server holds (queued, batched, or retrying)."""
        return self._held()

    # -------------------------------------------------------------- #
    # Bucketing / assembly
    # -------------------------------------------------------------- #
    @staticmethod
    def _is_token_request(payload: np.ndarray) -> bool:
        return payload.ndim == 1 and np.issubdtype(payload.dtype, np.integer)

    def _bucket_key(self, payload: np.ndarray) -> Tuple:
        if self._is_token_request(payload):
            length = payload.shape[0]
            if self.config.pad_lengths is not None:
                for bucket_length in self.config.pad_lengths:
                    if length <= bucket_length:
                        return ("tokens", bucket_length)
            return ("tokens", length)
        return ("shape",) + tuple(payload.shape)

    def _assemble(self, base_key: Tuple, requests: List[_Request]) -> np.ndarray:
        if base_key[0] == "tokens":
            bucket_length = base_key[1]
            rows = [
                np.pad(r.payload, (0, bucket_length - r.payload.shape[0]),
                       constant_values=self.config.pad_value)
                if r.payload.shape[0] < bucket_length else r.payload
                for r in requests
            ]
            return np.stack(rows)
        return np.stack([r.payload for r in requests])

    # -------------------------------------------------------------- #
    # Worker: request lifecycle
    # -------------------------------------------------------------- #
    def _shed_expired(self, requests: List[_Request], now: float,
                      watermark: bool = False) -> List[_Request]:
        """Resolve the requests :meth:`_shed_error` sheds, oldest first;
        return the rest."""
        alive = []
        for request in sorted(requests, key=lambda r: r.enqueued):
            error = self._shed_error(request.future, request.enqueued,
                                     request.deadline_ms, now, "while queued")
            if error is None:
                alive.append(request)
                continue
            self._resolve(request.future, error=error)
            if watermark and isinstance(error, DeadlineExceeded):
                with self._stats_lock:
                    self._shed_watermark += 1
        return alive

    def _backlog_depth(self) -> int:
        return (sum(len(bucket) for bucket in self._pending.values())
                + len(self._retry_buffer) + self._queue.qsize())

    def _shed_over_watermark(self, now: float) -> None:
        """Proactive load shedding: above the watermark, drop expired work
        (oldest first) from every bucket and the retry buffer."""
        watermark = self.config.shed_watermark
        if watermark is None or self._backlog_depth() <= watermark:
            return
        for key in list(self._pending):
            kept = self._shed_expired(self._pending[key], now, watermark=True)
            if kept:
                self._pending[key] = kept
            else:
                del self._pending[key]
                self._flush_deadlines.pop(key, None)
        self._retry_buffer[:] = self._shed_expired(self._retry_buffer, now,
                                                   watermark=True)

    def _schedule_retry(self, request: _Request, error: BaseException,
                        now: float, backoff: bool) -> None:
        """Re-enqueue a request after a batch failure (bisection or solo retry)."""
        request.requeues += 1
        with self._stats_lock:
            self._requeues += 1
        delay = 0.0
        if backoff:
            delay = min(self.config.retry_backoff_ms * (2 ** max(request.failures - 1, 0)),
                        self.config.retry_backoff_max_ms) / 1e3
        request.ready_at = now + delay
        shed = self._shed_error(request.future, request.enqueued,
                                request.deadline_ms, request.ready_at,
                                f"before retry {request.requeues} (last error: {error!r})")
        if shed is not None:
            self._resolve(request.future, error=shed)
            return
        self._retry_buffer.append(request)

    def _handle_batch_failure(self, requests: List[_Request],
                              error: BaseException) -> None:
        """Poison isolation: bisect failed batches, bounded-retry singletons.

        A failed multi-request batch says nothing about *which* request is
        poisoned, so the halves are re-enqueued under distinct bisection
        tags (tagged buckets never re-merge) and retried separately --
        healthy requests complete in O(log batch) extra rounds.  A failed
        singleton is definitive: it burns one solo-retry, and once the
        budget is spent its future gets the engine's error.
        """
        now = time.monotonic()
        if len(requests) == 1:
            request = requests[0]
            request.failures += 1
            if request.failures > self.config.max_retries:
                self._resolve(request.future, error=error)
            else:
                self._schedule_retry(request, error, now, backoff=True)
            return
        mid = len(requests) // 2
        for half_index, half in enumerate((requests[:mid], requests[mid:])):
            for request in half:
                request.tag = request.tag + (half_index,)
                self._schedule_retry(request, error, now, backoff=False)

    def _handle_engine_crash(self, requests: List[_Request],
                             error: BaseException) -> None:
        """Engine supervision: degrade, fail the in-flight batch, bounded rewarm."""
        for request in requests:
            self._resolve(request.future, error=EngineCrash(
                f"engine crashed while serving this batch: {error!r}"))
        self._set_state("degraded")
        with self._stats_lock:
            self._engine_crashes += 1
        for attempt in range(1, self.config.engine_restart_limit + 1):
            backoff = min(self.config.restart_backoff_ms * (2 ** (attempt - 1)),
                          self.config.restart_backoff_ms * 10) / 1e3
            time.sleep(backoff)
            try:
                rewarm = getattr(self.engine, "rewarm", None)
                if rewarm is None:
                    raise EngineCrash("engine has no rewarm() hook")
                rewarm()
            except BaseException:  # noqa: BLE001 - try the next attempt
                continue
            self._set_state("healthy")
            with self._stats_lock:
                self._engine_restarts += 1
            return
        # Restart budget exhausted: refuse new work, resolve everything.
        self._fail(
            f"engine crashed ({error!r}) and {self.config.engine_restart_limit} "
            "rewarm attempts failed")

    def _execute(self, base_key: Tuple, requests: List[_Request]) -> None:
        requests = self._shed_expired(requests, time.monotonic())
        if not requests:
            return
        batch_started = time.monotonic()
        t_assembled = batch_started
        try:
            batch = self._assemble(base_key, requests)
            t_assembled = time.monotonic()
            outputs = self.engine.predict(batch)
            outputs = np.asarray(outputs)
            if outputs.shape[0] != len(requests):
                raise ServingError(
                    f"engine returned {outputs.shape[0]} rows for a batch of "
                    f"{len(requests)} requests")
        except EngineCrash as error:
            self._handle_engine_crash(requests, error)
            return
        except BaseException as error:  # noqa: BLE001 - isolate, don't die
            self._handle_batch_failure(requests, error)
            return
        done = time.monotonic()
        assemble_ms = (t_assembled - batch_started) * 1e3
        roundtrip_ms = (done - t_assembled) * 1e3
        transport_ms = getattr(self.engine, "last_transport_ms", None)
        if transport_ms is not None:
            transport_ms = min(max(float(transport_ms), 0.0), roundtrip_ms)
        compute_ms = roundtrip_ms - (transport_ms or 0.0)
        batch_size = len(requests)
        poisoned: Dict[int, NonFiniteOutput] = {}
        if self.config.validate_outputs and np.issubdtype(outputs.dtype, np.floating):
            flat = outputs.reshape(batch_size, -1)
            finite_rows = np.isfinite(flat).all(axis=1)
            for index in np.flatnonzero(~finite_rows):
                poisoned[int(index)] = NonFiniteOutput(
                    f"engine output row {int(index)} of a {batch_size}-request "
                    "batch contains NaN/inf")
        with self._stats_lock:
            self._batched_requests += batch_size
            self._batches += 1
        tracer = observability.active_tracer()
        if tracer is not None and tracer.armed:
            self._emit_batch_spans(tracer, base_key, batch_size,
                                   batch_started, t_assembled, done, transport_ms)
        observed = observability.enabled()
        if observed:
            self._observe_batch(compute_ms)
        for index, request in enumerate(requests):
            if index in poisoned:
                with self._stats_lock:
                    self._nonfinite_outputs += 1
                self._resolve(request.future, error=poisoned[index])
                continue
            respond_started = time.monotonic() if request.trace_id is not None else 0.0
            timing = RequestTiming(
                queue_ms=(batch_started - request.enqueued) * 1e3,
                compute_ms=compute_ms,
                total_ms=(done - request.enqueued) * 1e3,
                batch_size=batch_size,
                bucket=base_key,
                retries=request.requeues,
                deadline_ms=request.deadline_ms,
                assemble_ms=assemble_ms,
                transport_ms=transport_ms,
                trace_id=request.trace_id,
            )
            if not self._resolve(request.future, InferenceResult(outputs[index], timing)):
                continue
            with self._stats_lock:
                self._last_completed = done
                self._latency_hist.observe(timing.total_ms)
            if observed:
                requests_total, _, latency, _, _ = self._metrics()
                requests_total.inc()
                latency.observe(timing.total_ms)
            if request.trace_id is not None and tracer is not None and tracer.armed:
                args = {"trace_id": request.trace_id, "server": self.name}
                tracer.add_event("queue", request.enqueued,
                                 batch_started - request.enqueued, args=args)
                tracer.add_event("respond", respond_started,
                                 time.monotonic() - respond_started, args=args)

    def _emit_batch_spans(self, tracer, base_key: Tuple, batch_size: int,
                          batch_started: float, t_assembled: float,
                          done: float, transport_ms: Optional[float]) -> None:
        """Emit batch-level pipeline spans (assemble / transport / compute).

        Transport time for a remote engine covers both the request and the
        response leg; it is drawn as two half-duration spans bracketing the
        compute span so the three tile the engine round-trip exactly.
        """
        args = {"server": self.name, "bucket": repr(base_key),
                "batch_size": batch_size}
        tracer.add_event("batch-assemble", batch_started,
                         t_assembled - batch_started, args=args)
        if transport_ms is None:
            tracer.add_event("compute", t_assembled, done - t_assembled, args=args)
            return
        leg_s = transport_ms / 2e3
        tracer.add_event("transport", t_assembled, leg_s, args=args)
        tracer.add_event("compute", t_assembled + leg_s,
                         max(0.0, done - t_assembled - 2 * leg_s), args=args)
        tracer.add_event("transport", done - leg_s, leg_s, args=args)

    def _observe_batch(self, compute_ms: float) -> None:
        _, batch_total, _, compute, depth = self._metrics()
        batch_total.inc()
        compute.observe(compute_ms)
        depth.set(self.queue_depth)

    def _flush(self, key: Tuple) -> None:
        requests = self._pending.pop(key, [])
        self._flush_deadlines.pop(key, None)
        if requests:
            self._execute(key[0], requests)

    # -------------------------------------------------------------- #
    # Worker: main loop
    # -------------------------------------------------------------- #
    def _admit_to_bucket(self, request: _Request, delay_s: float) -> bool:
        """Place a request in its bucket; flush if full.  Returns True if a
        full-batch flush ran (so the caller can re-check deadlines)."""
        try:
            key = (self._bucket_key(request.payload), request.tag)
        except BaseException:  # noqa: BLE001 - keep it reachable, re-raise
            # Park the request where _abort_all finds it, so the worker's
            # death fails it like every other held request.
            self._retry_buffer.append(request)
            raise
        bucket = self._pending.setdefault(key, [])
        bucket.append(request)
        flush_at = request.enqueued + delay_s
        if key not in self._flush_deadlines or flush_at < self._flush_deadlines[key]:
            self._flush_deadlines[key] = flush_at
        if len(bucket) >= self.config.max_batch_size:
            self._flush(key)
            return True
        return False

    def _release_due_retries(self, now: float, delay_s: float) -> None:
        due = [r for r in self._retry_buffer if r.ready_at <= now]
        if not due:
            return
        self._retry_buffer[:] = [r for r in self._retry_buffer if r.ready_at > now]
        for index, request in enumerate(due):
            try:
                self._admit_to_bucket(request, delay_s)
            except BaseException:  # noqa: BLE001 - keep the rest reachable
                # Put untouched retries back so _abort_all resolves them.
                self._retry_buffer.extend(due[index + 1:])
                raise

    def _serve(self) -> None:
        delay_s = self.config.max_delay_ms / 1e3
        while True:
            now = time.monotonic()
            self._release_due_retries(now, delay_s)
            wake_at = list(self._flush_deadlines.values())
            wake_at.extend(r.ready_at for r in self._retry_buffer)
            timeout = max(0.0, min(wake_at) - now) if wake_at else None
            try:
                item = self._queue.get(timeout=timeout)
            except queue.Empty:
                item = _TIMEOUT
            # Drain the backlog greedily before looking at deadlines:
            # requests that arrived while the previous batch was executing
            # carry already-expired flush deadlines, and must coalesce into
            # full batches instead of flushing one by one.
            while item is not _TIMEOUT:
                if item is _SHUTDOWN:
                    self._drain(delay_s)
                    return
                flushed = self._admit_to_bucket(item, delay_s)
                # A full-batch flush blocks on the engine; if it left
                # another bucket's deadline expired, break out so the
                # deadline scan runs before draining further -- a
                # saturating bucket must not starve the others past
                # their max_delay_ms bound.
                if flushed and self._flush_deadlines and \
                        min(self._flush_deadlines.values()) <= time.monotonic():
                    break
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    item = _TIMEOUT
            now = time.monotonic()
            self._shed_over_watermark(now)
            for key in [k for k, deadline in self._flush_deadlines.items()
                        if deadline <= now]:
                self._flush(key)

    def _wake_worker(self) -> None:
        self._queue.put(_SHUTDOWN)

    def _drain(self, delay_s: float) -> None:
        """Graceful drain: flush what is held until the close horizon; the
        lifecycle then fails the rest.  Every accepted request was queued
        ahead of the sentinel, so the queue holds nothing to admit."""
        while (self._pending or self._retry_buffer) and not self._expired():
            for request in self._retry_buffer:
                request.ready_at = 0.0  # drain ignores retry backoff
            self._release_due_retries(time.monotonic(), delay_s)
            for key in list(self._pending):
                if self._expired():
                    break
                self._flush(key)

    def _abort_all(self, error: BaseException) -> None:
        """Resolve every future the server still holds.  Futures must never
        leak: this runs on worker death, engine failure, and drain expiry."""
        for requests in self._pending.values():
            for request in requests:
                self._resolve(request.future, error=error)
        self._pending.clear()
        self._flush_deadlines.clear()
        for request in self._retry_buffer:
            self._resolve(request.future, error=error)
        self._retry_buffer.clear()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(item, _Request):
                self._resolve(item.future, error=error)

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #
    def stats(self) -> ServerStats:
        """Request/batch counts, robustness counters, throughput, and latency
        aggregates covering every request since the server started (bounded
        memory: latency lives in a fixed-bucket log-scale histogram)."""
        outcomes = self._outcomes()
        with self._stats_lock:
            mean = self._latency_hist.mean
            p50, p95, p99 = self._latency_hist.percentiles()
            batched = self._batched_requests
            batches = self._batches
            first = self._first_enqueued
            last = self._last_completed
            counters = {
                "shed_watermark": self._shed_watermark,
                "requeues": self._requeues,
                "nonfinite_outputs": self._nonfinite_outputs,
                "engine_crashes": self._engine_crashes,
                "engine_restarts": self._engine_restarts,
            }
        wall = (last - first) if (first is not None and last is not None) else None
        completed = outcomes["completed"]
        return ServerStats(
            state=self.state,
            queue_depth=self._held(),
            batches=batches,
            mean_batch_size=(batched / batches) if batches else float("nan"),
            latency_ms_mean=mean,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            throughput_rps=(completed / wall) if wall and wall > 0 else float("nan"),
            worker_respawns=getattr(self.engine, "respawns", 0),
            oversized_transfers=getattr(self.engine, "oversized_transfers", 0),
            **outcomes,
            **counters,
        )

