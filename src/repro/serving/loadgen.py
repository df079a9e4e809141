"""Open-loop traffic generation for serving benchmarks.

The closed-loop harness in earlier benchmarks submits a request, waits for
the answer, and only then submits the next one -- so a slow server slows
the *generator* down, hiding queueing delay entirely (the "coordinated
omission" artifact).  Real traffic does not wait: users arrive when they
arrive.  :class:`OpenLoopGenerator` therefore fires requests on a fixed
Poisson schedule **regardless of completions**: if the server falls behind,
requests pile up and latency -- measured from each request's *scheduled*
arrival time, not from whenever the generator got around to sending it --
grows without bound.  That makes offered-load-vs-latency curves honest:
a server at saturation shows its real p99, not its lucky closed-loop one.

Usage::

    mix = (FamilyLoad(payloads=cnn_batches, model="cnn"),)
    report = OpenLoopGenerator(server.submit, mix, qps=500, duration_s=4.0,
                               seed=7).run()
    report.goodput_rps, report.latency_ms_p99

Works against both :class:`~repro.serving.server.InferenceServer` (one
family, ``model=None``) and :class:`~repro.serving.cluster.ShardedServer`
(pass each :class:`FamilyLoad` a ``model`` label to exercise mixed-family
routing).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..observability.metrics import LatencyHistogram

__all__ = ["poisson_arrivals", "FamilyLoad", "LoadReport", "OpenLoopGenerator",
           "SequenceLoad", "GenerationLoadReport", "GenerationLoadGenerator"]


def poisson_arrivals(qps: float, duration_s: float, seed: int = 0) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process at rate ``qps``.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/qps``; the
    returned offsets are their cumulative sums clipped to ``duration_s``.
    Deterministic for a fixed ``(qps, duration_s, seed)``.
    """
    if qps <= 0 or duration_s <= 0:
        raise ValueError(f"qps and duration_s must be positive, got {qps}/{duration_s}")
    rng = np.random.default_rng(seed)
    # Draw enough gaps that running short is a ~never event, then clip.
    expected = qps * duration_s
    draw = int(math.ceil(expected + 6.0 * math.sqrt(expected) + 16.0))
    offsets = np.cumsum(rng.exponential(1.0 / qps, size=draw))
    while offsets[-1] < duration_s:  # pathological seed: extend
        extra = np.cumsum(rng.exponential(1.0 / qps, size=draw)) + offsets[-1]
        offsets = np.concatenate([offsets, extra])
    return offsets[offsets < duration_s]


@dataclass(frozen=True)
class _OpenLoopRun:
    """What the shared open-loop driver measured (frozen after the drain)."""

    sent: int
    completed: int
    latency: LatencyHistogram     # scheduled arrival -> resolution
    errors: Tuple[Tuple[str, int], ...]
    window_s: float               # first scheduled arrival -> last success
    peak_in_flight: int
    max_slip_ms: float
    drain_s: float


def _open_loop(mix: Sequence, pools: Sequence[Tuple], fire: Callable, *,
               qps: float, duration_s: float, seed: int,
               drain_timeout_s: float,
               on_success: Optional[Callable] = None) -> _OpenLoopRun:
    """The one open-loop run behind both generators.

    Arrivals follow ``poisson_arrivals(qps, duration_s, seed)``; each is
    assigned a ``mix`` entry by weight (seeded with ``seed + 1``) and takes
    that entry's next item from ``pools`` round-robin.  ``fire(entry,
    item)`` submits it and returns a future; a synchronous raise counts as
    a failure by exception type.  ``on_success(result, scheduled, sent_at)``
    runs under the driver's lock for every successful completion.  After
    the last arrival the driver waits up to ``drain_timeout_s`` for the
    outstanding futures, counts the rest as ``"Unresolved"``, and then
    ignores late completions, so everything it and ``on_success`` recorded
    is final when it returns.
    """
    offsets = poisson_arrivals(qps, duration_s, seed=seed)
    rng = np.random.default_rng(seed + 1)
    weights = np.array([entry.weight for entry in mix], dtype=np.float64)
    entry_ids = rng.choice(len(mix), size=len(offsets), p=weights / weights.sum())
    cursors = [0] * len(mix)

    lock = threading.Lock()
    # Bounded memory at any offered load: quantiles come from the same
    # log-scale histogram the servers use, not a retained sample list.
    latency = LatencyHistogram("loadgen_latency_ms")
    errors: Counter = Counter()
    completed = in_flight = peak = 0
    finished = False
    outstanding = threading.Semaphore(0)

    def _finish(scheduled: float, sent_at: float, future) -> None:
        nonlocal completed, in_flight, last_completion
        now = time.monotonic()
        error = future.exception()
        with lock:
            if not finished:
                in_flight -= 1
                if error is None:
                    completed += 1
                    latency.observe((now - scheduled) * 1e3)
                    last_completion = max(last_completion, now)
                    if on_success is not None:
                        on_success(future.result(), scheduled, sent_at)
                else:
                    errors[type(error).__name__] += 1
        outstanding.release()

    start = last_completion = time.monotonic()
    max_slip = 0.0
    sent = 0
    fired = 0
    for offset, entry_id in zip(offsets, entry_ids):
        scheduled = start + float(offset)
        delay = scheduled - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        else:
            max_slip = max(max_slip, -delay)
        cursor = cursors[entry_id]
        cursors[entry_id] = cursor + 1
        pool = pools[entry_id]
        sent += 1
        sent_at = time.monotonic()
        try:
            future = fire(mix[entry_id], pool[cursor % len(pool)])
        except Exception as error:  # noqa: BLE001 - rejection is data
            with lock:
                errors[type(error).__name__] += 1
            continue
        fired += 1
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        future.add_done_callback(
            lambda fut, scheduled=scheduled, sent_at=sent_at:
                _finish(scheduled, sent_at, fut))

    # Drain: wait for every in-flight future (bounded).
    drain_deadline = time.monotonic() + drain_timeout_s
    drained = 0
    while drained < fired:
        remaining = drain_deadline - time.monotonic()
        if remaining <= 0 or not outstanding.acquire(timeout=max(remaining, 0.01)):
            break
        drained += 1

    end = time.monotonic()
    with lock:
        finished = True
        if drained < fired:
            errors["Unresolved"] += fired - drained
        return _OpenLoopRun(
            sent=sent,
            completed=completed,
            latency=latency,
            errors=tuple(sorted(errors.items())),
            window_s=max(last_completion - start, duration_s),
            peak_in_flight=peak,
            max_slip_ms=max_slip * 1e3,
            drain_s=max(end - start - duration_s, 0.0),
        )


@dataclass(frozen=True)
class FamilyLoad:
    """Traffic for one model family: payloads cycled round-robin.

    ``model`` is forwarded to ``submit(payload, model=...)`` when set (the
    sharded server's family selector); ``None`` submits positionally (the
    single-family in-process server).  ``weight`` sets this family's share
    of the total arrival stream.
    """

    payloads: Tuple[np.ndarray, ...]
    model: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self):
        if not self.payloads:
            raise ValueError("FamilyLoad needs at least one payload")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        object.__setattr__(self, "payloads", tuple(self.payloads))


@dataclass(frozen=True)
class LoadReport:
    """What one open-loop run offered and what came back.

    Latency is measured from each request's *scheduled* arrival, so both
    server queueing and generator slip (the generator falling behind its
    own schedule, ``max_slip_ms``) are charged to the request -- the
    coordinated-omission-free convention.  ``goodput_rps`` counts only
    successful completions over the window from first scheduled arrival to
    last completion (offered window plus drain).
    """

    offered_qps: float
    duration_s: float
    sent: int
    completed: int
    failed: int
    goodput_rps: float
    latency_ms_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    max_slip_ms: float
    drain_s: float
    errors: Tuple[Tuple[str, int], ...] = field(default=())

    def as_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["errors"] = {name: count for name, count in self.errors}
        return payload


class OpenLoopGenerator:
    """Fire a Poisson request stream at a server and report what happened.

    Parameters
    ----------
    submit:
        ``submit(payload)`` or ``submit(payload, model=...)`` returning a
        ``concurrent.futures.Future`` (both servers' ``submit`` qualifies).
        A synchronous raise (e.g. admission rejection) counts as a failed
        request; it does not stop the run.
    mix:
        One or more :class:`FamilyLoad`; each arrival is assigned a family
        by ``weight`` (deterministically, from ``seed``).
    qps / duration_s:
        Offered load and how long to offer it.
    deadline_ms:
        Optional per-request deadline forwarded to ``submit``.
    seed:
        Drives both the arrival process and the family assignment.
    drain_timeout_s:
        After the last send, how long to wait for stragglers before
        counting them as failed (``"Unresolved"``).
    """

    def __init__(self, submit: Callable, mix: Sequence[FamilyLoad], *,
                 qps: float, duration_s: float,
                 deadline_ms: Optional[float] = None, seed: int = 0,
                 drain_timeout_s: float = 60.0):
        if not mix:
            raise ValueError("need at least one FamilyLoad")
        self.submit = submit
        self.mix = tuple(mix)
        self.qps = float(qps)
        self.duration_s = float(duration_s)
        self.deadline_ms = deadline_ms
        self.seed = int(seed)
        self.drain_timeout_s = float(drain_timeout_s)

    def _fire(self, family: FamilyLoad, payload) -> Future:
        if family.model is not None:
            return self.submit(payload, model=family.model,
                               deadline_ms=self.deadline_ms)
        if self.deadline_ms is not None:
            return self.submit(payload, deadline_ms=self.deadline_ms)
        return self.submit(payload)

    def run(self) -> LoadReport:
        run = _open_loop(self.mix, [family.payloads for family in self.mix],
                         self._fire, qps=self.qps, duration_s=self.duration_s,
                         seed=self.seed, drain_timeout_s=self.drain_timeout_s)
        p50, p95, p99 = run.latency.percentiles()
        return LoadReport(
            offered_qps=self.qps,
            duration_s=self.duration_s,
            sent=run.sent,
            completed=run.completed,
            failed=run.sent - run.completed,
            goodput_rps=run.completed / run.window_s,
            latency_ms_mean=run.latency.mean,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            max_slip_ms=run.max_slip_ms,
            drain_s=run.drain_s,
            errors=run.errors,
        )


# --------------------------------------------------------------------------- #
# Sequence (generation) workload
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SequenceLoad:
    """Traffic for one class of generation request.

    ``prompts`` are 1-D integer source sequences cycled round-robin;
    ``max_new_tokens`` bounds each request's generation length.  Mixing
    several :class:`SequenceLoad` entries with different lengths is how the
    benchmark builds the mixed-length stream that separates continuous from
    static batching (short requests stuck behind long ones).
    """

    prompts: Tuple[np.ndarray, ...]
    max_new_tokens: int = 16
    weight: float = 1.0

    def __post_init__(self):
        if not self.prompts:
            raise ValueError("SequenceLoad needs at least one prompt")
        if self.max_new_tokens <= 0:
            raise ValueError(
                f"max_new_tokens must be positive, got {self.max_new_tokens}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        object.__setattr__(self, "prompts", tuple(self.prompts))


@dataclass(frozen=True)
class GenerationLoadReport:
    """What one open-loop generation run offered and what came back.

    Same coordinated-omission-free convention as :class:`LoadReport`:
    sequence latency and time-to-first-token are measured from each
    request's *scheduled* arrival.  ``tokens_per_second`` is the headline
    generation throughput -- completed tokens over the window from first
    scheduled arrival to last completion.  ``peak_concurrent_streams`` is
    the largest number of sequences in flight at once.
    """

    offered_qps: float
    duration_s: float
    sent: int
    completed: int
    failed: int
    tokens_generated: int
    tokens_per_second: float
    goodput_sps: float
    ttft_ms_mean: float
    ttft_ms_p50: float
    ttft_ms_p95: float
    ttft_ms_p99: float
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    peak_concurrent_streams: int
    max_slip_ms: float
    drain_s: float
    errors: Tuple[Tuple[str, int], ...] = field(default=())

    def as_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["errors"] = {name: count for name, count in self.errors}
        return payload


class GenerationLoadGenerator:
    """Open-loop Poisson stream of generation requests.

    ``submit(prompt, max_new_tokens=..., deadline_ms=...)`` must return a
    future resolving to a ``GenerationResult``
    (:meth:`repro.serving.generation.GenerationServer.submit` qualifies).
    Runs the same open loop as :class:`OpenLoopGenerator`: arrivals fire
    on schedule regardless of completions, a synchronous admission
    rejection counts as a failure, and quantiles come from bounded
    histograms.
    """

    def __init__(self, submit: Callable, mix: Sequence[SequenceLoad], *,
                 qps: float, duration_s: float,
                 deadline_ms: Optional[float] = None, seed: int = 0,
                 drain_timeout_s: float = 120.0):
        if not mix:
            raise ValueError("need at least one SequenceLoad")
        self.submit = submit
        self.mix = tuple(mix)
        self.qps = float(qps)
        self.duration_s = float(duration_s)
        self.deadline_ms = deadline_ms
        self.seed = int(seed)
        self.drain_timeout_s = float(drain_timeout_s)

    def _fire(self, load: SequenceLoad, prompt) -> Future:
        if self.deadline_ms is not None:
            return self.submit(prompt, max_new_tokens=load.max_new_tokens,
                               deadline_ms=self.deadline_ms)
        return self.submit(prompt, max_new_tokens=load.max_new_tokens)

    def run(self) -> GenerationLoadReport:
        ttft = LatencyHistogram("loadgen_generation_ttft_ms")
        tokens = 0

        def _record(result, scheduled: float, sent_at: float) -> None:
            nonlocal tokens
            tokens += int(result.tokens.shape[0]) - 1
            # Charge generator slip to TTFT too: scheduled -> first token,
            # not sent -> first token.
            ttft.observe((sent_at - scheduled) * 1e3 + result.timing.ttft_ms)

        run = _open_loop(self.mix, [load.prompts for load in self.mix],
                         self._fire, qps=self.qps, duration_s=self.duration_s,
                         seed=self.seed, drain_timeout_s=self.drain_timeout_s,
                         on_success=_record)
        ttft_p50, ttft_p95, ttft_p99 = ttft.percentiles()
        p50, p95, p99 = run.latency.percentiles()
        return GenerationLoadReport(
            offered_qps=self.qps,
            duration_s=self.duration_s,
            sent=run.sent,
            completed=run.completed,
            failed=run.sent - run.completed,
            tokens_generated=tokens,
            tokens_per_second=tokens / run.window_s,
            goodput_sps=run.completed / run.window_s,
            ttft_ms_mean=ttft.mean,
            ttft_ms_p50=ttft_p50,
            ttft_ms_p95=ttft_p95,
            ttft_ms_p99=ttft_p99,
            latency_ms_p50=p50,
            latency_ms_p95=p95,
            latency_ms_p99=p99,
            peak_concurrent_streams=run.peak_in_flight,
            max_slip_ms=run.max_slip_ms,
            drain_s=run.drain_s,
            errors=run.errors,
        )
