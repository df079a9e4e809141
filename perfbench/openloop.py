"""Exact per-request timings from the repository's open-loop generators.

``OpenLoopGenerator`` and ``GenerationLoadGenerator`` report quantiles from
log-bucket histograms.  :class:`Tap` sits between a generator and the
server's ``submit`` and keeps every request's own numbers instead: when it
was due (the generator's Poisson schedule, recomputed with the same public
``poisson_arrivals``), when it was sent, and when its future resolved.
Latency then counts from the scheduled arrival, as the generators do.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.serving import poisson_arrivals

from perfbench import report


class Tap:
    """Wraps ``submit``; call-index ``k`` is the generator's arrival ``k``."""

    def __init__(self, submit: Callable, qps: float, duration_s: float, seed: int,
                 on_submit: Optional[Callable] = None):
        self.submit = submit
        self.offsets = poisson_arrivals(qps, duration_s, seed=seed)
        self.sent: List[float] = []
        self.finished: List[Optional[float]] = [None] * len(self.offsets)
        self.futures: List = [None] * len(self.offsets)
        self.on_submit = on_submit

    def __call__(self, payload, **kwargs):
        index = len(self.sent)
        self.sent.append(time.monotonic())
        call = self.submit if self.on_submit is None else self.on_submit(index, self.submit)
        future = call(payload, **kwargs)
        self.futures[index] = future
        future.add_done_callback(lambda _f, i=index: self._finish(i))
        return future

    def _finish(self, index: int) -> None:
        self.finished[index] = time.monotonic()

    def scheduled(self) -> np.ndarray:
        """Scheduled arrival of each sent request (monotonic seconds).

        The generator never sends early, so its start time is the smallest
        ``sent - offset``; the estimate is late by at most one sleep overshoot.
        """
        offsets = self.offsets[:len(self.sent)]
        start = float(np.min(np.asarray(self.sent) - offsets))
        return start + offsets

    def completed(self):
        """``(index, scheduled, sent, finished, result)`` of each success."""
        scheduled = self.scheduled()
        rows = []
        for index, future in enumerate(self.futures[:len(self.sent)]):
            if future is None or not future.done() or future.exception() is not None:
                continue
            rows.append((index, scheduled[index], self.sent[index],
                         self.finished[index], future.result()))
        return rows

    def latencies_ms(self) -> np.ndarray:
        return np.array([(finished - scheduled) * 1e3
                         for _, scheduled, _, finished, _ in self.completed()])


def rate_windows(window, cfg: dict, scale: float, seed: int, slip_limit_ms: float):
    """Run the fixed-rate sub-windows; returns the valid ones and all of them.

    A window whose load generator fell behind its schedule by more than
    ``slip_limit_ms`` did not offer the configured load, so it is invalid
    and left out; the run is invalid when fewer than half remain.
    """
    runs = [window(cfg["rate_qps"], cfg["rate_seconds"] * scale, seed + k)
            for k in range(cfg["rate_windows"])]
    valid = [(tap, load) for tap, load in runs if load.max_slip_ms <= slip_limit_ms]
    report.require(2 * len(valid) >= len(runs),
                   f"the load generator fell behind its schedule by more than "
                   f"{slip_limit_ms} ms in {len(runs) - len(valid)} of {len(runs)} "
                   f"windows; the offered load is invalid")
    return valid, runs


def median_of_windows(samples_per_window, pct: float) -> float:
    """Median over windows of each window's ``pct`` percentile."""
    return report.median([report.percentile(samples, pct) for samples in samples_per_window])
