"""Grad-free inference engine over a frozen model.

The engine is the layer between a :class:`~repro.serving.frozen.FrozenModel`
and the request server: it owns warmup (priming the process-wide im2col
index memos and the per-layer grouped-layout caches so the first real
request does not pay cache-fill latency), batched prediction, and
latency/throughput accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # frozen -> kv_cache -> server -> engine: no runtime import back
    from .frozen import FrozenModel

__all__ = ["EngineCrash", "EngineStats", "InferenceEngine"]


@dataclass(frozen=True)
class EngineStats:
    """Typed engine-side counters.

    The first block applies to every engine.  The ``Optional`` block is
    populated only by :class:`~repro.serving.cluster.RemoteEngine`, whose
    counters describe the worker *process* rather than in-process forwards;
    an in-process engine leaves them ``None``.
    """

    calls: int = 0
    samples: int = 0
    total_seconds: float = 0.0
    mean_call_ms: float = float("nan")
    last_call_ms: float = float("nan")
    throughput_sps: float = float("nan")
    warmed_up: bool = False
    alive: Optional[bool] = None
    pid: Optional[int] = None
    generation: Optional[int] = None
    respawns: Optional[int] = None
    oversized_transfers: Optional[int] = None
    warmup_seconds: Optional[float] = None

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class EngineCrash(RuntimeError):
    """The engine hit an unrecoverable internal failure.

    Engines raise this (instead of an ordinary per-batch exception) when the
    failure is *not* attributable to the batch being processed -- the engine
    itself is broken and needs to be restarted before it can serve again.
    The :class:`~repro.serving.server.InferenceServer` supervisor treats it
    specially: the server goes degraded, fails the in-flight batch, and
    attempts a bounded number of :meth:`InferenceEngine.rewarm` restarts
    before refusing new work.
    """


class InferenceEngine:
    """Executes batched forwards on a frozen model and records timings."""

    def __init__(self, model: FrozenModel):
        self.model = model
        self.calls = 0
        self.samples = 0
        self.total_seconds = 0.0
        self.last_seconds = 0.0
        self.warmed_up = False
        self._warmup_example = None

    # -------------------------------------------------------------- #
    def warmup(self, example) -> float:
        """Run one untimed-for-stats forward to prime every cache.

        A single pass through the frozen graph derives and memoizes the
        im2col gather/scatter indices of every convolution/pooling geometry
        and fills the activation quantizers' grouped-layout caches, so
        steady-state latency starts with the first real request.  Returns
        the warmup wall time in seconds.
        """
        example = np.asarray(example)
        start = time.perf_counter()
        self.model.predict(example)
        elapsed = time.perf_counter() - start
        self.warmed_up = True
        self._warmup_example = example
        return elapsed

    def rewarm(self) -> float:
        """Re-run warmup with the stored example (supervised restart probe).

        The server's engine supervisor calls this after an
        :class:`EngineCrash` to prove the engine can serve again before the
        server leaves its degraded state.  Raises if the engine was never
        warmed up (there is nothing safe to probe with), or propagates
        whatever the probe forward raises if the engine is still broken.
        """
        if self._warmup_example is None:
            raise EngineCrash("cannot rewarm: engine was never warmed up")
        return self.warmup(self._warmup_example)

    def predict(self, batch) -> np.ndarray:
        """Run one batched forward; returns per-sample outputs stacked."""
        batch = np.asarray(batch)
        start = time.perf_counter()
        outputs = self.model.predict(batch)
        elapsed = time.perf_counter() - start
        self.calls += 1
        self.samples += int(batch.shape[0]) if batch.ndim else 1
        self.total_seconds += elapsed
        self.last_seconds = elapsed
        return outputs

    __call__ = predict

    # -------------------------------------------------------------- #
    def stats(self) -> EngineStats:
        """Aggregate engine-side timing counters."""
        mean_call = self.total_seconds / self.calls if self.calls else float("nan")
        throughput = self.samples / self.total_seconds if self.total_seconds > 0 else float("nan")
        return EngineStats(
            calls=self.calls,
            samples=self.samples,
            total_seconds=self.total_seconds,
            mean_call_ms=mean_call * 1e3,
            last_call_ms=self.last_seconds * 1e3,
            throughput_sps=throughput,
            warmed_up=self.warmed_up,
        )

    def reset_stats(self) -> None:
        self.calls = 0
        self.samples = 0
        self.total_seconds = 0.0
        self.last_seconds = 0.0
