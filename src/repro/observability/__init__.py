"""Unified observability: metrics registry, request tracing, kernel hooks.

One module-level gate controls everything::

    from repro import observability

    observability.set_enabled(True, sample_rate=0.1)   # metrics + tracing
    ... serve traffic ...
    print(observability.registry().render_prometheus())  # scrape
    observability.tracer().export("trace.json")          # view in Perfetto
    observability.set_enabled(False)

While disabled (the default) the hot paths take their pre-existing code
path: the kernel hooks are a ``None``-check on a module global (no
allocations -- see ``tests/observability/test_profiling.py``), servers
skip span recording, and only the always-on bounded latency histograms
(which replace the old sample deques, strictly less memory) are updated.

Components -- usable standalone, independent of the global gate:

* :mod:`.metrics` -- thread-safe :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket log-scale :class:`LatencyHistogram`\\ s
  (p50/p95/p99 in O(buckets) memory, no retained samples), with JSON
  snapshots, Prometheus text exposition, and additive cross-process
  *deltas* (what the cluster workers piggyback on their control pipe).
* :mod:`.tracing` -- sampled per-request span timelines exported as
  Chrome trace-event JSON (Perfetto-viewable), covering
  submit/admit/queue/batch-assemble/transport/compute/respond.
* :mod:`.profiling` -- the kernel/trainer hook installer.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from . import metrics, profiling, tracing
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    log_buckets,
    validate_prometheus_text,
)
from .profiling import KernelProfiler
from .tracing import (
    GENERATION_STAGES,
    PIPELINE_STAGES,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "enabled",
    "set_enabled",
    "set_sample_rate",
    "registry",
    "tracer",
    "active_tracer",
    "reset",
    "LazyMetrics",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "log_buckets",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Tracer",
    "KernelProfiler",
    "PIPELINE_STAGES",
    "GENERATION_STAGES",
    "validate_prometheus_text",
    "validate_chrome_trace",
]

_gate_lock = threading.Lock()
_enabled = False
_registry = MetricsRegistry()
_tracer = Tracer(sample_rate=1.0)
_profiler: Optional[KernelProfiler] = None


def enabled() -> bool:
    """Whether the observability gate is on (metrics + tracing + hooks)."""
    return _enabled


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (exists even while disabled)."""
    return _registry


def tracer() -> Tracer:
    """The process-wide tracer (exists even while disabled)."""
    return _tracer


def active_tracer() -> Optional[Tracer]:
    """The tracer if the gate is on and tracing is armed, else ``None``.

    The serving hot paths call this once per request/batch and skip all
    span work on ``None`` -- the single dynamic check tracing costs.
    """
    if _enabled and _tracer.sample_rate > 0.0:
        return _tracer
    return None


def set_enabled(flag: bool, *, sample_rate: Optional[float] = None) -> bool:
    """Flip the global gate; returns the previous state.

    Enabling installs the kernel profiling hooks and arms the tracer
    (``sample_rate`` sets the fraction of requests that get a full span
    timeline; batch-level spans are always recorded while armed).
    Disabling restores every hook to the zero-overhead ``None`` path.
    """
    global _enabled, _profiler
    with _gate_lock:
        previous = _enabled
        if sample_rate is not None:
            set_sample_rate(sample_rate)
        if flag and not _enabled:
            _profiler = profiling.install(_registry)
            _enabled = True
        elif not flag and _enabled:
            _enabled = False
            _profiler = None
            profiling.uninstall()
    return previous


def set_sample_rate(sample_rate: float) -> None:
    """Set the fraction of requests that get a full span timeline."""
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
    _tracer.sample_rate = float(sample_rate)


def reset() -> None:
    """Swap in a fresh registry and tracer (test isolation helper).

    Keeps the enabled/disabled state; if enabled, the kernel hooks are
    re-pointed at the fresh registry.
    """
    global _registry, _tracer, _profiler
    with _gate_lock:
        sample_rate = _tracer.sample_rate
        _registry = MetricsRegistry()
        _tracer = Tracer(sample_rate=sample_rate)
        if _enabled:
            _profiler = profiling.install(_registry)


class LazyMetrics:
    """A component's metric handles: ``build(registry, **labels)`` runs on
    first call and after :func:`reset` swaps the registry.  Call it behind
    the gate.  ``build`` is a plain function: a bound method would keep its
    owner alive in a reference cycle until the cyclic collector runs."""

    def __init__(self, build: Callable[..., tuple], **labels: str):
        self._build = build
        self._labels = labels
        self._registry: Optional[MetricsRegistry] = None
        self._handles: tuple = ()

    def __call__(self) -> tuple:
        current = _registry
        if self._registry is not current:
            self._handles = self._build(current, **self._labels)
            self._registry = current
        return self._handles
