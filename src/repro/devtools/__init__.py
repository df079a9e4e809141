"""Developer tooling: static analysis, lock checking, runtime sanitizers.

Three layers, all opt-in and wired into CI:

* :mod:`.lint` -- an AST-based lint engine with project-specific rules
  (RL001-RL007) that turn the repo's load-bearing conventions (dtype
  purity, ``Parameter.version`` bumps, the observability gate, lock
  discipline, seeded randomness, narrow excepts, golden models kept out
  of production code) into machine-checked errors.
  CLI: ``python -m repro.devtools.lint src tests benchmarks``.
* :mod:`.lockcheck` -- a dynamic lock-order detector: an instrumented
  ``threading.Lock`` that records the per-thread acquisition graph and
  fails on cycles (potential ABBA deadlocks) or on registered shared
  state touched without its owning lock.  Enabled for the serving chaos
  suite via ``REPRO_LOCKCHECK=1``.
* :mod:`.sanitize` -- a runtime invariant sanitizer (``REPRO_SANITIZE=1``)
  validating :class:`~repro.core.bfp.BFPTensor` invariants on construction
  and tagging first-NaN/Inf provenance in tensor ops, behind the same
  zero-overhead module-global ``None`` gate the profiler uses.

This package itself never imports numpy or the hot-path modules at import
time; the sanitizer imports its hook targets lazily on ``install()`` so
merely importing :mod:`repro.devtools` costs nothing.
"""

from __future__ import annotations

__all__ = ["lint", "lockcheck", "sanitize"]
