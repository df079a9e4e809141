"""``repro-lint``: AST-based static analysis for this repo's conventions.

The engine (:mod:`.engine`) walks Python files, parses them once, attaches
parent links, and runs every registered :class:`~repro.devtools.lint.engine.Rule`
over the tree.  Rules are small classes with a ``code`` (``RL001``...),
scoping via :meth:`~repro.devtools.lint.engine.Rule.applies`, and a
``check`` generator yielding :class:`~repro.devtools.lint.engine.Finding`\\ s.

Conventions enforced (see :mod:`.rules` for the precise semantics):

========  ==================================================================
RL001     numpy allocating constructors without ``dtype=`` in hot paths
RL002     ``Parameter.data`` mutation without a ``.version`` bump
RL003     observability/profiling calls not behind the module-global gate
RL004     ``# guarded-by: _lock`` attributes accessed without the lock
RL005     unseeded ``np.random.*`` / ``random.*`` in ``src/``
RL006     bare/overbroad ``except`` in worker and supervision loops
RL007     ``repro.reference`` (golden models) used or redefined in ``src/``
========  ==================================================================

Suppressions (always give a one-line reason after ``--``)::

    something_noisy()  # repro-lint: disable=RL005 -- caller owns seeding
    # repro-lint: disable-next-line=RL001 -- dtype set by the caller
    buf = np.zeros(n)

A file-level escape hatch exists for generated/fixture files::

    # repro-lint: disable-file=RL004 -- lock fixtures exercise bad patterns

Baseline: findings fingerprinted as ``(rule, path, stripped source line)``
and recorded in a committed JSON file (default ``.repro-lint-baseline.json``
at the repo root) do not fail the build, so new rules can be adopted
incrementally.  This repo's baseline is empty -- every finding was fixed or
suppressed with a reason in the PR that introduced the linter.

CLI::

    PYTHONPATH=src python -m repro.devtools.lint src tests benchmarks
"""

from __future__ import annotations

from .engine import Baseline, Finding, LintContext, Rule, lint_paths, lint_source
from .rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintContext",
    "Rule",
    "default_rules",
    "lint_paths",
    "lint_source",
]
