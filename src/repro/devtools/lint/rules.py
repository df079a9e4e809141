"""Project-specific lint rules RL001-RL007.

Each rule encodes one convention this repo previously enforced only by
review (see PERFORMANCE.md "Correctness tooling" for the catalog and the
PRs that motivated each).  Rules are written to be quiet-by-default: they
scope themselves to the directories where the convention is load-bearing
and lean on explicit annotations (``# guarded-by:``) rather than guessing.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import Finding, LintContext, Rule, ancestors, parent

__all__ = [
    "ALL_RULES",
    "DtypePromotionRule",
    "VersionBumpRule",
    "GateDisciplineRule",
    "LockDisciplineRule",
    "SeededRandomRule",
    "BroadExceptRule",
    "ReferenceIsolationRule",
    "default_rules",
]


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression ('' when not a name chain)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


def _enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for anc in ancestors(node):
        if isinstance(anc, ast.ClassDef):
            return anc
    return None


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _in_src(path: str) -> bool:
    return "src/repro/" in path or path.startswith("repro/")


# --------------------------------------------------------------------------- #
# RL001 -- dtype promotion
# --------------------------------------------------------------------------- #
class DtypePromotionRule(Rule):
    """numpy allocating constructors without ``dtype=`` in hot paths.

    ``np.zeros(n)`` and friends default to float64; in the ``nn``/``core``/
    ``serving`` hot paths that silently promotes a float32 pipeline (the
    exact bug class PR 5 fixed by hand, one site at a time).  ``*_like``
    constructors inherit their dtype and are exempt, as is passing an
    explicit positional/keyword ``dtype``.
    """

    code = "RL001"
    name = "dtype-promotion"
    description = "numpy constructor without dtype= in an nn/core/serving hot path"

    #: Constructors whose bare form allocates float64, mapped to the
    #: 0-based position of their ``dtype`` argument (an explicit positional
    #: dtype counts as compliant).
    CONSTRUCTORS = {
        "zeros": 1,
        "ones": 1,
        "empty": 1,
        "full": 2,
        "eye": 3,
        "identity": 1,
        "arange": 3,
        "linspace": 5,
    }

    SCOPES = ("src/repro/nn/", "src/repro/core/", "src/repro/serving/")

    def applies(self, path: str) -> bool:
        return any(scope in path for scope in self.SCOPES)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted.startswith(("np.", "numpy.")):
                continue
            func = dotted.split(".", 1)[1]
            arg_slot = self.CONSTRUCTORS.get(func)
            if arg_slot is None:
                continue
            if _has_keyword(node, "dtype") or len(node.args) > arg_slot:
                continue
            if func == "arange" and not any(
                isinstance(arg, ast.Constant) and isinstance(arg.value, float)
                for arg in node.args
            ):
                # Integer `np.arange(n)` builds int64 index arrays -- no
                # float-promotion hazard.  Only float-literal ranges default
                # to float64.
                continue
            yield ctx.finding(
                self.code,
                node,
                f"`{dotted}(...)` without dtype= allocates float64; pass an "
                "explicit dtype (or use a *_like constructor) so float32 "
                "pipelines are not silently promoted",
            )


# --------------------------------------------------------------------------- #
# RL002 -- Parameter.data mutation without a version bump
# --------------------------------------------------------------------------- #
class VersionBumpRule(Rule):
    """``Parameter.data`` mutation without a ``.version`` bump.

    The weight-quantization cache (PR 1) keys on ``Parameter.version``;
    writing ``param.data`` without bumping serves stale quantized weights
    forever.  A function that stores to ``<obj>.data`` (plain, augmented,
    or through a subscript) must also call ``bump_version`` -- directly,
    through the ``getattr(obj, "bump_version", ...)`` idiom, or via a
    helper whose name contains ``bump``/``mark_updated``.
    """

    code = "RL002"
    name = "version-bump"
    description = "Parameter.data mutation without a .version bump"

    def applies(self, path: str) -> bool:
        return _in_src(path)

    @staticmethod
    def _data_store_base(target: ast.AST) -> Optional[str]:
        """Name of ``X`` when ``target`` is ``X.data`` or ``X.data[...]``."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "data":
            base = _dotted(target.value)
            return base or "<expr>"
        return None

    @staticmethod
    def _bumps(func_node: ast.AST) -> bool:
        for node in ast.walk(func_node):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                tail = dotted.rsplit(".", 1)[-1]
                if "bump" in tail or "mark_updated" in tail:
                    return True
                if dotted.endswith("getattr") and any(
                    isinstance(arg, ast.Constant) and arg.value == "bump_version"
                    for arg in node.args
                ):
                    return True
            elif isinstance(node, ast.Attribute) and node.attr == "bump_version":
                return True
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "version":
                        return True
        return False

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            targets: List[ast.AST]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                base = self._data_store_base(target)
                if base is None or base == "self":
                    # `self.data = ...` is Tensor/Parameter internals, not a
                    # cache-visible mutation of someone else's parameter.
                    continue
                func = _enclosing_function(node)
                if func is None or self._bumps(func):
                    continue
                yield ctx.finding(
                    self.code,
                    node,
                    f"`{base}.data` is mutated but `{func.name}` never bumps "
                    "`.version`; stale weight-quantization caches will serve "
                    "old weights (call bump_version() after the store)",
                )


# --------------------------------------------------------------------------- #
# RL003 -- observability calls not behind the gate
# --------------------------------------------------------------------------- #
class GateDisciplineRule(Rule):
    """Observability/profiling calls in hot paths not behind the gate.

    The PR 8 contract: hot paths pay one module-global load + ``is not
    None`` (or ``observability.enabled()``) check when observability is
    off.  Calling ``profiler.record(...)``, ``tracer.add_event(...)`` or
    ``observability.registry()`` unconditionally re-introduces per-call
    overhead and allocations.  A call is considered gated when:

    * an enclosing ``if`` tests the gate (``is not None``, ``.enabled()``,
      ``active_tracer()``), or
    * the enclosing function starts with an early-return gate, or
    * the gate-sensitive receiver arrived as a function parameter (the
      caller did the check and passed a non-``None`` object down).
    """

    code = "RL003"
    name = "gate-discipline"
    description = "observability call in a hot path without a gate check"

    SCOPES = (
        "src/repro/core/",
        "src/repro/nn/",
        "src/repro/serving/",
        "src/repro/training/",
    )

    #: method name -> substring the receiver must contain to match
    METHODS = {
        "record": ("profiler", "_metrics"),
        "add_event": ("tracer",),
        "span": ("tracer",),
        "begin_request": ("tracer",),
    }
    GATE_MARKERS = ("is not None", "enabled()", "active_tracer", ".armed")

    def applies(self, path: str) -> bool:
        return any(scope in path for scope in self.SCOPES)

    def _matches(self, node: ast.Call) -> Optional[str]:
        if not isinstance(node.func, ast.Attribute):
            return None
        recv = _dotted(node.func.value)
        lowered = recv.lower()
        if node.func.attr in ("registry", "tracer") and lowered.endswith("observability"):
            return recv
        needles = self.METHODS.get(node.func.attr)
        if needles and any(n in lowered for n in needles):
            return recv
        return None

    def _gated(self, node: ast.Call, ctx: LintContext, recv: str) -> bool:
        recv_root = recv.split(".", 1)[0]
        func = None
        for anc in ancestors(node):
            if isinstance(anc, ast.If) and func is None:
                test = ctx.segment(anc.test)
                if any(marker in test for marker in self.GATE_MARKERS):
                    return True
            elif isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = anc
                break
        if func is None:
            return False
        # Receiver passed in as a parameter: the caller holds the gate.
        arg_names = {a.arg for a in func.args.args + func.args.kwonlyargs}
        if recv_root in arg_names and recv_root != "self":
            return True
        # Early-return gate at the top of the function.
        for stmt in func.body:
            if getattr(stmt, "lineno", 0) >= node.lineno:
                break
            if isinstance(stmt, ast.If):
                test = ctx.segment(stmt.test)
                guards = any(m in test for m in ("not ", "is None")) and (
                    recv_root in test
                    or "enabled" in test
                    or "tracer" in test
                    or "profiler" in test
                    or "telemetry" in test
                )
                exits = stmt.body and isinstance(
                    stmt.body[-1], (ast.Return, ast.Raise, ast.Continue)
                )
                if guards and exits:
                    return True
        return False

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            recv = self._matches(node)
            if recv is None:
                continue
            if self._gated(node, ctx, recv):
                continue
            yield ctx.finding(
                self.code,
                node,
                f"`{recv}.{node.func.attr}(...)` is not behind the "  # type: ignore[union-attr]
                "observability gate; guard with `if <hook> is not None` / "
                "`observability.enabled()` so the disabled path stays "
                "zero-overhead",
            )


# --------------------------------------------------------------------------- #
# RL004 -- lock discipline via `# guarded-by:` annotations
# --------------------------------------------------------------------------- #
class LockDisciplineRule(Rule):
    """Attributes declared ``# guarded-by: _lock`` accessed without it.

    The convention: in ``__init__``, annotate each shared mutable attribute
    on the line that first assigns it::

        self._completed = 0  # guarded-by: _stats_lock

    Every other method must then touch ``self._completed`` only inside a
    lexical ``with self._stats_lock:`` block.  Exemptions:

    * ``__init__``/``__new__`` (no concurrent access before publication),
    * methods whose name ends in ``_locked`` (documented convention:
      caller holds the lock),
    * code inside a nested function/lambda is *not* credited with an
      enclosing ``with`` (it may run after the block exits).
    """

    code = "RL004"
    name = "lock-discipline"
    description = "guarded-by attribute accessed without its lock"

    _GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

    def _guard_map(self, cls: ast.ClassDef, ctx: LintContext) -> Dict[str, str]:
        """attr name -> lock attr name, from annotated self-assignments."""
        guards: Dict[str, str] = {}
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            match = self._GUARD_RE.search(ctx.line_text(node.lineno))
            if not match:
                continue
            lock = match.group(1)
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards[target.attr] = lock
        return guards

    @staticmethod
    def _with_locks(node: ast.With) -> Set[str]:
        locks: Set[str] = set()
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):  # e.g. self._lock.acquire-style CMs
                expr = expr.func
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                locks.add(expr.attr)
        return locks

    def _held(self, node: ast.AST, method: ast.AST, lock: str) -> bool:
        """Is ``node`` lexically under ``with self.<lock>`` within ``method``?"""
        for anc in ancestors(node):
            if isinstance(anc, ast.With) and lock in self._with_locks(anc):
                return True
            if isinstance(anc, ast.Lambda):
                return False
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function runs later; only its own name can vouch.
                return anc is not method and anc.name.endswith("_locked")
        return False

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards = self._guard_map(cls, ctx)
            if not guards:
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in ("__init__", "__new__") or method.name.endswith(
                    "_locked"
                ):
                    continue
                for node in ast.walk(method):
                    if not (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in guards
                    ):
                        continue
                    lock = guards[node.attr]
                    if self._held(node, method, lock):
                        continue
                    yield ctx.finding(
                        self.code,
                        node,
                        f"`self.{node.attr}` is guarded-by `{lock}` but "
                        f"`{cls.name}.{method.name}` accesses it outside "
                        f"`with self.{lock}:` (rename the method `*_locked` "
                        "if the caller holds it)",
                    )


# --------------------------------------------------------------------------- #
# RL005 -- unseeded randomness
# --------------------------------------------------------------------------- #
class SeededRandomRule(Rule):
    """Unseeded ``np.random.*`` / ``random.*`` in ``src/``.

    Reproducibility is the whole point of this repo: every stochastic
    path (stochastic rounding, init, data synthesis, load generation)
    threads an explicit ``rng``.  ``np.random.default_rng()`` with no
    seed, the legacy ``np.random.<fn>()`` global-state API, and the
    stdlib ``random.<fn>()`` module functions all break run-to-run
    determinism.
    """

    code = "RL005"
    name = "seeded-random"
    description = "unseeded np.random.* / random.* call in src/"

    #: stdlib ``random`` module functions that consume the global stream.
    _STDLIB = {
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "getrandbits", "randbytes",
    }

    def applies(self, path: str) -> bool:
        return _in_src(path)

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in ("np.random.default_rng", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.code,
                        node,
                        "`np.random.default_rng()` without a seed is "
                        "non-reproducible; thread an explicit seed or rng "
                        "through the caller",
                    )
            elif dotted.startswith(("np.random.", "numpy.random.")):
                func = dotted.rsplit(".", 1)[-1]
                if func not in ("default_rng", "seed", "Generator", "SeedSequence",
                                "PCG64", "Philox", "SFC64", "MT19937", "RandomState"):
                    yield ctx.finding(
                        self.code,
                        node,
                        f"legacy `{dotted}(...)` uses hidden global state; "
                        "use an explicit `np.random.Generator`",
                    )
            elif dotted.startswith("random.") and dotted.count(".") == 1:
                func = dotted.split(".", 1)[1]
                if func in self._STDLIB:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"stdlib `{dotted}(...)` draws from hidden global "
                        "state; use `random.Random(seed)` or a numpy rng",
                    )


# --------------------------------------------------------------------------- #
# RL006 -- bare / overbroad except in worker and supervision loops
# --------------------------------------------------------------------------- #
class BroadExceptRule(Rule):
    """Bare/overbroad ``except`` in worker and supervision loops.

    A bare ``except:`` (which swallows ``KeyboardInterrupt``/``SystemExit``)
    is flagged anywhere in ``src/``.  ``except Exception``/``BaseException``
    is additionally flagged in the serving/training worker loops unless the
    handler visibly re-raises (bare ``raise`` or ``raise X from exc``) or
    the ``except`` line carries a justification comment (``# noqa: BLE001``
    with a reason, or an inline repro-lint suppression).  Supervision loops
    routinely *must* catch everything -- the justification comment is the
    contract that says so out loud.
    """

    code = "RL006"
    name = "broad-except"
    description = "bare/overbroad except in a worker or supervision loop"

    BROAD_SCOPES = ("src/repro/serving/", "src/repro/training/")
    _JUSTIFY_RE = re.compile(r"#\s*noqa:\s*BLE001\b")

    def applies(self, path: str) -> bool:
        return _in_src(path)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
        return False

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        broad_scope = any(scope in ctx.path for scope in self.BROAD_SCOPES)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    self.code,
                    node,
                    "bare `except:` swallows KeyboardInterrupt/SystemExit; "
                    "catch a concrete exception type",
                )
                continue
            if not broad_scope:
                continue
            names = (
                [_dotted(elt) for elt in node.type.elts]
                if isinstance(node.type, ast.Tuple)
                else [_dotted(node.type)]
            )
            if not any(n in ("Exception", "BaseException") for n in names):
                continue
            if self._reraises(node):
                continue
            if self._JUSTIFY_RE.search(ctx.line_text(node.lineno)):
                continue
            yield ctx.finding(
                self.code,
                node,
                "overbroad `except Exception` in a worker/supervision loop "
                "without a re-raise; add `# noqa: BLE001 - <why>` if catching "
                "everything is the supervision contract here",
            )


# --------------------------------------------------------------------------- #
# RL007 -- golden models imported or defined in production code
# --------------------------------------------------------------------------- #
class ReferenceIsolationRule(Rule):
    """A production module imports ``repro.reference`` or defines a
    ``*_reference`` function.  Golden models live in ``repro/reference.py``
    and only tests and benchmarks use them, so an edit to a golden model
    cannot change production output.
    """

    code = "RL007"
    name = "reference-isolation"
    description = "repro.reference imported or *_reference defined outside repro/reference.py"

    def applies(self, path: str) -> bool:
        return _in_src(path) and not path.endswith("repro/reference.py")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        package = ctx.path.split("src/", 1)[-1].split("/")[:-1]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith("_reference"):
                    yield ctx.finding(self.code, node, f"golden model `{node.name}` "
                                      "belongs in repro/reference.py")
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Resolve ``from .. import x`` against this module's package.
                base = package[:len(package) + 1 - node.level] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "repro.reference" or name.startswith("repro.reference.")
                   for name in names):
                yield ctx.finding(self.code, node, "production code imports "
                                  "repro.reference; only tests and benchmarks may")


ALL_RULES: Tuple[type, ...] = (
    DtypePromotionRule,
    VersionBumpRule,
    GateDisciplineRule,
    LockDisciplineRule,
    SeededRandomRule,
    BroadExceptRule,
    ReferenceIsolationRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [rule() for rule in ALL_RULES]
