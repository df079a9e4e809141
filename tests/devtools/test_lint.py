"""Per-rule true-positive / true-negative / suppression tests for repro-lint.

Every rule gets at least one test proving it catches its bug class, one
proving it stays quiet on the compliant idiom, and one proving inline
suppressions work.  The final test is the acceptance gate: the actual
repo lints clean against the committed (empty) baseline.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    Baseline,
    Finding,
    default_rules,
    lint_paths,
    lint_source,
)
from repro.devtools.lint.rules import (
    BroadExceptRule,
    DtypePromotionRule,
    GateDisciplineRule,
    LockDisciplineRule,
    ReferenceIsolationRule,
    SeededRandomRule,
    VersionBumpRule,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

HOT_PATH = "src/repro/nn/example.py"       # in RL001/RL003 scope
SERVING_PATH = "src/repro/serving/example.py"  # in RL004/RL006 broad scope


def run(rule, source, path=HOT_PATH):
    return lint_source(path, textwrap.dedent(source), [rule()])


def codes(findings):
    return [f.rule for f in findings]


# --------------------------------------------------------------------------- #
# RL001 dtype promotion
# --------------------------------------------------------------------------- #
class TestDtypePromotion:
    def test_flags_bare_constructor(self):
        findings = run(DtypePromotionRule, """
            import numpy as np
            def f(n):
                return np.zeros((n, n))
        """)
        assert codes(findings) == ["RL001"]
        assert "dtype" in findings[0].message

    def test_quiet_with_dtype_keyword_or_positional(self):
        findings = run(DtypePromotionRule, """
            import numpy as np
            def f(n):
                a = np.zeros((n, n), dtype=np.float32)
                b = np.full((n,), 1.0, np.float32)
                c = np.zeros_like(a)
                d = np.arange(n)  # integer range: no promotion hazard
                return a, b, c, d
        """)
        assert findings == []

    def test_flags_float_arange(self):
        findings = run(DtypePromotionRule, """
            import numpy as np
            def f():
                return np.arange(0.0, 1.0, 0.1)
        """)
        assert codes(findings) == ["RL001"]

    def test_out_of_scope_path_is_quiet(self):
        findings = run(DtypePromotionRule, """
            import numpy as np
            def f(n):
                return np.zeros((n, n))
        """, path="src/repro/analysis/report.py")
        assert findings == []

    def test_inline_suppression(self):
        findings = run(DtypePromotionRule, """
            import numpy as np
            def f(n):
                return np.zeros((n, n))  # repro-lint: disable=RL001 -- test
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL002 version bump
# --------------------------------------------------------------------------- #
class TestVersionBump:
    def test_flags_data_store_without_bump(self):
        findings = run(VersionBumpRule, """
            def write(param, value):
                param.data = value
        """)
        assert codes(findings) == ["RL002"]
        assert "bump" in findings[0].message

    def test_flags_subscript_and_augmented_stores(self):
        findings = run(VersionBumpRule, """
            def write(param, value):
                param.data[...] = value

            def decay(param, factor):
                param.data *= factor
        """)
        assert codes(findings) == ["RL002", "RL002"]

    def test_quiet_with_bump_version_call(self):
        findings = run(VersionBumpRule, """
            def write(param, value):
                param.data = value
                param.bump_version()
        """)
        assert findings == []

    def test_quiet_with_getattr_idiom(self):
        findings = run(VersionBumpRule, """
            def write(param, value):
                param.data = value
                bump = getattr(param, "bump_version", None)
                if bump is not None:
                    bump()
        """)
        assert findings == []

    def test_quiet_on_self_data(self):
        findings = run(VersionBumpRule, """
            class Tensor:
                def load(self, value):
                    self.data = value
        """)
        assert findings == []

    def test_disable_next_line_suppression(self):
        findings = run(VersionBumpRule, """
            def write(param, value):
                # repro-lint: disable-next-line=RL002 -- test
                param.data = value
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL003 gate discipline
# --------------------------------------------------------------------------- #
class TestGateDiscipline:
    def test_flags_ungated_profiler_record(self):
        findings = run(GateDisciplineRule, """
            def hot(profiler_module):
                profiler = profiler_module.current
                profiler.record("kernel", 0.1, 100)
        """)
        assert codes(findings) == ["RL003"]
        assert "gate" in findings[0].message

    def test_quiet_behind_is_not_none(self):
        findings = run(GateDisciplineRule, """
            def hot():
                profiler = _PROFILER
                if profiler is not None:
                    profiler.record("kernel", 0.1, 100)
        """)
        assert findings == []

    def test_quiet_with_early_return_gate(self):
        findings = run(GateDisciplineRule, """
            def hot(self):
                tracer = self._tracer
                if tracer is None:
                    return
                tracer.add_event("span", 0.0, 1.0)
        """)
        assert findings == []

    def test_quiet_when_receiver_is_parameter(self):
        findings = run(GateDisciplineRule, """
            def report(profiler):
                profiler.record("kernel", 0.1, 100)
        """)
        assert findings == []

    def test_file_suppression(self):
        findings = run(GateDisciplineRule, """
            # repro-lint: disable-file=RL003 -- metrics endpoint module
            def hot():
                profiler = _PROFILER
                profiler.record("kernel", 0.1, 100)
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL004 lock discipline
# --------------------------------------------------------------------------- #
LOCKED_CLASS = """
    import threading

    class Server:
        def __init__(self):
            self._lock = threading.Lock()
            self._completed = 0  # guarded-by: _lock

        def ok(self):
            with self._lock:
                return self._completed

        def also_ok_locked(self):
            return self._completed
"""


class TestLockDiscipline:
    def test_flags_unlocked_access(self):
        findings = run(LockDisciplineRule, """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._completed = 0  # guarded-by: _lock

                def racy(self):
                    return self._completed
        """, path=SERVING_PATH)
        assert codes(findings) == ["RL004"]
        assert "_lock" in findings[0].message

    def test_quiet_under_with_and_locked_suffix(self):
        findings = run(LockDisciplineRule, LOCKED_CLASS, path=SERVING_PATH)
        assert findings == []

    def test_nested_function_not_credited_with_enclosing_with(self):
        findings = run(LockDisciplineRule, """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._completed = 0  # guarded-by: _lock

                def schedule(self):
                    with self._lock:
                        def callback():
                            return self._completed  # runs after release
                        return callback
        """, path=SERVING_PATH)
        assert codes(findings) == ["RL004"]

    def test_init_and_unannotated_attrs_exempt(self):
        findings = run(LockDisciplineRule, """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._completed = 0  # guarded-by: _lock
                    self._completed = self._completed + 0
                    self._free = 0

                def read_free(self):
                    return self._free
        """, path=SERVING_PATH)
        assert findings == []

    def test_inline_suppression(self):
        findings = run(LockDisciplineRule, """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._completed = 0  # guarded-by: _lock

                def racy(self):
                    return self._completed  # repro-lint: disable=RL004 -- test
        """, path=SERVING_PATH)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL005 seeded randomness
# --------------------------------------------------------------------------- #
class TestSeededRandom:
    def test_flags_unseeded_default_rng(self):
        findings = run(SeededRandomRule, """
            import numpy as np
            def init():
                return np.random.default_rng()
        """)
        assert codes(findings) == ["RL005"]

    def test_flags_legacy_and_stdlib_apis(self):
        findings = run(SeededRandomRule, """
            import random
            import numpy as np
            def noisy():
                a = np.random.rand(3)
                b = random.random()
                return a, b
        """)
        assert codes(findings) == ["RL005", "RL005"]

    def test_quiet_with_seeded_rng(self):
        findings = run(SeededRandomRule, """
            import numpy as np
            def init(seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(3)
        """)
        assert findings == []

    def test_quiet_outside_src(self):
        findings = run(SeededRandomRule, """
            import numpy as np
            def helper():
                return np.random.default_rng()
        """, path="tests/nn/test_example.py")
        assert findings == []

    def test_inline_suppression(self):
        findings = run(SeededRandomRule, """
            import numpy as np
            def init(rng=None):
                return rng or np.random.default_rng()  # repro-lint: disable=RL005 -- test
        """)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL006 broad except
# --------------------------------------------------------------------------- #
class TestBroadExcept:
    def test_flags_bare_except_anywhere_in_src(self):
        findings = run(BroadExceptRule, """
            def load(path):
                try:
                    return open(path)
                except:
                    return None
        """, path="src/repro/data/loader.py")
        assert codes(findings) == ["RL006"]

    def test_flags_broad_except_in_serving(self):
        findings = run(BroadExceptRule, """
            def worker_loop(queue):
                while True:
                    try:
                        queue.get()
                    except Exception:
                        pass
        """, path=SERVING_PATH)
        assert codes(findings) == ["RL006"]

    def test_quiet_outside_broad_scope(self):
        findings = run(BroadExceptRule, """
            def probe():
                try:
                    return 1
                except Exception:
                    return None
        """, path="src/repro/analysis/report.py")
        assert findings == []

    def test_quiet_with_reraise(self):
        findings = run(BroadExceptRule, """
            def worker_loop(queue):
                try:
                    queue.get()
                except Exception as exc:
                    raise RuntimeError("worker died") from exc
        """, path=SERVING_PATH)
        assert findings == []

    def test_quiet_with_noqa_justification(self):
        findings = run(BroadExceptRule, """
            def supervise(run):
                try:
                    run()
                except Exception as exc:  # noqa: BLE001 - supervision boundary
                    log(exc)
        """, path=SERVING_PATH)
        assert findings == []


# --------------------------------------------------------------------------- #
# RL007 golden models out of production code
# --------------------------------------------------------------------------- #
class TestReferenceIsolation:
    @pytest.mark.parametrize("statement", [
        "import repro.reference",
        "import repro.reference as golden",
        "from repro import reference",
        "from repro.reference import conv2d",
        "from .. import reference",
        "from ..reference import bfp_quantize_reference",
    ])
    def test_flags_production_import(self, statement):
        findings = run(ReferenceIsolationRule, statement + "\n",
                       path="src/repro/core/kernels.py")
        assert codes(findings) == ["RL007"]

    def test_flags_reference_defined_in_production(self):
        findings = run(ReferenceIsolationRule, """
            def ungroup_values_reference(groups):
                return groups
        """, path="src/repro/core/kernels.py")
        assert codes(findings) == ["RL007"]
        assert "ungroup_values_reference" in findings[0].message

    @pytest.mark.parametrize("path", ["src/repro/reference.py", "tests/core/test_kernels.py"])
    def test_quiet_in_reference_module_and_outside_src(self, path):
        findings = run(ReferenceIsolationRule, """
            from repro import reference
            def group_values_reference(x, group_size):
                return reference.group_values_reference(x, group_size)
        """, path=path)
        assert findings == []

    def test_quiet_on_lookalike_names(self):
        findings = run(ReferenceIsolationRule, """
            from . import references
            from ..core import kernels
            import repro.referenced
            def reference_sentences(indices):
                return indices
        """, path="src/repro/data/translation.py")
        assert findings == []

    def test_inline_suppression(self):
        findings = run(ReferenceIsolationRule, """
            from repro import reference  # repro-lint: disable=RL007 -- test
        """, path="src/repro/core/kernels.py")
        assert findings == []


# --------------------------------------------------------------------------- #
# Engine mechanics: syntax errors, suppressions, baseline
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_reports_rl000(self):
        findings = lint_source("src/repro/nn/bad.py", "def broken(:\n", default_rules())
        assert codes(findings) == ["RL000"]

    def test_disable_all_on_line(self):
        source = textwrap.dedent("""
            import numpy as np
            def f(n):
                return np.zeros((n, n))  # repro-lint: disable=all -- test
        """)
        assert lint_source(HOT_PATH, source, default_rules()) == []

    def test_fingerprint_is_line_number_independent(self):
        a = Finding("RL001", "src/x.py", 10, 4, "m", snippet="  np.zeros(n)")
        b = Finding("RL001", "src/x.py", 99, 4, "m", snippet="np.zeros(n)  ")
        assert a.fingerprint == b.fingerprint

    def test_baseline_masks_then_flags_regressions(self, tmp_path):
        finding = Finding("RL001", "src/x.py", 10, 4, "m", snippet="np.zeros(n)")
        path = tmp_path / "baseline.json"
        Baseline().save(path, [finding])
        baseline = Baseline.load(path)

        new, baselined, stale = baseline.filter([finding])
        assert (new, len(baselined), stale) == ([], 1, [])

        # A second occurrence of the same fingerprint is a regression.
        new, baselined, stale = baseline.filter([finding, finding])
        assert len(new) == 1 and len(baselined) == 1

        # A fixed finding shows up as stale.
        new, baselined, stale = baseline.filter([])
        assert new == [] and stale == [finding.fingerprint]

    def test_baseline_file_shape(self, tmp_path):
        finding = Finding("RL001", "src/x.py", 10, 4, "m", snippet="np.zeros(n)")
        path = tmp_path / "baseline.json"
        Baseline().save(path, [finding, finding])
        data = json.loads(path.read_text())
        assert data["findings"] == {finding.fingerprint: 2}

    def test_lint_paths_walks_files(self, tmp_path):
        package = tmp_path / "src" / "repro" / "nn"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "import numpy as np\n\n\ndef f(n):\n    return np.zeros(n)\n")
        findings = lint_paths([Path("src")], tmp_path, default_rules())
        assert codes(findings) == ["RL001"]
        assert findings[0].path == "src/repro/nn/mod.py"


# --------------------------------------------------------------------------- #
# Acceptance: the actual repo is clean against the committed baseline
# --------------------------------------------------------------------------- #
def test_repo_lints_clean():
    findings = lint_paths(
        [Path("src"), Path("tests"), Path("benchmarks")],
        REPO_ROOT,
        default_rules(),
    )
    baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
    new, _baselined, stale = baseline.filter(findings)
    assert new == [], "new lint findings:\n" + "\n".join(f.render() for f in new)
    assert stale == [], f"stale baseline entries: {stale}"


def test_committed_baseline_is_empty():
    data = json.loads((REPO_ROOT / ".repro-lint-baseline.json").read_text())
    assert data["findings"] == {}
