"""The paired A/B tool ``benchmarks/ab.py``."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module("ab")


def test_interval_contains_one_for_ratios_around_one(ab):
    ratios = 1.0 + np.random.default_rng(0).normal(0.0, 0.05, size=12)
    ratio, low, high = ab.median_ratio_interval(ratios)
    assert low <= ratio <= high
    assert low < 1.0 < high


def test_interval_excludes_one_for_a_ten_percent_slowdown(ab):
    ratios = 1.10 + np.random.default_rng(1).normal(0.0, 0.02, size=12)
    _, low, high = ab.median_ratio_interval(ratios)
    assert 1.0 < low <= high


@pytest.fixture
def in_repository(monkeypatch):
    inside = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    if inside.returncode:
        pytest.skip("needs the repository's git history")
    monkeypatch.chdir(ROOT)


def test_identical_trees_pair_runs_and_read_printed_metrics(ab, in_repository, tmp_path):
    printer = "import json; print(json.dumps({'metrics': {'x_ms': {'value': 2.5}}}))"
    output = tmp_path / "ab.json"
    status = ab.main(["HEAD", "HEAD", "--pairs", "2", "--output", str(output),
                      "--", sys.executable, "-c", printer])
    assert status == 0
    result = json.loads(output.read_text())
    assert [pair["first"] for pair in result["pairs"]] == ["parent", "change"]
    summary = result["summary"]
    assert set(summary) == {"wall_s", "cpu_s", "maxrss_mb", "x_ms"}
    assert summary["x_ms"] == {"parent_median": 2.5, "change_median": 2.5,
                               "ratio": 1.0, "interval": [1.0, 1.0]}
    assert all(pair[arm]["maxrss_mb"] > 0 for pair in result["pairs"]
               for arm in ("parent", "change"))
    assert result["failure"] is None
    assert result["checks"]["parent"] == {"attempted": 0, "failed": 0, "failed_share": None}


def test_runs_keep_perfbench_correctness_counts(ab, in_repository, tmp_path, capsys):
    printer = ("import json; print(json.dumps({'correct': True, 'attempted': 40, "
               "'failed': 3, 'metrics': {'x_ms': {'value': 2.5}}}))")
    output = tmp_path / "ab.json"
    status = ab.main(["HEAD", "HEAD", "--pairs", "2", "--output", str(output),
                      "--", sys.executable, "-c", printer])
    assert status == 0
    result = json.loads(output.read_text())
    for pair in result["pairs"]:
        for arm in ("parent", "change"):
            assert pair[arm]["checks"] == {"exit_status": 0, "correct": True,
                                           "attempted": 40, "failed": 3}
    for arm in ("parent", "change"):
        assert result["checks"][arm] == {"attempted": 80, "failed": 6, "failed_share": 0.075}
    printed = capsys.readouterr().out
    assert "parent: failed 6/80 operations (7.50%)" in printed
    assert "change: failed 6/80 operations (7.50%)" in printed
    assert "checks" not in result["summary"]


def test_a_failed_check_names_tree_and_pair_and_keeps_finished_pairs(
        ab, in_repository, tmp_path, capsys):
    # The third run (pair 2, which runs the change first) fails its checks.
    counter = tmp_path / "runs"
    script = (
        "import json, pathlib, sys\n"
        f"counter = pathlib.Path({str(counter)!r})\n"
        "runs = int(counter.read_text()) + 1 if counter.exists() else 1\n"
        "counter.write_text(str(runs))\n"
        "failed = runs == 3\n"
        "print(json.dumps({'correct': not failed, 'attempted': 0 if failed else 10,\n"
        "                  'failed': 0, 'metrics': {}}))\n"
        "sys.exit(1 if failed else 0)\n")
    output = tmp_path / "ab.json"
    status = ab.main(["HEAD", "HEAD", "--pairs", "3", "--output", str(output),
                      "--", sys.executable, "-c", script])
    assert status == 1
    assert counter.read_text() == "3"
    result = json.loads(output.read_text())
    assert len(result["pairs"]) == 1
    failure = result["failure"]
    assert (failure["arm"], failure["tree"], failure["pair"]) == ("change", "HEAD", 2)
    assert failure["run"]["checks"] == {"exit_status": 1, "correct": False,
                                        "attempted": 0, "failed": 0}
    assert set(result["summary"]) >= {"wall_s", "cpu_s", "maxrss_mb"}
    assert result["checks"]["parent"] == {"attempted": 10, "failed": 0, "failed_share": 0.0}
    assert "change tree HEAD failed its checks in pair 2 (exit 1)" in capsys.readouterr().err


def selftest_result(ratio=1.0, interval=(0.98, 1.02), pairs=8, failed=0):
    run = {"wall_s": 0.2, "cpu_s": 0.2, "maxrss_mb": 9.0, "checks": {"exit_status": 0}}
    row = {"parent_median": 1.0, "change_median": ratio, "ratio": ratio,
           "interval": list(interval)}
    return {"pairs": [{"parent": dict(run), "change": dict(run)} for _ in range(pairs)],
            "failure": None,
            "summary": {name: dict(row) for name in ("wall_s", "cpu_s", "maxrss_mb")},
            "checks": {arm: {"attempted": 0, "failed": failed, "failed_share": None}
                       for arm in ("parent", "change")}}


def test_selftest_accepts_noise_and_rejects_a_broken_harness(ab):
    assert ab.selftest_problems(selftest_result(), 8, strict=True) == []
    # Chance: the interval misses 1.0 while the median is close to it.
    noisy = selftest_result(ratio=1.04, interval=(1.01, 1.08))
    assert ab.selftest_problems(noisy, 8, strict=False) == []
    assert ab.selftest_problems(noisy, 8, strict=True) == [
        "1.0 outside the interval of wall_s", "1.0 outside the interval of cpu_s",
        "1.0 outside the interval of maxrss_mb"]
    assert "wall_s median ratio 1.3000" in ab.selftest_problems(
        selftest_result(ratio=1.3, interval=(1.2, 1.4)), 8, strict=False)
    assert ab.selftest_problems(selftest_result(pairs=7), 8, strict=False) == [
        "7 of 8 pairs finished"]
    assert "parent reports failed operations" in ab.selftest_problems(
        selftest_result(failed=1), 8, strict=False)
    missing = selftest_result()
    del missing["pairs"][3]["change"]["cpu_s"]
    del missing["summary"]["cpu_s"]
    assert ab.selftest_problems(missing, 8, strict=False) == [
        "change runs lack a measure or their checks", "no summary of cpu_s"]
