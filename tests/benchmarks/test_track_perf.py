"""``benchmarks/track_perf.py`` appends only measurements to the trajectory."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def track_perf():
    spec = importlib.util.spec_from_file_location(
        "track_perf", REPO_ROOT / "benchmarks" / "track_perf.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_report(results, fast_ms, **overrides):
    report = {
        "benchmark": "bench_perf_train_step", "mode": "quick",
        "host": {"cpus": 2, "python": "3.11.7", "numpy": "2.4.6",
                 "blas": "scipy-openblas 0.3.31", "machine": "x86_64"},
        "equivalence": "pass",
        "gates": [{"name": "step_speedup/cnn/bfp4_stochastic", "measured": 700.0 / fast_ms,
                   "required": 2.0, "better": "higher", "enforced": True,
                   "skipped_reason": None, "attempts": None}],
        "headline": {"cnn/bfp4_stochastic.fast_ms_per_step": fast_ms},
        "results": [{
            "config": "cnn", "scheme": "bfp4_stochastic", "uncached_ms_per_step": 700.0,
            "fast_ms_per_step": fast_ms, "speedup": 700.0 / fast_ms}],
    }
    report.update(overrides)
    (results / "perf_train_step.json").write_text(json.dumps(report))


def test_refuses_a_summary_copied_from_another_commit(tmp_path, monkeypatch, track_perf):
    results = tmp_path / "results"
    results.mkdir()
    trajectory = tmp_path / "trajectory.jsonl"
    argv = ["--results-dir", str(results), "--output", str(trajectory)]
    write_report(results, fast_ms=90.0)
    monkeypatch.setattr(track_perf, "git_commit", lambda root: "aaaaaaa")
    assert track_perf.main(argv) == 0
    assert track_perf.main(argv) == 0  # the same commit may record its run again
    recorded = trajectory.read_text()

    monkeypatch.setattr(track_perf, "git_commit", lambda root: "bbbbbbb")
    assert track_perf.main(argv) != 0
    assert trajectory.read_text() == recorded

    write_report(results, fast_ms=85.0)
    assert track_perf.main(argv) == 0
    rows = [json.loads(line) for line in trajectory.read_text().splitlines()]
    assert [row["commit"] for row in rows] == ["aaaaaaa", "aaaaaaa", "bbbbbbb"]


def test_summarizes_any_report_of_the_shared_schema(tmp_path, monkeypatch, track_perf):
    results = tmp_path / "results"
    results.mkdir()
    trajectory = tmp_path / "trajectory.jsonl"
    write_report(results, fast_ms=70.0, benchmark="bench_perf_anything")
    monkeypatch.setattr(track_perf, "git_commit", lambda root: "aaaaaaa")
    assert track_perf.main(["--results-dir", str(results), "--output", str(trajectory),
                            "--label", "tag"]) == 0
    (row,) = [json.loads(line) for line in trajectory.read_text().splitlines()]
    assert row["benchmark"] == "bench_perf_anything"
    assert (row["commit"], row["label"], row["mode"]) == ("aaaaaaa", "tag", "quick")
    assert row["host"]["cpus"] == 2 and row["host"]["blas"] == "scipy-openblas 0.3.31"
    assert row["summary"] == {
        "gates": {"step_speedup/cnn/bfp4_stochastic": 10.0},
        "headline": {"cnn/bfp4_stochastic.fast_ms_per_step": 70.0},
    }


@pytest.mark.parametrize("missing", ["gates", "headline"])
def test_refuses_a_report_without_gates_or_headline(tmp_path, monkeypatch, track_perf,
                                                     missing):
    results = tmp_path / "results"
    results.mkdir()
    trajectory = tmp_path / "trajectory.jsonl"
    trajectory.write_text("")
    write_report(results, fast_ms=90.0)
    good = json.loads((results / "perf_train_step.json").read_text())
    del good[missing]
    (results / "perf_other.json").write_text(json.dumps(good))
    monkeypatch.setattr(track_perf, "git_commit", lambda root: "aaaaaaa")
    assert track_perf.main(["--results-dir", str(results), "--output", str(trajectory)]) == 1
    assert trajectory.read_text() == ""


def test_committed_trajectory_has_no_copied_rows():
    """No (benchmark, summary) pair of the committed trajectory is recorded
    at two different commits: every row is a measurement."""
    path = REPO_ROOT / "benchmarks" / "results" / "perf_trajectory.jsonl"
    commits = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        key = (row["benchmark"], json.dumps(row["summary"], sort_keys=True))
        commits.setdefault(key, set()).add(row["commit"])
    copied = [key[0] for key, seen in commits.items() if len(seen) > 1]
    assert copied == []
