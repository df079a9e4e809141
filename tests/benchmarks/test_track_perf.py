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


def write_report(results, fast_ms):
    report = {"mode": "quick", "results": [{
        "config": "cnn", "scheme": "bfp4_stochastic", "uncached_ms_per_step": 700.0,
        "fast_ms_per_step": fast_ms, "speedup": 700.0 / fast_ms}]}
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
