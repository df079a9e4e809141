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


def test_identical_trees_pair_runs_and_read_printed_metrics(ab, monkeypatch, tmp_path):
    inside = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    if inside.returncode:
        pytest.skip("needs the repository's git history")
    monkeypatch.chdir(ROOT)
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
