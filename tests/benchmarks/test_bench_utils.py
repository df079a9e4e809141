"""The shared report schema and gate check of the ``bench_perf_*`` scripts."""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture
def bench_utils(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("bench_utils")


@pytest.fixture
def train_step(monkeypatch, bench_utils):
    return importlib.import_module("bench_perf_train_step")


def finish(bench_utils, tmp_path, gates, **sections):
    output = tmp_path / "out" / "perf_x.json"
    status = bench_utils.finish_report(output, "bench_perf_x", "quick", gates,
                                       {"x_ms": 1.5}, **sections)
    return status, json.loads(output.read_text())


def test_report_schema(bench_utils, tmp_path):
    gates = [bench_utils.gate("speedup", 3.0, 2.0, attempts=[1.5, 3.0])]
    status, report = finish(bench_utils, tmp_path, gates, results=[{"ms": 2.0}])
    assert status == 0
    assert list(report) == ["benchmark", "mode", "host", "equivalence", "gates",
                            "headline", "results"]
    assert set(report["host"]) == {"cpus", "python", "numpy", "blas", "machine"}
    assert report["host"]["cpus"] >= 1 and report["host"]["blas"]
    assert report["gates"] == [{"name": "speedup", "measured": 3.0, "required": 2.0,
                                "better": "higher", "enforced": True,
                                "skipped_reason": None, "attempts": [1.5, 3.0]}]
    assert report["headline"] == {"x_ms": 1.5}


def test_every_gate_is_printed_after_an_earlier_failure(bench_utils, tmp_path, capsys):
    gates = [bench_utils.gate("first", 0.5, 1.0),
             bench_utils.gate("second", 2.0, 1.0),
             bench_utils.gate("third", 0.1, 1.7, enforced=False,
                              skipped_reason="one CPU"),
             bench_utils.gate("fourth", 1.2, 1.01, better="lower")]
    status, _ = finish(bench_utils, tmp_path, gates)
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("gate ")]
    assert status == 1
    assert [line.split(":")[0] for line in lines] == [
        "gate first", "gate second", "gate third", "gate fourth"]
    assert lines[0].endswith("FAIL") and lines[1].endswith("pass")
    assert lines[2].endswith("SKIPPED: one CPU") and lines[3].endswith("FAIL")


@pytest.mark.parametrize("measured, enforced, status", [
    (2.0, True, 0), (1.0, True, 0), (0.99, True, 1),
    (0.5, False, 0),  # a skipped gate never fails
])
def test_status_is_one_iff_an_enforced_gate_fails(bench_utils, tmp_path, measured,
                                                  enforced, status):
    gates = [bench_utils.gate("passing", 5.0, 1.0),
             bench_utils.gate("checked", measured, 1.0, enforced=enforced,
                              skipped_reason=None if enforced else "not measurable")]
    assert finish(bench_utils, tmp_path, gates)[0] == status


@pytest.mark.parametrize("measured, met", [(1.0, True), (1.01, True), (1.0101, False)])
def test_lower_is_better_gate(bench_utils, measured, met):
    assert bench_utils.gate_met(bench_utils.gate("overhead", measured, 1.01,
                                                 better="lower")) is met
    assert bench_utils.gate_met(bench_utils.gate("speedup", measured, 1.01)) is (
        measured >= 1.01)


def test_gate_rejects_an_unknown_direction(bench_utils):
    with pytest.raises(ValueError):
        bench_utils.gate("speedup", 1.0, 1.0, better="more")


@pytest.mark.parametrize("generator_ms", [5.0, 13.0, 26.0, 40.0])
def test_noise_pool_gate_matches_the_either_or_form(train_step, bench_utils,
                                                    generator_ms):
    """``pooled <= max(generator / 2, budget)`` passes exactly when the old
    "speedup >= 2 or pooled <= budget" did, on both sides of each bound."""
    scale = max(1.0, generator_ms / train_step.REFERENCE_GENERATOR_MS)
    budget_ms = train_step.PR1_STOCHASTIC_MS / train_step.NOISE_POOL_GATE * scale
    for bound in (generator_ms / train_step.NOISE_POOL_GATE, budget_ms):
        for pooled_ms in (bound * (1 - 1e-6), bound * (1 + 1e-6)):
            noise = {"generator_ms": generator_ms, "pooled_ms": pooled_ms,
                     "speedup": generator_ms / pooled_ms}
            either_or = (noise["pooled_ms"] <= budget_ms
                         or noise["speedup"] >= train_step.NOISE_POOL_GATE)
            assert bench_utils.gate_met(train_step.noise_pool_gate(noise)) is either_or
