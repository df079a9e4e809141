"""The benchmark's own self-test, in a tiny mode.

1. A tiny untraced and a tiny traced run of one workload must emit every
   metric ``BENCHMARK.json`` declares for that mode, with its unit, in a
   result line of exactly the agreed shape.
2. Each correctness check must accept the program's real output and reject
   a deliberately corrupted copy of it.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
from pathlib import Path

import numpy as np

from perfbench import bench, config, gen_phase, report, serve_phase, train_phase

TINY_SECONDS = 5


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except report.CheckFailed:
        return True
    return False


def _metrics_and_units(root: Path, workload: str) -> list:
    failures = []
    for trace in (0, 1):
        args = argparse.Namespace(workload=workload, seed=0, seconds=TINY_SECONDS,
                                  trace=trace)
        result = json.loads(json.dumps(bench.execute(args, root)))
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        if result["attempted"] < 1:
            failures.append(f"trace {trace}: attempted {result['attempted']}")
        declared = bench.declared_metrics(root, bool(trace))
        for name, unit in declared.items():
            entry = result["metrics"].get(name)
            if entry is None or entry.get("unit") != unit \
                    or not math.isfinite(entry.get("value", math.nan)):
                failures.append(f"trace {trace}: {name} missing or without unit {unit!r}")
    return failures


def _train_check_rejects() -> list:
    layers, steps, low, high = 2, 3, 2, 4
    table = {(layer, step): (low, high, low) for layer in range(layers)
             for step in range(steps)}

    def by_iteration(source):
        grouped = {}
        for (layer, step), setting in source.items():
            grouped.setdefault(step, {})[layer] = setting
        return grouped

    good = ([2.1, 1.7], table, by_iteration(table), layers, steps, low, high)
    bad_bits = dict(table)
    bad_bits[(1, 2)] = (low, 3, high)
    gap = {key: value for key, value in table.items() if key != (0, 1)}
    failures = []
    if _rejects(train_phase.check, *good):
        failures.append("train check rejected a valid history")
    cases = {
        "non-finite loss": ([2.1, math.nan],) + good[1:],
        "bits outside low/high": (good[0], bad_bits, by_iteration(bad_bits)) + good[3:],
        "layer missing at a step": (good[0], gap, by_iteration(gap)) + good[3:],
    }
    for what, case in cases.items():
        if not _rejects(train_phase.check, *case):
            failures.append(f"train check accepted: {what}")
    return failures


def _serve_check_rejects(root: Path) -> list:
    workdir = root / "perfbench" / "out" / "selftest"
    try:
        run = serve_phase.Run(config.SERVE, 0, config.MODEL_SEED, workdir)
        rows = 4
        outputs = {i: run.local.predict(run.payloads[i][None])[0] for i in range(rows)}
        failures = []
        if _rejects(serve_phase.check, run.local, run.payloads, outputs, rows):
            failures.append("serve check rejected the local engine's own outputs")
        corrupted = dict(outputs)
        corrupted[2] = outputs[2] + np.float32(0.01) * np.abs(outputs[2]).max()
        if not _rejects(serve_phase.check, run.local, run.payloads, corrupted, rows):
            failures.append("serve check accepted a perturbed output row")
        if not _rejects(serve_phase.check, run.local, run.payloads,
                        {i: outputs[i] for i in range(rows - 1)}, rows):
            failures.append("serve check accepted a missing output")
        return failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _gen_check_rejects() -> list:
    cfg = dict(config.WORKLOADS["mixed_lengths"]["gen"], offline_batch=6,
               check_sequences=6)
    run = gen_phase.setup(cfg, 0, config.MODEL_SEED)
    try:
        results, _ = gen_phase.run_offline(run)
        tokens = [result.tokens for result in results]
        failures = []
        if _rejects(gen_phase.check, run, tokens, len(tokens)):
            failures.append("generation check rejected batched tokens")
        corrupted = [t.copy() for t in tokens]
        corrupted[3][-1] = (corrupted[3][-1] + 1) % cfg["vocab_size"]
        if not _rejects(gen_phase.check, run, corrupted, len(tokens)):
            failures.append("generation check accepted a changed token")
        truncated = [t.copy() for t in tokens]
        truncated[0] = truncated[0][:-1]
        if not _rejects(gen_phase.check, run, truncated, len(tokens)):
            failures.append("generation check accepted a truncated sequence")
        return failures
    finally:
        run.close()


def main(root: Path) -> int:
    workload = next(iter(config.WORKLOADS))
    failures = _metrics_and_units(root, workload)
    failures += _train_check_rejects()
    failures += _serve_check_rejects(root)
    failures += _gen_check_rejects()
    for failure in failures:
        print(f"SELFTEST FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0
