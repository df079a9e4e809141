"""Paired A/B runs of one command on two git trees.

Usage (from inside the repository)::

    python benchmarks/ab.py PARENT CHANGE -- python3 perfbench/run.py \\
        --workload mixed_lengths --seed 1 --seconds 50 --trace 0
    python benchmarks/ab.py --selftest

``PARENT`` and ``CHANGE`` are anything ``git archive`` takes: commits,
branches, or a tree id (``git add -A && git write-tree`` names the working
tree).  Each is extracted with ``git archive`` into its own temporary
directory, and the command runs there, in pairs whose order alternates
(parent first, then change first) so slow drift of the host hits both arms
alike.  Per run it records:

* ``wall_s``: wall time;
* ``cpu_s``: child CPU time, user plus system, the ``RUSAGE_CHILDREN``
  delta (the command's descendants that it waited for included);
* ``maxrss_mb``: the run's own peak RSS (``wait4``), max over the command
  and the descendants it waited for;
* every metric of a last output line shaped like perfbench's
  (``{"metrics": {name: {"value": v}}}``), when there is one;
* under ``checks``: the exit status and that line's ``correct``,
  ``attempted`` and ``failed`` counts.

For each measure it prints the median of the per-pair ratios change/parent
with a percentile-bootstrap 95% interval of that median (Kalibera & Jones,
"Rigorous Benchmarking in Reasonable Time", ISMM 2013), and for each arm
the share of attempted operations that failed.  A run that exits non-zero
has failed its checks: the A/B stops there, names the tree and the pair,
summarizes the pairs already finished and exits 1.  ``--output`` writes
every run and summary as JSON.

The self-test runs a fixed CPU loop on two trees of the same commit and
checks that the harness works: every pair ran, both arms hold every run
measure and their checks, and each median ratio lies within
:data:`SELFTEST_TOLERANCE` of 1.0.  ``--selftest --strict`` also requires
every 95% interval to contain 1.0; with 8 pairs a median's interval spans
about the 2nd to 7th ratio, so identical trees miss 1.0 by chance: 17 of
100 strict self-tests failed on a 2-CPU host, none of the loose ones
(largest ``|median ratio - 1|`` 0.091).  The strict form is a manual check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

#: Bootstrap resamples behind each interval.
RESAMPLES = 4000
#: Correctness fields of a perfbench-shaped last line, kept per run.
CHECK_FIELDS = ("correct", "attempted", "failed")
SELFTEST_COMMAND = [sys.executable, "-c", "sum(i * i for i in range(1_500_000))"]
#: Measures every run records, whatever the command prints.
RUN_MEASURES = ("wall_s", "cpu_s", "maxrss_mb")
#: Largest ``|median ratio - 1|`` the self-test accepts on identical trees:
#: the benchmark's own bound on speed metrics.  With 8 pairs and 15% normal
#: noise per run, identical trees exceed it in ~0.6% of the self-tests per
#: measure (simulated).
SELFTEST_TOLERANCE = 0.25


def build_tree(repo: Path, treeish: str, destination: Path) -> Path:
    """Extract ``treeish`` with ``git archive`` into ``destination``."""
    destination.mkdir(parents=True)
    archive = destination.with_suffix(".tar")
    with open(archive, "wb") as handle:
        subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", treeish],
                       stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(destination, filter="data")
    archive.unlink()
    return destination


def run_once(command, cwd: Path) -> dict:
    """One run of ``command`` in ``cwd``: wall, child CPU, peak RSS, metrics
    and its ``checks``."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
    output = process.stdout.read()
    process.stdout.close()
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
    }
    lines = output.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except ValueError:
        last = {}
    if not isinstance(last, dict):
        last = {}
    metrics = last.get("metrics", {})
    if isinstance(metrics, dict):
        record.update({name: float(entry["value"]) for name, entry in metrics.items()
                       if isinstance(entry, dict) and "value" in entry})
    record["checks"] = {"exit_status": process.returncode,
                        **{key: last[key] for key in CHECK_FIELDS if key in last}}
    return record


def median_ratio_interval(ratios, seed: int = 0):
    """Median of ``ratios`` and a percentile-bootstrap 95% interval of it."""
    ratios = np.asarray(ratios, dtype=float)
    rng = np.random.default_rng(seed)
    resampled = np.median(rng.choice(ratios, size=(RESAMPLES, ratios.size)), axis=1)
    low, high = np.percentile(resampled, [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def summarize(pairs) -> dict:
    """Per measure both arms share: medians, median paired ratio, interval."""
    if not pairs:
        return {}
    names = [name for name, value in pairs[0]["parent"].items()
             if isinstance(value, float) and all(
                 name in pair[arm] for pair in pairs for arm in ("parent", "change"))]
    summary = {}
    for name in names:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        if not all(value > 0 for value in parent):
            continue
        ratio, low, high = median_ratio_interval([c / p for c, p in zip(change, parent)])
        summary[name] = {"parent_median": float(np.median(parent)),
                         "change_median": float(np.median(change)),
                         "ratio": ratio, "interval": [low, high]}
    return summary


def failed_share(runs) -> dict:
    """The operations one arm's runs attempted and failed, and the failed
    share (``None`` when no run reported a count)."""
    attempted = sum(run["checks"].get("attempted", 0) for run in runs)
    failed = sum(run["checks"].get("failed", 0) for run in runs)
    return {"attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else None}


def compare(repo: Path, parent: str, change: str, command, pairs: int) -> dict:
    """Build both trees and run ``pairs`` alternating pairs of ``command``.

    A run that exits non-zero ends the A/B: ``failure`` names its arm, tree
    and pair and holds its record, and only the pairs finished before it
    are summarized.
    """
    treeishes = {"parent": parent, "change": change}
    runs, failure = [], None
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {arm: build_tree(repo, treeish, Path(scratch) / arm)
                 for arm, treeish in treeishes.items()}
        for index in range(pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for arm in order:
                pair[arm] = run_once(command, trees[arm])
                status = pair[arm]["checks"]["exit_status"]
                if status:
                    failure = {"arm": arm, "tree": treeishes[arm], "pair": index + 1,
                               "run": pair[arm]}
                    break
            if failure is not None:
                break
            runs.append(pair)
            print(f"pair {index + 1}/{pairs}: " + ", ".join(
                f"{arm} {pair[arm]['wall_s']:.2f}s" for arm in ("parent", "change")),
                flush=True)
    return {"parent": parent, "change": change, "command": list(command),
            "host_cpus": len(os.sched_getaffinity(0)), "pairs": runs,
            "failure": failure, "summary": summarize(runs),
            "checks": {arm: failed_share([pair[arm] for pair in runs]) for arm in treeishes}}


def print_summary(result: dict) -> None:
    failure = result["failure"]
    if failure is not None:
        status = failure["run"]["checks"]["exit_status"]
        print(f"{failure['arm']} tree {failure['tree']} failed its checks in pair "
              f"{failure['pair']} (exit {status}); summarizing the "
              f"{len(result['pairs'])} pair(s) finished before it", file=sys.stderr)
    print(f"{'measure':<24} {'parent':>12} {'change':>12} {'ratio':>8}  95% interval")
    for name, row in result["summary"].items():
        low, high = row["interval"]
        print(f"{name:<24} {row['parent_median']:>12.4g} {row['change_median']:>12.4g} "
              f"{row['ratio']:>8.4f}  [{low:.4f}, {high:.4f}]")
    for arm, totals in result["checks"].items():
        share = totals["failed_share"]
        print(f"{arm}: failed {totals['failed']}/{totals['attempted']} operations"
              + ("" if share is None else f" ({share:.2%})"))


def selftest_problems(result: dict, pairs: int, strict: bool) -> list:
    """What an A/B of two identical trees shows wrong with the harness."""
    problems = []
    if result["failure"] is not None or len(result["pairs"]) != pairs:
        problems.append(f"{len(result['pairs'])} of {pairs} pairs finished")
    for arm in ("parent", "change"):
        if any(set(RUN_MEASURES) - set(pair[arm]) or "exit_status" not in pair[arm]["checks"]
               for pair in result["pairs"]):
            problems.append(f"{arm} runs lack a measure or their checks")
        if result["checks"][arm]["failed"]:
            problems.append(f"{arm} reports failed operations")
    for name in RUN_MEASURES:
        row = result["summary"].get(name)
        if row is None:
            problems.append(f"no summary of {name}")
        elif abs(row["ratio"] - 1.0) >= SELFTEST_TOLERANCE:
            problems.append(f"{name} median ratio {row['ratio']:.4f}")
        elif strict and not row["interval"][0] <= 1.0 <= row["interval"][1]:
            problems.append(f"1.0 outside the interval of {name}")
    return problems


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = []
    if "--" in argv:
        split = argv.index("--")
        argv, command = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--output", type=Path)
    parser.add_argument("--selftest", action="store_true",
                        help="identical trees: every pair runs and every median "
                             f"ratio is within {SELFTEST_TOLERANCE} of 1.0")
    parser.add_argument("--strict", action="store_true",
                        help="with --selftest: every interval must also contain 1.0")
    args = parser.parse_args(argv)
    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                               capture_output=True, text=True).stdout.strip())
    if args.selftest:
        args.parent = args.change = "HEAD"
        command = SELFTEST_COMMAND
        args.pairs = max(args.pairs, 8)
    if not (args.parent and args.change and command):
        parser.error("give PARENT CHANGE -- COMMAND, or --selftest")
    result = compare(repo, args.parent, args.change, command, args.pairs)
    print_summary(result)
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2) + "\n")
    if args.selftest:
        problems = selftest_problems(result, args.pairs, args.strict)
        print("selftest: " + (f"FAIL, {'; '.join(problems)}" if problems else "pass"))
        return 1 if problems else 0
    return 1 if result["failure"] is not None else 0


if __name__ == "__main__":
    sys.exit(main())
