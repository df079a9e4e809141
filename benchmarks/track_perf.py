"""Append benchmark summaries to the committed performance trajectory.

Every `perf_*.json` in the results directory is a full report overwritten on
every run of its `bench_perf_*` script, in the one schema those scripts
share (`bench_utils.finish_report`).  This script distills each into one
compact JSON line -- `{recorded_at, commit, label, benchmark, mode, host,
summary: {gates: {name: measured}, headline}}` -- and appends it to
`benchmarks/results/perf_trajectory.jsonl` so performance can be tracked
*over time* instead of only gated fast-vs-reference.  CI runs it after the
`--quick` benchmarks and uploads the trajectory as a workflow artifact;
developers run it after a full benchmark pass and commit the appended lines
with the change that moved performance.

A row must be a measurement: the script appends nothing and exits non-zero
when a report lacks `gates` or `headline`, or when a new row's summary
equals one already recorded at another commit, the mark of a report copied
forward instead of re-run.

Usage::

    PYTHONPATH=src python benchmarks/track_perf.py
    PYTHONPATH=src python benchmarks/track_perf.py --label pr2 --results-dir results
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def git_commit(repo_root: Path) -> str:
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return output or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(report: dict) -> dict:
    """A row's summary: every gate's measured value plus the headline."""
    return {"gates": {entry["name"]: entry["measured"] for entry in report["gates"]},
            "headline": report["headline"]}


def _measurement(row: dict) -> tuple:
    """What a re-run must change: the benchmark and its summary."""
    return row["benchmark"], json.dumps(row["summary"], sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", type=Path,
                        default=Path(__file__).parent / "results")
    parser.add_argument("--output", type=Path, default=None,
                        help="trajectory file (default: <results-dir>/perf_trajectory.jsonl)")
    parser.add_argument("--label", default=None,
                        help="optional tag for this entry (e.g. a PR number)")
    args = parser.parse_args(argv)

    output = args.output or args.results_dir / "perf_trajectory.jsonl"
    recorded_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    commit = git_commit(Path(__file__).resolve().parent.parent)

    entries, malformed = [], []
    for path in sorted(args.results_dir.glob("perf_*.json")):
        report = json.loads(path.read_text())
        if "gates" not in report or "headline" not in report:
            malformed.append(path.name)
            continue
        entries.append({
            "recorded_at": recorded_at,
            "commit": commit,
            "label": args.label,
            "benchmark": report["benchmark"],
            "mode": report["mode"],
            "host": report["host"],
            "summary": summarize(report),
        })
    for name in malformed:
        print(f"refusing {name}: a report needs 'gates' and 'headline' "
              "(the bench_utils.finish_report schema)", file=sys.stderr)
    if malformed:
        return 1

    recorded = {}
    if output.exists():
        for line in output.read_text().splitlines():
            if line.strip():
                row = json.loads(line)
                recorded[_measurement(row)] = row.get("commit")
    copies = [entry for entry in entries
              if recorded.get(_measurement(entry), commit) != commit]
    for entry in copies:
        print(f"refusing {entry['benchmark']}: its summary equals the row recorded at "
              f"commit {recorded[_measurement(entry)]}; re-run the benchmark instead of "
              "copying its report", file=sys.stderr)
    if copies:
        return 1

    with output.open("a") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {len(entries)} entries to {output}")
    return 0 if entries else 1


if __name__ == "__main__":
    sys.exit(main())
