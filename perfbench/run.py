"""Repository benchmark: FAST training, sharded serving, KV-cached generation.

Run from the repository root::

    python3 perfbench/run.py --workload mixed_lengths --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload mixed_lengths --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --selftest

Each run executes the three phases of one workload (see
``perfbench/config.py``) against the program in ``src/``, checks the
program's outputs, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones.  Full reports and the Chrome trace land in ``perfbench/out/``.

The exit status is 0 for a run whose checks passed, 1 when a correctness
check failed, and 2 when the program cannot be imported.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it from there."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    source = Path(repro.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {source}, not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny runs checking metrics, units and every check")
    # Internal: one phase in this fresh process, its output to a JSON file.
    parser.add_argument("--phase", choices=("train", "serve", "gen"), help=argparse.SUPPRESS)
    parser.add_argument("--phase-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from perfbench import bench, config, report, selftest

    if args.selftest:
        return selftest.main(ROOT)
    if args.workload not in config.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(config.WORKLOADS)}")
    if args.seconds is None:
        args.seconds = config.RUN_SECONDS
    if args.phase is not None:
        return _phase(args, bench, report)
    try:
        result = bench.execute(args, ROOT)
    except report.CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


def _phase(args, bench, report) -> int:
    workdir = args.phase_out.parent / f"{args.phase}-work"
    try:
        output = bench.run_phase(args.phase, args, workdir)
    except report.CheckFailed as error:
        print(f"CHECK FAILED ({args.phase}): {error}", file=sys.stderr)
        return 1
    args.phase_out.write_text(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
