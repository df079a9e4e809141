"""CLI: ``python -m repro.devtools.lint src tests benchmarks``.

Exit status is 0 only when every finding is baselined; any new finding
(or a syntax error) exits 1.  ``--write-baseline`` records the current
findings as the new baseline -- prefer fixing or inline-suppressing with
a reason; the committed baseline in this repo is empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import Baseline, lint_paths
from .rules import ALL_RULES, default_rules


def _find_repo_root(start: Path) -> Path:
    """Nearest ancestor containing a .git dir (or pyproject); else cwd."""
    for candidate in (start, *start.parents):
        if (candidate / ".git").exists() or (candidate / "ROADMAP.md").exists():
            return candidate
    return start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Project-specific static analysis (rules RL001-RL007).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON (default: <repo-root>/.repro-lint-baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0

    root = _find_repo_root(Path.cwd())
    baseline_path = args.baseline or (root / ".repro-lint-baseline.json")

    findings = lint_paths([Path(p) for p in args.paths], root, default_rules())

    if args.write_baseline:
        Baseline().save(baseline_path, findings)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}", file=sys.stderr
        )
        return 0

    baseline = Baseline.load(baseline_path)
    new, baselined, stale = baseline.filter(findings)

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "new": [f.__dict__ for f in new],
                    "baselined": [f.__dict__ for f in baselined],
                    "stale_baseline_entries": stale,
                },
                indent=2,
            )
        )
    else:
        for finding in new:
            print(finding.render())
        if baselined:
            print(f"({len(baselined)} baselined finding(s) suppressed)", file=sys.stderr)
        for fingerprint in stale:
            print(
                f"stale baseline entry (fixed? rerun --write-baseline): {fingerprint}",
                file=sys.stderr,
            )
        summary = f"{len(new)} new finding(s)"
        print(summary if new else f"repro-lint: clean ({summary})", file=sys.stderr)

    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
