"""Summaries, the host and run fingerprint, and the printed report."""

from __future__ import annotations

import datetime
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """A correctness check rejected the program's output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(samples: Iterable[float], pct: float) -> float:
    values = np.asarray(list(samples), dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, pct))


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50)


def windows_note(samples_per_window, windows: int, what: str) -> str:
    """How a median-over-windows figure was made, with its sample counts."""
    counts = [len(samples) for samples in samples_per_window]
    return (f"median over {len(counts)} valid of {windows} windows, "
            f"{min(counts)}-{max(counts)} {what} each")


#: Every phase computes in float32, so a kernel's bytes are elements x 4.
KERNEL_BYTES_PER_ELEMENT = 4
_KERNEL_COUNTERS = ("kernel_calls_total", "kernel_seconds_total", "kernel_elements_total")


def kernel_totals(snapshot: dict, worker: bool) -> Dict[str, list]:
    """Per kernel ``[calls, seconds, elements]`` from the kernel profiler's
    counters in a registry snapshot: those merged from worker processes
    (``worker=True``, they carry a ``shard`` label) or this process's own."""
    totals: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0.0])
    for metric in snapshot["metrics"]:
        if metric["name"] not in _KERNEL_COUNTERS:
            continue
        labels = metric["labels"]
        if ("shard" in labels) != worker:
            continue
        totals[labels["kernel"]][_KERNEL_COUNTERS.index(metric["name"])] += metric["value"]
    return totals


def kernel_metrics(prefix: str, kernels: Sequence[str], before, after, per: float) -> Dict[str, float]:
    """``<prefix>.<module>.<kernel>.{ms,calls,bytes}`` per unit of work."""
    out = {}
    for kernel in kernels:
        calls, seconds, elements = (after[kernel][i] - before[kernel][i] for i in range(3))
        module = "core.kernels" if kernel in ("bfp_quantize_fast", "quantize_groups") \
            else "nn.functional"
        out[f"{prefix}.{module}.{kernel}.ms"] = seconds * 1e3 / per
        out[f"{prefix}.{module}.{kernel}.calls"] = calls / per
        out[f"{prefix}.{module}.{kernel}.bytes"] = elements * KERNEL_BYTES_PER_ELEMENT / per
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_times():
    """Host CPU tick counters (``/proc/stat``), or ``None`` off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after) -> str:
    """Share of CPU time the hypervisor took from this host between two
    :func:`cpu_times` readings: noise no benchmark setting can remove."""
    if before is None or after is None:
        return "unknown"
    delta = [b - a for a, b in zip(before, after)]
    return f"{delta[7] / max(sum(delta), 1):.2%} of CPU time stolen during the run"


def _blas_info() -> Dict[str, str]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except (TypeError, KeyError):  # older NumPy without mode="dicts"
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: Path):
    """HEAD of the checkout, or ``None`` when the checkout is not itself a
    git work tree (a directory inside some other repository does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             timeout=10, capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    toplevel, commit = out.stdout.split()
    return commit if Path(toplevel).resolve() == root.resolve() else None


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path, args, phase_env: Dict[str, str]) -> dict:
    """Host and run identity: two runs with the same figures but a different
    commit or timestamp are visibly different runs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads_env": phase_env,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv[1:],
    }


def finite_metrics(metrics: Dict[str, dict]) -> None:
    for name, entry in metrics.items():
        value = entry["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value),
                f"metric {name} is not a finite number: {value!r}")


def format_table(metrics: Dict[str, dict], notes: Dict[str, str]) -> str:
    width = max((len(name) for name in metrics), default=0)
    lines = []
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}{note}")
    return "\n".join(lines)
