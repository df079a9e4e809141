"""Shared helpers for the benchmark harness (imported by the bench modules).

The four ``bench_perf_*`` scripts write one report schema through
:func:`finish_report`::

    {benchmark, mode, host, equivalence, gates, headline, <detail sections>}

``host`` is :func:`host_fingerprint`; ``gates`` is a list of :func:`gate`
entries, the only place a report states its pass/fail criteria; ``headline``
is a flat ``{name: number}`` dict of the ungated quantities the trajectory
tracks (``track_perf.py`` reads ``gates`` and ``headline`` and nothing else).
"""

import json
import os
import platform
import time

import numpy as np

from repro import nn
from repro.analysis import format_table
from repro.data import DataLoader
from repro.models import MLP
from repro.training import ClassificationTrainer, build_schedule

__all__ = ["print_banner", "print_rows", "train_mlp_classifier", "best_of", "best_time",
           "usable_cpus", "host_fingerprint", "gate", "gate_met", "finish_report"]


def print_banner(title: str) -> None:
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}")


def print_rows(headers, rows, title=None) -> None:
    print(format_table(headers, rows, title=title))


def best_time(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (first call warms caches)."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def best_of(measure, attempts=3, key=None, good_enough=None, label=None, first=None):
    """Re-run a noisy measurement and keep the best attempt.

    Gated throughput numbers on a shared/loaded host are noisy in one
    direction only -- interference makes a run *slower*, never faster -- so
    the honest gate statistic is the best of a few attempts, not the mean.

    ``measure()`` produces one measurement (``first``, when given, is a
    measurement already taken and counts as the first attempt);
    ``key(result)`` (default: the result itself) is the figure of merit,
    higher better.  Stops early when ``good_enough(key_value)`` returns True
    (no point burning CI minutes once the gate is already met).  Returns
    ``(best_result, all_key_values)`` and prints one line per retry when
    ``label`` is set.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    key = key if key is not None else (lambda result: result)
    best = None
    best_value = -float("inf")
    values = []
    for attempt in range(attempts):
        result = first if attempt == 0 and first is not None else measure()
        value = key(result)
        values.append(value)
        if value > best_value:
            best, best_value = result, value
        if good_enough is not None and good_enough(best_value):
            break
        if label is not None and attempt + 1 < attempts:
            print(f"  [{label}] attempt {attempt + 1}/{attempts}: {value:.2f} "
                  "(retrying for best-of)")
    return best, values


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    """What a timing depends on besides the code: CPUs, Python, NumPy, BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": usable_cpus(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def gate(name, measured, required, better="higher", enforced=True,
         skipped_reason=None, attempts=None) -> dict:
    """One ``gates`` entry: ``measured`` must reach ``required`` in the
    ``better`` ("higher" or "lower") direction.  ``attempts`` holds the
    values :func:`best_of` measured for it, when it is a best-of statistic."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    return {"name": name, "measured": measured, "required": required,
            "better": better, "enforced": enforced,
            "skipped_reason": skipped_reason, "attempts": attempts}


def gate_met(entry: dict) -> bool:
    if entry["better"] == "higher":
        return entry["measured"] >= entry["required"]
    return entry["measured"] <= entry["required"]


def finish_report(output, benchmark, mode, gates, headline, **sections) -> int:
    """Write the report to ``output``, print one line per gate, and return
    the exit status: 1 if any enforced gate failed, else 0.

    Every gate is evaluated and printed, whatever failed before it; a gate
    that is not enforced prints SKIPPED with its reason and never fails.
    """
    report = {"benchmark": benchmark, "mode": mode, "host": host_fingerprint(),
              "equivalence": "pass", "gates": gates, "headline": headline,
              **sections}
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")
    failed = False
    for entry in gates:
        relation = ">=" if entry["better"] == "higher" else "<="
        line = (f"gate {entry['name']}: {entry['measured']:.3f} "
                f"(required {relation} {entry['required']:.3f}")
        if entry["attempts"]:
            line += f", best of {len(entry['attempts'])}"
        if not entry["enforced"]:
            print(f"{line}) SKIPPED: {entry['skipped_reason']}")
        elif gate_met(entry):
            print(f"{line}) pass")
        else:
            print(f"{line}) FAIL")
            failed = True
    return 1 if failed else 0


def train_mlp_classifier(schedule, task, epochs=4, seed=0, lr=0.1, hidden=(48,)):
    """Train a small MLP classifier under ``schedule`` and return the result.

    ``task`` is a ``(train, validation)`` dataset pair; ``schedule`` is either
    a :class:`~repro.training.schedules.PrecisionSchedule` or a schedule name
    accepted by :func:`repro.training.build_schedule`.
    """
    train, validation = task
    sample_shape = train.images.shape[1:]
    in_features = int(np.prod(sample_shape))
    num_classes = int(train.labels.max()) + 1
    if isinstance(schedule, str):
        schedule = build_schedule(schedule)
    model = MLP(in_features, list(hidden), num_classes, rng=np.random.default_rng(seed))
    optimizer = nn.SGD(model.parameters(), lr=lr, momentum=0.9)
    trainer = ClassificationTrainer(model, optimizer, schedule)
    train_loader = DataLoader(train, batch_size=32, seed=seed)
    val_loader = DataLoader(validation, batch_size=64, shuffle=False)
    return trainer.fit(train_loader, val_loader, epochs=epochs)
