"""One benchmark run: every phase of one workload, untraced or traced.

Each phase runs in a fresh child process, so no phase inherits another's
heap, garbage or thread pools.  Untraced (``--trace 0``) phases run with
the observability gate off and report the end-to-end metrics.  Traced
(``--trace 1``) phases run once untraced and once with the program's calls
wrapped from outside and the gate on; they report the per-layer metrics
and ``trace_overhead`` (traced over untraced result of the same phase),
and their spans are merged into one validated Chrome trace.

Metric names and units are the ones declared in ``BENCHMARK.json``; a run
that emits a different set is an error.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import observability

from perfbench import config, gen_phase, report, serve_phase, train_phase
from perfbench.probes import write_chrome_trace

PHASES = ("train", "serve", "gen")
#: Traced phases run each window twice (untraced, then traced) at this
#: share of its length, so a traced run takes about as long as an untraced one.
TRACED_SCALE = 0.5
#: A phase child that runs longer than this has hung.
PHASE_TIMEOUT_S = 170
#: Every phase runs single-threaded BLAS, like the serving worker.  Each
#: phase already keeps two or more threads or processes busy on a 2-CPU
#: host; BLAS threads spinning between small GEMMs competed with them and
#: made the figures of consecutive runs bimodal.
PHASE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def declared_metrics(root: Path, trace: bool) -> dict:
    """``name -> unit`` of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def _timed_setups(build, repeats: int):
    """Build ``repeats`` times; keep the last, return it and the median time.

    Earlier builds are closed as soon as the next one exists.
    """
    times, run = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        fresh = build()
        times.append(time.perf_counter() - start)
        if run is not None and hasattr(run, "close"):
            run.close()
        run = fresh
    return run, report.median(times)


def train_steps(scale: float) -> int:
    nominal = config.TRAIN["epochs"] * config.TRAIN["steps_per_epoch"]
    return max(config.TRAIN["epochs"], round(nominal * scale))


def scaled_gen(cfg: dict, scale: float) -> dict:
    return dict(cfg, offline_batch=max(cfg["check_sequences"],
                                       round(cfg["offline_batch"] * scale)))


def run_phase(phase: str, args, workdir: Path) -> dict:
    """Body of one phase child: set up, measure, return what it produced."""
    traced = bool(args.trace)
    scale = args.seconds / config.RUN_SECONDS * (TRACED_SCALE if traced else 1.0)
    values, notes, events = {}, {}, []
    seed, slip, model = args.seed, config.SLIP_LIMIT_MS, config.MODEL_SEED
    repeats = 1 if traced else config.SETUP_REPEATS
    if phase == "train":
        steps = train_steps(scale)
        run, setup_s = _timed_setups(
            lambda: train_phase.setup(config.TRAIN, seed, steps, model), repeats)
        if traced:
            twin = train_phase.setup(config.TRAIN, seed, steps, model)
            ops = train_phase.measure_traced(config.TRAIN, twin, run, values, events)
        else:
            ops = train_phase.measure(config.TRAIN, run, values, notes)
    elif phase == "serve":
        cfg = config.SERVE
        run, setup_s = _timed_setups(lambda: serve_phase.setup(cfg, seed, model, workdir), repeats)
        try:
            if traced:
                ops = serve_phase.measure_traced(cfg, run, scale, seed, slip, values, events)
            else:
                ops = serve_phase.measure(cfg, run, scale, seed, slip, values, notes)
        finally:
            run.close()
    else:
        cfg = scaled_gen(config.WORKLOADS[args.workload]["gen"], scale)
        run, setup_s = _timed_setups(lambda: gen_phase.setup(cfg, seed, model), repeats)
        try:
            if traced:
                ops = gen_phase.measure_traced(cfg, run, scale, seed, slip, values, events)
            else:
                ops = gen_phase.measure(cfg, run, scale, seed, slip, values, notes)
        finally:
            run.close()
    events.extend(observability.tracer().events())
    return {"values": values, "notes": notes, "ops": list(ops), "setup_s": setup_s,
            "events": events}


def _child(phase: str, args, root: Path, workdir: Path) -> dict:
    """Run one phase in a fresh interpreter and read back its output file."""
    out_path = workdir / f"{phase}.json"
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--phase", phase, "--phase-out", str(out_path)]
    # Its own session, so helpers it leaves behind (the multiprocessing
    # resource tracker outlives the serving phase briefly) can be waited for.
    process = subprocess.Popen(command, cwd=root, start_new_session=True,
                               env={**os.environ, **PHASE_ENV})
    try:
        returncode = process.wait(timeout=PHASE_TIMEOUT_S)
    finally:
        _end_group(process)
    if returncode == 1:
        raise report.CheckFailed(f"{phase} phase failed a correctness check")
    if returncode != 0:
        raise RuntimeError(f"{phase} phase exited with status {returncode}")
    return json.loads(out_path.read_text())


def _end_group(process: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Wait until every process of the child's group has ended; after
    ``grace_s`` (or at once if the child itself is still running, i.e. it
    timed out) terminate what is left."""
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(process.pid, signal.SIGKILL)
            deadline = time.monotonic() + grace_s
        time.sleep(0.05)


def execute(args, root: Path) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    outdir = root / "perfbench" / "out"
    workdir = outdir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    declared = declared_metrics(root, bool(args.trace))
    fingerprint = report.fingerprint(root, args, PHASE_ENV)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True), flush=True)
    cpu_before = report.cpu_times()
    try:
        phases = {phase: _child(phase, args, root, workdir) for phase in PHASES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, notes = {}, {}
    notes["cpu_steal"] = report.steal_share(cpu_before, report.cpu_times())
    for output in phases.values():
        values.update(output["values"])
        notes.update(output["notes"])
    if args.trace:
        events = [event for output in phases.values() for event in output["events"]]
        trace_path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        count = observability.validate_chrome_trace(write_chrome_trace(trace_path, events))
        notes["trace"] = f"{count} spans in {trace_path.relative_to(root)}"
    else:
        setups = {phase: output["setup_s"] for phase, output in phases.items()}
        values["setup_s"] = sum(setups.values())
        notes["setup_s"] = "sum over phases of the median of {} set-ups: {}".format(
            config.SETUP_REPEATS, ", ".join(f"{k} {v:.3f}s" for k, v in setups.items()))
        values["peak_rss_mb"] = report.peak_rss_mb()
        notes["peak_rss_mb"] = "this process plus its largest child"
    missing = sorted(set(declared) - set(values))
    report.require(not missing, f"metrics declared in BENCHMARK.json not emitted: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": declared[name]}
               for name in declared}
    figures = {name: value for name, value in values.items() if name not in declared}
    report.finite_metrics(metrics)
    for phase, output in phases.items():
        print(f"{phase}: attempted {output['ops'][0]}, failed {output['ops'][1]}")
    print(report.format_table(metrics, notes))
    if figures:
        print("printed for reading, not benchmark metrics (too unsteady on the "
              "measuring host, see perfbench/config.py):")
        print(report.format_table({name: {"value": value, "unit": ""}
                                   for name, value in figures.items()}, notes))
    for key, note in notes.items():
        if key not in values:
            print(f"{key}: {note}")
    result = {"correct": True,
              "attempted": int(sum(output["ops"][0] for output in phases.values())),
              "failed": int(sum(output["ops"][1] for output in phases.values())),
              "metrics": metrics}
    report_path = outdir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps({
        "fingerprint": fingerprint, "result": result, "figures": figures, "notes": notes,
        "operations": {phase: output["ops"] for phase, output in phases.items()}},
        indent=2) + "\n")
    return result
