"""Append benchmark summaries to the committed performance trajectory.

`benchmarks/results/perf_quantization.json` and `perf_train_step.json` are
full reports overwritten on every run; this script distills each into one
compact JSON line and appends it to `benchmarks/results/perf_trajectory.jsonl`
so performance can be tracked *over time* (per ROADMAP) instead of only gated
fast-vs-reference.  CI runs it after the `--quick` benchmarks and uploads the
trajectory as a workflow artifact; developers run it after a full benchmark
pass and commit the appended lines with the PR that changed performance.

A row must be a measurement: the script appends nothing and exits non-zero
when a new row's summary equals one already recorded at another commit, the
mark of a report copied forward instead of re-run.

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


def summarize_quantization(report: dict) -> dict:
    """Headline numbers: worst standard-config speedup plus per-mode bests."""
    results = report.get("results", [])
    standard = [r for r in results if r["group_size"] == 16 and r["mantissa_bits"] == 4
                and r["rounding"] == "nearest"]
    by_rounding = {}
    for row in results:
        if row["group_size"] == 16 and row["mantissa_bits"] == 4:
            label = row["rounding"]
            best = by_rounding.get(label)
            if best is None or row["size"] > best["size"]:
                by_rounding[label] = row
    return {
        "standard_worst_speedup": min((r["speedup"] for r in standard), default=None),
        "evaluation_iteration_ms":
            (report.get("evaluation_iteration") or {}).get("ms_per_call"),
        "largest_case_ms": {
            label: {"reference_ms": row["reference_ms"], "fast_ms": row["fast_ms"],
                    "speedup": row["speedup"]}
            for label, row in sorted(by_rounding.items())
        },
    }


def summarize_train_step(report: dict) -> dict:
    compute_dtype = report.get("compute_dtype") or {}
    return {
        "per_case": {
            f"{r['config']}/{r['scheme']}": {
                "uncached_ms_per_step": r["uncached_ms_per_step"],
                "fast_ms_per_step": r["fast_ms_per_step"],
                "speedup": r["speedup"],
            }
            for r in report.get("results", [])
        },
        "float32_per_case": {
            f"{r['config']}/{r['scheme']}": {
                "float64_ms_per_step": r["float64_ms_per_step"],
                "float32_ms_per_step": r["float32_ms_per_step"],
                "speedup": r["speedup"],
            }
            for r in compute_dtype.get("results", [])
        },
        "float32_worst_relative_loss_deviation":
            compute_dtype.get("worst_relative_loss_deviation"),
        "noise_pool": report.get("noise_pool"),
        "worst_relative_loss_deviation": report.get("worst_relative_loss_deviation"),
    }


def summarize_serving(report: dict) -> dict:
    return {
        "per_family": {
            r["family"]: {
                "single_latency_ms_p50": r["single_latency_ms_p50"],
                "single_rps": r["single_rps"],
                "batched_rps": r["batched_rps"],
                "max_batch_size": r["max_batch_size"],
                "speedup": r["speedup"],
            }
            for r in report.get("results", [])
        },
        "storage_standard": report.get("storage_standard"),
        "degraded": {
            key: degraded.get(key)
            for key in ("latency_ms_p50", "latency_ms_p95", "latency_ms_p99",
                        "rps", "shed_rate", "failure_rate", "requeues",
                        "engine_restarts", "final_state")
        } if (degraded := report.get("degraded")) else None,
        "observability": {
            key: obs.get(key)
            for key in ("bare_rps", "instrumented_rps", "ratio", "gate",
                        "sample_rate", "prometheus_samples", "trace_events")
        } if (obs := report.get("observability")) else None,
        "cluster": {
            "cpus": cluster.get("cpus"),
            "capacity_single_rps": cluster.get("capacity_single_rps"),
            "goodput_by_workers": {
                workers: entry["points"][-1]["goodput_rps"]
                for workers, entry in cluster.get("scaling", {}).items()
            },
            "baseline_top_goodput_rps": (
                cluster["baseline"][-1]["goodput_rps"]
                if cluster.get("baseline") else None),
            "gate": cluster.get("gate"),
            "mixed_goodput_rps": (cluster.get("mixed") or {}).get("goodput_rps"),
        } if (cluster := report.get("cluster")) else None,
    }


def summarize_generation(report: dict) -> dict:
    decode = report.get("decode") or {}
    batching = report.get("batching") or {}
    quantized = report.get("quantized_cache") or {}
    return {
        "decode_speedup_by_length": {
            str(p["steps"]): p["speedup"] for p in decode.get("points", [])
        },
        "decode_gated_speedup": decode.get("gated_speedup"),
        "decode_gate": decode.get("gate"),
        "batching": {
            "tokens_per_second_ratio": batching.get("tokens_per_second_ratio"),
            "gate": batching.get("gate"),
            "offered_qps": batching.get("offered_qps"),
            "max_active": batching.get("max_active"),
            "continuous_tokens_per_second":
                (batching.get("continuous") or {}).get("tokens_per_second"),
            "static_tokens_per_second":
                (batching.get("static") or {}).get("tokens_per_second"),
            "continuous_ttft_ms_p50":
                (batching.get("continuous") or {}).get("ttft_ms_p50"),
            "static_ttft_ms_p50":
                (batching.get("static") or {}).get("ttft_ms_p50"),
            "mean_batch_per_step":
                (batching.get("continuous") or {}).get("mean_batch_per_step"),
        },
        "kv_cache_divergence": {
            f"m={d['mantissa_bits']}": {
                "worst_mean_relative_error": d["worst_mean_relative_error"],
                "argmax_agreement": d["argmax_agreement"],
            }
            for d in quantized.get("divergence", [])
        },
        "kv_cache_compression": {
            f["format"]: f["compression_vs_fp32"]
            for f in quantized.get("formats", [])
        },
    }


def _measurement(row: dict) -> tuple:
    """What a re-run must change: the benchmark and its summary."""
    return row["benchmark"], json.dumps(row["summary"], sort_keys=True)


SUMMARIZERS = {
    "perf_quantization.json": ("bench_perf_quantization", summarize_quantization),
    "perf_train_step.json": ("bench_perf_train_step", summarize_train_step),
    "perf_serving.json": ("bench_perf_serving", summarize_serving),
    "perf_generation.json": ("bench_perf_generation", summarize_generation),
}


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

    entries = []
    for filename, (benchmark, summarize) in SUMMARIZERS.items():
        path = args.results_dir / filename
        if not path.exists():
            print(f"skip {filename}: not found", file=sys.stderr)
            continue
        report = json.loads(path.read_text())
        entry = {
            "recorded_at": recorded_at,
            "commit": commit,
            "benchmark": benchmark,
            "mode": report.get("mode"),
            "numpy": report.get("numpy"),
            "machine": report.get("machine"),
            "summary": summarize(report),
        }
        if args.label:
            entry["label"] = args.label
        entries.append(entry)

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
