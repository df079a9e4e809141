"""Performance-regression benchmark: reference vs. fast-path BFP quantization.

Times the seed reference implementation
(`repro.reference.bfp_quantize_reference`) against the fused fast-path kernel
that `bfp_quantize` now dispatches to, across tensor sizes, group sizes and
rounding modes, and verifies on every run that the fast path is bit-exact
(nearest/truncate) or seed-reproducible (stochastic) against the reference.
Emits a JSON report so CI can detect speed regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_quantization.py
    PYTHONPATH=src python benchmarks/bench_perf_quantization.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_quantization.py --output results.json

``--quick`` runs a reduced matrix suitable for CI.  Exit status is 1 iff an
enforced gate in the ``gates`` list of :func:`main` fails: the fast path
must not be slower than the reference on the standard (m=4, g=16) nearest
configuration, and the sanitizer-off overhead gate below.  PERFORMANCE.md's
"Benchmark reports" section tabulates the gates of every bench.

Both modes also time one evaluation-iteration gradient conversion
(``AdaptiveConversion`` then a stochastic requantize, see
:func:`evaluation_iteration_case`) and report its ms/call ungated, so the
trajectory tracks the FAST converter kernel itself.

Also gates the runtime invariant sanitizer (:mod:`repro.devtools.sanitize`):
with the sanitizer *uninstalled*, packed-tensor construction
(``bfp_quantize_tensor``) must cost within 1% of a baseline replay of the
same pipeline whose result dataclass has no ``__post_init__`` hook at all
-- i.e. the disabled gate (one global load + branch per construction) is
free at benchmark resolution.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import bfp, kernels
from repro.core.converter import AdaptiveConversion
from repro.core.kernels import bfp_quantize_fast
from repro.reference import bfp_quantize_reference
from repro.core.rounding import LFSR, NoisePool, VectorizedLFSR

from bench_utils import best_time, finish_report, gate, print_banner, print_rows

def make_input(size: int, dtype=np.float32) -> np.ndarray:
    rng = np.random.default_rng(1234)
    return (rng.standard_normal(size) * 10.0 ** rng.integers(-2, 3, size=size)).astype(dtype)


def verify_equivalence() -> None:
    """Assert fast-path correctness before trusting any timing."""
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        for group_size in (8, 16, 17):
            values = (rng.standard_normal((7, 130))).astype(dtype)
            for mode in ("nearest", "truncate"):
                fast = bfp_quantize_fast(values, 4, group_size, 8, mode)
                ref = bfp_quantize_reference(values, 4, group_size, 8, mode)
                assert np.array_equal(fast, ref), (dtype, group_size, mode)
    values = rng.standard_normal(4096)
    fast = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=np.random.default_rng(7))
    ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=np.random.default_rng(7))
    assert np.array_equal(fast, ref), "stochastic path is not seed-reproducible"
    fast = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=VectorizedLFSR(seed=9))
    ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=LFSR(seed=9))
    assert np.array_equal(fast, ref), "vectorized LFSR diverged from the scalar stream"
    fast = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=NoisePool(11))
    ref = bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=NoisePool(11))
    assert np.array_equal(fast, ref), "pooled noise is not seed-reproducible"


def run_case(size, group_size, mantissa_bits, rounding, repeats, lfsr=False, pool=False):
    values = make_input(size)
    if rounding == "stochastic":
        if pool:
            # Reference stays the per-call Generator draw (the PR-1 bound);
            # the fast path draws from a refilled NoisePool.
            def run_ref():
                return bfp_quantize_reference(values, mantissa_bits, group_size, 8,
                                              "stochastic", rng=np.random.default_rng(0))

            noise_pool = NoisePool(0, capacity=1 << 21)

            def run_fast():
                return bfp_quantize_fast(values, mantissa_bits, group_size, 8,
                                         "stochastic", rng=noise_pool)
            ref_time = best_time(run_ref, repeats)
        elif lfsr:
            def run_ref():
                return bfp_quantize_reference(values, mantissa_bits, group_size, 8,
                                              "stochastic", rng=LFSR())

            def run_fast():
                return bfp_quantize_fast(values, mantissa_bits, group_size, 8,
                                         "stochastic", rng=VectorizedLFSR())
            # The scalar LFSR draws bits one Python call at a time; a single
            # timed run is plenty (and the honest measurement).
            ref_time = best_time(run_ref, 1)
        else:
            def run_ref():
                return bfp_quantize_reference(values, mantissa_bits, group_size, 8,
                                              "stochastic", rng=np.random.default_rng(0))

            def run_fast():
                return bfp_quantize_fast(values, mantissa_bits, group_size, 8,
                                         "stochastic", rng=np.random.default_rng(0))
            ref_time = best_time(run_ref, repeats)
    else:
        def run_ref():
            return bfp_quantize_reference(values, mantissa_bits, group_size, 8, rounding)

        def run_fast():
            return bfp_quantize_fast(values, mantissa_bits, group_size, 8, rounding)
        ref_time = best_time(run_ref, repeats)
    fast_time = best_time(run_fast, repeats)
    label = rounding + ("(lfsr)" if lfsr else "") + ("(pool)" if pool else "")
    return {
        "size": size,
        "group_size": group_size,
        "mantissa_bits": mantissa_bits,
        "rounding": label,
        "reference_ms": ref_time * 1e3,
        "fast_ms": fast_time * 1e3,
        "speedup": ref_time / fast_time,
    }


def evaluation_iteration_case(repeats: int) -> dict:
    """A FAST-Adaptive gradient on an evaluation iteration, per call (ungated).

    ``AdaptiveConversion`` of a (32, 32, 32, 32) float32 gradient -- one
    grouping and exponent search, both nearest widths and ``r(X)`` -- then
    the stochastic requantize at the low width from pooled noise: the
    conversion a layer's gradient gets every ``evaluation_interval`` steps.
    """
    shape = (32, 32, 32, 32)
    values = make_input(int(np.prod(shape))).reshape(shape)
    config = bfp.BFPConfig(mantissa_bits=4, group_size=16, exponent_bits=8)
    noise_pool = NoisePool(0, capacity=1 << 21)

    def run():
        conversion = AdaptiveConversion(values, config, low_bits=2, high_bits=4)
        return conversion.quantize(2, "stochastic", rng=noise_pool)

    return {"case": "adaptive_conversion+stochastic", "shape": list(shape),
            "ms_per_call": best_time(run, repeats) * 1e3}


@dataclass
class _PreSanitizerTensor:
    """Field-for-field clone of BFPTensor with no ``__post_init__``.

    Replays the packed-tensor construction exactly as it was before the
    sanitizer hook existed, so the A/B below isolates the cost of the
    disabled gate (one module-global load + ``is not None`` branch).
    """

    signs: np.ndarray
    mantissas: np.ndarray
    exponents: np.ndarray
    config: object
    shape: tuple
    axis: int = -1
    pad: int = 0
    _moved_shape: tuple = field(default=None, repr=False)


def _baseline_quantize_tensor(x, config, axis=-1):
    """The body of ``bfp_quantize_tensor`` minus the sanitizer hook."""
    groups, pad, moved_shape = kernels.resolve_groups(x, config.group_size, axis=axis)
    exponents = bfp.compute_group_exponents(groups, config.exponent_bits)
    _, signs, mantissas = kernels.quantize_groups(
        groups, exponents, config.mantissa_bits, config.rounding,
        rng=None, noise_bits=config.noise_bits, return_packed=True)
    return _PreSanitizerTensor(signs, mantissas, exponents, config,
                               tuple(x.shape), axis, pad, moved_shape)


def sanitizer_gate_overhead(repeats: int) -> dict:
    """Interleaved best-of-N A/B: shipped (gate off) vs pre-sanitizer path.

    The two variants are timed in alternating rounds (not back-to-back
    blocks) so slow drift -- thermal state, cache pressure from earlier
    benchmark cases -- cancels out of the ratio instead of landing on
    whichever variant ran second.
    """
    assert bfp._SANITIZER is None, "sanitizer must be uninstalled for this gate"
    config = bfp.BFPConfig(mantissa_bits=4, group_size=16, rounding="nearest")
    values = make_input(16_384)
    calls = 50
    rounds = max(repeats * 4, 12)

    def run_shipped():
        for _ in range(calls):
            bfp.bfp_quantize_tensor(values, config)

    def run_baseline():
        for _ in range(calls):
            _baseline_quantize_tensor(values, config)

    run_shipped()
    run_baseline()  # warm both paths before any timed round
    shipped = baseline = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run_shipped()
        shipped = min(shipped, time.perf_counter() - start)
        start = time.perf_counter()
        run_baseline()
        baseline = min(baseline, time.perf_counter() - start)
    return {
        "shipped_ms_per_call": shipped / calls * 1e3,
        "baseline_ms_per_call": baseline / calls * 1e3,
        "overhead_ratio": shipped / baseline,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced matrix + regression gate for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "results" / "perf_quantization.json")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    print_banner("BFP quantization: reference vs. fast-path kernels")
    verify_equivalence()
    print("equivalence harness: PASS (bit-exact deterministic, seed-reproducible stochastic)")

    if args.quick:
        sizes = [65_536]
        repeats = args.repeats or 3
        lfsr_sizes = [65_536]
    else:
        sizes = [65_536, 1_000_000]
        repeats = args.repeats or 7
        lfsr_sizes = [65_536, 1_000_000]

    results = []
    for size in sizes:
        for group_size in (16, 64):
            for mantissa_bits in (2, 4):
                for rounding in ("nearest", "truncate", "stochastic"):
                    results.append(run_case(size, group_size, mantissa_bits, rounding, repeats))
    for size in lfsr_sizes:
        results.append(run_case(size, 16, 4, "stochastic", repeats, lfsr=True))
    for size in sizes:
        results.append(run_case(size, 16, 4, "stochastic", repeats, pool=True))

    rows = [
        (f"{r['size']:,}", r["group_size"], r["mantissa_bits"], r["rounding"],
         f"{r['reference_ms']:.2f}", f"{r['fast_ms']:.2f}", f"{r['speedup']:.1f}x")
        for r in results
    ]
    print_rows(["size", "g", "m", "rounding", "ref (ms)", "fast (ms)", "speedup"], rows,
               title="BFP quantization timings (best of {} runs)".format(repeats))

    evaluation = evaluation_iteration_case(repeats)
    print(f"\nevaluation-iteration gradient ({evaluation['case']}, "
          f"{'x'.join(map(str, evaluation['shape']))} float32): "
          f"{evaluation['ms_per_call']:.2f} ms/call (ungated)")

    sanitizer = sanitizer_gate_overhead(repeats)
    print(f"\nsanitizer gate (off): {sanitizer['shipped_ms_per_call']:.3f} ms/call "
          f"vs pre-hook baseline {sanitizer['baseline_ms_per_call']:.3f} ms/call "
          f"({(sanitizer['overhead_ratio'] - 1) * 100:+.2f}%)")

    standard = [r for r in results
                if r["group_size"] == 16 and r["mantissa_bits"] == 4 and r["rounding"] == "nearest"]
    gates = [
        # Perf-regression gate: the fast path must not lose to the reference
        # on the standard configuration at any size.
        gate("standard_worst_speedup", min(r["speedup"] for r in standard), 1.0),
        # The sanitizer's disabled gate must stay under 1% of construction cost.
        gate("sanitizer_off_overhead", sanitizer["overhead_ratio"], 1.01, better="lower"),
    ]
    headline = {"evaluation_iteration_ms": evaluation["ms_per_call"]}
    for r in results:
        if r["size"] == max(sizes) and r["group_size"] == 16 and r["mantissa_bits"] == 4:
            headline[f"{r['rounding']}.fast_ms"] = r["fast_ms"]
            headline[f"{r['rounding']}.speedup"] = r["speedup"]
    return finish_report(args.output, "bench_perf_quantization",
                         "quick" if args.quick else "full", gates, headline,
                         repeats=repeats, sanitizer_gate=sanitizer,
                         evaluation_iteration=evaluation, results=results)


if __name__ == "__main__":
    sys.exit(main())
