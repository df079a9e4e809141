"""Performance benchmark: end-to-end quantized training step, fast vs. uncached.

PR 1 made the `bfp_quantize` kernel fast; this benchmark measures the whole
training step (forward + backward + optimizer update) of the production code
against an uncached arm.  The production step has:

* persistent grouped-layout caches (`repro.core.kernels.LayoutCache`),
* memoized im2col/scatter indices and the BLAS/bincount convolution path
  (`repro.nn.functional`),
* pooled stochastic-rounding noise (`repro.core.rounding.NoisePool`),
* version+bits-keyed weight caching, including the FAST-Adaptive scheme.

The uncached arm is the step as it ran before those caches existed.  It is
composed from the golden models in `repro.reference`: for the duration of
the arm, `uncached_step()` patches `repro.nn.functional`'s `conv2d`,
`max_pool2d`, `avg_pool2d`, `col2im` and `im2col_indices` and
`repro.core.kernels.resolve_groups` with their `repro.reference`
namesakes (einsum convolution products with a per-group loop, im2col
pooling, the `np.add.at` scatter, indices rebuilt per call, a layout
derived per conversion), and the schedule draws noise per call instead of
from a pool.  Production code has no switch for any of this.

Small CNN / MLP / transformer configurations run under three schemes (fixed
BFP with nearest gradients, fixed BFP with stochastic gradients, and
FAST-Adaptive).  An equivalence harness runs first -- timings of a wrong fast
path are worthless -- asserting bit-exactness where the fast path is
bit-exact (layout cache, pooled-noise quantization, fmac einsum) and
tight agreement for the BLAS convolution reordering (deterministic
training runs fast-vs-uncached).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_train_step.py
    PYTHONPATH=src python benchmarks/bench_perf_train_step.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_train_step.py --output results.json

A compute-dtype section (ISSUE 5) compares the same quantized step at
float64 (the bit-exact default) and float32 (`model.to(np.float32)` plus
float32 inputs): a tolerance harness first checks that deterministic f32
losses track the f64 losses (the f32 run is a rounding of the same
computation, not a different one), then the f32 step must beat the f64
baseline for the MLP and transformer configurations -- the float64-BLAS
bound called out by ROADMAP's PR 2 follow-up.

An equivalence failure raises.  Otherwise the exit status is 1 iff an
enforced gate in the ``gates`` list of :func:`main` fails: the standard CNN
configuration's end-to-end speedup (>= 2x), pooled noise on 1M-element
stochastic quantization (:func:`noise_pool_gate`), and the float32 step
against the float64 step on the MLP and transformer_big configurations.
PERFORMANCE.md's "Benchmark reports" section tabulates the gates of every
bench.
"""

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

from repro import nn, reference
from repro.core import kernels
from repro.core.bfp import BFPConfig, bfp_quantize_tensor
from repro.core.kernels import bfp_quantize_fast
from repro.core.rounding import NoisePool
from repro.hardware.fmac import fmac_dot_product
from repro.models.mlp import MLP
from repro.models.transformer import Seq2SeqTransformer
from repro.nn import functional as F
from repro.nn.losses import cross_entropy, sequence_cross_entropy
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.training.schedules import FASTSchedule, FixedBFPSchedule

from bench_utils import best_time, finish_report, gate, print_banner, print_rows

STANDARD_CONFIG = "cnn"
STANDARD_SCHEME = "bfp4_stochastic"
SPEEDUP_GATE = 2.0
NOISE_POOL_GATE = 2.0
#: float32-vs-float64 quantized step: the configs ROADMAP called "dominated
#: by float64 BLAS matmuls" must run faster in float32 than the f64 baseline.
#: The transformer gate runs a BLAS-bound size (embed 64, batch 16, seq 24);
#: the tiny fast-vs-uncached transformer is per-op-overhead-bound and its
#: dtype ratio is noise.
F32_GATE_CONFIGS = ("mlp", "transformer_big")
F32_SPEEDUP_GATE = 1.1
#: Deterministic f32 losses must track the f64 losses this tightly.  BFP
#: quantization makes the comparison discontinuous -- one float32 rounding
#: that flips a quantization bucket compounds over steps -- so the margin is
#: loose: measured worst deviation is ~4e-3 on the 5-step transformer_big
#: trajectory (MLP stays ~1e-7).
F32_LOSS_RTOL = 2e-2
#: PR-1 recorded time for stochastic-Generator quantization of 1M float32
#: (benchmarks/results/perf_quantization.json); the pool must beat half of it.
PR1_STOCHASTIC_MS = 17.0
#: Generator-path time on the machine that produced the committed JSONs,
#: used to normalize the absolute budget for slower/faster machines (the
#: generator path is unchanged code, so its time is a pure speed probe).
REFERENCE_GENERATOR_MS = 13.0


# --------------------------------------------------------------------------- #
# The uncached arm
# --------------------------------------------------------------------------- #
#: Production ops the uncached arm replaces with their `repro.reference`
#: namesakes.
UNCACHED_OPS = (
    (F, "conv2d"), (F, "max_pool2d"), (F, "avg_pool2d"), (F, "col2im"),
    (F, "im2col_indices"), (kernels, "resolve_groups"),
)


@contextlib.contextmanager
def uncached_step():
    """Run the pre-fast-path step: each op in `UNCACHED_OPS` is patched with
    its golden model until the block exits."""
    saved = [(owner, name, getattr(owner, name)) for owner, name in UNCACHED_OPS]
    for owner, name in UNCACHED_OPS:
        setattr(owner, name, getattr(reference, name))
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


# --------------------------------------------------------------------------- #
# Training configurations
# --------------------------------------------------------------------------- #
def build_cnn(seed: int = 0, dtype=None):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        QuantizedConv2d(3, 32, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(32, 64, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(64 * 8 * 8, 10, rng=rng),
    )
    data = np.random.default_rng(seed + 1)
    inputs = data.standard_normal((32, 3, 32, 32))
    labels = data.integers(0, 10, size=32)
    if dtype is not None:
        model.to(dtype)
        inputs = inputs.astype(dtype)
    return model, lambda m: cross_entropy(m(inputs), labels)


def build_mlp(seed: int = 0, dtype=None):
    rng = np.random.default_rng(seed)
    model = MLP(784, [256, 128], 10, rng=rng)
    data = np.random.default_rng(seed + 1)
    inputs = data.standard_normal((64, 784))
    labels = data.integers(0, 10, size=64)
    if dtype is not None:
        model.to(dtype)
        inputs = inputs.astype(dtype)
    return model, lambda m: cross_entropy(m(inputs), labels)


def build_transformer(seed: int = 0, dtype=None):
    rng = np.random.default_rng(seed)
    model = Seq2SeqTransformer(vocab_size=50, embed_dim=32, num_heads=2,
                               num_encoder_layers=1, num_decoder_layers=1,
                               max_length=16, rng=rng)
    if dtype is not None:
        model.to(dtype)
    data = np.random.default_rng(seed + 1)
    sources = data.integers(1, 50, size=(8, 12))
    targets_in = data.integers(1, 50, size=(8, 12))
    targets_out = data.integers(1, 50, size=(8, 12))
    return model, lambda m: sequence_cross_entropy(m(sources, targets_in), targets_out,
                                                   pad_index=0)


def build_transformer_big(seed: int = 0, dtype=None):
    """A BLAS-dominated transformer (the float32 compute-mode gate config)."""
    rng = np.random.default_rng(seed)
    model = Seq2SeqTransformer(vocab_size=50, embed_dim=64, num_heads=4,
                               num_encoder_layers=2, num_decoder_layers=2,
                               max_length=26, rng=rng)
    if dtype is not None:
        model.to(dtype)
    data = np.random.default_rng(seed + 1)
    sources = data.integers(1, 50, size=(16, 24))
    targets_in = data.integers(1, 50, size=(16, 24))
    targets_out = data.integers(1, 50, size=(16, 24))
    return model, lambda m: sequence_cross_entropy(m(sources, targets_in), targets_out,
                                                   pad_index=0)


CONFIG_BUILDERS = {
    "cnn": build_cnn,
    "mlp": build_mlp,
    "transformer": build_transformer,
    "transformer_big": build_transformer_big,
}


def build_schedule(scheme: str, noise_pool: bool, total_iterations: int):
    config = BFPConfig(exponent_bits=8, group_size=16)
    if scheme == "bfp4_nearest":
        return FixedBFPSchedule(4, config=config, stochastic_gradients=False,
                                seed=0, noise_pool=noise_pool)
    if scheme == "bfp4_stochastic":
        return FixedBFPSchedule(4, config=config, stochastic_gradients=True,
                                seed=0, noise_pool=noise_pool)
    if scheme == "fast_adaptive":
        return FASTSchedule(config=config, stochastic_gradients=True,
                            evaluation_interval=4, seed=0, noise_pool=noise_pool)
    raise ValueError(f"unknown scheme {scheme!r}")


def run_training(config: str, scheme: str, steps: int, fast: bool,
                 collect_losses: bool = False, stochastic_override=None,
                 dtype=None):
    """Run `steps` optimization steps; returns (median_step_seconds, losses).

    ``dtype=np.float32`` runs the whole step -- forward, backward, quantize
    kernels, optimizer -- in float32 (models are built at float64 and cast,
    so both dtypes start from the identical weight stream).
    """
    kernels.default_layout_cache().clear()
    F.clear_im2col_cache()
    with contextlib.nullcontext() if fast else uncached_step():
        model, loss_fn = CONFIG_BUILDERS[config](seed=0, dtype=dtype)
        schedule = build_schedule(scheme, noise_pool=fast, total_iterations=steps)
        if stochastic_override is not None:
            schedule.stochastic_gradients = stochastic_override
        schedule.prepare(model, steps)
        optimizer = nn.SGD(model.parameters(), lr=0.01)
        losses = []
        times = []
        # One untimed warmup step primes every cache (and the uncached arm's
        # allocator) so the timed region measures steady-state iterations.
        for step in range(steps + 1):
            schedule.on_iteration(max(step - 1, 0))
            start = time.perf_counter()
            loss = loss_fn(model)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            elapsed = time.perf_counter() - start
            if step > 0:
                times.append(elapsed)
                if collect_losses:
                    losses.append(loss.item())
            elif collect_losses:
                losses.append(loss.item())
    return float(np.median(times)), losses


# --------------------------------------------------------------------------- #
# Equivalence harness
# --------------------------------------------------------------------------- #
def verify_layout_cache() -> None:
    rng = np.random.default_rng(11)
    cases = [
        ((7, 130), 16, -1), ((4, 64), 16, -1), ((3, 5, 17), 8, -1),
        ((33,), 16, -1), ((6, 50), 16, 0), ((2, 3, 40), 17, 1),
    ]
    for shape, group_size, axis in cases:
        for dtype in (np.float32, np.float64):
            values = rng.standard_normal(shape).astype(dtype)
            kernels.default_layout_cache().clear()
            first = bfp_quantize_fast(values, 4, group_size, 8, "nearest", axis=axis)
            second = bfp_quantize_fast(values, 4, group_size, 8, "nearest", axis=axis)
            with uncached_step():
                uncached = bfp_quantize_fast(values, 4, group_size, 8, "nearest", axis=axis)
            assert np.array_equal(first, uncached), (shape, dtype, axis, "cached != uncached")
            assert np.array_equal(first, second), (shape, dtype, axis, "cache hit changed result")


def verify_noise_pool() -> None:
    # Partition invariance: the pooled stream does not depend on draw shapes,
    # including draws that straddle a refill boundary.
    pool_a = NoisePool(42, capacity=512)
    pool_b = NoisePool(42, capacity=512)
    stream_a = np.concatenate([pool_a.uniform((300,)).ravel(),
                               pool_a.uniform((300,)).ravel(),
                               pool_a.uniform((1100,)).ravel()])
    stream_b = np.concatenate([pool_b.uniform((137,)).ravel(),
                               pool_b.uniform((1563,)).ravel()])
    assert np.array_equal(stream_a, stream_b), "NoisePool stream depends on partitioning"
    # Fast vs. reference quantization with equal pooled sources is bit-exact.
    values = np.random.default_rng(5).standard_normal(4096)
    fast = bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=NoisePool(7))
    ref = reference.bfp_quantize_reference(values, 4, 16, 8, "stochastic", rng=NoisePool(7))
    assert np.array_equal(fast, ref), "pooled stochastic path not seed-reproducible"


def verify_fmac() -> None:
    rng = np.random.default_rng(3)
    for size, bits_a, bits_b in [(64, 4, 4), (33, 2, 4), (100, 4, 2)]:
        a = bfp_quantize_tensor(rng.standard_normal(size), mantissa_bits=bits_a,
                                group_size=16, exponent_bits=8)
        b = bfp_quantize_tensor(rng.standard_normal(size), mantissa_bits=bits_b,
                                group_size=16, exponent_bits=8)
        fast = fmac_dot_product(a, b)
        ref = reference.fmac_dot_product_reference(a, b)
        assert fast.value == ref.value and fast.passes == ref.passes, (size, bits_a, bits_b)


def verify_training_equivalence(steps: int) -> float:
    """Deterministic fast-vs-uncached training runs must agree tightly.

    The BLAS convolution products accumulate in a different (blocked) order
    than the reference einsum, so this comparison is allclose rather than bit-equal;
    everything else on the fast path is bit-exact.  Returns the worst
    relative loss deviation observed.
    """
    worst = 0.0
    for config in ("cnn", "mlp"):
        for scheme in ("bfp4_nearest", "fast_adaptive"):
            _, fast_losses = run_training(config, scheme, steps, fast=True,
                                          collect_losses=True, stochastic_override=False)
            _, slow_losses = run_training(config, scheme, steps, fast=False,
                                          collect_losses=True, stochastic_override=False)
            fast_arr, slow_arr = np.asarray(fast_losses), np.asarray(slow_losses)
            assert np.allclose(fast_arr, slow_arr, rtol=1e-6, atol=1e-9), (
                config, scheme, fast_losses, slow_losses)
            deviation = float(np.max(np.abs(fast_arr - slow_arr)
                                     / np.maximum(np.abs(slow_arr), 1e-12)))
            worst = max(worst, deviation)
    return worst


def verify_compute_dtype(steps: int) -> float:
    """Deterministic float32 runs must track the float64 losses.

    Both runs execute the same quantized computation from the same initial
    weights; the only difference is rounding at float32.  Single-step losses
    agree to float32 precision, but a rounding that flips a BFP quantization
    bucket compounds across steps, so multi-step trajectories are checked
    against the loose ``F32_LOSS_RTOL`` rather than float32 epsilon.
    Returns the worst relative loss deviation observed.
    """
    worst = 0.0
    for config in F32_GATE_CONFIGS:
        _, f64_losses = run_training(config, "bfp4_nearest", steps, fast=True,
                                     collect_losses=True, stochastic_override=False)
        _, f32_losses = run_training(config, "bfp4_nearest", steps, fast=True,
                                     collect_losses=True, stochastic_override=False,
                                     dtype=np.float32)
        f64_arr, f32_arr = np.asarray(f64_losses), np.asarray(f32_losses)
        assert np.allclose(f32_arr, f64_arr, rtol=F32_LOSS_RTOL, atol=1e-6), (
            config, f32_losses, f64_losses)
        deviation = float(np.max(np.abs(f32_arr - f64_arr)
                                 / np.maximum(np.abs(f64_arr), 1e-12)))
        worst = max(worst, deviation)
    return worst


def bench_compute_dtype(cases, steps: int):
    """Time the float64 vs. float32 quantized step (fast path on for both)."""
    results = []
    for config, scheme in cases:
        f64_s, _ = run_training(config, scheme, steps, fast=True)
        f32_s, _ = run_training(config, scheme, steps, fast=True, dtype=np.float32)
        results.append({
            "config": config,
            "scheme": scheme,
            "steps": steps,
            "float64_ms_per_step": f64_s * 1e3,
            "float32_ms_per_step": f32_s * 1e3,
            "speedup": f64_s / f32_s,
        })
    return results


# --------------------------------------------------------------------------- #
# Noise-pool micro-benchmark (the PR-1 stochastic-Generator bound)
# --------------------------------------------------------------------------- #
def bench_noise_pool(repeats: int):
    rng = np.random.default_rng(1234)
    values = (rng.standard_normal(1_000_000)
              * 10.0 ** rng.integers(-2, 3, size=1_000_000)).astype(np.float32)

    generator_s = best_time(lambda: bfp_quantize_fast(values, 4, 16, 8, "stochastic",
                                                      rng=np.random.default_rng(0)),
                            repeats)
    pool = NoisePool(0, capacity=1 << 21)
    pooled_s = best_time(lambda: bfp_quantize_fast(values, 4, 16, 8, "stochastic", rng=pool),
                         repeats)
    return {
        "size": 1_000_000,
        "generator_ms": generator_s * 1e3,
        "pooled_ms": pooled_s * 1e3,
        "speedup": generator_s / pooled_s,
    }


def noise_pool_gate(noise: dict) -> dict:
    """Pooled noise must beat half the recorded Generator time
    (``PR1_STOCHASTIC_MS``), a budget scaled by machine speed.

    The concurrently measured generator time is the speed probe (unchanged
    code), so a slower CI runner gets a proportionally larger budget instead
    of a spurious red.  The budget, 8.5 ms x max(1, generator_ms / 13 ms),
    is never below ``generator_ms / 2``, so it also decides the older
    "speedup >= 2 or within budget" rule on its own.  At the reference speed
    and on slower hosts it asks for a pool ~1.53x (13 / 8.5) faster than the
    Generator, not 2x; on faster hosts for less.
    """
    machine_scale = max(1.0, noise["generator_ms"] / REFERENCE_GENERATOR_MS)
    budget_ms = (PR1_STOCHASTIC_MS / NOISE_POOL_GATE) * machine_scale
    return gate("noise_pool_pooled_ms", noise["pooled_ms"], budget_ms, better="lower")


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced matrix + regression gates for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "results" / "perf_train_step.json")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed optimization steps per case")
    args = parser.parse_args(argv)

    print_banner("Quantized training step: fast path vs. uncached")

    equivalence_steps = 3 if args.quick else 5
    verify_layout_cache()
    verify_noise_pool()
    verify_fmac()
    worst_deviation = verify_training_equivalence(equivalence_steps)
    worst_f32_deviation = verify_compute_dtype(equivalence_steps)
    print(f"equivalence harness: PASS (layout cache/noise pool/fmac bit-exact; "
          f"deterministic training worst relative loss deviation {worst_deviation:.2e}; "
          f"f32-vs-f64 worst relative loss deviation {worst_f32_deviation:.2e})")

    if args.quick:
        steps = args.steps or 6
        cases = [("cnn", "bfp4_stochastic"), ("mlp", "bfp4_stochastic")]
        dtype_cases = [(config, "bfp4_stochastic") for config in F32_GATE_CONFIGS]
        noise_repeats = 3
    else:
        steps = args.steps or 10
        cases = [(config, scheme)
                 for config in ("cnn", "mlp", "transformer")
                 for scheme in ("bfp4_nearest", "bfp4_stochastic", "fast_adaptive")]
        dtype_cases = [(config, "bfp4_stochastic")
                       for config in ("cnn", "mlp", "transformer_big")]
        noise_repeats = 7

    results = []
    for config, scheme in cases:
        fast_s, _ = run_training(config, scheme, steps, fast=True)
        slow_s, _ = run_training(config, scheme, steps, fast=False)
        results.append({
            "config": config,
            "scheme": scheme,
            "steps": steps,
            "fast_ms_per_step": fast_s * 1e3,
            "uncached_ms_per_step": slow_s * 1e3,
            "speedup": slow_s / fast_s,
        })

    dtype_results = bench_compute_dtype(dtype_cases, steps)

    noise = bench_noise_pool(noise_repeats)

    rows = [(r["config"], r["scheme"], f"{r['uncached_ms_per_step']:.1f}",
             f"{r['fast_ms_per_step']:.1f}", f"{r['speedup']:.2f}x") for r in results]
    print_rows(["config", "scheme", "uncached (ms/step)", "fast (ms/step)", "speedup"],
               rows, title=f"End-to-end training step (median of {steps} steps)")
    dtype_rows = [(r["config"], r["scheme"], f"{r['float64_ms_per_step']:.1f}",
                   f"{r['float32_ms_per_step']:.1f}", f"{r['speedup']:.2f}x")
                  for r in dtype_results]
    print()
    print_rows(["config", "scheme", "float64 (ms/step)", "float32 (ms/step)", "speedup"],
               dtype_rows,
               title=f"Compute dtype: quantized step at f64 vs. f32 (fast path on)")
    print(f"\nstochastic noise @1M float32: generator {noise['generator_ms']:.1f} ms, "
          f"pooled {noise['pooled_ms']:.1f} ms ({noise['speedup']:.2f}x)")

    standard = next(r for r in results
                    if r["config"] == STANDARD_CONFIG and r["scheme"] == STANDARD_SCHEME)
    gates = [gate(f"step_speedup/{STANDARD_CONFIG}/{STANDARD_SCHEME}",
                  standard["speedup"], SPEEDUP_GATE),
             noise_pool_gate(noise)]
    gates += [gate(f"float32_speedup/{r['config']}", r["speedup"], F32_SPEEDUP_GATE)
              for r in dtype_results if r["config"] in F32_GATE_CONFIGS]
    headline = {f"{r['config']}/{r['scheme']}.fast_ms_per_step": r["fast_ms_per_step"]
                for r in results}
    headline.update({f"{r['config']}/{r['scheme']}.float32_ms_per_step":
                     r["float32_ms_per_step"] for r in dtype_results})
    headline["worst_relative_loss_deviation"] = worst_deviation
    headline["float32_worst_relative_loss_deviation"] = worst_f32_deviation
    return finish_report(
        args.output, "bench_perf_train_step", "quick" if args.quick else "full",
        gates, headline, steps=steps, worst_relative_loss_deviation=worst_deviation,
        noise_pool=noise, results=results,
        compute_dtype={"loss_rtol": F32_LOSS_RTOL,
                       "worst_relative_loss_deviation": worst_f32_deviation,
                       "results": dtype_results})


if __name__ == "__main__":
    sys.exit(main())
