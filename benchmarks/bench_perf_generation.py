"""Performance benchmark: KV-cached generation + continuous batching.

PR 9 added the sequence-generation tier (``repro.serving.generation``):
incremental decode over a packed-BFP KV cache and a continuous-batching
``GenerationServer``.  This benchmark measures what each layer buys:

* **KV-cached decode vs. full recompute** -- per-token cost of the
  incremental ``decode_step`` path over a ``KVCacheManager`` against
  re-running the decoder over the whole prefix every step (the O(T^2)
  path of ``repro.reference.greedy_decode``), at several sequence
  lengths.  Gate: >= 3x faster at T=64.
* **Continuous vs. static bucketed batching** -- the same mixed-length
  open-loop request stream (``loadgen.GenerationLoadGenerator``) served by
  the continuous-batching ``GenerationServer`` and by a static baseline
  that decodes fixed batches to completion (both KV-cached, so the gate
  isolates *scheduling*, not cache reuse).  Gate: >= 1.5x tokens/sec.
* **Quantized KV cache** -- per-step logit divergence of the 4-bit model
  decoding over a BFP-grid cache against the same model over the exact
  cache, across cache mantissa widths.  It measures the model around the
  cache, not the cache alone: the model re-rounds its activations to 4
  bits, which can flip a small cache error into a large one downstream.
  Plus the cache-memory table (bytes/token per storage format).

An equivalence harness runs first -- timings of a wrong decode path are
worthless: KV-cached greedy decode must be **token-identical** to the
full-recompute oracle ``repro.reference.greedy_decode`` (quantization off,
float64 and float32), and
the continuous-batching server's tokens must match solo decodes of the
same prompts.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_generation.py
    PYTHONPATH=src python benchmarks/bench_perf_generation.py --quick
    PYTHONPATH=src python benchmarks/bench_perf_generation.py --output out.json

An equivalence failure raises.  Otherwise the exit status is 1 iff an
enforced gate fails: the two gates above, built by
:func:`bench_decode_speedup` and :func:`bench_continuous_batching` and
listed in :func:`main`.  PERFORMANCE.md's "Benchmark reports" section
tabulates the gates of every bench.
"""

import argparse
import queue
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro import reference
from repro.core.bfp import BFPConfig
from repro.models import transformer_small
from repro.serving import (
    GenerationConfig,
    GenerationResult,
    GenerationServer,
    GenerationTiming,
    KVCacheManager,
    SequenceLoad,
    freeze,
)
from repro.serving.frozen import ActivationQuantizer
from repro.serving.loadgen import GenerationLoadGenerator
from repro.training.schedules import FixedBFPSchedule

from bench_utils import best_of, finish_report, gate, print_banner, print_rows

BFP_CONFIG = BFPConfig(exponent_bits=8, group_size=16)
BOS, EOS = 1, 2
#: Incremental decode must beat full recompute by this factor at T=64.
DECODE_SPEEDUP_GATE = 3.0
DECODE_LENGTHS = (16, 32, 64)
#: Continuous batching must beat static bucketed batching by this factor
#: in delivered tokens/sec on the mixed-length open-loop stream.
BATCHING_GATE = 1.5
#: The mixed-length request stream: many short sequences stuck behind few
#: long ones is exactly the shape static batching handles worst.
SHORT_NEW_TOKENS, LONG_NEW_TOKENS = 4, 40
MAX_ACTIVE = 8


def frozen_seq2seq(vocab=50, max_length=96, seed=11):
    model = transformer_small(vocab_size=vocab, max_length=max_length,
                              rng=np.random.default_rng(seed))
    FixedBFPSchedule(4, config=BFP_CONFIG, stochastic_gradients=False,
                     seed=0).prepare(model, 1)
    model.eval()
    return freeze(model, meta={"bos_index": BOS, "eos_index": EOS})


# --------------------------------------------------------------------------- #
# Equivalence harness
# --------------------------------------------------------------------------- #
def verify_generation(rng) -> None:
    frozen = frozen_seq2seq(max_length=24)
    root = frozen.root
    src = rng.integers(3, 50, size=(5, 10))
    assert np.array_equal(root.greedy_decode_cached(src, BOS, EOS),
                          reference.greedy_decode(root, src, BOS, EOS)), \
        "KV-cached greedy decode diverges from full recompute (float64)"
    root32 = frozen_seq2seq(max_length=24).cast(np.float32).root
    assert np.array_equal(root32.greedy_decode_cached(src, BOS, EOS),
                          reference.greedy_decode(root32, src, BOS, EOS)), \
        "KV-cached greedy decode diverges from full recompute (float32)"
    # Continuous batching must not perturb any sequence's tokens.
    prompts = [rng.integers(3, 50, size=int(rng.integers(5, 11)))
               for _ in range(6)]
    caps = [4, 16, 7, 16, 5, 11]
    with GenerationServer(frozen, GenerationConfig(max_active=3)) as server:
        futures = [server.submit(p, max_new_tokens=c)
                   for p, c in zip(prompts, caps)]
        batched = [f.result(timeout=120).tokens for f in futures]
    for prompt, cap, tokens in zip(prompts, caps, batched):
        row = root.greedy_decode_cached(prompt[None], BOS, EOS,
                                        max_length=cap + 1)[0]
        eos_hits = np.flatnonzero(row == EOS)
        stop = eos_hits[0] + 1 if eos_hits.size else row.shape[0]
        assert np.array_equal(tokens, row[:stop]), \
            "continuous batching perturbed a sequence's tokens"


# --------------------------------------------------------------------------- #
# KV-cached decode vs. full recompute
# --------------------------------------------------------------------------- #
def _rollout_cached(root, src, steps: int) -> float:
    """Wall time of a forced ``steps``-token KV-cached greedy decode: no
    token is the end id -1, so every row runs all ``steps`` steps."""
    start = time.perf_counter()
    root.greedy_decode_cached(src, BOS, -1, max_length=steps + 1)
    return time.perf_counter() - start


def _rollout_recompute(root, src, steps: int) -> float:
    """Wall time of the same rollout re-decoding the full prefix per step."""
    start = time.perf_counter()
    reference.greedy_decode(root, src, BOS, -1, max_length=steps + 1)
    return time.perf_counter() - start


def bench_decode_speedup(batch: int, rng):
    """Forced fixed-length rollouts so T is controlled (greedy EOS would
    stop both paths at the same data-dependent step).  Both paths emit
    bit-identical tokens, so the comparison is pure scheduling/asymptotics.
    Returns the report section and the gate on the T=64 speedup."""
    root = frozen_seq2seq().root
    src = rng.integers(3, 50, size=(batch, 12))
    # Warm layout/index caches on both paths before timing.
    _rollout_cached(root, src, 4)
    _rollout_recompute(root, src, 4)

    points = []
    for steps in DECODE_LENGTHS:
        def measure(steps=steps):
            recompute_s = _rollout_recompute(root, src, steps)
            cached_s = _rollout_cached(root, src, steps)
            return {"steps": steps,
                    "cached_ms": cached_s * 1e3,
                    "recompute_ms": recompute_s * 1e3,
                    "cached_ms_per_token": cached_s * 1e3 / steps,
                    "recompute_ms_per_token": recompute_s * 1e3 / steps,
                    "speedup": recompute_s / cached_s}

        gated = steps >= 64
        best, attempts = best_of(
            measure, attempts=3 if gated else 1,
            key=lambda point: point["speedup"],
            good_enough=(lambda s: s >= DECODE_SPEEDUP_GATE) if gated else None,
            label=f"decode speedup T={steps}" if gated else None)
        points.append(best)
    return ({"batch": batch, "points": points},
            gate(f"decode_speedup/T={points[-1]['steps']}", points[-1]["speedup"],
                 DECODE_SPEEDUP_GATE, attempts=attempts))


# --------------------------------------------------------------------------- #
# Static bucketed batching baseline
# --------------------------------------------------------------------------- #
class StaticBucketServer:
    """Static batching over the same KV-cached decode primitive.

    Requests are bucketed by source length (no padding path in the
    encoder), and each batch decodes **to completion** before the next
    starts -- every member waits for the slowest, and nothing joins
    mid-flight.  This is the strongest static baseline the repo can field:
    it shares the O(T) cached decode, so the continuous-batching gate
    measures scheduling alone.
    """

    def __init__(self, model, batch_size: int = MAX_ACTIVE):
        self.root = model.root
        self.batch_size = batch_size
        self._queue: "queue.Queue" = queue.Queue()
        self._buckets = {}
        self._closed = False
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def submit(self, prompt, max_new_tokens: int) -> "Future[GenerationResult]":
        future = Future()
        self._queue.put((np.asarray(prompt, dtype=np.int64), int(max_new_tokens),
                         future, time.monotonic()))
        return future

    def _drain_queue(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is None:
                self._closed = True
                return
            self._buckets.setdefault(item[0].shape[0], []).append(item)

    def _run(self) -> None:
        while True:
            self._drain_queue()
            if not any(self._buckets.values()):
                if self._closed:
                    return
                try:
                    item = self._queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                if item is None:
                    self._closed = True
                    continue
                self._buckets.setdefault(item[0].shape[0], []).append(item)
                continue
            # Oldest-first across buckets, whole bucket batches first.
            length = min(self._buckets,
                         key=lambda k: self._buckets[k][0][3] if self._buckets[k]
                         else float("inf"))
            batch = self._buckets[length][:self.batch_size]
            self._buckets[length] = self._buckets[length][self.batch_size:]
            self._decode_batch(batch)

    def _decode_batch(self, batch) -> None:
        src = np.stack([item[0] for item in batch])
        caps = [item[1] for item in batch]
        started = time.monotonic()
        rows = self.root.greedy_decode_cached(src, BOS, EOS,
                                              max_length=1 + max(caps))
        done = time.monotonic()
        for (prompt, cap, future, submitted), row in zip(batch, rows):
            eos_hits = np.flatnonzero(row == EOS)
            stop = min(eos_hits[0] + 1 if eos_hits.size else row.shape[0],
                       cap + 1)
            tokens = row[:stop]
            reason = "eos" if tokens[-1] == EOS else "length"
            # Nothing streams: the first token is only *delivered* when the
            # whole batch finishes, which is static batching's TTFT story.
            future.set_result(GenerationResult(
                tokens=tokens,
                timing=GenerationTiming(
                    queue_ms=(started - submitted) * 1e3,
                    prefill_ms=0.0,
                    ttft_ms=(done - submitted) * 1e3,
                    total_ms=(done - submitted) * 1e3,
                    steps=tokens.shape[0] - 1,
                    finish_reason=reason)))

    def close(self) -> None:
        self._queue.put(None)
        self._worker.join(timeout=300)


# --------------------------------------------------------------------------- #
# Continuous vs. static batching under mixed-length open-loop load
# --------------------------------------------------------------------------- #
def _mixed_load(rng):
    """Short-heavy mix of generation lengths over one source length.

    Source lengths are known at submit time, so static batching buckets
    them away; *output* lengths are not -- a static batch must run until
    its slowest member finishes, paying full batch width for rows that
    finished (or hit their cap) long ago.  That is the inefficiency
    continuous batching removes, so the mix keeps source length uniform
    and varies the generation budget."""
    prompts = tuple(rng.integers(3, 50, size=8) for _ in range(16))
    return (
        SequenceLoad(prompts=prompts[:8], max_new_tokens=SHORT_NEW_TOKENS,
                     weight=2.0),
        SequenceLoad(prompts=prompts[8:], max_new_tokens=LONG_NEW_TOKENS,
                     weight=1.0),
    )


def _report_point(report, extra=None) -> dict:
    point = {
        "offered_qps": report.offered_qps,
        "sent": report.sent,
        "completed": report.completed,
        "failed": report.failed,
        "tokens_generated": report.tokens_generated,
        "tokens_per_second": report.tokens_per_second,
        "ttft_ms_p50": report.ttft_ms_p50,
        "ttft_ms_p95": report.ttft_ms_p95,
        "latency_ms_p95": report.latency_ms_p95,
        "peak_concurrent_streams": report.peak_concurrent_streams,
    }
    if extra:
        point.update(extra)
    return point


def _run_continuous(frozen, mix, qps, duration_s, seed) -> dict:
    config = GenerationConfig(max_active=MAX_ACTIVE,
                              max_new_tokens=LONG_NEW_TOKENS)
    occupancy = []
    with GenerationServer(frozen, config) as server:
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                stats = server.stats()
                occupancy.append((stats.cache["utilization"],
                                  stats.active_sequences))
                stop.wait(0.01)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            report = GenerationLoadGenerator(
                server.submit, mix, qps=qps, duration_s=duration_s,
                seed=seed, drain_timeout_s=300.0).run()
        finally:
            stop.set()
            poller.join(timeout=10)
        stats = server.stats()
    utilizations = [u for u, _ in occupancy] or [0.0]
    actives = [a for _, a in occupancy] or [0]
    return _report_point(report, extra={
        "mean_batch_per_step": stats.mean_batch_per_step,
        "cache_utilization_peak": max(utilizations),
        "cache_utilization_mean": float(np.mean(utilizations)),
        "active_sequences_peak": int(max(actives)),
    })


def _run_static(frozen, mix, qps, duration_s, seed) -> dict:
    server = StaticBucketServer(frozen, batch_size=MAX_ACTIVE)
    try:
        report = GenerationLoadGenerator(
            server.submit, mix, qps=qps, duration_s=duration_s,
            seed=seed, drain_timeout_s=300.0).run()
    finally:
        server.close()
    return _report_point(report)


def bench_continuous_batching(duration_s: float, qps: float, rng):
    frozen = frozen_seq2seq(max_length=48)
    mix = _mixed_load(rng)
    seeds = iter(range(40, 60))

    def measure():
        seed = next(seeds)
        continuous = _run_continuous(frozen, mix, qps, duration_s, seed)
        static = _run_static(frozen, mix, qps, duration_s, seed)
        return {"continuous": continuous, "static": static,
                "tokens_per_second_ratio":
                    continuous["tokens_per_second"] / static["tokens_per_second"]}

    best, attempts = best_of(
        measure, attempts=3,
        key=lambda result: result["tokens_per_second_ratio"],
        good_enough=lambda ratio: ratio >= BATCHING_GATE,
        label="continuous batching gate")
    best["offered_qps"] = qps
    best["duration_s"] = duration_s
    best["max_active"] = MAX_ACTIVE
    best["mix"] = {"short_new_tokens": SHORT_NEW_TOKENS,
                   "long_new_tokens": LONG_NEW_TOKENS,
                   "short_weight": 2.0, "long_weight": 1.0}
    return best, gate("continuous_batching_ratio", best["tokens_per_second_ratio"],
                      BATCHING_GATE, attempts=attempts)


# --------------------------------------------------------------------------- #
# Quantized KV cache: divergence + memory per storage format
# --------------------------------------------------------------------------- #
def _batch_cache(root, batch: int, quantizer=None):
    """A KV cache holding rows ``0 .. batch - 1``, one ``max_length``
    block each, for a step-by-step rollout."""
    cache = root.kv_cache(batch, block_tokens=root.max_length, quantizer=quantizer)
    for row in range(batch):
        cache.reserve(row, root.max_length)
    return cache


def bench_quantized_cache(steps: int, rng) -> dict:
    """Divergence of the 4-bit model around a BFP KV cache, and cache bytes.

    The divergence rows compare the 4-bit frozen model decoding over a cache
    quantized to each mantissa width with the same model over the exact
    cache, on the same forced tokens.  They describe the model around the
    cache, not the cache alone: the model re-rounds its own activations to 4
    bits, which can turn a small cache error into a flipped value
    downstream, so ``argmax_agreement`` need not grow with the width.
    """
    root = frozen_seq2seq(max_length=max(DECODE_LENGTHS) + 8).root
    src = rng.integers(3, 50, size=(4, 12))
    _, memory_kv = root.prefill(src)

    # Reference rollout with the exact cache; forced tokens shared by all.
    exact = _batch_cache(root, 4)
    generated = np.full((4, 1), BOS, dtype=np.int64)
    exact_logits = []
    for step in range(steps):
        logits = root.decode_step(generated[:, -1],
                                  np.full(4, step, dtype=np.int64),
                                  exact.step(range(4)), memory_kv)
        exact_logits.append(logits)
        generated = np.concatenate(
            [generated, logits.argmax(axis=-1)[:, None]], axis=1)

    divergence = []
    for mantissa_bits in (8, 4, 2):
        grid = _batch_cache(root, 4, ActivationQuantizer(mantissa_bits, 16, 8))
        worst_mean = 0.0
        agree = 0
        for step in range(steps):
            logits = root.decode_step(generated[:, step],
                                      np.full(4, step, dtype=np.int64),
                                      grid.step(range(4)), memory_kv)
            exact_step = exact_logits[step]
            worst_mean = max(worst_mean,
                             float(np.abs(logits - exact_step).mean()
                                   / np.abs(exact_step).mean()))
            agree += int((logits.argmax(-1) == exact_step.argmax(-1)).sum())
        divergence.append({"mantissa_bits": mantissa_bits,
                           "steps": steps,
                           "worst_mean_relative_error": worst_mean,
                           "argmax_agreement": agree / (steps * 4)})

    # Cache memory per storage format (per-token bytes + compression).
    first = root.decoder_layers[0].self_attention
    num_heads = first.num_heads
    head_dim = root.embed_dim // num_heads
    formats = []
    for label, dtype, quantizer in (
            ("float64", np.float64, None),
            ("float32", np.float32, None),
            ("bfp m=8", np.float64, ActivationQuantizer(8, 16, 8)),
            ("bfp m=4", np.float64, ActivationQuantizer(4, 16, 8)),
            ("bfp m=2", np.float64, ActivationQuantizer(2, 16, 8))):
        manager = KVCacheManager(len(root.decoder_layers), num_heads, head_dim,
                                 total_blocks=4, quantizer=quantizer,
                                 dtype=dtype)
        manager.reserve(0, 16)
        for step in range(16):
            manager.append_step([0], 0, rng.standard_normal((1, num_heads, 1, head_dim)),
                                rng.standard_normal((1, num_heads, 1, head_dim)))
            for layer in range(1, len(root.decoder_layers)):
                manager.append_step([0], layer,
                                    rng.standard_normal((1, num_heads, 1, head_dim)),
                                    rng.standard_normal((1, num_heads, 1, head_dim)))
        stats = manager.stats()
        formats.append({"format": label,
                        "bytes_per_token": stats.cache_bytes / stats.tokens_cached,
                        "compression_vs_fp32": stats.compression_vs_fp32})
    return {"divergence": divergence, "formats": formats}


# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shorter load windows for CI")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).parent / "results" / "perf_generation.json")
    args = parser.parse_args(argv)

    print_banner("Sequence generation: KV-cached decode + continuous batching")
    rng = np.random.default_rng(1234)

    verify_generation(rng)
    print("equivalence harness: PASS (KV-cached greedy token-identical to full "
          "recompute in float64 and float32; continuous batching preserves "
          "every sequence's tokens)")

    # Batch 8: enough rows that BLAS work, not per-step Python dispatch,
    # dominates both paths -- the regime the asymptotic claim is about.
    batch = 8
    decode, decode_gate = bench_decode_speedup(batch, rng)
    print_rows(
        ["T (tokens)", "recompute (ms)", "cached (ms)", "recompute ms/tok",
         "cached ms/tok", "speedup"],
        [(str(p["steps"]), f"{p['recompute_ms']:.1f}", f"{p['cached_ms']:.1f}",
          f"{p['recompute_ms_per_token']:.2f}", f"{p['cached_ms_per_token']:.2f}",
          f"{p['speedup']:.2f}x")
         for p in decode["points"]],
        title=f"KV-cached decode vs. full recompute (batch {batch}, forced rollout)")

    # Offered load past both schedulers' capacity: tokens/sec at saturation
    # measures what each scheduler can *deliver*, not what was offered
    # (under-saturation makes every scheduler look identical).
    duration_s = 1.0 if args.quick else 2.5
    qps = 250.0 if args.quick else 300.0
    batching, batching_gate = bench_continuous_batching(duration_s, qps, rng)
    cont, stat = batching["continuous"], batching["static"]
    print_rows(
        ["scheduler", "tokens/s", "completed", "ttft p50 (ms)", "ttft p95 (ms)",
         "peak streams"],
        [("continuous", f"{cont['tokens_per_second']:.0f}",
          str(cont["completed"]), f"{cont['ttft_ms_p50']:.1f}",
          f"{cont['ttft_ms_p95']:.1f}", str(cont["peak_concurrent_streams"])),
         ("static bucketed", f"{stat['tokens_per_second']:.0f}",
          str(stat["completed"]), f"{stat['ttft_ms_p50']:.1f}",
          f"{stat['ttft_ms_p95']:.1f}", str(stat["peak_concurrent_streams"]))],
        title=(f"Mixed-length open-loop generation ({qps:.0f} seq/s offered, "
               f"{duration_s:.1f}s window, max_active={MAX_ACTIVE})"))
    print(f"cache occupancy (continuous): peak {cont['cache_utilization_peak']:.0%}, "
          f"mean {cont['cache_utilization_mean']:.0%}; mean batch/step "
          f"{cont['mean_batch_per_step']:.1f}")

    quantized = bench_quantized_cache(steps=8 if args.quick else 16, rng=rng)
    print_rows(
        ["mantissa bits", "worst mean rel err", "argmax agreement"],
        [(str(d["mantissa_bits"]), f"{d['worst_mean_relative_error']:.4f}",
          f"{d['argmax_agreement']:.0%}")
         for d in quantized["divergence"]],
        title=("4-bit model around a BFP KV cache: per-step logit divergence vs. "
               "the exact cache (the model's own 4-bit re-rounding included, "
               "not the cache alone)"))
    print_rows(
        ["format", "bytes/token", "compression vs fp32"],
        [(f["format"], f"{f['bytes_per_token']:.0f}",
          f"{f['compression_vs_fp32']:.2f}x")
         for f in quantized["formats"]],
        title="KV cache memory per storage format (per cached token, all layers)")

    headline = {f"decode.T={p['steps']}.cached_ms_per_token": p["cached_ms_per_token"]
                for p in decode["points"]}
    headline.update({f"{name}.{key}": batching[name][key]
                     for name in ("continuous", "static")
                     for key in ("tokens_per_second", "ttft_ms_p50")})
    headline["continuous.mean_batch_per_step"] = cont["mean_batch_per_step"]
    headline.update({f"kv_cache.m={d['mantissa_bits']}.worst_mean_relative_error":
                     d["worst_mean_relative_error"] for d in quantized["divergence"]})
    return finish_report(args.output, "bench_perf_generation",
                         "quick" if args.quick else "full", [decode_gate, batching_gate],
                         headline, decode=decode, batching=batching,
                         quantized_cache=quantized)


if __name__ == "__main__":
    sys.exit(main())
