"""``generate_mixed``: continuous-batching generation over a BFP KV cache.

``GenerationServer`` (``max_active=8``, ``kv_mantissa_bits=4``) serves a
frozen float32 ``transformer_small``.  First an open Poisson loop at one
fixed rate below saturation (TTFT and TPOT), then an offline batch
submitted all at once (tokens per second).  It is the only phase that runs
``prefill``/``decode_step``, ``KVCacheManager`` and the per-step
admit/retire scheduler; conv/im2col do no work here.

TTFT counts from the scheduled arrival; TPOT is a sequence's time after its
first token divided by its remaining tokens.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro import observability
from repro.core.bfp import BFPConfig
from repro.models import transformer_small
from repro.serving import (
    GenerationConfig,
    GenerationLoadGenerator,
    GenerationServer,
    SequenceLoad,
    freeze,
)
from repro.training import FixedBFPSchedule

from perfbench import report
from perfbench.openloop import Tap, median_of_windows, rate_windows
from perfbench.probes import Recorder

BOS, EOS = 1, 2


class Run:
    """A warmed generation server, its prompts and request mix."""

    def __init__(self, cfg: dict, seed: int, model_seed: int):
        seeds = np.random.SeedSequence([seed, 3]).generate_state(2)
        model = transformer_small(vocab_size=cfg["vocab_size"], max_length=cfg["max_length"],
                                  rng=np.random.default_rng(model_seed))
        FixedBFPSchedule(cfg["mantissa_bits"],
                         config=BFPConfig(exponent_bits=cfg["exponent_bits"],
                                          group_size=cfg["group_size"]),
                         stochastic_gradients=False, seed=0).prepare(model, 1)
        model.eval()
        self.frozen = freeze(model, meta={"bos_index": BOS, "eos_index": EOS}).cast(np.float32)
        self.config = GenerationConfig(max_active=cfg["max_active"],
                                       kv_mantissa_bits=cfg["kv_mantissa_bits"])
        data = np.random.default_rng(int(seeds[0]))
        low, high = cfg["source_lengths"]
        self.prompts = tuple(
            data.integers(3, cfg["vocab_size"], size=int(data.integers(low, high + 1)))
            for _ in range(cfg["prompts"]))
        self.caps = tuple(cfg["caps"])
        weights = np.array([cfg["caps"][cap] for cap in self.caps], dtype=np.float64)
        self.mix = tuple(SequenceLoad(prompts=self.prompts, max_new_tokens=cap,
                                      weight=float(weight))
                         for cap, weight in zip(self.caps, weights))
        # The offline batch holds the caps in their exact proportions, in a
        # seeded order, so every run asks for the same number of tokens.
        counts = np.round(weights / weights.sum() * cfg["offline_batch"]).astype(int)
        caps = np.repeat(self.caps, counts)
        np.random.default_rng(int(seeds[1])).shuffle(caps)
        self.offline = [(self.prompts[i % len(self.prompts)], int(cap))
                        for i, cap in enumerate(caps)]
        self.server = GenerationServer(self.frozen, self.config)
        self.server.generate(self.prompts[0], max_new_tokens=max(self.caps))

    def close(self) -> None:
        self.server.close()


def setup(cfg: dict, seed: int, model_seed: int) -> Run:
    return Run(cfg, seed, model_seed)


def _window(run: Run, qps: float, seconds: float, seed: int) -> tuple:
    tap = Tap(run.server.submit, qps, seconds, seed)
    load = GenerationLoadGenerator(tap, run.mix, qps=qps, duration_s=seconds,
                                   seed=seed, drain_timeout_s=60.0).run()
    return tap, load


def _sequence_times(tap: Tap) -> tuple:
    """Per completed sequence: TTFT from the scheduled arrival, TPOT, queue."""
    ttft, tpot, queue = [], [], []
    for _, scheduled, sent, _, result in tap.completed():
        timing = result.timing
        ttft.append((sent - scheduled) * 1e3 + timing.ttft_ms)
        queue.append(timing.queue_ms)
        new_tokens = len(result.tokens) - 1
        if new_tokens > 1:
            tpot.append((timing.total_ms - timing.ttft_ms) / (new_tokens - 1))
    return np.array(ttft), np.array(tpot), np.array(queue)


def run_offline(run: Run) -> tuple:
    """Submit the whole batch at once; tokens/s until the queue drains."""
    start = time.monotonic()
    futures = [run.server.submit(prompt, max_new_tokens=cap) for prompt, cap in run.offline]
    results = [future.result(timeout=120) for future in futures]
    elapsed = time.monotonic() - start
    return results, sum(len(result.tokens) - 1 for result in results) / elapsed


def check(run: Run, tokens, count: int) -> None:
    """The first ``count`` offline sequences are token-identical to the same
    prompts decoded alone under the same ``GenerationConfig``."""
    with GenerationServer(run.frozen, run.config) as solo:
        for index in range(count):
            prompt, cap = run.offline[index]
            alone = solo.generate(prompt, max_new_tokens=cap, timeout=120).tokens
            report.require(np.array_equal(tokens[index], alone),
                           f"sequence {index}: batched tokens {tokens[index].tolist()} "
                           f"differ from solo decode {alone.tolist()}")


def measure(cfg: dict, run: Run, scale: float, seed: int, slip_limit_ms: float,
            metrics: dict, notes: dict) -> tuple:
    """Fixed-rate windows, then the offline batch.  Returns (attempted, failed)."""
    valid, runs = rate_windows(functools.partial(_window, run), cfg, scale, seed,
                               slip_limit_ms)
    batches = [run_offline(run) for _ in range(cfg["offline_repeats"])]
    for results, _ in batches:
        check(run, [result.tokens for result in results], cfg["check_sequences"])
    times = [_sequence_times(tap) for tap, _ in valid]
    ttft, tpot = [t[0] for t in times], [t[1] for t in times]
    metrics["gen_ttft_ms_p50"] = median_of_windows(ttft, 50)
    metrics["gen_ttft_ms_p90"] = median_of_windows(ttft, 90)
    metrics["gen_tpot_ms_p50"] = median_of_windows(tpot, 50)
    metrics["gen_tpot_ms_p90"] = median_of_windows(tpot, 90)
    metrics["gen_offline_tokens_per_s"] = report.median([rate for _, rate in batches])
    rate = f"sequences at {cfg['rate_qps']:g} seq/s"
    notes["gen_ttft_ms_p50"] = notes["gen_ttft_ms_p90"] = \
        report.windows_note(ttft, len(runs), rate)
    notes["gen_tpot_ms_p50"] = notes["gen_tpot_ms_p90"] = \
        report.windows_note(tpot, len(runs), rate)
    notes["gen_offline_tokens_per_s"] = \
        f"median over {len(batches)} batches of {len(run.offline)} sequences"
    attempted = sum(load.sent for _, load in runs) + len(batches) * len(run.offline)
    return attempted, sum(load.failed for _, load in runs)


def _instrument(run: Run, recorder: Recorder) -> dict:
    """Wrap prefill/decode_step and the KV cache; count rows and occupancy."""
    seen = {"prefill_rows": [], "decode_rows": [], "utilization": []}
    root, cache = run.server.root, run.server.cache
    prefill, decode_step = root.prefill, root.decode_step

    def timed_prefill(src_tokens):
        seen["prefill_rows"].append(len(src_tokens))
        return recorder.call("serving.frozen.prefill", prefill, src_tokens)

    def timed_decode_step(tokens, *args, **kwargs):
        seen["decode_rows"].append(len(tokens))
        stats = cache.stats()
        if stats.blocks_in_use:
            seen["utilization"].append(
                stats.tokens_cached / (stats.blocks_in_use * stats.block_tokens))
        return recorder.call("serving.frozen.decode_step", decode_step, tokens,
                             *args, **kwargs)

    recorder.patch(root, "prefill", timed_prefill)
    recorder.patch(root, "decode_step", timed_decode_step)
    recorder.wrap(cache, "append_step", "serving.generation.kv_append")
    recorder.wrap(cache, "gather", "serving.generation.kv_gather")
    return seen


def measure_traced(cfg: dict, run: Run, scale: float, seed: int, slip_limit_ms: float,
                   layers_out: dict, events: list) -> tuple:
    """Fixed-rate window untraced, then the same window and the offline batch
    traced.  Kernel figures are per generated token.  Returns (attempted,
    failed) of the traced windows."""
    seconds = cfg["rate_seconds"] * cfg["rate_windows"] * scale
    base_ttft, _, _ = _sequence_times(_window(run, cfg["rate_qps"], seconds, seed)[0])
    recorder = Recorder()
    seen = _instrument(run, recorder)
    before = report.kernel_totals(observability.registry().snapshot(), worker=False)
    observability.set_enabled(True, sample_rate=0.1)
    try:
        tap, load = _window(run, cfg["rate_qps"], seconds, seed)
        results, _ = run_offline(run)
    finally:
        observability.set_enabled(False)
        recorder.restore()
    after = report.kernel_totals(observability.registry().snapshot(), worker=False)
    report.require(load.max_slip_ms <= slip_limit_ms,
                   f"generation traced window: the load generator fell "
                   f"{load.max_slip_ms:.1f} ms behind its schedule; the offered load is invalid")
    ttft, _, queue = _sequence_times(tap)
    check(run, [result.tokens for result in results], cfg["check_sequences"])
    tokens = load.tokens_generated + sum(len(r.tokens) - 1 for r in results)
    steps = max(recorder.calls["serving.frozen.decode_step"], 1)
    out = layers_out
    out["gen.serving.generation.queue_ms_p50"] = report.median(queue)
    out["gen.serving.generation.queue_ms_p99"] = report.percentile(queue, 99)
    out["gen.serving.frozen.prefill_ms"] = (recorder.ms("serving.frozen.prefill")
                                            / max(recorder.calls["serving.frozen.prefill"], 1))
    out["gen.serving.frozen.prefill_rows_mean"] = float(np.mean(seen["prefill_rows"]))
    out["gen.serving.frozen.decode_step_ms"] = recorder.ms("serving.frozen.decode_step") / steps
    out["gen.serving.frozen.decode_rows_mean"] = float(np.mean(seen["decode_rows"]))
    out["gen.serving.generation.kv_append_ms"] = \
        recorder.ms("serving.generation.kv_append") / steps
    out["gen.serving.generation.kv_gather_ms"] = \
        recorder.ms("serving.generation.kv_gather") / steps
    out["gen.serving.generation.cache_utilization_mean"] = float(np.mean(seen["utilization"]))
    out["gen.serving.generation.cache_utilization_peak"] = float(np.max(seen["utilization"]))
    out.update(report.kernel_metrics("gen", ("bfp_quantize_fast", "quantize_groups"),
                                     before, after, tokens))
    out["gen.serving.loadgen.slip_ms_max"] = load.max_slip_ms
    out["gen.trace_overhead"] = report.median(ttft) / report.median(base_ttft)
    events.extend(recorder.events)
    return load.sent + len(run.offline), load.failed
