"""Generation tier: KV-cached incremental decode + continuous batching.

Two layers of guarantees, tested separately:

* **Numerics** -- with an unquantized cache, one incremental
  ``decode_step`` must reproduce the full-recompute decoder's last-step
  logits *bit for bit* (same argmax, same everything), across dtypes,
  batch shapes and model depths.  With a BFP-quantized cache the
  divergence is bounded, not zero, and the packed blocks round-trip
  losslessly through :func:`bfp_quantize_tensor`.
* **Scheduling** -- the continuous-batching server admits and retires
  sequences between decode steps without perturbing its companions'
  tokens, honors deadlines mid-generation, drains cleanly, and fails
  admission loudly (``CacheExhausted`` is a ``ServerOverloaded``) when a
  request cannot ever fit the block pool.
"""

import threading
import time

import numpy as np
import pytest

from repro import observability, reference
from repro.core.bfp import BFPConfig, bfp_quantize
from repro.models import transformer_base, transformer_small
from repro.observability import validate_chrome_trace
from repro.observability.tracing import GENERATION_STAGES
from repro.serving import freeze
from repro.serving.frozen import ActivationQuantizer, FrozenSeq2SeqTransformer
from repro.serving.generation import GenerationConfig, GenerationServer
from repro.serving.kv_cache import CacheExhausted, KVCacheManager
from repro.serving.server import (
    DeadlineExceeded,
    InvalidRequest,
    ServerClosed,
    ServerOverloaded,
)
from repro.training.schedules import FixedBFPSchedule

CONFIG = BFPConfig(exponent_bits=8, group_size=16)
BOS, EOS = 1, 2


def frozen_seq2seq(builder=transformer_small, vocab=30, max_length=24, seed=11):
    model = builder(vocab_size=vocab, max_length=max_length,
                    rng=np.random.default_rng(seed))
    schedule = FixedBFPSchedule(4, config=CONFIG, seed=0)
    schedule.prepare(model, 8)
    model.eval()
    return freeze(model, meta={"bos_index": BOS, "eos_index": EOS})


def prompts(rng, count, low_len=4, high_len=10, vocab=30):
    return [rng.integers(3, vocab, size=int(rng.integers(low_len, high_len + 1)))
            for _ in range(count)]


def batch_cache(root: FrozenSeq2SeqTransformer, batch, quantizer=None):
    """A KV cache holding rows ``0 .. batch - 1``, one ``max_length`` block
    each, for a step-by-step rollout."""
    cache = root.kv_cache(batch, block_tokens=root.max_length, quantizer=quantizer)
    for row in range(batch):
        cache.reserve(row, root.max_length)
    return cache


def step_logits_both_paths(root: FrozenSeq2SeqTransformer, src, steps):
    """(incremental, recompute) per-step logits for a forced greedy rollout."""
    memory, memory_kv = root.prefill(src)
    cache = batch_cache(root, src.shape[0])
    rows = range(src.shape[0])
    generated = np.full((src.shape[0], 1), BOS, dtype=np.int64)
    incremental, recompute = [], []
    for step in range(steps):
        positions = np.full(src.shape[0], step, dtype=np.int64)
        logits = root.decode_step(generated[:, -1], positions, cache.step(rows),
                                  memory_kv)
        decoded = root.decode(generated, memory, memory_kv=memory_kv)
        full = root.output_projection.run(decoded)[:, -1, :]
        incremental.append(logits)
        recompute.append(full)
        generated = np.concatenate(
            [generated, full.argmax(axis=-1)[:, None]], axis=1)
    return incremental, recompute


class TestIncrementalDecodeNumerics:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_step_logits_bit_identical_float64(self, rng, batch):
        root = frozen_seq2seq().root
        src = rng.integers(3, 30, size=(batch, 9))
        incremental, recompute = step_logits_both_paths(root, src, steps=7)
        for step, (inc, full) in enumerate(zip(incremental, recompute)):
            np.testing.assert_array_equal(inc, full, err_msg=f"step {step}")

    def test_step_logits_bit_identical_float32(self, rng):
        frozen = frozen_seq2seq().cast(np.float32)
        src = rng.integers(3, 30, size=(4, 8))
        incremental, recompute = step_logits_both_paths(frozen.root, src, steps=6)
        assert incremental[0].dtype == np.float32
        for step, (inc, full) in enumerate(zip(incremental, recompute)):
            np.testing.assert_array_equal(inc, full, err_msg=f"step {step}")

    def test_step_logits_bit_identical_deeper_model(self, rng):
        root = frozen_seq2seq(builder=transformer_base, max_length=16).root
        src = rng.integers(3, 30, size=(3, 7))
        incremental, recompute = step_logits_both_paths(root, src, steps=5)
        for step, (inc, full) in enumerate(zip(incremental, recompute)):
            np.testing.assert_array_equal(inc, full, err_msg=f"step {step}")

    def test_cached_greedy_token_identical_to_legacy(self, rng):
        root = frozen_seq2seq(seed=5).root
        src = rng.integers(3, 30, size=(6, 10))
        np.testing.assert_array_equal(
            root.greedy_decode_cached(src, BOS, EOS),
            reference.greedy_decode(root, src, BOS, EOS))

    def test_cached_greedy_token_identical_to_legacy_float32(self, rng):
        root = frozen_seq2seq(seed=5).cast(np.float32).root
        src = rng.integers(3, 30, size=(6, 10))
        cached = root.greedy_decode_cached(src, BOS, EOS)
        np.testing.assert_array_equal(cached, reference.greedy_decode(root, src, BOS, EOS))
        assert cached.shape[1] > 2

    def test_memory_kv_precompute_identical(self, rng):
        root = frozen_seq2seq().root
        src = rng.integers(3, 30, size=(3, 8))
        tgt = rng.integers(3, 30, size=(3, 6))
        memory = root.encode(src)
        np.testing.assert_array_equal(
            root.decode(tgt, memory, memory_kv=root.memory_kv(memory)),
            root.decode(tgt, memory))

    def test_quantized_cache_divergence_bounded(self, rng):
        """BFP-grid cache: logits drift, but stay within a tight envelope."""
        root = frozen_seq2seq().root
        src = rng.integers(3, 30, size=(4, 8))
        quantizer = ActivationQuantizer(8, 16, 8)
        memory, memory_kv = root.prefill(src)
        exact = batch_cache(root, 4)
        grid = batch_cache(root, 4, quantizer=quantizer)
        generated = np.full((4, 1), BOS, dtype=np.int64)
        worst_mean, worst_max = 0.0, 0.0
        for step in range(6):
            positions = np.full(4, step, dtype=np.int64)
            tokens = generated[:, -1]
            logits_exact = root.decode_step(tokens, positions, exact.step(range(4)),
                                            memory_kv)
            logits_grid = root.decode_step(tokens, positions, grid.step(range(4)),
                                           memory_kv)
            error = np.abs(logits_grid - logits_exact)
            worst_mean = max(worst_mean,
                             error.mean() / np.abs(logits_exact).mean())
            worst_max = max(worst_max, error.max() / np.abs(logits_exact).max())
            generated = np.concatenate(
                [generated, logits_exact.argmax(axis=-1)[:, None]], axis=1)
        # An untrained model's logits sit close together, so relative error
        # amplifies through softmax; the bound is "stays in a small envelope
        # and does not explode across steps", not bit-closeness.
        assert 0.0 < worst_mean < 0.25, f"mean relative divergence {worst_mean}"
        assert worst_max < 1.0, f"max relative divergence {worst_max}"


class TestFrozenTokenRange:
    """Library callers that bypass the server's submit-time check."""

    @pytest.mark.parametrize("source", [[3, -1, 4], [3, 99, 4]])
    def test_out_of_vocabulary_tokens_raise(self, source):
        root = frozen_seq2seq(vocab=30).root
        src = np.array([source])
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            root.encode(src)
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            root.greedy_decode_cached(src, BOS, EOS, max_length=4)
        _, memory_kv = root.prefill(np.array([[3, 4, 5]]))
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            root.decode_step(np.array([source[1]]), np.array([0]),
                             batch_cache(root, 1).step([0]), memory_kv)


class TestKVCacheManager:
    def make(self, total_blocks=8, block_tokens=4, quantizer=None):
        return KVCacheManager(num_layers=2, num_heads=2, head_dim=8,
                              total_blocks=total_blocks,
                              block_tokens=block_tokens, quantizer=quantizer)

    def test_reserve_release_accounting(self):
        cache = self.make()
        assert cache.blocks_for(5) == 2 and cache.blocks_for(4) == 1
        cache.reserve(0, 5)
        cache.reserve(1, 4)
        assert cache.free_blocks == 5
        stats = cache.stats()
        assert stats.blocks_in_use == 3 and stats.sequences == 2
        cache.release(0)
        cache.release(1)
        assert cache.free_blocks == 8
        assert cache.stats().utilization == 0.0

    def test_exhaustion_raises(self):
        cache = self.make(total_blocks=2, block_tokens=4)
        cache.reserve(0, 8)
        assert not cache.can_reserve(1)
        with pytest.raises(CacheExhausted):
            cache.reserve(1, 1)
        assert isinstance(CacheExhausted("x"), ServerOverloaded)

    def test_append_gather_roundtrip(self, rng):
        cache = self.make()
        cache.reserve(0, 8)
        cache.reserve(1, 8)
        rows = {0: [], 1: []}
        for _ in range(5):
            k_new = rng.standard_normal((2, 2, 1, 8))
            v_new = rng.standard_normal((2, 2, 1, 8))
            for layer in range(2):
                cache.append_step([0, 1], layer, k_new, v_new)
            rows[0].append((k_new[0], v_new[0]))
            rows[1].append((k_new[1], v_new[1]))
        assert cache.length(0) == cache.length(1) == 5
        k, v = cache.gather([0, 1], layer=1, lengths=[5, 5])
        expected_k = np.stack([np.concatenate([r[0] for r in rows[0]], axis=1),
                               np.concatenate([r[0] for r in rows[1]], axis=1)])
        expected_v = np.stack([np.concatenate([r[1] for r in rows[0]], axis=1),
                               np.concatenate([r[1] for r in rows[1]], axis=1)])
        np.testing.assert_array_equal(k, expected_k)
        np.testing.assert_array_equal(v, expected_v)

    def test_gather_zero_pads_short_rows_over_reused_blocks(self, rng):
        """A released sequence's blocks keep their values; a shorter row
        that reuses them still reads zeros past its length."""
        cache = self.make(total_blocks=4, block_tokens=4)
        cache.reserve(0, 16)
        for _ in range(16):
            for layer in range(2):
                cache.append_step([0], layer, rng.standard_normal((1, 2, 1, 8)),
                                  rng.standard_normal((1, 2, 1, 8)))
        cache.release(0)
        cache.reserve(1, 3)
        cache.reserve(2, 9)
        rows = {1: [], 2: []}
        for step in range(9):
            ids = [1, 2] if step < 3 else [2]
            k_new = rng.standard_normal((len(ids), 2, 1, 8))
            v_new = rng.standard_normal((len(ids), 2, 1, 8))
            for layer in range(2):
                cache.append_step(ids, layer, k_new, v_new)
            for row, seq_id in enumerate(ids):
                rows[seq_id].append((k_new[row], v_new[row]))
        k, v = cache.gather([1, 2], layer=0, lengths=[3, 9])
        assert k.shape == v.shape == (2, 2, 9, 8)
        for which, got in ((0, k), (1, v)):
            np.testing.assert_array_equal(
                got[0, :, :3], np.concatenate([r[which] for r in rows[1]], axis=1))
            np.testing.assert_array_equal(got[0, :, 3:], 0.0)
            np.testing.assert_array_equal(
                got[1], np.concatenate([r[which] for r in rows[2]], axis=1))

    def test_append_past_reservation_raises(self, rng):
        """A row never writes past its own reservation into another
        sequence's block."""
        cache = self.make(total_blocks=2, block_tokens=4)
        cache.reserve(0, 3)
        cache.reserve(1, 4)
        k_new = rng.standard_normal((2, 2, 1, 8))
        for _ in range(3):
            for layer in range(2):
                cache.append_step([0, 1], layer, k_new, k_new)
        neighbour = cache.gather([1], layer=0, lengths=[3])[0].copy()
        with pytest.raises(ValueError, match=r"sequence 0 reserved 3 tokens"):
            cache.append_step([1, 0], 0, k_new, k_new)
        with pytest.raises(ValueError, match=r"sequence 0 reserved 3 tokens"):
            cache.gather([0], layer=0, lengths=[4])
        assert cache.length(0) == cache.length(1) == 3
        np.testing.assert_array_equal(cache.gather([1], layer=0, lengths=[3])[0],
                                      neighbour)

    def test_quantized_blocks_pack_losslessly(self, rng):
        # head_dim == group_size: append-time per-head groups coincide with
        # the packed row's groups (the alignment the real models satisfy).
        quantizer = ActivationQuantizer(4, 16, 8)
        cache = KVCacheManager(num_layers=1, num_heads=2, head_dim=16,
                               total_blocks=4, block_tokens=4,
                               quantizer=quantizer)
        cache.reserve(0, 7)
        for _ in range(7):
            cache.append_step([0], 0, rng.standard_normal((1, 2, 1, 16)),
                              rng.standard_normal((1, 2, 1, 16)))
        packed = cache.packed_block(0, 0)
        k, _ = cache.gather([0], layer=0, lengths=[7])
        flat = k[0].transpose(1, 0, 2).reshape(7, -1)
        np.testing.assert_array_equal(packed.to_float(), flat)
        stats = cache.stats()
        assert stats.compression_vs_fp32 > 3.0
        # The cached rows already sit on the BFP grid: re-quantizing is a no-op.
        np.testing.assert_array_equal(
            flat, bfp_quantize(flat, mantissa_bits=4, group_size=16,
                               exponent_bits=8, rounding="nearest"))

    @pytest.mark.parametrize("mantissa_bits", [2, 3, 4, 5, 8])
    def test_cache_bytes_match_packed_storage(self, rng, mantissa_bits):
        # Figure 15: ceil(m/2) 2-bit chunks per mantissa, 3 stored bits each.
        cache = KVCacheManager(num_layers=1, num_heads=2, head_dim=16,
                               total_blocks=2, block_tokens=4,
                               quantizer=ActivationQuantizer(mantissa_bits, 16, 8))
        cache.reserve(0, 8)
        for _ in range(8):
            cache.append_step([0], 0, rng.standard_normal((1, 2, 1, 16)),
                              rng.standard_normal((1, 2, 1, 16)))
        packed_k_bits = cache.packed_block(0, 0).storage_bits()
        assert cache.stats().cache_bytes == 2 * packed_k_bits / 8


class TestGenerationServer:
    def test_continuous_batching_matches_solo_decode(self, rng):
        """Admit/retire mid-flight must not perturb companion sequences."""
        frozen = frozen_seq2seq(seed=3)
        sources = prompts(rng, 6)
        caps = [4, 12, 6, 12, 5, 9]
        with GenerationServer(frozen, GenerationConfig(max_active=3)) as server:
            futures = [server.submit(src, max_new_tokens=cap)
                       for src, cap in zip(sources, caps)]
            batched = [f.result(timeout=60).tokens for f in futures]
        assert server.stats().decode_steps > 0
        with GenerationServer(frozen, GenerationConfig(max_active=1)) as server:
            solo = [server.generate(src, max_new_tokens=cap, timeout=60).tokens
                    for src, cap in zip(sources, caps)]
        for got, want in zip(batched, solo):
            np.testing.assert_array_equal(got, want)

    def test_matches_legacy_greedy_decode(self, rng):
        frozen = frozen_seq2seq(seed=9)
        src = rng.integers(3, 30, size=10)
        oracle = reference.greedy_decode(frozen.root, src[None], BOS, EOS)[0]
        with GenerationServer(frozen) as server:
            result = server.generate(src, timeout=60)
        eos_hits = np.flatnonzero(oracle == EOS)
        stop = eos_hits[0] + 1 if eos_hits.size else oracle.shape[0]
        np.testing.assert_array_equal(result.tokens, oracle[:stop])
        assert result.timing.finish_reason in ("eos", "length")
        assert result.timing.ttft_ms >= 0.0

    def test_bare_float32_root_decodes_in_float32(self, rng):
        """The cache and the logits follow the root's own arrays, with or
        without the ``FrozenModel`` (and its meta) around it."""
        frozen = frozen_seq2seq(seed=9).cast(np.float32)
        root = frozen.root
        original = root.decode_step
        dtypes = []

        def recording_decode_step(*args, **kwargs):
            logits = original(*args, **kwargs)
            dtypes.append(logits.dtype)
            return logits

        src = rng.integers(3, 30, size=10)
        root.decode_step = recording_decode_step
        try:
            with GenerationServer(root) as server:
                assert server.cache.dtype == np.float32
                bare = server.generate(src, max_new_tokens=8, timeout=60).tokens
        finally:
            root.decode_step = original
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        with GenerationServer(frozen) as server:
            wrapped = server.generate(src, max_new_tokens=8, timeout=60).tokens
        np.testing.assert_array_equal(bare, wrapped)

    def test_streaming_tokens_match_future(self, rng):
        frozen = frozen_seq2seq()
        with GenerationServer(frozen) as server:
            stream = server.stream(rng.integers(3, 30, size=8),
                                   max_new_tokens=6)
            streamed = list(stream)
            result = stream.result(timeout=60)
        np.testing.assert_array_equal(np.array(streamed, dtype=np.int64),
                                      result.new_tokens)

    def test_deadline_expires_mid_generation(self, rng):
        frozen = frozen_seq2seq()
        root = frozen.root
        original = root.decode_step
        first_step_done = threading.Event()

        def slow_decode_step(*args, **kwargs):
            logits = original(*args, **kwargs)
            first_step_done.set()
            time.sleep(0.05)
            return logits

        root.decode_step = slow_decode_step
        try:
            with GenerationServer(frozen) as server:
                stream = server.stream(rng.integers(3, 30, size=8),
                                       max_new_tokens=20, deadline_ms=120)
                assert first_step_done.wait(timeout=30)
                with pytest.raises(DeadlineExceeded):
                    stream.result(timeout=60)
            stats = server.stats()
            assert stats.shed_deadline == 1 and stats.failed == 0
        finally:
            root.decode_step = original

    def test_cancelled_sequence_retires_without_harming_the_server(self, rng):
        """Cancelling one of three in-flight sequences retires it before the
        next decode step and leaves its companions' tokens and the
        scheduler untouched."""
        frozen = frozen_seq2seq(seed=3)
        sources = prompts(rng, 3)
        with GenerationServer(frozen, GenerationConfig(max_active=1)) as server:
            solo = [server.generate(src, max_new_tokens=12, timeout=60).tokens
                    for src in sources]
        root = frozen.root
        original = root.decode_step
        futures = []
        steps = []  # (rows, whether futures[1] was cancelled at step start)
        all_active = threading.Event()

        def slow_decode_step(tokens, *args, **kwargs):
            steps.append((len(tokens), len(futures) > 1 and futures[1].cancelled()))
            logits = original(tokens, *args, **kwargs)
            if len(tokens) == 3:
                all_active.set()
            time.sleep(0.02)
            return logits

        root.decode_step = slow_decode_step
        try:
            with GenerationServer(frozen, GenerationConfig(max_active=3)) as server:
                for src in sources:
                    futures.append(server.submit(src, max_new_tokens=12))
                assert all_active.wait(timeout=30)
                assert futures[1].cancel()
                for index in (0, 2):
                    np.testing.assert_array_equal(
                        futures[index].result(timeout=60).tokens, solo[index])
                assert server.failure is None
                again = server.generate(sources[1], max_new_tokens=12, timeout=60)
                np.testing.assert_array_equal(again.tokens, solo[1])
                assert server.cache.free_blocks == server.cache.total_blocks
        finally:
            root.decode_step = original
        # Only a step already under way when cancel() landed may carry it.
        assert sum(rows == 3 and cancelled for rows, cancelled in steps) <= 1

    def test_drain_completes_active_sequences(self, rng):
        frozen = frozen_seq2seq()
        server = GenerationServer(frozen, GenerationConfig(max_active=2))
        futures = [server.submit(src, max_new_tokens=10)
                   for src in prompts(rng, 4)]
        server.close(drain=True)
        for future in futures:
            assert future.result(timeout=60).tokens.shape[0] >= 2
        with pytest.raises(ServerClosed):
            server.submit(np.array([3, 4, 5]))

    def test_oversized_request_rejected_as_overloaded(self, rng):
        frozen = frozen_seq2seq()
        config = GenerationConfig(max_active=2, block_tokens=4, cache_blocks=2)
        with GenerationServer(frozen, config) as server:
            with pytest.raises(ServerOverloaded):
                server.submit(rng.integers(3, 30, size=6), max_new_tokens=16)
            assert server.stats().rejected == 1

    def test_pool_contention_queues_instead_of_corrupting(self, rng):
        """Blocks for one worst-case sequence only: requests serialize."""
        frozen = frozen_seq2seq()
        config = GenerationConfig(max_active=4, block_tokens=4, cache_blocks=3)
        with GenerationServer(frozen, config) as server:
            futures = [server.submit(src, max_new_tokens=12)
                       for src in prompts(rng, 3)]
            results = [f.result(timeout=60) for f in futures]
        assert all(r.tokens[0] == BOS for r in results)
        stats = server.stats()
        assert stats.completed == 3
        assert stats.mean_batch_per_step <= 1.0 + 1e-9
        assert stats.cache["blocks_in_use"] == 0

    def test_invalid_requests(self):
        frozen = frozen_seq2seq()
        with GenerationServer(frozen) as server:
            with pytest.raises(InvalidRequest):
                server.submit(np.zeros((2, 3), dtype=np.int64))
            with pytest.raises(InvalidRequest):
                server.submit(np.array([0.5, 1.5]))
            with pytest.raises(InvalidRequest):
                server.submit(np.array([3, 4]), max_new_tokens=0)

    @pytest.mark.parametrize("token", [-1, 30, 99, np.iinfo(np.int64).min])
    def test_out_of_vocabulary_tokens_rejected_at_submit(self, rng, token):
        """A token outside the embedding table is the caller's error: it must
        neither wrap around nor reach the scheduler and fail the others."""
        frozen = frozen_seq2seq(vocab=30)
        with GenerationServer(frozen) as server:
            healthy = server.submit(rng.integers(3, 30, size=6), max_new_tokens=4)
            with pytest.raises(InvalidRequest, match=r"\[0, 30\)"):
                server.submit(np.array([3, token, 4]))
            assert healthy.result(timeout=60).tokens[0] == BOS
            after = server.generate(rng.integers(3, 30, size=5), max_new_tokens=4,
                                    timeout=60)
            assert after.tokens[0] == BOS
            assert server.failure is None
        stats = server.stats()
        assert stats.completed == 2 and stats.failed == 0

    def test_quantized_cache_server_generates(self, rng):
        frozen = frozen_seq2seq()
        config = GenerationConfig(kv_mantissa_bits=4)
        with GenerationServer(frozen, config) as server:
            result = server.generate(rng.integers(3, 30, size=8),
                                     max_new_tokens=8, timeout=60)
        assert result.tokens.shape[0] >= 2
        assert server.stats().cache["compression_vs_fp32"] > 3.0


class TestGenerationObservability:
    @pytest.fixture(autouse=True)
    def observability_sandbox(self):
        observability.set_enabled(False)
        observability.reset()
        yield
        observability.set_enabled(False)
        observability.reset()

    def test_metrics_and_trace_stages(self, rng):
        frozen = frozen_seq2seq()
        observability.set_enabled(True, sample_rate=1.0)
        with GenerationServer(frozen) as server:
            for src in prompts(rng, 3):
                server.generate(src, max_new_tokens=6, timeout=60)
        trace = observability.tracer().to_chrome()
        validate_chrome_trace(trace, require_stages=GENERATION_STAGES)
        names = {metric["name"]
                 for metric in observability.registry().snapshot()["metrics"]}
        for expected in ("generation_tokens_total", "generation_steps_total",
                         "generation_step_ms", "generation_ttft_ms",
                         "generation_active_sequences",
                         "generation_cache_blocks_used"):
            assert expected in names, f"missing metric {expected}"
        decode_events = [event for event in trace["traceEvents"]
                         if event["name"] == "decode_step"]
        assert decode_events and all(
            "batch" in event["args"] and "cache_blocks_used" in event["args"]
            for event in decode_events)
