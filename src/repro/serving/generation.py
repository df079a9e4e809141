"""Continuous-batching sequence generation over a quantized KV cache.

The batching :class:`~repro.serving.server.InferenceServer` coalesces whole
requests: a sequence request occupies its batch until *every* row finishes,
so one long generation stalls its companions.  This module serves
autoregressive traffic the way modern LLM servers do:

* **Incremental decode** -- each active sequence keeps its self-attention
  K/V in the one cache, a :class:`~repro.serving.kv_cache.KVCacheManager`
  block pool in the root's dtype (O(T) attention per emitted token, not
  O(T^2) recompute; see ``frozen.FrozenSeq2SeqTransformer.decode_step``).
  A sequence reserves its worst-case blocks at admission, so an admitted
  sequence can never die of cache exhaustion mid-flight.
* **Quantized cache** -- with ``kv_mantissa_bits`` set, every cached K/V row
  is snapped to the BFP grid by the same :class:`~repro.serving.frozen.
  ActivationQuantizer` the frozen forward uses, so cache memory scales with
  the paper's activation formats (a 4-bit-mantissa cache packs to ~8x less
  than float32; the grid values pack losslessly -- see
  :meth:`~repro.serving.kv_cache.KVCacheManager.packed_block`).  Each row's
  tokens equal ``greedy_decode_cached``'s for it alone, and so the
  full-recompute oracle ``repro.reference.greedy_decode``'s, with
  quantization off.
* **Continuous batching** -- the scheduler admits new sequences and retires
  finished ones *between decode steps*: a batch is whatever sequences are
  alive right now, not a request-granularity bucket.  Tokens stream back
  through the existing future API (:meth:`GenerationServer.submit`) or
  incrementally through :meth:`GenerationServer.stream`.
* **PR 6 semantics** -- per-request ``deadline_ms`` (checked while queued
  *and* between decode steps: :class:`DeadlineExceeded` can interrupt a
  generation mid-flight) and bounded-queue admission with reject/block
  policies (:class:`ServerOverloaded`).
* **One lifecycle** -- the scheduler runs on the batching server's
  :class:`~repro.serving.server.LifecycleServer`, with its ``close(*,
  drain=True, timeout=10.0)`` and worker-death contracts: ``drain=True``
  finishes active and queued sequences until the horizon; past it the
  scheduler fails the rest with ``ServerClosed`` once its decode step
  returns, and only the scheduler frees their KV blocks.

Usage::

    frozen = serving.freeze(model, meta={"bos_index": 1, "eos_index": 2})
    with GenerationServer(frozen, GenerationConfig(max_active=8)) as server:
        future = server.submit(src_tokens, max_new_tokens=32)
        result = future.result()          # GenerationResult: tokens + timing
        for token in server.stream(src_tokens):   # incremental delivery
            print(token)
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import observability
from ..observability.metrics import LatencyHistogram
from .frozen import ActivationQuantizer, FrozenModel, FrozenSeq2SeqTransformer
from .kv_cache import CacheExhausted
from .server import InvalidRequest, LifecycleServer, validate_admission

__all__ = [
    "GenerationConfig",
    "GenerationResult",
    "GenerationServer",
    "GenerationStats",
    "GenerationTiming",
    "TokenStream",
]

_MASK_FILL = -1e9  # matches nn.attention.causal_mask: exp() underflows to 0.0


def _padding_mask(lengths: Sequence[int], dtype) -> Optional[np.ndarray]:
    """(batch, 1, 1, max_len) additive mask hiding rows' padded tail, or
    ``None`` when every row has the same length (the bit-exact fast path)."""
    max_len = max(lengths)
    if min(lengths) == max_len:
        return None
    mask = np.zeros((len(lengths), 1, 1, max_len), dtype=dtype)
    for row, length in enumerate(lengths):
        mask[row, :, :, length:] = _MASK_FILL
    return mask


# --------------------------------------------------------------------------- #
# Requests, results, streaming
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GenerationTiming:
    """Where a sequence's wall-clock time went."""

    queue_ms: float        # submit -> admitted (prefill start)
    prefill_ms: float      # encoder + cross-attention K/V projection
    ttft_ms: float         # submit -> first generated token
    total_ms: float        # submit -> finished
    steps: int             # decode steps this sequence participated in
    finish_reason: str     # "eos" | "length"


@dataclass(frozen=True)
class GenerationResult:
    """One finished generation: BOS + generated tokens (EOS included when
    emitted) plus timing."""

    tokens: np.ndarray
    timing: GenerationTiming

    @property
    def new_tokens(self) -> np.ndarray:
        return self.tokens[1:]


class TokenStream:
    """Incremental token delivery for one sequence.

    Iterating yields generated token ids as the scheduler emits them;
    iteration ends at EOS/length and re-raises the sequence's failure
    (deadline, server close) if it has one.  ``result()`` waits for the
    complete :class:`GenerationResult`.
    """

    _DONE = object()

    def __init__(self):
        self.future: "Future[GenerationResult]" = Future()
        self._queue: "queue.Queue" = queue.Queue()

    def __iter__(self):
        while True:
            item = self._queue.get()
            if item is self._DONE:
                error = self.future.exception()
                if error is not None:
                    raise error
                return
            yield item

    def result(self, timeout: Optional[float] = None) -> GenerationResult:
        return self.future.result(timeout)

    # Scheduler side:
    def _emit(self, token: int) -> None:
        self._queue.put(token)

    def _close(self) -> None:
        self._queue.put(self._DONE)


class _Sequence:
    """Scheduler-side state for one request."""

    __slots__ = ("seq_id", "src", "max_new_tokens", "deadline_ms", "stream",
                 "submitted", "admitted_at", "prefill_ms", "first_token_at",
                 "memory_kv", "src_length", "position", "token", "generated",
                 "steps")

    def __init__(self, seq_id: int, src: np.ndarray, max_new_tokens: int,
                 deadline_ms: Optional[float], stream: TokenStream,
                 submitted: float):
        self.seq_id = seq_id
        self.src = src
        self.max_new_tokens = max_new_tokens
        self.deadline_ms = deadline_ms
        self.stream = stream
        self.submitted = submitted
        self.admitted_at = 0.0
        self.prefill_ms = 0.0
        self.first_token_at: Optional[float] = None
        self.memory_kv = None       # per-layer ((1,h,S,d), (1,h,S,d))
        self.src_length = int(src.shape[0])
        self.position = 0           # next decode position (= cached tokens)
        self.token = 0              # token to feed at `position`
        self.generated: List[int] = []
        self.steps = 0


# --------------------------------------------------------------------------- #
# Server configuration + stats
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the continuous-batching scheduler.

    ``max_active`` caps concurrent sequences per decode step (the batching
    width); ``cache_blocks`` sizes the KV pool (default: enough for
    ``max_active`` worst-case sequences, so the cap binds before the pool
    does).  ``kv_mantissa_bits=None`` keeps the cache at the staging dtype
    (bit-exact decode); setting it quantizes every cached K/V row to the BFP
    grid (bounded divergence, paper-format cache memory).
    """

    max_active: int = 8
    max_queue_depth: Optional[int] = None
    admission_policy: str = "reject"
    block_timeout_ms: float = 1000.0
    max_new_tokens: Optional[int] = None
    block_tokens: int = 16
    cache_blocks: Optional[int] = None
    kv_mantissa_bits: Optional[int] = None
    kv_group_size: int = 16
    kv_exponent_bits: Optional[int] = 8

    def __post_init__(self):
        if self.max_active <= 0:
            raise ValueError(f"max_active must be positive, got {self.max_active}")
        validate_admission(self)
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")


@dataclass(frozen=True)
class GenerationStats:
    """Counters + latency summaries (``cache`` is a
    :class:`~repro.serving.kv_cache.CacheStats` dict); the first five
    follow the :mod:`repro.serving` accounting rule."""

    submitted: int
    completed: int
    failed: int
    shed_deadline: int
    rejected: int
    tokens_generated: int
    decode_steps: int
    mean_batch_per_step: float
    tokens_per_second: float
    ttft_ms_p50: float
    ttft_ms_p95: float
    ttft_ms_p99: float
    step_ms_p50: float
    step_ms_p95: float
    step_ms_p99: float
    active_sequences: int
    pending_sequences: int
    cache: dict

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _generation_metrics(registry, **labels):
    return (
        registry.counter(
            "generation_tokens_total",
            help="Tokens emitted by the generation server.",
            **labels),
        registry.counter(
            "generation_steps_total",
            help="Continuous-batching decode steps executed.",
            **labels),
        registry.histogram(
            "generation_step_ms",
            help="Wall time of one batched decode step in milliseconds.",
            **labels),
        registry.histogram(
            "generation_ttft_ms",
            help="Time to first token in milliseconds.",
            **labels),
        registry.gauge(
            "generation_active_sequences",
            help="Sequences being decoded this step.",
            **labels),
        registry.gauge(
            "generation_cache_blocks_used",
            help="KV cache blocks currently reserved.",
            **labels),
    )


# --------------------------------------------------------------------------- #
# The server
# --------------------------------------------------------------------------- #
class GenerationServer(LifecycleServer):
    """Continuous-batching greedy-generation server over a frozen seq2seq.

    A single scheduler thread runs the decode loop: between any two decode
    steps it retires finished/expired sequences, admits pending ones (cap
    and cache permitting), then executes one incremental step for every
    active sequence as a single batch.  Admission never waits for a batch
    to drain -- a new sequence joins mid-flight at its own position 0 while
    its companions continue at theirs.
    """

    _label = "generation server"

    def __init__(self, model, config: Optional[GenerationConfig] = None,
                 name: str = "generation"):
        root = model.root if isinstance(model, FrozenModel) else model
        if not isinstance(root, FrozenSeq2SeqTransformer):
            raise TypeError(
                f"GenerationServer requires a frozen seq2seq transformer, got "
                f"{type(root).__name__}")
        meta = model.meta if isinstance(model, FrozenModel) else {}
        self.root = root
        self.name = name
        self.config = config or GenerationConfig()
        self.bos_index = int(meta.get("bos_index", 1))
        self.eos_index = int(meta.get("eos_index", 2))
        self._step_cap = self.config.max_new_tokens or (root.max_length - 1)
        self._step_cap = min(self._step_cap, root.max_length - 1)
        quantizer = None
        if self.config.kv_mantissa_bits is not None:
            quantizer = ActivationQuantizer(self.config.kv_mantissa_bits,
                                            self.config.kv_group_size,
                                            self.config.kv_exponent_bits)
        blocks = self.config.cache_blocks
        if blocks is None:
            per_seq = -(-self._step_cap // self.config.block_tokens)
            blocks = self.config.max_active * per_seq
        self.cache = root.kv_cache(blocks, block_tokens=self.config.block_tokens,
                                   quantizer=quantizer)
        self._dtype = self.cache.dtype

        self._seq_ids = itertools.count()
        # Submitters append; only the scheduler pops (deque ops are atomic).
        self._pending: "deque[_Sequence]" = deque()
        self._active: List[_Sequence] = []
        self._batch_mkv = None      # rebuilt when batch composition changes
        self._batch_mmask = None
        self._tokens = 0  # guarded-by: _stats_lock
        self._steps = 0  # guarded-by: _stats_lock
        self._step_batch_total = 0  # guarded-by: _stats_lock
        self._first_token_at: Optional[float] = None  # guarded-by: _stats_lock
        self._last_token_at: Optional[float] = None  # guarded-by: _stats_lock
        self._ttft_hist = LatencyHistogram("generation_ttft_ms")  # guarded-by: _stats_lock
        self._step_hist = LatencyHistogram("generation_step_ms")  # guarded-by: _stats_lock
        self._metrics = observability.LazyMetrics(_generation_metrics, server=name)
        self._wake = threading.Event()
        super().__init__()

    # ------------------------------ submission ------------------------ #
    def _validate(self, src_tokens) -> np.ndarray:
        src = np.asarray(src_tokens)
        if src.ndim != 1 or src.size == 0:
            raise InvalidRequest(
                f"src_tokens must be a non-empty 1-D token sequence, got "
                f"shape {src.shape}")
        if src.dtype.kind not in "iu":
            raise InvalidRequest(
                f"src_tokens must be integer tokens, got dtype {src.dtype}")
        if src.shape[0] > self.root.max_length:
            raise InvalidRequest(
                f"source length {src.shape[0]} exceeds model max_length "
                f"{self.root.max_length}")
        vocab = self.root.embedding.weight.shape[0]
        if src.min() < 0 or src.max() >= vocab:
            raise InvalidRequest(
                f"src_tokens must lie in [0, {vocab}), got values from "
                f"{src.min()} to {src.max()}")
        return src.astype(np.int64, copy=False)

    def _enqueue(self, src_tokens, max_new_tokens: Optional[int],
                 deadline_ms: Optional[float]) -> TokenStream:
        src = self._validate(src_tokens)
        if deadline_ms is not None and deadline_ms <= 0:
            raise InvalidRequest(f"deadline_ms must be positive, got {deadline_ms}")
        steps = self._step_cap if max_new_tokens is None else int(max_new_tokens)
        if steps <= 0:
            raise InvalidRequest(f"max_new_tokens must be positive, got {steps}")
        steps = min(steps, self.root.max_length - 1)
        if self.cache.blocks_for(steps) > self.cache.total_blocks:
            raise self._gate.reject(CacheExhausted(
                f"sequence needs {self.cache.blocks_for(steps)} cache blocks "
                f"but the pool only has {self.cache.total_blocks}"))
        release = self._gate.admit()
        stream = TokenStream()
        sequence = _Sequence(next(self._seq_ids), src, steps, deadline_ms,
                             stream, time.monotonic())
        try:
            self._accept(self._pending.append, sequence)
        except BaseException:
            release()
            raise
        stream.future.add_done_callback(release)
        self._wake.set()
        return stream

    def submit(self, src_tokens, max_new_tokens: Optional[int] = None,
               deadline_ms: Optional[float] = None) -> "Future[GenerationResult]":
        """Enqueue one source sequence; the future resolves to a
        :class:`GenerationResult` when generation finishes."""
        return self._enqueue(src_tokens, max_new_tokens, deadline_ms).future

    def stream(self, src_tokens, max_new_tokens: Optional[int] = None,
               deadline_ms: Optional[float] = None) -> TokenStream:
        """Like :meth:`submit`, but returns a :class:`TokenStream` that
        yields tokens incrementally as the scheduler emits them."""
        return self._enqueue(src_tokens, max_new_tokens, deadline_ms)

    def generate(self, src_tokens, max_new_tokens: Optional[int] = None,
                 deadline_ms: Optional[float] = None,
                 timeout: Optional[float] = None) -> GenerationResult:
        """Synchronous submission."""
        return self.submit(src_tokens, max_new_tokens,
                           deadline_ms).result(timeout=timeout)

    # ------------------------------ scheduler ------------------------- #
    def _wake_worker(self) -> None:
        self._wake.set()

    def _serve(self) -> None:
        """The scheduler loop: retire, admit, then one decode step for every
        active sequence; idle, it blocks until a submit or close wakes it."""
        while not self._expired():
            self._retire()
            self._admit()
            if self._active:
                self._decode_step()
                continue
            # Read closing first: what close() let in is already queued.
            closing = self._closing()
            if not self._pending:
                if closing:
                    return
                self._wake.wait()
                self._wake.clear()

    def _shed(self, sequence: _Sequence, now: float, where: str) -> bool:
        """Finish ``sequence`` if :meth:`_shed_error` sheds it."""
        error = self._shed_error(sequence.stream.future, sequence.submitted,
                                 sequence.deadline_ms, now, where)
        if error is not None:
            self._finish(sequence, error=error)
        return error is not None

    def _retire(self) -> None:
        """Before a decode step: shed active sequences."""
        now = time.monotonic()
        for sequence in list(self._active):
            self._shed(sequence, now, "mid-generation")

    def _admit(self) -> None:
        admitted = []
        while len(self._active) + len(admitted) < self.config.max_active:
            try:
                sequence = self._pending.popleft()
            except IndexError:
                break
            if self._shed(sequence, time.monotonic(), "while queued for admission"):
                continue
            if not self.cache.can_reserve(sequence.max_new_tokens):
                # Pool momentarily full: put it back in front and stop
                # admitting; a retirement will free blocks. (Reservation is
                # worst-case, so this is the only place a sequence waits.)
                self._pending.appendleft(sequence)
                break
            # Reserve now so the can_reserve check above stays truthful for
            # the rest of this admission round.
            self.cache.reserve(sequence.seq_id, sequence.max_new_tokens)
            admitted.append(sequence)
        if admitted:
            self._prefill_batch(admitted)

    def _prefill_batch(self, sequences: List[_Sequence]) -> None:
        """Encode newly admitted sequences, batching same-length sources.

        One encoder pass per source-length group instead of one per
        sequence: under short-request churn admission happens every few
        decode steps, and per-sequence batch-1 encodes were a measurable
        scheduler tax."""
        started = time.monotonic()
        groups: Dict[int, List[_Sequence]] = {}
        for sequence in sequences:
            groups.setdefault(sequence.src_length, []).append(sequence)
        # Active before any prefill runs, so a prefill that kills the
        # scheduler leaves them (and their blocks) to the abort-all.
        for group in groups.values():
            self._active.extend(group)
        self._batch_mkv = None  # composition changed
        for group in groups.values():
            group_started = time.monotonic()
            _, memory_kv = self.root.prefill(np.stack([s.src for s in group]))
            prefill_ms = (time.monotonic() - group_started) * 1e3
            for row, sequence in enumerate(group):
                sequence.admitted_at = group_started
                # Row slices of the batched projection: bit-identical to a
                # solo prefill (the per-slice GEMM shapes don't depend on
                # how many sequences were encoded together).
                sequence.memory_kv = tuple(
                    (k[row:row + 1], v[row:row + 1]) for k, v in memory_kv)
                sequence.token = self.bos_index
                sequence.position = 0
                sequence.prefill_ms = prefill_ms
        tracer = observability.active_tracer()
        if tracer is not None and tracer.armed:
            tracer.add_event("prefill", started, time.monotonic() - started,
                             args={"server": self.name,
                                   "sequences": len(sequences)})

    def _assemble_memory(self):
        """Batched cross-attention K/V + padding mask for the active set;
        cached until the batch composition changes."""
        if self._batch_mkv is not None:
            return self._batch_mkv, self._batch_mmask
        lengths = [s.src_length for s in self._active]
        max_len = max(lengths)
        layers = len(self.root.decoder_layers)
        batched = []
        for layer in range(layers):
            shape = (len(self._active), self.cache.num_heads, max_len,
                     self.cache.head_dim)
            k = np.zeros(shape, dtype=self._dtype)
            v = np.zeros(shape, dtype=self._dtype)
            for row, sequence in enumerate(self._active):
                k_seq, v_seq = sequence.memory_kv[layer]
                k[row, :, :sequence.src_length, :] = k_seq[0]
                v[row, :, :sequence.src_length, :] = v_seq[0]
            batched.append((k, v))
        self._batch_mkv = tuple(batched)
        self._batch_mmask = _padding_mask(lengths, self._dtype)
        return self._batch_mkv, self._batch_mmask

    def _decode_step(self) -> None:
        started = time.monotonic()
        batch = list(self._active)
        seq_ids = [s.seq_id for s in batch]
        positions = np.array([s.position for s in batch], dtype=np.int64)
        tokens = np.array([s.token for s in batch], dtype=np.int64)
        step_cache = self.cache.step(seq_ids)
        self_mask = _padding_mask(step_cache.lengths, self._dtype)
        memory_kv, memory_mask = self._assemble_memory()
        logits = self.root.decode_step(tokens, positions, step_cache, memory_kv,
                                       self_mask=self_mask,
                                       memory_mask=memory_mask)
        next_tokens = logits.argmax(axis=-1)
        now = time.monotonic()
        step_ms = (now - started) * 1e3
        emitted = 0
        first_token_ttfts = []
        for sequence, token in zip(batch, next_tokens):
            token = int(token)
            sequence.generated.append(token)
            sequence.steps += 1
            sequence.position += 1
            sequence.token = token
            emitted += 1
            if sequence.first_token_at is None:
                sequence.first_token_at = now
                ttft_ms = (now - sequence.submitted) * 1e3
                first_token_ttfts.append(ttft_ms)
                with self._stats_lock:
                    self._ttft_hist.observe(ttft_ms)
            sequence.stream._emit(token)
            if token == self.eos_index:
                self._finish(sequence, self._result(sequence, "eos"))
            elif len(sequence.generated) >= sequence.max_new_tokens:
                self._finish(sequence, self._result(sequence, "length"))
        with self._stats_lock:
            self._steps += 1
            self._step_batch_total += len(batch)
            self._tokens += emitted
            if self._first_token_at is None:
                self._first_token_at = now
            self._last_token_at = now
            self._step_hist.observe(step_ms)
        self._observe_step(len(batch), step_ms, started, first_token_ttfts)

    # ------------------------------ completion ------------------------ #
    def _result(self, sequence: _Sequence, reason: str) -> GenerationResult:
        now = time.monotonic()
        ttft = (sequence.first_token_at or now) - sequence.submitted
        return GenerationResult(
            tokens=np.array([self.bos_index] + sequence.generated, dtype=np.int64),
            timing=GenerationTiming(
                queue_ms=(sequence.admitted_at - sequence.submitted) * 1e3,
                prefill_ms=sequence.prefill_ms,
                ttft_ms=ttft * 1e3,
                total_ms=(now - sequence.submitted) * 1e3,
                steps=sequence.steps,
                finish_reason=reason,
            ))

    def _finish(self, sequence: _Sequence,
                result: Optional[GenerationResult] = None,
                error: Optional[BaseException] = None) -> None:
        """The one way a sequence leaves the server: free its blocks,
        :meth:`_resolve` its future, close its stream."""
        if sequence in self._active:
            self._active.remove(sequence)
            self._batch_mkv = None
        self.cache.release(sequence.seq_id)
        self._resolve(sequence.stream.future, result, error)
        sequence.stream._close()

    def _abort_all(self, error: BaseException) -> None:
        """Finish every held sequence with ``error`` (the lifecycle's abort)."""
        for sequence in list(self._active):
            self._finish(sequence, error=error)
        while self._pending:  # nothing is appended once the loop has ended
            self._finish(self._pending.popleft(), error=error)

    # ------------------------------ observability --------------------- #
    def _observe_step(self, batch: int, step_ms: float, started: float,
                      first_token_ttfts: Sequence[float]) -> None:
        if not observability.enabled():
            return
        tokens, steps, step_hist, ttft_hist, active, blocks = self._metrics()
        tokens.inc(batch)
        steps.inc()
        step_hist.observe(step_ms)
        active.set(len(self._active))
        blocks.set(self.cache.total_blocks - self.cache.free_blocks)
        for ttft_ms in first_token_ttfts:
            ttft_hist.observe(ttft_ms)
        tracer = observability.active_tracer()
        if tracer is not None and tracer.armed:
            tracer.add_event(
                "decode_step", started, step_ms / 1e3,
                args={"server": self.name, "batch": batch,
                      "cache_blocks_used":
                          self.cache.total_blocks - self.cache.free_blocks})

    # ------------------------------ stats ----------------------------- #
    def stats(self) -> GenerationStats:
        outcomes = self._outcomes()
        with self._stats_lock:
            ttft = self._ttft_hist.percentiles()
            step = self._step_hist.percentiles()
            window = None
            if self._first_token_at is not None and self._last_token_at is not None:
                window = self._last_token_at - self._first_token_at
            return GenerationStats(
                **outcomes,
                tokens_generated=self._tokens,
                decode_steps=self._steps,
                mean_batch_per_step=(self._step_batch_total / self._steps
                                     if self._steps else 0.0),
                tokens_per_second=(self._tokens / window
                                   if window else float("nan")),
                ttft_ms_p50=ttft[0], ttft_ms_p95=ttft[1], ttft_ms_p99=ttft[2],
                step_ms_p50=step[0], step_ms_p95=step[1], step_ms_p99=step[2],
                active_sequences=len(self._active),
                pending_sequences=len(self._pending),
                cache=self.cache.stats().as_dict(),
            )
