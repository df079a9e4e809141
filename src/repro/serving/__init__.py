"""Quantized inference serving: frozen BFP exports + a fault-tolerant server.

The training side of this repository simulates FAST's quantized training;
this package is the inference side.  A trained model is *frozen* -- weights
quantized once into packed BFP artifacts, training-only branches stripped,
every forward replaced by a grad-free NumPy replica that is bit-identical to
the live model in eval mode -- then served through an engine with latency
accounting and an in-process request server that coalesces concurrent
requests into batches.

Typical flow::

    from repro import serving

    frozen = serving.freeze(model)                      # quantize once
    serving.save_frozen(frozen, "model.npz")            # compact checkpoint
    frozen = serving.load_frozen("model.npz")           # bit-identical reload

    engine = serving.InferenceEngine(frozen)
    engine.warmup(example_batch)                        # prime index/layout caches
    with serving.InferenceServer(engine) as server:
        future = server.submit(image)                   # async
        result = server.predict(image)                  # sync
        print(result.timing.total_ms, server.stats())

Fault-tolerance semantics (the robustness layer):

* **Deadlines** -- ``submit(request, deadline_ms=50)`` bounds a request's
  time in the server.  Expired requests are shed *before* batch assembly
  (no engine time wasted) and their futures raise ``DeadlineExceeded``;
  shed counts appear in ``stats().shed_deadline``.
* **Admission control** -- one gate (``server.AdmissionGate``) behind all
  three front ends: ``max_queue_depth=N`` on ``BatchingConfig``,
  ``ClusterConfig`` (cluster-wide) or ``GenerationConfig`` bounds
  unresolved requests.  ``admission_policy="reject"`` raises
  ``ServerOverloaded`` at capacity; ``"block"`` waits up to
  ``block_timeout_ms`` first.  A request's unit of capacity returns when
  its future resolves, cancellation included, and ``stats().rejected``
  counts every refusal.  ``shed_watermark`` sheds expired work
  proactively (oldest first) when the backlog grows past it.
* **Poison isolation** -- payloads are validated at submit time
  (``InvalidRequest``); a failed multi-request batch is bisected and the
  halves re-enqueued separately, so healthy requests sharing a batch with a
  poison request still complete and only the offender fails (after a
  bounded number of backoff retries, reported in ``timing.retries``).
* **Engine supervision** -- an ``EngineCrash`` degrades the server, fails
  the in-flight batch descriptively, and triggers bounded
  ``engine.rewarm()`` restarts; when the budget is exhausted the server
  refuses new work (``ServerUnavailable``) and resolves everything pending.
* **One lifecycle** -- every front end runs on ``server.LifecycleServer``.
  A worker killed by an uncaught error fails every held future with
  ``ServerUnavailable`` carrying the traceback, which ``server.failure``
  holds and every ``close()`` raises.
* **Graceful drain** -- ``close(*, drain=True, timeout=10.0)`` stops
  admission; the worker finishes held work until ``timeout`` seconds out
  (``None``: no limit), then -- or at once with ``drain=False`` -- fails
  the rest with ``ServerClosed`` when its current call returns.  Leaving a
  ``with`` block is ``close()``.  No future ever leaks, on any path.

``serving.faults.FaultInjectingEngine`` injects deterministic latency
spikes, transient errors, hard crashes, NaN-poisoned outputs, hard worker
process death, and payload-triggered poison faults to prove all of the
above under test (``tests/serving/test_faults.py``) and under load
(``benchmarks/bench_perf_serving.py --quick``, degraded-mode section).

Scaling out (the sharded tier)::

    specs = [serving.WorkerSpec(checkpoint="model.npz", model="cnn",
                                warmup_shapes=((32, 3, 32, 32),))
             for _ in range(4)]
    with serving.ShardedServer(specs) as cluster:
        result = cluster.predict(image, model="cnn")

``ShardedServer`` shards requests across N **worker processes** (each a
warmed engine over the frozen checkpoint, batches crossing the process
boundary through shared-memory rings -- :mod:`repro.serving.transport`),
with every fault-tolerance semantic above applied per shard and dead
workers respawned, re-warmed, and routed around automatically.
:mod:`repro.serving.loadgen` provides the open-loop (Poisson-arrival)
traffic generator used to measure the scaling honestly.

Sequence generation (the continuous-batching tier)::

    frozen = serving.freeze(seq2seq_model, meta={"bos_index": 1, "eos_index": 2})
    with serving.GenerationServer(frozen) as server:
        result = server.generate(src_tokens, max_new_tokens=32)   # sync
        for token in server.stream(src_tokens):                   # streaming
            ...

``GenerationServer`` decodes autoregressively with a per-sequence KV cache
(bit-identical to full recompute when unquantized; BFP-packed via
``GenerationConfig(kv_mantissa_bits=...)``) and a per-decode-step
admit/retire scheduler: short sequences retire and new ones join mid-flight
instead of waiting for the longest member of a static batch.  The cache is
a preallocated block pool (``KVCacheManager``) with worst-case reservation
at admission, so a running sequence can never hit pool exhaustion.
``loadgen.GenerationLoadGenerator`` drives it open-loop for
tokens/sec-vs-streams and TTFT measurements.
"""

from .checkpoint import (
    CheckpointError,
    load_frozen,
    load_state,
    save_frozen,
    save_state,
)
from .cluster import (
    ClusterConfig,
    RemoteEngine,
    RemoteEngineError,
    ShardedServer,
    WorkerSpec,
    WorkerStartupError,
)
from .engine import EngineCrash, EngineStats, InferenceEngine
from .faults import FaultInjectingEngine, FaultPlan, TransientEngineError
from .generation import (
    CacheExhausted,
    CacheStats,
    GenerationConfig,
    GenerationResult,
    GenerationServer,
    GenerationStats,
    GenerationTiming,
    KVCacheManager,
    TokenStream,
)
from .loadgen import (
    FamilyLoad,
    GenerationLoadGenerator,
    GenerationLoadReport,
    LoadReport,
    OpenLoopGenerator,
    SequenceLoad,
    poisson_arrivals,
)
from .frozen import (
    FrozenModel,
    FrozenOp,
    freeze,
    freeze_module,
    frozen_op_types,
    register_freezer,
)
from .server import (
    BatchingConfig,
    DeadlineExceeded,
    InferenceResult,
    InferenceServer,
    InvalidRequest,
    NonFiniteOutput,
    RequestTiming,
    ServerClosed,
    ServerOverloaded,
    ServerStats,
    ServerUnavailable,
    ServingError,
    validate_payload,
)
from .transport import ShmRing, TransportError, attach_shared_memory

__all__ = [
    "freeze",
    "freeze_module",
    "register_freezer",
    "frozen_op_types",
    "FrozenModel",
    "FrozenOp",
    "save_state",
    "load_state",
    "save_frozen",
    "load_frozen",
    "CheckpointError",
    "InferenceEngine",
    "EngineCrash",
    "EngineStats",
    "InferenceServer",
    "BatchingConfig",
    "InferenceResult",
    "RequestTiming",
    "ServingError",
    "InvalidRequest",
    "DeadlineExceeded",
    "ServerOverloaded",
    "ServerClosed",
    "ServerUnavailable",
    "NonFiniteOutput",
    "ServerStats",
    "validate_payload",
    "FaultInjectingEngine",
    "FaultPlan",
    "TransientEngineError",
    "ShardedServer",
    "WorkerSpec",
    "ClusterConfig",
    "RemoteEngine",
    "RemoteEngineError",
    "WorkerStartupError",
    "ShmRing",
    "TransportError",
    "attach_shared_memory",
    "OpenLoopGenerator",
    "FamilyLoad",
    "LoadReport",
    "poisson_arrivals",
    "GenerationServer",
    "GenerationConfig",
    "GenerationResult",
    "GenerationTiming",
    "GenerationStats",
    "TokenStream",
    "KVCacheManager",
    "CacheStats",
    "CacheExhausted",
    "SequenceLoad",
    "GenerationLoadGenerator",
    "GenerationLoadReport",
]
