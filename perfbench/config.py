"""Fixed parameters of every benchmark workload.

Every rate, size, cap and step count is an absolute number written here.
Nothing is scaled from a capacity probe taken during a run: a faster commit
is offered exactly the same work as a slower one.  Only ``--seed`` changes
the generated inputs, and only ``--seconds`` stretches the timed windows
(proportionally, from the ``RUN_SECONDS`` they are written for).

Each run executes three phases, in this order:

``train``
    ``train_fast_cnn``: a closed loop of FAST-Adaptive training steps.
``serve``
    ``serve_cnn_sharded``: an open Poisson loop into a one-worker
    ``ShardedServer`` at a fixed rate, then bursts of requests.
``gen``
    ``generate_mixed``: an open Poisson loop into a ``GenerationServer`` at
    a fixed rate, then an offline batch submitted all at once.

The workloads named in ``BENCHMARK.json`` differ only in the generation
request mix; the train and serve phases are identical in both, so they
also act as each other's control.
"""

#: Timed seconds one run is written for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 50

#: Model weights are part of the program under test, so they are the same
#: on every run; ``--seed`` draws only the inputs (data, labels, prompts,
#: payloads, arrival times, request mix) and the rounding noise.
MODEL_SEED = 11

#: ``train_fast_cnn``: the two-conv + linear CNN of the train-step
#: benchmark, FAST-Adaptive with pooled stochastic gradient rounding.
TRAIN = {
    "conv_channels": (32, 64),
    "image_size": 32,
    "num_classes": 10,
    "batch_size": 32,
    "epochs": 2,
    "steps_per_epoch": 50,
    "data_noise": 2.0,
    # Share of training labels replaced by random ones.  The clean share is
    # learnable and the rest cannot be fitted in two passes, so the
    # final-epoch loss sits on a plateau instead of collapsing towards 0.
    "label_noise": 0.4,
    "lr": 0.01,
    "momentum": 0.9,
    "low_bits": 2,
    "high_bits": 4,
    "group_size": 16,
    "exponent_bits": 8,
    "evaluation_interval": 4,
}

#: ``serve_cnn_sharded``: a frozen 4-bit float32 CNN behind one worker.
SERVE = {
    "conv_channels": (16, 32),
    "image_size": 32,
    "num_classes": 10,
    "mantissa_bits": 4,
    "group_size": 16,
    "exponent_bits": 8,
    "max_batch_size": 32,
    "max_delay_ms": 2.0,
    "payloads": 64,
    # The fixed-rate latency windows (printed, and the traced run's
    # per-layer figures): rate_windows windows of rate_seconds, each long
    # enough (~210 requests) for a p95 with ten samples beyond it; each
    # figure is the median over windows.
    "rate_qps": 300.0,
    "rate_windows": 5,
    "rate_seconds": 0.7,
    # Open-loop traffic at the fixed rate that ends the set-up, so the
    # measured windows start on a warm worker and front end.
    "warmup_seconds": 0.3,
    # Throughput: burst_requests submitted at once, burst_repeats times;
    # the median delivered rate counts.
    "burst_requests": 1200,
    "burst_repeats": 3,
    # Rows whose sharded outputs are compared with a local engine.
    "check_rows": 16,
}

_GEN_COMMON = {
    "vocab_size": 50,
    "max_length": 48,
    "mantissa_bits": 4,
    "group_size": 16,
    "exponent_bits": 8,
    "max_active": 8,
    "kv_mantissa_bits": 4,
    "prompts": 64,
    # As for serving, the median over windows; at this rate a window holds
    # ~105 sequences, enough for a p90 with ten samples beyond it.
    "rate_qps": 45.0,
    "rate_windows": 6,
    "rate_seconds": 2.3,
    # offline_repeats batches, each submitted at once; the median counts.
    "offline_batch": 160,
    "offline_repeats": 3,
    # Sequences re-decoded alone and compared token for token.
    "check_sequences": 8,
}

#: Per workload: the generation request mix.  ``source_lengths`` is the
#: inclusive range prompts are drawn from; ``caps`` maps max_new_tokens to
#: its weight in the stream.  Both mixes average 16 output tokens.
WORKLOADS = {
    "mixed_lengths": {
        "gen": dict(_GEN_COMMON, source_lengths=(6, 16), caps={4: 2.0, 40: 1.0}),
    },
    "uniform_lengths": {
        "gen": dict(_GEN_COMMON, source_lengths=(11, 11), caps={16: 1.0}),
    },
}

#: A run whose load generator fell further behind its schedule than this is
#: invalid: the offered load was not the configured one.
SLIP_LIMIT_MS = 100.0

# Why BENCHMARK.json declares only set-up, memory and training metrics:
# on the 2-CPU virtual machine the benchmark was built on, single-thread
# speed toggled by ~45% in episodes of 0.5-2 s, and between whole runs the
# serving and generation phases ran up to 1.8x apart (offline tokens/s
# 1652-3091, burst requests/s 846-1574 within one set of ten runs), while
# training stayed within 0.15 (IQR/median).  The serving and generation
# figures are still measured, checked and printed every run, and their
# layers are measured by the traced run, but none is a gated metric.

#: Set-up of each phase is repeated this many times; setup_s sums the
#: per-phase medians.
SETUP_REPEATS = 3
