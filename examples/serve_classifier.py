"""Serving quickstart: train a quantized classifier, freeze it, serve traffic.

Walks the full inference lifecycle the `repro.serving` subsystem provides:

1. train a small CNN classifier under 4-bit BFP quantization,
2. **freeze** it -- weights quantized once into packed BFP artifacts,
   training-only branches stripped, bit-identical eval-mode logits,
3. save/load the frozen model through the compact `.npz` checkpoint format,
4. serve it through an `InferenceServer` with dynamic micro-batching and
   compare one-at-a-time submission against concurrent submission,
5. (with `--workers N`) scale out: serve the same checkpoint through a
   `ShardedServer` of N worker processes with shared-memory batch transport
   and open-loop Poisson traffic,
6. (with `--trace out.json`) record the whole serving run through the
   observability layer: sampled per-request span timelines exported as
   Chrome trace-event JSON (open in Perfetto / chrome://tracing) plus a
   Prometheus-style metrics summary.

Run with:  PYTHONPATH=src python examples/serve_classifier.py \
               [--workers N] [--trace out.json]
"""

import argparse
import time

import numpy as np

from repro import nn, observability, serving
from repro.core import BFPConfig
from repro.data import DataLoader, SyntheticImageDataset
from repro.nn.quantized import QuantizedConv2d, QuantizedLinear
from repro.training import ClassificationTrainer
from repro.training.schedules import FixedBFPSchedule


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def build_model(rng) -> nn.Module:
    return nn.Sequential(
        QuantizedConv2d(3, 16, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        QuantizedConv2d(16, 32, 3, padding=1, rng=rng),
        nn.ReLU(), nn.MaxPool2d(2),
        nn.Flatten(),
        QuantizedLinear(32 * 8 * 8, 4, rng=rng),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=0,
                        help="also serve through a ShardedServer of N worker "
                             "processes (0 = in-process serving only)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="enable the observability layer and export the "
                             "serving run as Chrome trace-event JSON to PATH "
                             "(viewable in Perfetto / chrome://tracing)")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    if args.trace:
        # Trace every request: the demo serves ~a hundred requests, so a
        # full sample still yields a small, viewer-friendly file.
        observability.set_enabled(True, sample_rate=1.0)

    section("1. Train a quantized classifier")
    dataset = SyntheticImageDataset(num_samples=192, num_classes=4, image_size=32, seed=1)
    model = build_model(rng)
    # Paper-standard 8-bit exponent window: quantization is batch-invariant,
    # which is what a batching server wants.
    schedule = FixedBFPSchedule(4, config=BFPConfig(exponent_bits=8, group_size=16), seed=0)
    trainer = ClassificationTrainer(model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
                                    schedule)
    result = trainer.fit(DataLoader(dataset, batch_size=32, seed=0), epochs=2)
    print(f"  trained 2 epochs, final train accuracy {result.train_metric_history[-1]:.1f}%")

    section("2. Freeze: one-time weight quantization")
    model.eval()
    frozen = serving.freeze(model)
    report = frozen.storage_report()
    print(f"  frozen {report['total_values']} parameters; "
          f"{report['total_bytes'] / 1024:.1f} KiB under the chunked BFP layout "
          f"({report['compression_vs_fp32']:.2f}x vs FP32)")
    probe = rng.standard_normal((8, 3, 32, 32))
    with nn.no_grad():
        live_logits = model(probe).data
    print(f"  frozen logits bit-identical to live eval model: "
          f"{np.array_equal(frozen.predict(probe), live_logits)}")

    section("3. Checkpoint round trip")
    path = serving.save_frozen(frozen, "/tmp/repro_serving_demo.npz")
    reloaded = serving.load_frozen(path)
    print(f"  saved {path}, reload bit-identical: "
          f"{np.array_equal(reloaded.predict(probe), live_logits)}")

    section("4. Serve with dynamic micro-batching")
    # float32 serving: BFP grid values are exact in float32, only the
    # accumulations run at single precision.
    reloaded.cast(np.float32)
    engine = serving.InferenceEngine(reloaded)
    engine.warmup(probe[:1].astype(np.float32))
    requests = rng.standard_normal((64, 3, 32, 32)).astype(np.float32)

    with serving.InferenceServer(engine,
                                 serving.BatchingConfig(max_batch_size=1)) as server:
        start = time.perf_counter()
        for request in requests:
            server.predict(request)
        single_wall = time.perf_counter() - start
    print(f"  one-at-a-time: {len(requests) / single_wall:.0f} req/s")

    config = serving.BatchingConfig(max_batch_size=32, max_delay_ms=2.0)
    with serving.InferenceServer(engine, config) as server:
        start = time.perf_counter()
        futures = [server.submit(request) for request in requests]
        results = [future.result() for future in futures]
        batched_wall = time.perf_counter() - start
        stats = server.stats()
    print(f"  batched:       {len(requests) / batched_wall:.0f} req/s "
          f"({single_wall / batched_wall:.1f}x), mean batch "
          f"{stats.mean_batch_size:.1f}, p50 latency {stats.latency_ms_p50:.2f} ms")
    example = results[0]
    print(f"  per-request accounting: queue {example.timing.queue_ms:.2f} ms + "
          f"compute {example.timing.compute_ms:.2f} ms in a batch of "
          f"{example.timing.batch_size}")

    if args.workers > 0:
        section(f"5. Scale out: {args.workers} worker process(es)")
        specs = [serving.WorkerSpec(
                     checkpoint=str(path), model="classifier",
                     warmup_shapes=((1, 3, 32, 32), (32, 3, 32, 32)),
                     warmup_dtype="float32", cast_dtype="float32")
                 for _ in range(args.workers)]
        start = time.perf_counter()
        with serving.ShardedServer(specs, serving.ClusterConfig(batching=config)) as cluster:
            print(f"  {args.workers} worker(s) spawned, warmed, and serving in "
                  f"{time.perf_counter() - start:.2f}s")
            sample = cluster.predict(requests[0], timeout=60)
            print(f"  sharded output matches in-process serving: "
                  f"{np.array_equal(sample.output, results[0].output)}")
            mix = (serving.FamilyLoad(payloads=tuple(requests),
                                      model="classifier"),)
            report = serving.OpenLoopGenerator(
                cluster.submit, mix, qps=300.0, duration_s=2.0, seed=7).run()
            stats = cluster.stats()
        print(f"  open-loop Poisson traffic at {report.offered_qps:.0f} qps: "
              f"goodput {report.goodput_rps:.0f} req/s, p50 "
              f"{report.latency_ms_p50:.1f} ms, p99 {report.latency_ms_p99:.1f} ms")
        print(f"  per-shard requests: {[s.requests for s in stats.shards]}; "
              "batches crossed the process boundary through shared-memory rings")

    if args.trace:
        section("Trace export")
        tracer = observability.tracer()
        trace_path = tracer.export(args.trace)
        registry = observability.registry()
        requests_served = sum(
            metric["value"] for metric in registry.snapshot()["metrics"]
            if metric["name"] == "serving_requests_total")
        print(f"  {len(tracer)} span(s) -> {trace_path} "
              "(open in Perfetto or chrome://tracing)")
        print(f"  metrics registry counted {requests_served:.0f} served "
              f"request(s); Prometheus exposition spans "
              f"{len(registry.render_prometheus().splitlines())} lines")
        observability.set_enabled(False)


if __name__ == "__main__":
    main()
