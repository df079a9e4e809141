"""Serve a trained seq2seq Transformer with continuous batching.

Trains a small Transformer on the synthetic reverse-and-shift task under
the FAST quantization schedule, freezes it (weights packed to BFP once),
then serves generation three ways:

1. **Streaming** -- tokens arrive one decode step at a time, not when the
   whole sequence finishes.
2. **Concurrent** -- many requests in flight; the scheduler admits and
   retires sequences per decode step (continuous batching), so short
   requests never wait for long ones sharing a batch.
3. **Quantized KV cache** -- the same server with the per-sequence K/V
   cache stored on the BFP grid (``kv_mantissa_bits=4``): ~5x less cache
   memory for a bounded logit divergence.

Run with:  python examples/generate_text.py [--epochs 4]
"""

import argparse
import time

import numpy as np

from repro import nn, serving
from repro.data import SyntheticTranslationDataset
from repro.models import transformer_small
from repro.training import FASTSchedule, Seq2SeqTrainer


def decode_tokens(tokens, dataset):
    return [int(t) for t in tokens
            if t not in (dataset.pad_index, dataset.bos_index, dataset.eos_index)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = SyntheticTranslationDataset(num_samples=args.samples, vocab_size=16,
                                          min_length=3, max_length=6, seed=args.seed)
    train, validation = dataset.split(0.85)

    print(f"Training transformer_small on reverse-and-shift "
          f"({len(train)} pairs, {args.epochs} epochs, FAST schedule)...")
    model = transformer_small(vocab_size=dataset.vocab_size,
                              max_length=dataset.sequence_length,
                              rng=np.random.default_rng(args.seed))
    optimizer = nn.Adam(model.parameters(), lr=3e-3)
    trainer = Seq2SeqTrainer(model, optimizer, FASTSchedule(evaluation_interval=8),
                             pad_index=dataset.pad_index)
    trainer.fit(train, validation, epochs=args.epochs, batch_size=16)

    frozen = serving.freeze(model, meta={"bos_index": dataset.bos_index,
                                         "eos_index": dataset.eos_index})

    # --- 1. Streaming: tokens as the scheduler emits them ------------------
    print("\n--- streaming generation ---")
    with serving.GenerationServer(frozen) as server:
        for source in validation.sources[:3]:
            src = np.asarray([t for t in source if t != dataset.pad_index])
            emitted = []
            stream = server.stream(src, max_new_tokens=dataset.sequence_length)
            for token in stream:
                emitted.append(int(token))
            result = stream.result()
            print(f"  src={list(map(int, src))}  ->  "
                  f"hyp={decode_tokens(emitted, dataset)}  "
                  f"(ttft {result.timing.ttft_ms:.1f} ms, "
                  f"{result.timing.steps} steps, {result.timing.finish_reason})")

        # --- 2. Concurrent requests share decode steps ---------------------
        print("\n--- continuous batching: 12 concurrent requests ---")
        started = time.monotonic()
        futures = []
        for source in (list(validation.sources) * 3)[:12]:
            src = np.asarray([t for t in source if t != dataset.pad_index])
            futures.append(server.submit(src, max_new_tokens=dataset.sequence_length))
        results = [f.result(timeout=120) for f in futures]
        wall_ms = (time.monotonic() - started) * 1e3
        stats = server.stats()
        tokens = sum(r.timing.steps for r in results)
        print(f"  {len(results)} sequences, {tokens} tokens in {wall_ms:.0f} ms "
              f"({tokens / wall_ms * 1e3:.0f} tok/s)")
        print(f"  mean batch per decode step: {stats.mean_batch_per_step:.1f} "
              f"(max_active={server.config.max_active})")

    # --- 3. Quantized KV cache: paper-format cache memory ------------------
    print("\n--- BFP-quantized KV cache (kv_mantissa_bits=4) ---")
    config = serving.GenerationConfig(kv_mantissa_bits=4)
    with serving.GenerationServer(frozen, config) as server:
        src = np.asarray([t for t in validation.sources[0]
                          if t != dataset.pad_index])
        result = server.generate(src, max_new_tokens=dataset.sequence_length)
        cache = server.stats().cache
        print(f"  hyp={decode_tokens(result.tokens, dataset)} "
              f"({result.timing.finish_reason})")
        print(f"  cache format: {cache['compression_vs_fp32']:.1f}x smaller "
              f"than an fp32 cache per token")


if __name__ == "__main__":
    main()
