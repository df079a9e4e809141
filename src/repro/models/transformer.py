"""Encoder-decoder Transformer for sequence-to-sequence transduction.

The paper trains a 12-layer, 12-head, 768-dim Transformer on IWSLT14
German-English.  This implementation is architecture-faithful (token
embeddings + sinusoidal positions, pre-norm encoder/decoder stacks,
multi-head attention, tied output projection optional) but defaults to a
small configuration that learns the synthetic transduction task of
:mod:`repro.data.translation` in seconds on a CPU.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import nn
from ..nn.attention import TransformerDecoderLayer, TransformerEncoderLayer, causal_mask, positional_encoding
from ..nn.quantized import QuantizedLinear

__all__ = ["Seq2SeqTransformer", "greedy_tokens", "transformer_small", "transformer_base"]


class Seq2SeqTransformer(nn.Module):
    """Encoder-decoder Transformer producing per-position vocabulary logits."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int = 64,
        num_heads: int = 4,
        num_encoder_layers: int = 2,
        num_decoder_layers: int = 2,
        hidden_dim: Optional[int] = None,
        max_length: int = 64,
        dropout: float = 0.0,
        pad_index: int = 0,
        rng=None,
    ):
        super().__init__()
        hidden_dim = hidden_dim if hidden_dim is not None else embed_dim * 4
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.pad_index = pad_index
        self.max_length = max_length
        self.embedding = nn.Embedding(vocab_size, embed_dim, rng=rng)
        # A buffer (not a plain attribute) so Module.to() casts it with the
        # rest of the model state and checkpoints carry it.
        self.register_buffer("positional", positional_encoding(max_length, embed_dim))
        self.encoder_layers = nn.ModuleList(
            TransformerEncoderLayer(embed_dim, num_heads, hidden_dim, dropout, rng=rng)
            for _ in range(num_encoder_layers)
        )
        self.decoder_layers = nn.ModuleList(
            TransformerDecoderLayer(embed_dim, num_heads, hidden_dim, dropout, rng=rng)
            for _ in range(num_decoder_layers)
        )
        self.encoder_norm = nn.LayerNorm(embed_dim)
        self.decoder_norm = nn.LayerNorm(embed_dim)
        self.output_projection = QuantizedLinear(embed_dim, vocab_size, rng=rng)

    # ------------------------------------------------------------------ #
    def _embed(self, tokens: np.ndarray) -> nn.Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        length = tokens.shape[1]
        if length > self.max_length:
            raise ValueError(f"sequence length {length} exceeds max_length {self.max_length}")
        embedded = self.embedding(tokens) * np.sqrt(self.embed_dim)
        # The positional buffer is cast by Module.to(); the explicit dtype is
        # a no-copy no-op then, and guards inputs cast without the model.
        return embedded + nn.Tensor(self.positional[:length], dtype=embedded.data.dtype)

    def encode(self, src_tokens: np.ndarray) -> nn.Tensor:
        """Run the encoder stack over source tokens (batch, src_len)."""
        x = self._embed(src_tokens)
        for layer in self.encoder_layers:
            x = layer(x)
        return self.encoder_norm(x)

    def decode(self, tgt_tokens: np.ndarray, memory: nn.Tensor) -> nn.Tensor:
        """Run the decoder stack with a causal self-attention mask."""
        x = self._embed(tgt_tokens)
        mask = causal_mask(np.asarray(tgt_tokens).shape[1])
        for layer in self.decoder_layers:
            x = layer(x, memory, self_mask=mask)
        return self.decoder_norm(x)

    def forward(self, src_tokens: np.ndarray, tgt_tokens: np.ndarray) -> nn.Tensor:
        """Teacher-forced logits of shape (batch, tgt_len, vocab)."""
        memory = self.encode(src_tokens)
        decoded = self.decode(tgt_tokens, memory)
        return self.output_projection(decoded)

    def greedy_decode(self, src_tokens: np.ndarray, bos_index: int, eos_index: int,
                      max_length: Optional[int] = None) -> np.ndarray:
        """Greedy autoregressive decoding; returns generated token ids.

        Always runs in eval mode (training-only branches such as dropout are
        disabled for the duration of the decode) and restores the previous
        mode on exit, so generation is deterministic regardless of the
        caller's training state.
        """
        max_length = max_length if max_length is not None else self.max_length
        src_tokens = np.asarray(src_tokens, dtype=np.int64)
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                memory = self.encode(src_tokens)

                def next_logits(generated):
                    return self.output_projection(self.decode(generated, memory)).data[:, -1, :]

                return greedy_tokens(next_logits, src_tokens.shape[0], bos_index, eos_index,
                                     self.pad_index, max_length)
        finally:
            self.train(was_training)


def greedy_tokens(next_logits: Callable[[np.ndarray], np.ndarray], batch: int, bos: int,
                  eos: int, pad: int, max_length: int) -> np.ndarray:
    """The greedy loop every decoder shares: from ``bos``, append the argmax
    of ``next_logits(generated)`` -- the (batch, vocab) logits after the
    (batch, steps) prefix -- until every row has emitted ``eos`` or holds
    ``max_length`` tokens; finished rows are padded with ``pad``."""
    generated = np.full((batch, 1), bos, dtype=np.int64)
    finished = np.zeros(batch, dtype=bool)
    for _ in range(max_length - 1):
        next_tokens = np.where(finished, pad, next_logits(generated).argmax(axis=-1))
        generated = np.concatenate([generated, next_tokens[:, None]], axis=1)
        finished = finished | (next_tokens == eos)
        if finished.all():
            break
    return generated


def transformer_small(vocab_size: int, max_length: int = 32, rng=None) -> Seq2SeqTransformer:
    """A small configuration used by tests and quick benchmarks."""
    return Seq2SeqTransformer(vocab_size, embed_dim=32, num_heads=2, num_encoder_layers=2,
                              num_decoder_layers=2, max_length=max_length, rng=rng)


def transformer_base(vocab_size: int, max_length: int = 64, rng=None) -> Seq2SeqTransformer:
    """A deeper configuration closer to the paper's 12-layer model shape."""
    return Seq2SeqTransformer(vocab_size, embed_dim=64, num_heads=4, num_encoder_layers=4,
                              num_decoder_layers=4, max_length=max_length, rng=rng)
