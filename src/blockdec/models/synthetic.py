"""Seeded table models with controllable proposal quality.

These models draw per-context logits from a counter-based RNG keyed on the
full conditioning sequence, so scoring is deterministic, order-independent,
and cheap. Three kinds cover the interesting regimes:

  random_table       every head is an independent random distribution, so
                     accepted block sizes land strictly between the extremes
  perfect_proposals  heads 2..k always propose exactly what greedy decoding
                     would produce, so every block is accepted in full
  adversarial        heads 2..k always propose a wrong token, so exact
                     verification accepts exactly one token per iteration

All kinds share the same base head (head 1) distribution for a given seed,
which makes their greedy outputs identical and isolates proposal quality as
the only variable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import TableBackedModel, log_softmax

SYNTHETIC_KINDS = ("random_table", "perfect_proposals", "adversarial")

# fixed salts keep the base-table stream and the extra-head stream disjoint
_SALT_BASE = 101
_SALT_HEADS = 202
_SALT_SPLIT = 9999


class SyntheticTableModel(TableBackedModel):
    intensity_vocab = True
    max_context = None

    def __init__(self, kind: str, seed: int, vocab_size: int, num_heads: int):
        if kind not in SYNTHETIC_KINDS:
            raise ConfigurationError(f"unknown synthetic model kind {kind!r}")
        if vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        if num_heads < 1:
            raise ConfigurationError("num_heads must be >= 1")
        if seed < 0:
            raise ConfigurationError("seed must be non-negative")
        self.kind = kind
        self.seed = int(seed)
        self.vocab_size = int(vocab_size)
        self.num_heads = int(num_heads)
        self._row_cache: dict = {}
        self._greedy_cache: dict = {}

    def _raw_logits(self, salt: int, input_tokens, context, shape) -> np.ndarray:
        entropy = [self.seed, salt, len(input_tokens), *input_tokens, _SALT_SPLIT, *context]
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return rng.normal(size=shape)

    def _base_logits(self, input_tokens, context) -> np.ndarray:
        return self._raw_logits(_SALT_BASE, input_tokens, context, self.vocab_size)

    def _greedy_next(self, input_tokens, context) -> int:
        """Token greedy decoding would produce after `context`."""
        key = (input_tokens, context)
        if key not in self._greedy_cache:
            self._greedy_cache[key] = int(np.argmax(self._base_logits(*key)))
        return self._greedy_cache[key]

    def _greedy_rollout(self, input_tokens, context, steps: int) -> list:
        tokens = []
        ctx = context
        for _ in range(steps):
            t = self._greedy_next(input_tokens, ctx)
            tokens.append(t)
            ctx = ctx + (t,)
        return tokens

    def head_logprobs(self, input_tokens, context) -> np.ndarray:
        key = (input_tokens, context)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        logits = np.empty((self.num_heads, self.vocab_size))
        logits[0] = self._base_logits(input_tokens, context)
        if self.num_heads > 1:
            extra = self._raw_logits(
                _SALT_HEADS, input_tokens, context, (self.num_heads - 1, self.vocab_size)
            )
            if self.kind == "random_table":
                logits[1:] = extra
            else:
                rollout = self._greedy_rollout(input_tokens, context, self.num_heads)
                for h in range(1, self.num_heads):
                    target = rollout[h]
                    if self.kind == "adversarial":
                        target = (target + 1) % self.vocab_size
                    row = extra[h - 1].copy()
                    row[target] = row.max() + 1.0
                    logits[h] = row
        table = log_softmax(logits)
        self._row_cache[key] = table
        return table


def make_synthetic_model(
    kind: str, seed: int, vocab_size: int = 16, num_heads: int = 8
) -> SyntheticTableModel:
    """Build a seeded table model of the given kind.

    Same arguments always yield a model with identical score tables, so
    tests and benchmarks can regenerate models instead of storing them.
    """
    return SyntheticTableModel(kind, seed, vocab_size, num_heads)
