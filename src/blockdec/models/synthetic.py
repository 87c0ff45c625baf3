"""Seeded table models with controllable proposal quality.

These models draw per-context logits from a counter-based RNG keyed on the
full conditioning sequence, so scoring is deterministic, order-independent,
and cheap. A table row is one or two seeded draws: the base head's logits
and, with more than one head, the other heads' logits. Each draw's entropy
is handed to ``SeedSequence`` as one uint32 array holding the 32-bit words
that ``SeedSequence`` itself derives from the list ``[seed, salt,
len(input), *input, split, *context]``, so every table matches the one
drawn from that list by earlier versions. Token ids must lie in the
vocabulary, [0, vocab_size); a row is checked before it is first drawn,
and any vocabulary small enough to draw keeps each id within one word.
Three kinds cover the interesting regimes:

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

from collections import OrderedDict

import numpy as np

from ..errors import ConfigurationError
from .base import TableBackedModel, check_token_ids, log_softmax

SYNTHETIC_KINDS = ("random_table", "perfect_proposals", "adversarial")

# fixed salts keep the base-table stream and the extra-head stream disjoint
_SALT_BASE = 101
_SALT_HEADS = 202
_SALT_SPLIT = 9999

# largest uint32: a seed splits into words of this mask
_UINT32_MAX = (1 << 32) - 1

# entries each of a model's caches keeps before it evicts its oldest; the
# perfbench synthetic-engine workload needs at most 4,454 table rows a model
CACHE_ENTRIES = 1 << 15


def _remember(cache: OrderedDict, key, value) -> None:
    """Insert into a bounded cache, first evicting its oldest entry when it
    is full. A lookup does not reorder entries, so the oldest is the first
    inserted; a plain dict would find it by scanning its deleted slots."""
    if len(cache) >= CACHE_ENTRIES:
        cache.popitem(last=False)
    cache[key] = value


def _uint32_words(n: int) -> list:
    """The little-endian 32-bit words SeedSequence splits a non-negative
    int into: [0] for 0, and one word per started 32 bits otherwise."""
    words = [n & _UINT32_MAX]
    n >>= 32
    while n:
        words.append(n & _UINT32_MAX)
        n >>= 32
    return words


class SyntheticTableModel(TableBackedModel):
    intensity_vocab = True

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
        self._seed_words = _uint32_words(self.seed)
        self.vocab_size = int(vocab_size)
        self.num_heads = int(num_heads)
        self._row_cache: OrderedDict = OrderedDict()
        self._greedy_cache: OrderedDict = OrderedDict()

    def _raw_logits(self, salt: int, input_tokens, context, shape) -> np.ndarray:
        entropy = np.array(
            [*self._seed_words, salt, len(input_tokens), *input_tokens, _SALT_SPLIT, *context],
            dtype=np.uint32,
        )
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        return rng.normal(size=shape)

    def _base_logits(self, input_tokens, context) -> np.ndarray:
        return self._raw_logits(_SALT_BASE, input_tokens, context, self.vocab_size)

    def _greedy_step(self, input_tokens, context) -> tuple:
        """(token greedy decoding would produce after `context`, the base
        logits it is read from). The rollouts of perfect_proposals and
        adversarial tables take their base logits from here too, so each
        context's are drawn once."""
        key = (input_tokens, context)
        step = self._greedy_cache.get(key)
        if step is None:
            logits = self._base_logits(input_tokens, context)
            step = (int(np.argmax(logits)), logits)
            _remember(self._greedy_cache, key, step)
        return step

    def _greedy_rollout(self, input_tokens, context, steps: int) -> list:
        tokens = []
        ctx = context
        for _ in range(steps):
            t = self._greedy_step(input_tokens, ctx)[0]
            tokens.append(t)
            ctx = ctx + (t,)
        return tokens

    def head_logprobs(self, input_tokens, context) -> np.ndarray:
        key = (input_tokens, context)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        check_token_ids(input_tokens, self.vocab_size, "input")
        check_token_ids(context, self.vocab_size, "context")
        logits = np.empty((self.num_heads, self.vocab_size))
        if self.kind == "random_table":
            logits[0] = self._base_logits(input_tokens, context)
        else:
            logits[0] = self._greedy_step(input_tokens, context)[1]
        if self.num_heads > 1:
            extra = self._raw_logits(
                _SALT_HEADS, input_tokens, context, (self.num_heads - 1, self.vocab_size)
            )
            if self.kind == "random_table":
                logits[1:] = extra
            else:
                # head h's rollout target (or the token after it) beats
                # every other logit of its row by 1.0
                rollout = self._greedy_rollout(input_tokens, context, self.num_heads)
                targets = np.array(rollout[1:])
                if self.kind == "adversarial":
                    targets = (targets + 1) % self.vocab_size
                logits[1:] = extra
                logits[np.arange(1, self.num_heads), targets] = (
                    np.maximum.reduce(extra, axis=1) + 1.0
                )
        table = log_softmax(logits)
        _remember(self._row_cache, key, table)
        return table


def make_synthetic_model(
    kind: str, seed: int = 0, vocab_size: int = 16, num_heads: int = 8
) -> SyntheticTableModel:
    """Build a seeded table model of the given kind.

    Same arguments always yield a model with identical score tables, so
    tests and benchmarks can regenerate models instead of storing them.
    """
    return SyntheticTableModel(kind, seed, vocab_size, num_heads)
