"""Scoring model interface.

A scoring model exposes `score_grid`, the single primitive the decode
engine needs: given an input sequence, an output prefix, and a list of
candidate continuation tokens, return log-probabilities for every head at
every candidate offset. Implementations decide how to amortize the work;
the neural model computes the whole grid in one forward pass, which is
where the blockwise speedup comes from, and within a decode session it
reuses the work of earlier calls on the same tokens.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..engine import BlockScores
from ..errors import ConfigurationError


def check_token_ids(ids, vocab_size: int, where: str) -> None:
    """Raise ConfigurationError naming the first id outside [0, vocab_size) and `where` it is."""
    if ids and (min(ids) < 0 or max(ids) >= vocab_size):
        bad = next(t for t in ids if not 0 <= t < vocab_size)
        raise ConfigurationError(
            f"token id {bad} in the {where} is outside the vocabulary [0, {vocab_size})"
        )


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, computed in float64."""
    x = np.asarray(logits, dtype=np.float64)
    # the ufunc reductions are what ndarray.max and .sum call, minus their
    # Python wrappers
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


class ScoringModel:
    """Interface for models the decode engine can drive.

    Attributes
    ----------
    num_heads:       proposal heads available (head 1 is the base model)
    vocab_size:      size of the shared vocabulary
    intensity_vocab: True when token ids are integer intensities, which
                     makes the distance acceptance criterion meaningful
    max_context:     longest sequence (input, separator, prefix and
                     candidates) score_grid takes, or None for no limit
    """

    num_heads: int
    vocab_size: int
    intensity_vocab: bool = False
    max_context: Optional[int] = None

    def score_grid(self, input_tokens, prefix, candidates, k) -> BlockScores:
        """Score `k` heads at every candidate offset.

        Returns a BlockScores whose grid has len(candidates) + 1 rows; row i
        conditions on prefix + candidates[:i]. Counts as one model
        invocation regardless of grid size.
        """
        raise NotImplementedError

    @contextmanager
    def session(self, input_tokens):
        """Scope the score_grid calls of one decode of `input_tokens`.

        The engine enters it around its loop and keeps calling score_grid
        on the model itself, so a model may cache work across those calls.
        Results must not depend on whether a session is open. The base
        class keeps nothing.
        """
        yield

    def _check_heads(self, k: int):
        if not 1 <= k <= self.num_heads:
            raise ConfigurationError(
                f"requested {k} heads, model has {self.num_heads}"
            )


class TableBackedModel(ScoringModel):
    """Scoring model defined by a per-context distribution table.

    Subclasses implement `head_logprobs(input_tokens, context)` returning a
    (num_heads, vocab_size) array of log-probs for one conditioning context.
    `score_grid` assembles the grid row by row, so every row costs one table
    lookup; these models exercise the engine's arithmetic, not its speed.
    """

    def head_logprobs(self, input_tokens, context) -> np.ndarray:
        raise NotImplementedError

    def score_grid(self, input_tokens, prefix, candidates, k) -> BlockScores:
        self._check_heads(k)
        input_tokens = tuple(map(int, input_tokens))
        context = tuple(map(int, prefix))
        candidates = tuple(map(int, candidates))
        base_len = len(context)
        rows = [self.head_logprobs(input_tokens, context)[:k]]
        for token in candidates:
            context += (token,)
            rows.append(self.head_logprobs(input_tokens, context)[:k])
        # one float64 copy: the grid never aliases a table the model keeps
        return BlockScores(grid=np.array(rows, dtype=np.float64), base_len=base_len)
