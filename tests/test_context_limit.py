"""Blockwise decoding at the end of the model's context.

A verify call scores proposals past where greedy decoding would stop, so
the engine cuts them to the room left in the context. Wherever greedy
decoding finishes, standard and combined decoding must finish with the same
output; wherever it raises LengthError, they must raise the same error; and
a decode that fits its context makes the same calls as with no limit.
"""

import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.engine import (
    DecodeConfig,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
)
from blockdec.errors import LengthError
from blockdec.harness.corpus import make_pattern_corpus
from blockdec.harness.training import TrainingConfig, train_model
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.synthetic import SYNTHETIC_KINDS, SyntheticTableModel

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "neural_decode.ckpt"
BLOCKWISE = (blockwise_decode, blockwise_decode_combined)


class ContextTable(SyntheticTableModel):
    """A table model that scores at most `max_context` composed tokens
    (input, separator, prefix and candidates), raising LengthError past
    them as the neural model does, and records every call it takes."""

    def __init__(self, kind, seed, vocab_size, num_heads, max_context):
        super().__init__(kind, seed, vocab_size, num_heads)
        self.max_context = max_context
        self.calls = []

    def score_grid(self, input_tokens, prefix, candidates, k):
        length = len(tuple(input_tokens)) + 1 + len(tuple(prefix)) + len(tuple(candidates))
        if self.max_context is not None and length > self.max_context:
            raise LengthError(f"sequence of {length} tokens exceeds context {self.max_context}")
        self.calls.append((tuple(prefix), tuple(candidates), k))
        return super().score_grid(input_tokens, prefix, candidates, k)


def outcome(decode, model, tokens, config):
    """A decode's output, or the message of the LengthError it raised."""
    try:
        return decode(model, tokens, config).output
    except LengthError as exc:
        return str(exc)


def assert_blockwise_finishes_where_greedy_does(model, tokens, config):
    gold = outcome(greedy_decode, model, tokens, config)
    for decode in BLOCKWISE:
        assert outcome(decode, model, tokens, config) == gold


@functools.lru_cache(maxsize=None)
def checkpoint():
    return load_checkpoint(CHECKPOINT)


@functools.lru_cache(maxsize=None)
def default_trained_model():
    """A model of the default size for its corpus (context 24), briefly trained."""
    corpus = make_pattern_corpus("repeat", alphabet=6, n_pairs=64, min_len=2, max_len=4,
                                 copies=3, seed=0)
    return train_model(corpus, training=TrainingConfig(steps=200))[0]


table_cases = st.fixed_dictionaries({
    "kind": st.sampled_from(SYNTHETIC_KINDS),
    "seed": st.integers(0, 10_000),
    "vocab": st.integers(3, 8),
    "k": st.integers(1, 4),
    "max_len": st.integers(1, 16),
    "input": st.lists(st.integers(0, 2), min_size=1, max_size=4),
    "room": st.integers(-1, 18),  # candidates the context holds at prefix 0
    "eos": st.sampled_from([None, 0]),
})


def table_model(case, max_context):
    return ContextTable(case["kind"], case["seed"], case["vocab"], case["k"], max_context)


@settings(max_examples=150, deadline=None)
@given(table_cases)
def test_table_models_finish_where_greedy_does(case):
    context = len(case["input"]) + 1 + case["room"]
    config = DecodeConfig(block_size=case["k"], max_len=case["max_len"], eos_token=case["eos"])
    assert_blockwise_finishes_where_greedy_does(
        table_model(case, context), tuple(case["input"]), config)


@settings(max_examples=60, deadline=None)
@given(table_cases)
def test_a_decode_that_fits_makes_the_calls_it_makes_without_a_limit(case):
    tokens = tuple(case["input"])
    config = DecodeConfig(block_size=case["k"], max_len=case["max_len"], eos_token=case["eos"])
    # without a limit no call composes more than input + SEP + max_len tokens
    bounded = table_model(case, len(tokens) + 1 + case["max_len"])
    unbounded = table_model(case, None)
    for decode in (greedy_decode,) + BLOCKWISE:
        bounded.calls.clear()
        unbounded.calls.clear()
        assert decode(bounded, tokens, config).output == decode(unbounded, tokens, config).output
        assert bounded.calls == unbounded.calls


def test_proposals_are_cut_to_the_room_left():
    """Input (1,) in a context of 7 leaves room for 5 candidates at prefix 0.
    Greedy decoding makes 6 tokens and fails on the seventh call."""
    model = table_model({"kind": "perfect_proposals", "seed": 0, "vocab": 6, "k": 4}, 7)
    config = DecodeConfig(block_size=4, max_len=10)
    message = "sequence of 8 tokens exceeds context 7"
    with pytest.raises(LengthError, match=message):
        greedy_decode(model, (1,), config)
    model.calls.clear()
    with pytest.raises(LengthError, match=message):
        blockwise_decode_combined(model, (1,), config)
    # 4 proposals fit, then 2 are read with room for 1: the last is verified
    # on row 1 without being passed; the next proposals would need row 2
    assert [(len(prefix), len(candidates)) for prefix, candidates, _ in model.calls] == [
        (0, 0), (0, 4), (4, 1)]


@settings(max_examples=15, deadline=None)
@given(input=st.lists(st.integers(0, 7), min_size=2, max_size=4), max_len=st.integers(40, 63))
def test_the_checkpoint_finishes_where_greedy_does(input, max_len):
    model = checkpoint()
    config = DecodeConfig(block_size=model.num_heads, max_len=max_len,
                          eos_token=model.config.eos_token)
    assert_blockwise_finishes_where_greedy_does(model, tuple(input), config)


@settings(max_examples=15, deadline=None)
@given(input=st.lists(st.integers(0, 5), min_size=1, max_size=8), max_len=st.integers(1, 24))
def test_a_default_trained_model_finishes_where_greedy_does(input, max_len):
    model = default_trained_model()
    config = DecodeConfig(block_size=model.num_heads, max_len=max_len,
                          eos_token=model.config.eos_token)
    assert_blockwise_finishes_where_greedy_does(model, tuple(input), config)


@pytest.mark.parametrize("decode", BLOCKWISE, ids=["standard", "combined"])
def test_a_checkpoint_decode_that_overran_its_context(decode):
    """Greedy decoding ends this input with EOS at 57 tokens, 4 + 1 + 57 = 62
    of the context's 64; a verify call of 4 candidates once asked for 65."""
    model = checkpoint()
    config = DecodeConfig(block_size=4, max_len=62, eos_token=model.config.eos_token)
    gold = greedy_decode(model, (7, 7, 1, 3), config).output
    assert len(gold) == 57 and gold[-1] == model.config.eos_token
    assert decode(model, (7, 7, 1, 3), config).output == gold
