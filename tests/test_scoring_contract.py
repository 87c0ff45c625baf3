"""The scoring contract the decode engine relies on, checked inside a decode
session, and the engine's use of the session through a proxy.

Within `model.session(...)`, after any history of calls (rejected
candidates, shorter prefixes), grid row i must be bitwise row 0 of a fresh
stateless call on prefix + candidates[:i], so later candidates never change
earlier rows, and a repeated call must return the same grid. Each call asks
for its own number of heads k, and a head's scores must not depend on it:
greedy equivalence compares head 1 of calls that ask for 1 and for k heads.
A grid has a row for every candidate and one more, however many there are.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.engine import (
    DecodeConfig,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
)
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.neural import ModelConfig, TinyBlockModel, _KVCache
from blockdec.models.synthetic import SYNTHETIC_KINDS, make_synthetic_model

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "neural_decode.ckpt"
CHECKPOINT_RECORD = CHECKPOINT.with_suffix(".json")

# the tiny models differ in dtype and context length; at every length a grid
# row near the end of the context reads a head window that runs past the last
# position, into the spare rows of the model's buffer of hidden states. At the
# checkpoint's width, in float64, projecting fewer heads changes head 1's bits.
# The text models have a text_char corpus's shape (258 ids, the default
# widths), where the head window's fused product is 514 columns before padding
CONTRACT_MODELS = (
    "tiny-float32-17", "tiny-float64-17", "tiny-float32-30", "tiny-float64-30",
    "tiny-float32-12", "tiny-float64-12", "tiny-float32-24", "tiny-float64-24",
    "checkpoint", "checkpoint-float64", "text-float32", "text-float64",
) + SYNTHETIC_KINDS


def contract_model(name):
    """(model, longest composed sequence it scores)."""
    if name.startswith("checkpoint"):
        model = load_checkpoint(CHECKPOINT)
        if name == "checkpoint-float64":
            model = TinyBlockModel(model.config, dtype=np.float64, params=model.params)
        return model, model.config.max_context
    if name.startswith("tiny-"):
        _, dtype, context = name.split("-")
        config = ModelConfig(vocab_size=12, d_model=8, d_hidden=8, num_heads=3, num_layers=2,
                             max_context=int(context), sep_token=10, eos_token=11)
        return TinyBlockModel(config, seed=3, dtype=dtype), config.max_context
    if name.startswith("text-"):
        config = ModelConfig(vocab_size=258, d_model=64, d_hidden=64, num_heads=4, num_layers=2,
                             max_context=24, sep_token=256, eos_token=257)
        return TinyBlockModel(config, seed=3, dtype=name[len("text-"):]), config.max_context
    return make_synthetic_model(name, seed=3, vocab_size=12, num_heads=3), 30


def call_history(rng, model, room, calls):
    """Decode-like (prefix, candidates) pairs: each call accepts a random
    share of its candidates and rejects the rest, and now and then the next
    prefix is cut short. `room` bounds len(prefix) + len(candidates)."""
    prefix = []
    for _ in range(calls):
        if prefix and rng.random() < 0.2:
            prefix = prefix[: int(rng.integers(0, len(prefix)))]
        count = int(rng.integers(0, min(model.num_heads, room - len(prefix)) + 1))
        candidates = tuple(int(t) for t in rng.integers(0, model.vocab_size, size=count))
        yield tuple(prefix), candidates
        prefix += candidates[: int(rng.integers(0, count + 1))]


def tokens(rng, model, count):
    return tuple(int(t) for t in rng.integers(0, model.vocab_size, size=count))


def any_k(rng, model):
    return int(rng.integers(1, model.num_heads + 1))


def assert_rows_are_stateless_row_zero(model, inp, prefix, candidates, grid, rng):
    """Row i of `grid` is bitwise row 0 of a fresh call on prefix +
    candidates[:i], for every head both ask for."""
    assert len(grid) == len(candidates) + 1
    for i in range(len(candidates) + 1):
        fresh = model.score_grid(inp, prefix + candidates[:i], (), any_k(rng, model)).grid[0]
        shared = min(grid.shape[1], fresh.shape[0])
        np.testing.assert_array_equal(grid[i, :shared], fresh[:shared])


@pytest.mark.parametrize("name", CONTRACT_MODELS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rows_in_a_session_are_stateless_row_zero(name, seed):
    model, context = contract_model(name)
    rng = np.random.default_rng(seed)
    inp = tuple(int(t) for t in rng.integers(0, model.vocab_size, size=int(rng.integers(1, 5))))
    room = context - len(inp) - 1

    def assert_shared_heads_equal(a, b):
        shared = min(a.shape[-2], b.shape[-2])
        np.testing.assert_array_equal(a[..., :shared, :], b[..., :shared, :])

    seen = []
    with model.session(inp):
        for prefix, candidates in call_history(rng, model, room, calls=12):
            grid = model.score_grid(inp, prefix, candidates, any_k(rng, model)).grid
            again = model.score_grid(inp, prefix, candidates, any_k(rng, model)).grid
            assert_shared_heads_equal(grid, again)
            seen.append((prefix, candidates, grid))
    for prefix, candidates, grid in seen:
        assert_rows_are_stateless_row_zero(model, inp, prefix, candidates, grid, rng)


@pytest.mark.parametrize("name", CONTRACT_MODELS)
@pytest.mark.parametrize("count", [5, 7, 10])
def test_more_candidates_than_heads_score_every_row(name, count):
    """A grid has a row for every candidate and one more, however many
    candidates there are; the neural model covers them with consecutive
    head windows."""
    model, context = contract_model(name)
    rng = np.random.default_rng(count)
    inp = tokens(rng, model, 1)
    prefix = tokens(rng, model, int(rng.integers(0, context - len(inp) - count)))
    candidates = tokens(rng, model, count)
    k = any_k(rng, model)
    with model.session(inp):
        grid = model.score_grid(inp, prefix, candidates, k).grid
    assert grid.shape == (count + 1, k, model.vocab_size)
    assert_rows_are_stateless_row_zero(model, inp, prefix, candidates, grid, rng)


@pytest.mark.parametrize("name", CONTRACT_MODELS)
@pytest.mark.parametrize("seed", range(3))
def test_rows_reread_before_and_after_the_trunk_reruns(name, seed):
    """Rows re-read from the session's per-position scores: a call with
    candidates, a call on each of its rows with none (a standard-scheme
    predict call after its verify call), a shorter context that reruns the
    trunk from at or before those rows' first position, and the same rows
    read again."""
    model, context = contract_model(name)
    rng = np.random.default_rng(seed)
    inp = tokens(rng, model, int(rng.integers(1, 4)))
    room = context - len(inp) - 1
    candidates = tokens(rng, model, int(rng.integers(1, min(model.num_heads, room - 1) + 1)))
    prefix = tokens(rng, model, int(rng.integers(1, room - len(candidates) + 1)))
    m = int(rng.integers(0, len(prefix)))
    other = (prefix[m] + 1) % model.vocab_size

    calls = [(prefix, candidates)]
    calls += [(prefix + candidates[:j], ()) for j in range(len(candidates) + 1)]
    calls += [(prefix[:m], (other,))]
    calls += [(prefix + candidates[:j], ()) for j in range(len(candidates) + 1)]
    with model.session(inp):
        seen = [(p, c, model.score_grid(inp, p, c, any_k(rng, model)).grid) for p, c in calls]
    for p, c, grid in seen:
        assert_rows_are_stateless_row_zero(model, inp, p, c, grid, rng)


@pytest.mark.parametrize("name", [n for n in CONTRACT_MODELS if n not in SYNTHETIC_KINDS])
def test_a_head_window_row_depends_only_on_its_hidden_state(name):
    """The property a re-read grid row rests on: a row of the decode
    binding's `_Folded.heads` on a window of num_heads + 1 rows is bitwise
    the same at every row index, whatever the other rows hold."""
    model, _ = contract_model(name)
    cache = _KVCache(model, (0,))
    weights = cache.weights
    n, d = model.num_heads + 1, model.config.d_model
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = rng.normal(size=d).astype(model.dtype)
        got = []
        for index in range(n):
            window = rng.normal(size=(n, d)).astype(model.dtype)
            window[index] = row
            # the logits are the session's buffer, which the next window overwrites
            got.append(weights.heads(window, cache)[index].copy())
        for other in got[1:]:
            np.testing.assert_array_equal(other, got[0])


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_arguments_are_read_once(name):
    """Input, prefix and candidates may be iterators: each is read once, so
    base_len counts the prefix the grid conditions on."""
    model, _ = contract_model(name)
    want = model.score_grid((1, 2), (3, 4), (5,), 2)
    assert want.base_len == 2
    got = model.score_grid(iter((1, 2)), iter((3, 4)), iter((5,)), 2)
    with model.session(iter((1, 2))):
        in_session = model.score_grid(iter((1, 2)), iter((3, 4)), iter((5,)), 2)
    for scores in (got, in_session):
        assert scores.base_len == 2
        np.testing.assert_array_equal(scores.grid, want.grid)


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_calls_on_another_input_in_a_session_are_stateless(name):
    """A session is bound to the input it was opened on. Calls on other
    inputs return the stateless grid, also when the composed tokens match
    the session's cached stream with the separator one position away: the
    input (a, b) with prefix (SEP, x, y) and the input (a, b, SEP) with
    prefix (x, y) compose the same tokens."""
    model, _ = contract_model(name)
    sep = model.config.sep_token if hasattr(model, "config") else 0
    rng = np.random.default_rng(0)
    inp, tail, other = tokens(rng, model, 2), tokens(rng, model, 3), tokens(rng, model, 3)
    calls = [
        (inp, (sep,) + tail, tail[:2]),
        (inp + (sep,), tail, tail[:2]),
        (inp, (), (sep,) + tail[:2]),
        (inp, (sep,) + tail[:1], tail[1:]),
        (inp + (sep,), (), tail),
        (other, tail, tail[:1]),
        (inp, (sep,), tail),
    ]
    k = model.num_heads
    for session_input in (inp, inp + (sep,)):
        with model.session(session_input):
            seen = [(i, p, c, model.score_grid(i, p, c, k)) for i, p, c in calls]
        for i, p, c, scores in seen:
            assert scores.base_len == len(p)
            np.testing.assert_array_equal(scores.grid, model.score_grid(i, p, c, k).grid)


# the third call's prefix, from the first call's (24 tokens from 1-9); the
# second call's is (5, 5, 5). Past those three tokens, "tail" repeats the
# first call's tokens and "zeros-then-tail" puts seven zeros before them
REVISITS = {
    "zeros-then-tail": lambda long: (5, 5, 5) + (0,) * 7 + long[10:],
    "tail": lambda long: (5, 5, 5) + long[3:],
}


@pytest.mark.parametrize("revisit", sorted(REVISITS))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_positions_past_a_shorter_context_are_not_reused(dtype, revisit):
    """A call on a shorter, different context leaves the later positions of
    an earlier call computed from tokens it replaced; a later call whose
    tokens match those positions again must not reuse them."""
    model, _ = contract_model(f"tiny-{dtype}-30")
    rng = np.random.default_rng(0)
    long = tuple(int(t) for t in rng.integers(1, 10, size=24))
    assert long[:3] != (5, 5, 5)
    inp = (1,)
    revisit = REVISITS[revisit](long)
    with model.session(inp):
        model.score_grid(inp, long, (), 3)
        model.score_grid(inp, (5, 5, 5), (), 3)
        grid = model.score_grid(inp, revisit, (), 3).grid
    np.testing.assert_array_equal(grid, model.score_grid(inp, revisit, (), 3).grid)


class CountingProxy:
    """Forwards every attribute to the model and counts score_grid calls,
    as a timing proxy around a model does."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def score_grid(self, input_tokens, prefix, candidates, k):
        self.calls += 1
        return self.model.score_grid(input_tokens, prefix, candidates, k)


@pytest.mark.parametrize("decode", [greedy_decode, blockwise_decode, blockwise_decode_combined])
@pytest.mark.parametrize("name", ["tiny-float32-30", "random_table"])
def test_engine_calls_score_grid_through_a_proxy(name, decode):
    model, _ = contract_model(name)
    proxy = CountingProxy(model)
    config = DecodeConfig(block_size=3, max_len=20)
    result = decode(proxy, (1, 2, 3), config)
    assert proxy.calls == result.model_invocations
    assert result.output == decode(model, (1, 2, 3), config).output


@pytest.mark.parametrize("decode", [greedy_decode, blockwise_decode, blockwise_decode_combined],
                         ids=["greedy", "standard", "combined"])
def test_the_checkpoint_decodes_its_recorded_probes(decode):
    """The committed checkpoint loads, and every scheme decodes each probe
    in its record to the greedy output recorded when it was made."""
    model = load_checkpoint(CHECKPOINT)
    record = json.loads(CHECKPOINT_RECORD.read_text())
    task = record["corpus"]
    # the probes' budget: the longest repeat-task target and its end token
    max_len = task["max_len"] * task["copies"] + 1
    config = DecodeConfig(block_size=model.num_heads, max_len=max_len,
                          eos_token=model.config.eos_token)
    for probe in record["probes"]:
        assert list(decode(model, probe["input"], config).output) == probe["greedy_output"]
