"""Property-based checks of the decoding invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.criteria import (
    AcceptanceCriterion,
    EXACT,
    accepted,
    accepts,
    apply_min_block,
    distance,
    top_k,
)
from blockdec.engine import (
    BlockScores,
    DecodeConfig,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
    verify_block,
)
from blockdec.harness.corpus import _escape, _unescape, decode_text, encode_text
from blockdec.models.synthetic import make_synthetic_model

decode_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "vocab": st.integers(2, 12),
    "k": st.integers(1, 4),
    "max_len": st.integers(1, 8),
    "input": st.lists(st.integers(0, 1), min_size=1, max_size=3),
})


def random_grid(seed, rows, k, vocab):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((rows, k, vocab))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    grid = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return BlockScores(grid=grid, base_len=0)


class TestDecodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(decode_cases)
    def test_greedy_equivalence_and_accounting(self, case):
        vocab = case["vocab"]
        tokens = tuple(t % vocab for t in case["input"])
        model = make_synthetic_model("random_table", seed=case["seed"],
                                     vocab_size=vocab, num_heads=case["k"])
        config = DecodeConfig(block_size=case["k"], max_len=case["max_len"])
        gold = greedy_decode(model, tokens, config)
        assert gold.model_invocations == len(gold.output)
        assert all(size == 1 for size in gold.accepted_sizes)
        for fn in (blockwise_decode, blockwise_decode_combined):
            result = fn(model, tokens, config)
            assert result.output == gold.output
            assert sum(result.accepted_sizes) == len(result.output)
            assert result.iterations == len(result.accepted_sizes)
            assert all(size >= 1 for size in result.accepted_sizes)
            assert result.model_invocations >= result.iterations
        standard = blockwise_decode(model, tokens, config)
        combined = blockwise_decode_combined(model, tokens, config)
        assert standard.model_invocations == 2 * standard.iterations
        assert combined.model_invocations == combined.iterations + 1

    @settings(max_examples=60, deadline=None)
    @given(decode_cases)
    def test_relaxed_criteria_never_shrink_k_hat(self, case):
        vocab, k = case["vocab"], max(case["k"], 2)
        scores = random_grid(case["seed"], rows=k + 1, k=k, vocab=vocab)
        rng = np.random.default_rng(case["seed"] + 1)
        proposals = tuple(int(t) for t in rng.integers(0, vocab, size=k))
        ladder = [
            verify_block(scores, proposals, EXACT),
            verify_block(scores, proposals, top_k(2)),
            verify_block(scores, proposals, top_k(3)),
            verify_block(scores, proposals, top_k(vocab)),
        ]
        assert ladder == sorted(ladder)
        assert ladder[-1] == k  # every token is in the full-vocabulary top set


class TestCriterionProperties:
    dists = st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).dirichlet(np.ones(10)))

    @settings(max_examples=100)
    @given(dists, st.integers(0, 9), st.integers(1, 10), st.integers(0, 9))
    def test_nesting(self, dist, token, k, eps):
        if accepts(EXACT, token, dist):
            assert accepts(top_k(k), token, dist)
            assert accepts(distance(eps), token, dist)
        if k < 10 and accepts(top_k(k), token, dist):
            assert accepts(top_k(k + 1), token, dist)
        if accepts(distance(eps), token, dist):
            assert accepts(distance(eps + 1), token, dist)

    @settings(max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 10), st.booleans())
    def test_accepted_is_accepts_row_by_row(self, seed, rows, vocab, tied):
        """One numpy pass over all rows decides like the one-row predicate,
        and top_k keeps the (descending score, ascending id) order on ties."""
        rng = np.random.default_rng(seed)
        if tied:  # a few distinct scores make ties common
            base = rng.integers(0, 3, size=(rows, vocab)).astype(np.float64)
        else:
            base = rng.standard_normal((rows, vocab))
        proposals = rng.integers(0, vocab, size=rows)
        kk, eps = int(rng.integers(1, vocab + 1)), int(rng.integers(0, 4))
        for criterion in (EXACT, top_k(kk), distance(eps)):
            got = accepted(criterion, proposals, base).tolist()
            assert got == [accepts(criterion, int(p), row) for p, row in zip(proposals, base)]
        ranked = [sorted(range(vocab), key=lambda t: (-row[t], t)) for row in base]
        want = [int(p) in order[:kk] for p, order in zip(proposals, ranked)]
        assert accepted(top_k(kk), proposals, base).tolist() == want

    @settings(max_examples=100)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(1, 16))
    def test_apply_min_block(self, k_hat, floor, k, remaining):
        k_hat = min(k_hat, k)
        got = apply_min_block(k_hat, floor, k, remaining)
        assert got >= k_hat
        assert got == max(k_hat, min(floor, remaining))
        if floor <= k_hat:
            assert got == k_hat
        assert got <= max(k_hat, remaining)


class TestTextProperties:
    @settings(max_examples=100)
    @given(st.text(max_size=40))
    def test_escape_round_trip(self, text):
        assert _unescape(_escape(text), line=1) == text
        assert "\t" not in _escape(text)
        assert "\n" not in _escape(text)

    @settings(max_examples=100)
    @given(st.text(max_size=40))
    def test_encode_decode_round_trip(self, text):
        assert decode_text(encode_text(text)) == text
