"""Acceptance criterion predicates against brute-force oracles."""

import numpy as np
import pytest

from blockdec.criteria import (
    AcceptanceCriterion,
    EXACT,
    accepts,
    apply_min_block,
    distance,
    exact,
    top_k,
)
from blockdec.errors import ConfigurationError


def random_logprobs(rng, v):
    logits = rng.normal(size=v)
    return logits - np.log(np.exp(logits).sum())


def brute_force_top_k(dist, k):
    """Oracle: sort (score, token) with ties to the lower id, take k."""
    order = sorted(range(len(dist)), key=lambda t: (-dist[t], t))
    return order[:k]


class TestExact:
    def test_accepts_only_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dist = random_logprobs(rng, 12)
            best = max(range(12), key=lambda t: dist[t])
            for token in range(12):
                assert accepts(EXACT, token, dist) == (token == best)

    def test_tie_breaks_to_lowest_token_id(self):
        dist = np.array([0.5, 1.5, 1.5, 0.1])
        assert np.argmax(dist) == 1
        assert accepts(EXACT, 1, dist)
        assert not accepts(EXACT, 2, dist)


class TestTopK:
    def test_matches_brute_force_membership(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            dist = random_logprobs(rng, 10)
            for kk in (1, 2, 3, 5):
                want = set(brute_force_top_k(dist, kk))
                crit = top_k(kk)
                got = {t for t in range(10) if accepts(crit, t, dist)}
                assert got == want

    def test_ties_resolved_stably(self):
        dist = np.array([1.0, 2.0, 2.0, 2.0, 0.0])
        assert brute_force_top_k(dist, 2) == [1, 2]
        assert accepts(top_k(2), 2, dist)
        assert not accepts(top_k(2), 3, dist)

    def test_top_1_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dist = random_logprobs(rng, 8)
            for token in range(8):
                assert accepts(top_k(1), token, dist) == accepts(EXACT, token, dist)


class TestDistance:
    def test_matches_absolute_difference(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dist = random_logprobs(rng, 16)
            best = int(np.argmax(dist))
            for eps in (0, 1, 2, 5):
                crit = distance(eps)
                for token in range(16):
                    assert accepts(crit, token, dist) == (abs(token - best) <= eps)

    def test_distance_zero_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dist = random_logprobs(rng, 9)
            for token in range(9):
                assert accepts(distance(0), token, dist) == accepts(EXACT, token, dist)


class TestApplyMinBlock:
    def test_exhaustive_small_values(self):
        for k in range(1, 6):
            for k_hat in range(1, k + 1):
                for floor in range(1, k + 1):
                    for remaining in range(1, 10):
                        got = apply_min_block(k_hat, floor, k, remaining)
                        want = max(k_hat, min(floor, remaining))
                        assert got == want

    def test_floor_never_lowers_k_hat(self):
        assert apply_min_block(3, 1, 4, 10) == 3
        assert apply_min_block(1, 4, 4, 10) == 4
        assert apply_min_block(1, 4, 4, 2) == 2

    def test_rejects_out_of_range_k_hat(self):
        with pytest.raises(ValueError):
            apply_min_block(0, 1, 4, 10)
        with pytest.raises(ValueError):
            apply_min_block(5, 1, 4, 10)


class TestValidationAndDescribe:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AcceptanceCriterion(kind="nearest")
        with pytest.raises(ConfigurationError):
            top_k(0)
        with pytest.raises(ConfigurationError):
            AcceptanceCriterion(kind="distance", epsilon=-1)
        with pytest.raises(ConfigurationError):
            exact(min_block=0)

    @pytest.mark.parametrize("kind, fields", [
        ("exact", {"top_k_k": 3}),
        ("exact", {"epsilon": 2}),
        ("top_k", {"top_k_k": 2, "epsilon": 1}),
        ("distance", {"epsilon": 1, "top_k_k": 2}),
    ])
    def test_a_field_of_another_kind_is_rejected(self, kind, fields):
        # kind=exact,top_k_k=3 would describe itself as kind=exact yet differ from EXACT
        with pytest.raises(ConfigurationError, match=f"does not apply to kind={kind}"):
            AcceptanceCriterion(kind=kind, **fields)

    def test_defaults_of_other_kinds_are_accepted(self):
        assert AcceptanceCriterion("exact", top_k_k=1, epsilon=0) == EXACT
        assert AcceptanceCriterion("distance", epsilon=3, top_k_k=1) == distance(3)

    def test_describe_round_trips_the_grammar(self):
        from blockdec.harness.cli import parse_criterion

        for crit in (EXACT, top_k(2), top_k(3, min_block=2), distance(2), distance(1, min_block=4)):
            assert parse_criterion(crit.describe()) == crit
