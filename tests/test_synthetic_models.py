"""Seeded table models: determinism and proposal-quality contracts."""

from collections import Counter

import numpy as np
import pytest

from blockdec.engine import (
    SCHEMES, DecodeConfig, DecodeState, blockwise_decode_combined, decode, greedy_decode,
    verify_block,
)
from blockdec.criteria import EXACT, distance, exact, top_k
from blockdec.errors import ConfigurationError
from blockdec.models import synthetic
from blockdec.models.base import log_softmax
from blockdec.models.synthetic import SYNTHETIC_KINDS, make_synthetic_model


class TestDeterminism:
    def test_same_arguments_same_tables(self):
        for kind in SYNTHETIC_KINDS:
            a = make_synthetic_model(kind, seed=7, vocab_size=10, num_heads=4)
            b = make_synthetic_model(kind, seed=7, vocab_size=10, num_heads=4)
            for ctx in ((), (3,), (1, 2, 9)):
                np.testing.assert_array_equal(
                    a.head_logprobs((5,), ctx), b.head_logprobs((5,), ctx)
                )

    def test_different_seeds_differ(self):
        a = make_synthetic_model("random_table", seed=0, vocab_size=10, num_heads=2)
        b = make_synthetic_model("random_table", seed=1, vocab_size=10, num_heads=2)
        assert not np.array_equal(a.head_logprobs((), ()), b.head_logprobs((), ()))

    def test_input_and_context_both_matter(self):
        m = make_synthetic_model("random_table", seed=0, vocab_size=10, num_heads=2)
        base = m.head_logprobs((1, 2), (3,))
        assert not np.array_equal(base, m.head_logprobs((1, 2), (4,)))
        assert not np.array_equal(base, m.head_logprobs((2, 1), (3,)))

    def test_cache_does_not_change_results(self):
        m = make_synthetic_model("perfect_proposals", seed=3, vocab_size=8, num_heads=4)
        first = m.head_logprobs((0,), (1, 2)).copy()
        again = m.head_logprobs((0,), (1, 2))
        np.testing.assert_array_equal(first, again)

    def test_rows_are_normalized_log_probs(self):
        for kind in SYNTHETIC_KINDS:
            m = make_synthetic_model(kind, seed=5, vocab_size=12, num_heads=4)
            table = m.head_logprobs((9,), (0, 1))
            np.testing.assert_allclose(np.exp(table).sum(axis=-1), 1.0, atol=1e-9)


def reference_table(kind, seed, vocab_size, num_heads, inp, ctx):
    """A table drawn the way every earlier version drew it: each draw seeded
    from the Python list [seed, salt, len(inp), *inp, split, *context]."""

    def draw(salt, context, shape):
        entropy = [seed, salt, len(inp), *inp, synthetic._SALT_SPLIT, *context]
        return np.random.default_rng(np.random.SeedSequence(entropy)).normal(size=shape)

    logits = [draw(synthetic._SALT_BASE, ctx, vocab_size)]
    if num_heads > 1:
        extra = draw(synthetic._SALT_HEADS, ctx, (num_heads - 1, vocab_size))
        if kind == "random_table":
            logits.extend(extra)
        else:
            rollout, context = [], ctx
            for _ in range(num_heads):
                rollout.append(int(np.argmax(draw(synthetic._SALT_BASE, context, vocab_size))))
                context += (rollout[-1],)
            for h in range(1, num_heads):
                target = rollout[h]
                if kind == "adversarial":
                    target = (target + 1) % vocab_size
                row = extra[h - 1].copy()
                row[target] = row.max() + 1.0
                logits.append(row)
    return log_softmax(np.array(logits))


class TestTablesArePinned:
    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
    def test_tables_match_list_seeded_draws(self, kind, seed):
        long_context = tuple((7 * i + 3) % 16 for i in range(30))
        for vocab_size, num_heads in ((16, 6), (16, 1), (5, 3)):
            model = make_synthetic_model(kind, seed, vocab_size, num_heads)
            for inp, ctx in (((3, 4), ()), ((), (1,)), ((9,), long_context)):
                inp = tuple(t % vocab_size for t in inp)
                ctx = tuple(t % vocab_size for t in ctx)
                want = reference_table(kind, seed, vocab_size, num_heads, inp, ctx)
                got = model.head_logprobs(inp, ctx)
                assert got.tobytes() == want.tobytes(), (vocab_size, num_heads, inp, ctx)

    def test_seed_words_give_the_seed_sequence_of_the_int(self):
        for seed in (0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**70 + 3):
            words = np.array(synthetic._uint32_words(seed), dtype=np.uint32)
            np.testing.assert_array_equal(
                np.random.SeedSequence(words).pool, np.random.SeedSequence([seed]).pool
            )


class TestBadIds:
    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    @pytest.mark.parametrize("inp, ctx, bad", [
        ((1, -3), (2,), "-3 in the input"),
        ((1,), (2, -1, 4), "-1 in the context"),
        ((2**32,), (), "4294967296 in the input"),
        ((1, 8), (2,), r"token id 8 in the input is outside the vocabulary \[0, 8\)"),
        ((1,), (2, 8, 4), "8 in the context"),
    ])
    def test_rejected_before_any_draw(self, kind, inp, ctx, bad):
        model = make_synthetic_model(kind, seed=3, vocab_size=8, num_heads=4)
        draws = []
        model._raw_logits = lambda *args: draws.append(args)
        with pytest.raises(ConfigurationError, match=bad):
            model.head_logprobs(inp, ctx)
        assert draws == []

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_score_grid_rejects_a_candidate_at_the_vocabulary_size(self, kind):
        model = make_synthetic_model(kind, seed=3, vocab_size=8, num_heads=4)
        model.score_grid((1,), (0,), (3,), 4)  # the rows before the bad candidate
        draws = []
        model._raw_logits = lambda *args: draws.append(args)
        with pytest.raises(ConfigurationError, match="token id 8 in the context"):
            model.score_grid((1,), (0,), (3, 8), 4)
        assert draws == []

    @pytest.mark.parametrize("inp, prefix, candidates, bad", [
        ((1.7, 2), (), (), "token id 1.7 in the input is not an integer"),
        ((1,), ("3",), (), "token id '3' in the prefix is not an integer"),
        ((1,), (0,), (3, 2.0), "token id 2.0 in the candidates is not an integer"),
    ])
    def test_score_grid_refuses_a_non_integer_id(self, inp, prefix, candidates, bad):
        """int() would truncate 1.7 to 1, parse "3" and read 2.0 as 2."""
        model = make_synthetic_model("random_table", seed=3, vocab_size=8, num_heads=2)
        with pytest.raises(ConfigurationError, match=bad):
            model.score_grid(inp, prefix, candidates, 2)

    def test_score_grid_rejects_a_negative_candidate(self):
        model = make_synthetic_model("random_table", seed=3, vocab_size=8, num_heads=2)
        with pytest.raises(ConfigurationError, match="token id -2"):
            model.score_grid((1,), (0,), (3, -2), 2)


def count_base_draws(model) -> Counter:
    """Spy on the model's base-logit draws; returns draws per context."""
    draws = Counter()
    raw = model._raw_logits

    def spy(salt, input_tokens, context, shape):
        if salt == synthetic._SALT_BASE:
            draws[input_tokens, context] += 1
        return raw(salt, input_tokens, context, shape)

    model._raw_logits = spy
    return draws


class TestCaches:
    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_base_logits_drawn_once_per_context(self, kind):
        model = make_synthetic_model(kind, seed=1, vocab_size=16, num_heads=8)
        draws = count_base_draws(model)
        blockwise_decode_combined(model, (3, 4, 5), DecodeConfig(block_size=8, max_len=32))
        assert draws and max(draws.values()) == 1

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_caches_stay_bounded_and_evicted_rows_return_identical(self, kind, monkeypatch):
        fresh = make_synthetic_model(kind, seed=6, vocab_size=8, num_heads=4)
        first = fresh.head_logprobs((2,), ()).copy()
        monkeypatch.setattr(synthetic, "CACHE_ENTRIES", 16)
        model = make_synthetic_model(kind, seed=6, vocab_size=8, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=200)
        result = blockwise_decode_combined(model, (2,), config)
        assert len(model._row_cache) <= 16
        assert len(model._greedy_cache) <= 16
        assert ((2,), ()) not in model._row_cache  # evicted long ago
        assert model.head_logprobs((2,), ()).tobytes() == first.tobytes()
        unbounded = blockwise_decode_combined(fresh, (2,), config)
        assert result.output == unbounded.output
        assert result.accepted_sizes == unbounded.accepted_sizes

    def test_the_first_inserted_entry_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(synthetic, "CACHE_ENTRIES", 4)
        model = make_synthetic_model("random_table", seed=6, vocab_size=8, num_heads=2)
        contexts = [(t,) for t in range(5)]
        for context in contexts[:4]:
            model.head_logprobs((2,), context)
        model.head_logprobs((2,), contexts[0])  # a hit does not make an entry newer
        model.head_logprobs((2,), contexts[4])
        assert list(model._row_cache) == [((2,), c) for c in contexts[1:5]]

    def test_bound_is_well_above_the_benchmark_working_set(self):
        # perfbench's synthetic-engine workload keeps up to 4,454 rows a model
        assert synthetic.CACHE_ENTRIES >= 4 * 4454


def head_argmaxes(model, input_tokens, prefix, k):
    """Each of the first k heads' argmax after the bare prefix: a block's proposals."""
    return tuple(model.score_grid(input_tokens, prefix, (), k).grid[0].argmax(axis=-1).tolist())


class TestProposalQuality:
    def test_shared_base_head_across_kinds(self):
        config = DecodeConfig(block_size=1, max_len=12)
        outputs = {
            kind: greedy_decode(
                make_synthetic_model(kind, seed=11, vocab_size=16, num_heads=4), (2, 4), config
            ).output
            for kind in SYNTHETIC_KINDS
        }
        assert outputs["random_table"] == outputs["perfect_proposals"] == outputs["adversarial"]

    def test_perfect_proposals_verify_in_full(self):
        m = make_synthetic_model("perfect_proposals", seed=13, vocab_size=16, num_heads=6)
        for prefix in ((), (3,), (4, 4, 1)):
            proposals = head_argmaxes(m, (8,), prefix, 6)
            grid = m.score_grid((8,), prefix, proposals, 6)
            assert verify_block(grid, proposals, EXACT) == 6

    def test_adversarial_verifies_exactly_one(self):
        m = make_synthetic_model("adversarial", seed=13, vocab_size=16, num_heads=6)
        for prefix in ((), (3,), (4, 4, 1)):
            proposals = head_argmaxes(m, (8,), prefix, 6)
            grid = m.score_grid((8,), prefix, proposals, 6)
            assert verify_block(grid, proposals, EXACT) == 1

    def test_perfect_proposals_match_greedy_rollout(self):
        m = make_synthetic_model("perfect_proposals", seed=17, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=1, max_len=4)
        rollout = greedy_decode(m, (1,), config).output
        state = DecodeState((1,), DecodeConfig(block_size=4, max_len=4), "standard")
        state.feed(m.score_grid((1,), *state.next_call()))
        assert state.next_call()[1] == rollout


class TestHeadCount:
    """Heads past the block size change no decode, so a model with as many
    heads as the block size decodes like one with more."""

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_decodes_identical_at_k_and_eight_heads(self, kind, k):
        fewest, most = (make_synthetic_model(kind, seed=5, vocab_size=12, num_heads=h)
                        for h in (k, 8))
        criteria = [EXACT, top_k(2), distance(3), exact(min_block=k)]
        for scheme in SCHEMES:
            for criterion in criteria:
                config = DecodeConfig(block_size=k, max_len=20, criterion=criterion)
                for inp in ((1,), (4, 9), (0, 0, 11)):
                    a = decode(fewest, inp, config, scheme)
                    b = decode(most, inp, config, scheme)
                    assert (a.output, a.accepted_sizes, a.model_invocations) == (
                        b.output, b.accepted_sizes, b.model_invocations)


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            make_synthetic_model("oracle", seed=0)
        with pytest.raises(ConfigurationError):
            make_synthetic_model("random_table", seed=-1)
        with pytest.raises(ConfigurationError):
            make_synthetic_model("random_table", seed=0, vocab_size=1)
        with pytest.raises(ConfigurationError):
            make_synthetic_model("random_table", seed=0, num_heads=0)

    def test_score_grid_rejects_too_many_heads(self):
        m = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=2)
        with pytest.raises(ConfigurationError):
            m.score_grid((1,), (), (), 3)
