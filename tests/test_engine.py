"""Decode engine against brute-force oracles and a handcrafted table model."""

import numpy as np
import pytest

from blockdec.criteria import EXACT, accepts, distance, exact, top_k
from blockdec.engine import (
    BlockScores,
    DecodeConfig,
    DecodeResult,
    blockwise_decode,
    blockwise_decode_combined,
    decode,
    greedy_decode,
    predict_block,
    verify_block,
)
from blockdec.errors import ConfigurationError, ModelContractError
from blockdec.models.base import ScoringModel, TableBackedModel
from blockdec.models.synthetic import make_synthetic_model


class ScriptedModel(TableBackedModel):
    """Explicit per-context head tables for handcrafted scenarios.

    tables maps context tuple -> (num_heads, vocab) logits; missing contexts
    fall back to a seeded hash so decoding never runs off the script.
    """

    intensity_vocab = True

    def __init__(self, tables, vocab_size, num_heads):
        self.tables = {k: np.asarray(v, dtype=np.float64) for k, v in tables.items()}
        self.vocab_size = vocab_size
        self.num_heads = num_heads

    def head_logprobs(self, input_tokens, context):
        logits = self.tables.get(context)
        if logits is None:
            rng = np.random.default_rng([7, len(context), *context])
            logits = rng.normal(size=(self.num_heads, self.vocab_size))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def onehotish(v, winner, second=None):
    """Logits with a clear argmax and an optional clear runner-up."""
    row = np.zeros(v)
    row[winner] = 5.0
    if second is not None:
        row[second] = 3.0
    return row


def brute_force_greedy(model, input_tokens, config):
    """Oracle: argmax one token at a time straight off the score table."""
    out = []
    while len(out) < config.max_len:
        grid = model.score_grid(tuple(input_tokens), tuple(out), (), 1)
        token = int(np.argmax(grid.grid[0, 0]))
        out.append(token)
        if config.eos_token is not None and token == config.eos_token:
            break
    return tuple(out)


def naive_k_hat(grid, proposals, criterion):
    """Oracle: scan for the longest all-accepted prefix."""
    best = 0
    for j in range(1, len(proposals) + 1):
        if all(accepts(criterion, proposals[i], grid.grid[i, 0]) for i in range(j)):
            best = j
    return best


class TestTypes:
    def test_decode_config_validation(self):
        with pytest.raises(ConfigurationError):
            DecodeConfig(block_size=0, max_len=4)
        with pytest.raises(ConfigurationError):
            DecodeConfig(block_size=4, max_len=0)
        with pytest.raises(ConfigurationError):
            DecodeConfig(block_size=4, max_len=8, criterion=exact(min_block=5))
        with pytest.raises(ConfigurationError):
            DecodeConfig(block_size=2, max_len=8, criterion=exact(min_block=3))

    def test_block_scores_normalization_guard(self):
        good = np.log(np.full((2, 2, 4), 0.25))
        BlockScores(grid=good, base_len=0)
        with pytest.raises(ModelContractError):
            BlockScores(grid=good + 0.5, base_len=0)
        with pytest.raises(ModelContractError):
            BlockScores(grid=np.full((2, 4), np.log(0.25)), base_len=0)
        bad = good.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ModelContractError):
            BlockScores(grid=bad, base_len=0)

    @pytest.mark.parametrize("fault, message", [
        (np.nan, r"contains NaN"),
        (np.inf, r"not normalized log-probs \(off by inf\)"),
        (None, r"not normalized log-probs \(off by 6\.487e-01\)"),
        pytest.param((0, 1, 4), r"at least one row and one head, got shape \(0, 1, 4\)",
                     id="no-rows"),
        pytest.param((2, 0, 4), r"at least one row and one head, got shape \(2, 0, 4\)",
                     id="no-heads"),
    ])
    def test_block_scores_errors_name_the_fault(self, fault, message):
        grid = np.log(np.full((2, 2, 4), 0.25))
        if isinstance(fault, tuple):  # an empty grid of this shape
            grid = np.zeros(fault)
        elif fault is None:
            grid += 0.5
        else:
            grid[1, 0, 2] = fault
            grid[0, 1, 3] = np.inf  # NaN is named even beside an infinity
        with pytest.raises(ModelContractError, match=message):
            BlockScores(grid=grid, base_len=0)

    def test_decode_result_invariants(self):
        DecodeResult(output=(1, 2, 3), accepted_sizes=(2, 1), iterations=2,
                     model_invocations=3, wall_clock_ns=10)
        with pytest.raises(ModelContractError):
            DecodeResult(output=(1, 2, 3), accepted_sizes=(2, 2), iterations=2,
                         model_invocations=3, wall_clock_ns=10)
        with pytest.raises(ModelContractError):
            DecodeResult(output=(1, 2), accepted_sizes=(2,), iterations=2,
                         model_invocations=3, wall_clock_ns=10)
        with pytest.raises(ModelContractError):
            DecodeResult(output=(1, 2), accepted_sizes=(2, 0), iterations=2,
                         model_invocations=3, wall_clock_ns=10)
        with pytest.raises(ModelContractError):
            DecodeResult(output=(1, 2), accepted_sizes=(1, 1), iterations=2,
                         model_invocations=1, wall_clock_ns=10)
        result = DecodeResult(output=(1, 2, 3, 4), accepted_sizes=(3, 1), iterations=2,
                              model_invocations=3, wall_clock_ns=0)
        assert result.mean_accepted_block_size == 2.0


class TestVerifyAndPredict:
    def test_verify_matches_naive_scan(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            model = make_synthetic_model("random_table", seed=seed, vocab_size=12, num_heads=6)
            prefix = tuple(rng.integers(0, 12, size=rng.integers(0, 4)).tolist())
            inp = (seed % 12,)
            proposals, _ = predict_block(model, inp, prefix, 5)
            grid = model.score_grid(inp, prefix, proposals, 5)
            for crit in (EXACT, top_k(2), top_k(4), distance(1), distance(3)):
                assert verify_block(grid, proposals, crit) == naive_k_hat(grid, proposals, crit)

    @pytest.mark.parametrize("criterion", [EXACT, top_k(2), distance(1)],
                             ids=lambda c: c.describe())
    def test_verify_all_and_none_accepted_match_naive_scan(self, criterion):
        # token 0 is the base head's best and token 7 its worst in every row
        rows = np.broadcast_to(-np.arange(8.0), (5, 1, 8))
        grid = BlockScores(grid=rows - np.log(np.exp(rows).sum(axis=-1, keepdims=True)),
                           base_len=0)
        for proposals, want in (((0, 0, 0, 0), 4), ((7, 7, 7, 7), 0)):
            assert verify_block(grid, proposals, criterion) == want
            assert naive_k_hat(grid, proposals, criterion) == want

    def test_verify_can_reject_everything_standalone(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=4)
        grid = model.score_grid((0,), (), (0, 0, 0), 4)
        wrong = tuple((int(np.argmax(grid.grid[i, 0])) + 1) % 8 for i in range(3))
        grid2 = model.score_grid((0,), (), wrong, 4)
        assert verify_block(grid2, wrong, EXACT) == 0

    def test_verify_needs_proposals_and_rows(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=4)
        grid = model.score_grid((0,), (), (1,), 4)
        with pytest.raises(ValueError):
            verify_block(grid, (), EXACT)
        with pytest.raises(ModelContractError):
            verify_block(grid, (1, 2, 3), EXACT)

    def test_predict_reads_head_argmaxes_of_bare_prefix(self):
        model = make_synthetic_model("random_table", seed=9, vocab_size=10, num_heads=5)
        proposals, scores = predict_block(model, (1, 2), (3,), 4)
        table = model.head_logprobs((1, 2), (3,))
        assert proposals == tuple(int(np.argmax(table[h])) for h in range(4))
        assert scores.rows == 1 and scores.heads == 4


class Float32Tables(ScriptedModel):
    """ScriptedModel whose tables come back as float32."""

    def head_logprobs(self, input_tokens, context):
        return super().head_logprobs(input_tokens, context).astype(np.float32)


class TestTableBackedGrid:
    def test_numpy_integer_ids_score_as_python_ints(self):
        model = make_synthetic_model("random_table", seed=2, vocab_size=8, num_heads=4)
        want = model.score_grid((1, 2), (3,), (4, 5), 3)
        got = model.score_grid(np.array([1, 2]), (np.int32(3),),
                               np.array([4, 5], dtype=np.int16), 3)
        assert got.base_len == want.base_len == 1
        np.testing.assert_array_equal(got.grid, want.grid)

    def test_float32_tables_give_a_float64_grid(self):
        model = Float32Tables({}, vocab_size=6, num_heads=3)
        scores = model.score_grid((0,), (1,), (2, 3), 2)
        assert scores.grid.dtype == np.float64
        for i, context in enumerate(((1,), (1, 2), (1, 2, 3))):
            np.testing.assert_array_equal(
                scores.grid[i], model.head_logprobs((0,), context)[:2].astype(np.float64))

    def test_grid_does_not_alias_the_row_cache(self):
        model = make_synthetic_model("perfect_proposals", seed=4, vocab_size=8, num_heads=4)
        first = model.score_grid((1,), (2,), (3, 4), 4)
        want = first.grid.copy()
        first.grid[:] = 0.0
        np.testing.assert_array_equal(model.score_grid((1,), (2,), (3, 4), 4).grid, want)


class TestGreedyEquivalence:
    def test_blockwise_matches_greedy_on_random_tables(self):
        for seed in range(60):
            model = make_synthetic_model("random_table", seed=seed, vocab_size=16, num_heads=8)
            k = (2, 4, 8)[seed % 3]
            config = DecodeConfig(block_size=k, max_len=24)
            want = brute_force_greedy(model, (seed % 7, 3), config)
            assert greedy_decode(model, (seed % 7, 3), config).output == want
            assert blockwise_decode(model, (seed % 7, 3), config).output == want
            assert blockwise_decode_combined(model, (seed % 7, 3), config).output == want

    def test_relaxed_criteria_can_change_output(self):
        changed = 0
        for seed in range(20):
            model = make_synthetic_model("random_table", seed=seed, vocab_size=16, num_heads=4)
            config = DecodeConfig(block_size=4, max_len=16, criterion=top_k(3))
            inp = (seed % 16,)
            base = greedy_decode(model, inp, DecodeConfig(block_size=1, max_len=16))
            out = blockwise_decode_combined(model, inp, config)
            changed += out.output != base.output
        assert changed > 0


class TestInvocationAccounting:
    def test_standard_two_calls_per_iteration(self):
        model = make_synthetic_model("perfect_proposals", seed=1, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=12)
        result = blockwise_decode(model, (5,), config)
        assert result.iterations == 3
        assert result.model_invocations == 6
        assert result.accepted_sizes == (4, 4, 4)

    def test_combined_one_call_per_iteration_plus_one(self):
        model = make_synthetic_model("perfect_proposals", seed=1, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=12)
        result = blockwise_decode_combined(model, (5,), config)
        assert result.iterations == 3
        assert result.model_invocations == 4

    def test_greedy_one_call_per_token(self):
        model = make_synthetic_model("random_table", seed=1, vocab_size=16, num_heads=4)
        result = greedy_decode(model, (5,), DecodeConfig(block_size=1, max_len=9))
        assert result.model_invocations == 9
        assert result.accepted_sizes == (1,) * 9

    def test_adversarial_accepts_one_token_per_iteration(self):
        model = make_synthetic_model("adversarial", seed=2, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=10)
        result = blockwise_decode_combined(model, (3,), config)
        assert result.accepted_sizes == (1,) * 10
        assert result.model_invocations == 11

    def test_budget_not_multiple_of_block(self):
        model = make_synthetic_model("perfect_proposals", seed=3, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=10)
        result = blockwise_decode_combined(model, (1,), config)
        assert len(result.output) == 10
        assert result.accepted_sizes == (4, 4, 2)
        greedy = greedy_decode(model, (1,), config)
        assert result.output == greedy.output


class TestMinBlockFloor:
    def test_floor_forces_fixed_blocks_on_adversarial(self):
        model = make_synthetic_model("adversarial", seed=4, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=12, criterion=exact(min_block=4))
        result = blockwise_decode_combined(model, (2,), config)
        assert result.accepted_sizes == (4, 4, 4)

    def test_forced_tokens_come_from_the_proposals(self):
        v = 6
        tables = {
            (): [onehotish(v, 1), onehotish(v, 2), onehotish(v, 3)],
            (1,): [onehotish(v, 5)] * 3,   # head 2's proposal 2 is wrong
            (1, 2): [onehotish(v, 0)] * 3,
            (1, 2, 3): [onehotish(v, 0)] * 3,
        }
        model = ScriptedModel(tables, vocab_size=v, num_heads=3)
        config = DecodeConfig(block_size=3, max_len=3, criterion=exact(min_block=3))
        result = blockwise_decode(model, (), config)
        assert result.output == (1, 2, 3)
        assert result.accepted_sizes == (3,)

    def test_floor_capped_by_remaining_budget(self):
        model = make_synthetic_model("adversarial", seed=6, vocab_size=16, num_heads=4)
        config = DecodeConfig(block_size=4, max_len=6, criterion=exact(min_block=4))
        result = blockwise_decode_combined(model, (2,), config)
        assert result.accepted_sizes == (4, 2)


class TestEosHandling:
    def scripted_eos_model(self, eos_at):
        """Perfect proposer whose greedy stream hits EOS=5 at index eos_at."""
        v, heads = 6, 4
        stream = [1, 2, 3, 4, 1, 2, 3, 4]
        stream[eos_at] = 5
        tables = {}
        for i in range(len(stream) + 1):
            ctx = tuple(stream[:i])
            rows = []
            for h in range(heads):
                idx = i + h
                winner = stream[idx] if idx < len(stream) else 0
                rows.append(onehotish(v, winner))
            tables[ctx] = rows
        return ScriptedModel(tables, vocab_size=v, num_heads=heads)

    def test_output_includes_eos_and_stops(self):
        model = self.scripted_eos_model(eos_at=5)
        config = DecodeConfig(block_size=4, max_len=8, eos_token=5)
        result = blockwise_decode_combined(model, (), config)
        assert result.output == (1, 2, 3, 4, 1, 5)
        assert result.output == greedy_decode(model, (), config).output
        assert sum(result.accepted_sizes) == 6

    def test_eos_truncates_inside_a_verified_block(self):
        model = self.scripted_eos_model(eos_at=2)
        config = DecodeConfig(block_size=4, max_len=8, eos_token=5)
        result = blockwise_decode_combined(model, (), config)
        assert result.output == (1, 2, 5)
        assert result.accepted_sizes == (3,)
        assert result.iterations == 1

    def test_eos_truncation_wins_over_min_block_floor(self):
        model = self.scripted_eos_model(eos_at=1)
        config = DecodeConfig(block_size=4, max_len=8, criterion=exact(min_block=4), eos_token=5)
        result = blockwise_decode_combined(model, (), config)
        assert result.output == (1, 5)
        assert result.accepted_sizes == (2,)

    def test_no_eos_configured_ignores_the_token(self):
        model = self.scripted_eos_model(eos_at=3)
        config = DecodeConfig(block_size=4, max_len=8)
        result = blockwise_decode_combined(model, (), config)
        assert len(result.output) == 8
        assert result.output[3] == 5


class TestModelChecks:
    def test_block_size_beyond_model_heads(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=2)
        with pytest.raises(ConfigurationError):
            blockwise_decode(model, (1,), DecodeConfig(block_size=4, max_len=4))

    def test_distance_criterion_needs_intensity_vocab(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=4)
        model.intensity_vocab = False
        config = DecodeConfig(block_size=2, max_len=4, criterion=distance(1))
        with pytest.raises(ConfigurationError):
            blockwise_decode_combined(model, (1,), config)
        model.intensity_vocab = True
        blockwise_decode_combined(model, (1,), config)

    def test_unknown_scheme_fails_before_any_model_call(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=8, num_heads=4)
        calls = []
        score_grid = model.score_grid
        model.score_grid = lambda *args: calls.append(args) or score_grid(*args)
        with pytest.raises(ConfigurationError, match="'turbo'"):
            decode(model, (1,), DecodeConfig(block_size=4, max_len=8), "turbo")
        assert calls == []

    def test_accounting_invariants_on_every_scheme(self):
        for seed in range(10):
            model = make_synthetic_model("random_table", seed=seed, vocab_size=12, num_heads=4)
            config = DecodeConfig(block_size=4, max_len=15, criterion=top_k(2))
            for fn in (greedy_decode, blockwise_decode, blockwise_decode_combined):
                result = fn(model, (seed,), config)
                assert sum(result.accepted_sizes) == len(result.output)
                assert result.iterations == len(result.accepted_sizes)
                assert all(1 <= s <= 4 for s in result.accepted_sizes)
                assert len(result.output) <= config.max_len
                assert result.model_invocations >= result.iterations


class FlakyModel(ScoringModel):
    """Scores every row and head alike, but the winning token and its top-2
    margin follow a per-call script, so scoring is not deterministic."""

    num_heads = 2
    vocab_size = 4

    def __init__(self, script):
        self.script = list(script)  # (winner, margin) per call

    def score_grid(self, input_tokens, prefix, candidates, k):
        winner, margin = self.script.pop(0)
        logits = np.zeros(self.vocab_size)
        logits[winner] = margin
        row = logits - np.log(np.exp(logits).sum())
        grid = np.broadcast_to(row, (len(candidates) + 1, k, self.vocab_size))
        return BlockScores(grid=grid.copy(), base_len=len(prefix))


@pytest.mark.parametrize("decode, script, where, margins", [
    # the predict call proposes 0, the verify call prefers 1
    (blockwise_decode, [(0, 0.5), (1, 0.25)], "iteration 0, prefix length 0",
     "5.000e-01 in the row the proposal was read from, 2.500e-01 in the verify row"),
    # the first verify call accepts both proposals; the next one, fed from
    # that call's row 2, rejects its own base proposal
    (blockwise_decode_combined, [(0, 0.5), (0, 0.75), (1, 0.25)], "iteration 1, prefix length 2",
     "7.500e-01 in the row the proposal was read from, 2.500e-01 in the verify row"),
])
def test_rejected_base_proposal_error_is_diagnosable(decode, script, where, margins):
    with pytest.raises(ModelContractError) as info:
        decode(FlakyModel(script), (1,), DecodeConfig(block_size=2, max_len=10))
    message = str(info.value)
    assert "rejected its own base proposal" in message
    assert where in message
    assert margins in message
