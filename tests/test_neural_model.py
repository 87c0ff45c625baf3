"""Structural guarantees of the numpy k-head model."""

from pathlib import Path

import numpy as np
import pytest

from blockdec.engine import (
    SCHEMES,
    DecodeConfig,
    blockwise_decode_combined,
    decode,
    greedy_decode,
)
from blockdec.errors import ConfigurationError, LengthError
from blockdec.models.base import log_softmax
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.neural import (
    LN_EPS,
    MASK_VALUE,
    PARTITIONS,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    _Folded,
    _Weights,
    _softmax,
    partition_of,
    sub_loss,
    train_step,
)
from blockdec.models.synthetic import SYNTHETIC_KINDS, make_synthetic_model

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "neural_decode.ckpt"


def small_config(**overrides):
    base = dict(vocab_size=12, d_model=8, d_hidden=8, num_heads=3,
                num_layers=2, max_context=16, sep_token=10, eos_token=11)
    base.update(overrides)
    return ModelConfig(**base)


SCORING_MODELS = ("tiny-float32", "tiny-float64") + SYNTHETIC_KINDS


def scoring_model(name, seed):
    """A 3-head model over the small_config vocabulary, neural or synthetic."""
    if name.startswith("tiny-"):
        return TinyBlockModel(small_config(), seed=seed, dtype=name[len("tiny-"):])
    return make_synthetic_model(name, seed=seed, vocab_size=12, num_heads=3)


# elementwise tolerances of the kernels against float64 references, by dtype
KERNEL_TOL = {
    "float32": dict(rtol=1e-5, atol=1e-6),
    "float64": dict(rtol=1e-12, atol=1e-14),
}


def reference_layernorm(x, g, b):
    x, g, b = (np.asarray(a, dtype=np.float64) for a in (x, g, b))
    mu = x.sum(axis=-1, keepdims=True) / x.shape[-1]
    var = ((x - mu) ** 2).sum(axis=-1, keepdims=True) / x.shape[-1]
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def reference_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestKernels:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_layernorm_matches_float64_reference(self, dtype):
        tol = KERNEL_TOL[dtype]
        rng = np.random.default_rng(0)
        batch = rng.normal(0.5, 2.0, size=(3, 12, 64)).astype(dtype)
        g = rng.normal(1.0, 0.1, size=64).astype(dtype)
        b = rng.normal(0.0, 0.1, size=64).astype(dtype)
        slabs = rng.normal(0.5, 2.0, size=(5, 1, 64)).astype(dtype)
        layernorm = _Weights(TinyBlockModel(small_config(d_model=64), dtype=dtype)).layernorm
        # a training batch, and (n, 1, D) slabs
        for x in (batch, slabs):
            xhat, inv = np.empty_like(x), np.empty(x.shape[:-1] + (1,), dtype=dtype)
            y = layernorm(x, g, b, xhat=xhat, inv=inv)
            assert y.dtype == xhat.dtype == inv.dtype == np.dtype(dtype)
            assert y.shape == x.shape and inv.shape == x.shape[:-1] + (1,)
            np.testing.assert_allclose(y, reference_layernorm(x, g, b), **tol)
            np.testing.assert_allclose(xhat, reference_layernorm(x, np.ones(64), np.zeros(64)),
                                       **tol)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_softmax_matches_float64_reference(self, dtype):
        tol = KERNEL_TOL[dtype]
        rng = np.random.default_rng(1)
        # attention-shaped scores under a causal mask, as a layer builds them
        mask = np.triu(np.full((12, 24), MASK_VALUE), k=13)
        x = (rng.normal(0.0, 3.0, size=(2, 12, 24)) + mask).astype(dtype)
        y = _softmax(x)
        assert y.dtype == np.dtype(dtype) and y.shape == x.shape
        np.testing.assert_allclose(y, reference_softmax(x), **tol)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, **tol)
        assert not y[:, mask < 0].any()


class TestConfigAndParams:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(vocab_size=1)
        with pytest.raises(ConfigurationError):
            small_config(sep_token=12)
        with pytest.raises(ConfigurationError):
            small_config(eos_token=-2)
        with pytest.raises(ConfigurationError):
            small_config(num_layers=0)
        assert small_config(eos_token=None).eos_token is None

    def test_partition_assignment(self):
        model = TinyBlockModel(small_config(), seed=0)
        parts = {name: partition_of(name) for name in model.params}
        assert set(parts.values()) == set(PARTITIONS)
        assert [n for n, part in parts.items() if part == "vocab_projection"] == ["proj.w"]
        assert {n for n, part in parts.items() if part == "head_extension"} == {
            "ext.w1", "ext.b1", "ext.w2", "ext.b2"}
        assert parts["tok_emb"] == parts["l1.attn.wq"] == parts["lnf.g"] == "base"

    def test_same_seed_same_params(self):
        a = TinyBlockModel(small_config(), seed=4)
        b = TinyBlockModel(small_config(), seed=4)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_explicit_params_validated(self):
        model = TinyBlockModel(small_config(), seed=0)
        good = {k: v.copy() for k, v in model.params.items()}
        TinyBlockModel(small_config(), params=good)
        bad = dict(good)
        del bad["proj.w"]
        with pytest.raises(ConfigurationError):
            TinyBlockModel(small_config(), params=bad)
        bad = dict(good)
        bad["proj.w"] = bad["proj.w"].T
        with pytest.raises(ConfigurationError):
            TinyBlockModel(small_config(), params=bad)

    def test_copy_is_independent(self):
        model = TinyBlockModel(small_config(), seed=0)
        clone = model.copy()
        clone.params["proj.w"][0, 0] += 1.0
        assert model.params["proj.w"][0, 0] != clone.params["proj.w"][0, 0]


class TestScoreGrid:
    def test_grid_shape_and_normalization(self):
        model = TinyBlockModel(small_config(), seed=1)
        grid = model.score_grid((1, 2), (3,), (4, 5), 3)
        assert grid.grid.shape == (3, 3, 12)
        assert grid.base_len == 1
        np.testing.assert_allclose(np.exp(grid.grid).sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("name", SCORING_MODELS)
    def test_row_i_equals_extended_prefix_row_zero(self, name):
        """Grid row i must be bitwise the row-0 scores of prefix+candidates[:i]."""
        model = scoring_model(name, seed=2)
        grid = model.score_grid((1, 2), (3,), (4, 5, 6), 3)
        for i, extra in enumerate([(), (4,), (4, 5), (4, 5, 6)]):
            single = model.score_grid((1, 2), (3,) + extra, (), 3)
            np.testing.assert_array_equal(grid.grid[i], single.grid[0])

    def test_later_candidates_do_not_affect_earlier_rows(self):
        model = TinyBlockModel(small_config(), seed=3)
        a = model.score_grid((7,), (1,), (2, 3, 4), 3)
        b = model.score_grid((7,), (1,), (2, 9, 9), 3)
        np.testing.assert_array_equal(a.grid[0], b.grid[0])
        np.testing.assert_array_equal(a.grid[1], b.grid[1])
        assert not np.array_equal(a.grid[2], b.grid[2])

    @pytest.mark.parametrize("name", SCORING_MODELS)
    def test_repeated_calls_bitwise_identical(self, name):
        model = scoring_model(name, seed=4)
        a = model.score_grid((1, 2, 3), (4,), (5, 6), 2)
        b = model.score_grid((1, 2, 3), (4,), (5, 6), 2)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_context_overflow_raises(self):
        model = TinyBlockModel(small_config(max_context=8), seed=0)
        model.score_grid((1, 2, 3), (4, 5), (6, 7), 2)  # 8 tokens with SEP
        with pytest.raises(LengthError):
            model.score_grid((1, 2, 3), (4, 5), (6, 7, 8), 2)

    def test_out_of_vocab_token_rejected(self):
        model = TinyBlockModel(small_config(), seed=0)
        with pytest.raises(ConfigurationError, match=r"token id 12 in the input .* \[0, 12\)"):
            model.score_grid((12,), (), (), 2)
        with pytest.raises(ConfigurationError, match="token id -1 in the candidates"):
            model.score_grid((1,), (2,), (3, -1), 2)
        with pytest.raises(ConfigurationError, match="token id 12 in the target of pair 1"):
            TrainBatch.from_pairs([((1,), (2,)), ((1,), (3, 12))], model.config)

    @pytest.mark.parametrize("inp, prefix, candidates, bad", [
        ((1.7, 2), (), (), r"token id 1.7 in the input is not an integer"),
        ((1, 2), ("3",), (), r"token id '3' in the prefix is not an integer"),
        ((1,), (2,), (3, np.float64(4.0)), r"token id np.float64\(4.0\) in the candidates"),
    ])
    def test_a_non_integer_token_id_is_refused_not_truncated(self, inp, prefix, candidates, bad):
        """int() would truncate 1.7 to 1 and parse "3"; the check names the
        id and its part instead, and a string does not reach min()."""
        model = TinyBlockModel(small_config(), seed=0)
        with pytest.raises(ConfigurationError, match=bad):
            model.score_grid(inp, prefix, candidates, 1)
        with pytest.raises(ConfigurationError, match="token id 1.7 in the input of pair 1"):
            TrainBatch.from_pairs([((1,), (2,)), ((1.7,), (3,))], model.config)

    def test_too_many_heads_rejected(self):
        model = TinyBlockModel(small_config(), seed=0)
        with pytest.raises(ConfigurationError):
            model.score_grid((1,), (), (), 4)

    def test_vocab_projection_is_shared_across_heads(self):
        # projection size is independent of head count, and nudging it
        # moves every head's scores
        for heads in (2, 3):
            model = TinyBlockModel(small_config(num_heads=heads), seed=0)
            assert model.params["proj.w"].shape == (8, 12)
        model = TinyBlockModel(small_config(), seed=5)
        before = model.score_grid((1, 2), (3,), (4,), 3).grid
        model.params["proj.w"][0, 0] += 0.5
        after = model.score_grid((1, 2), (3,), (4,), 3).grid
        for head in range(3):
            assert not np.array_equal(before[:, head], after[:, head])


class TestTrunkWork:
    """Which positions a score_grid call runs the trunk on."""

    @staticmethod
    def spied(model):
        """Record (first position, positions computed) of every trunk run."""
        runs = []
        forward = model._positions_forward

        def spy(tokens, first, cache):
            runs.append((first, len(tokens)))
            return forward(tokens, first, cache)

        model._positions_forward = spy
        return runs

    def test_runs_from_the_first_new_position_to_the_end(self):
        model = TinyBlockModel(small_config(), seed=1)
        runs = self.spied(model)
        inp = (1, 2)
        with model.session(inp):
            model.score_grid(inp, (3, 4), (5, 6), 3)  # 1 2 SEP 3 4 5 6
            model.score_grid(inp, (3, 4, 5), (7, 8), 3)  # new from position 6
            model.score_grid(inp, (3,), (9,), 3)  # new from position 4
            model.score_grid(inp, (3, 9, 5), (), 3)  # position 5 was dropped above
        model.score_grid(inp, (3, 4), (5, 6), 3)  # outside a session: every position
        assert runs == [(0, 7), (6, 2), (4, 1), (5, 1), (0, 7)]

    def test_repeated_and_predict_calls_run_no_trunk(self):
        model = TinyBlockModel(small_config(), seed=1)
        runs = self.spied(model)
        inp = (1, 2)
        with model.session(inp):
            model.score_grid(inp, (3,), (4, 5, 6), 3)
            del runs[:]
            model.score_grid(inp, (3,), (4, 5, 6), 3)
            model.score_grid(inp, (3, 4, 5), (), 3)  # the next predict call of a standard decode
        assert runs == []

    def test_greedy_decode_runs_one_position_per_token(self):
        model = TinyBlockModel(small_config(eos_token=None), seed=5)
        runs = self.spied(model)
        inp = (1, 2, 3)
        result = greedy_decode(model, inp, DecodeConfig(block_size=3, max_len=10))
        assert len(result.output) == 10
        # the first call computes the input and SEP, every later one the token
        # accepted last
        assert [n for _, n in runs] == [len(inp) + 1] + [1] * 9
        assert sum(n for _, n in runs) == len(inp) + len(result.output)


class TestHeadWork:
    """Where score_grid computes head windows: only in the trunk step, one
    window per num_heads + 1 positions it computes from the separator on."""

    @pytest.fixture
    def work(self, monkeypatch):
        """Per score_grid call, its candidates and its trunk runs as (first
        position, end, separator, first row of each head window the run
        computed); windows computed outside a trunk run go to "outside"."""
        log = {"calls": [], "outside": 0}
        running = []  # the trunk run in progress, if any
        forward, heads, score_grid = (
            TinyBlockModel._positions_forward, _Folded.heads, TinyBlockModel.score_grid)

        def spy_score_grid(model, input_tokens, prefix, candidates, k):
            log["calls"].append((tuple(candidates), []))
            return score_grid(model, input_tokens, prefix, candidates, k)

        def spy_forward(model, tokens, first, cache):
            run = (first, first + len(tokens), cache.sep, [])
            log["calls"][-1][1].append(run)
            running.append((run, cache.hidden))
            try:
                return forward(model, tokens, first, cache)
            finally:
                running.pop()

        def spy_heads(weights, hf, cache):
            if running:
                (run, hidden), = running
                # the window's first row, from its offset into the buffer
                offset = hf.__array_interface__["data"][0] - hidden.__array_interface__["data"][0]
                run[3].append(offset // hidden.strides[0])
            else:
                log["outside"] += 1
            return heads(weights, hf, cache)

        monkeypatch.setattr(TinyBlockModel, "score_grid", spy_score_grid)
        monkeypatch.setattr(TinyBlockModel, "_positions_forward", spy_forward)
        monkeypatch.setattr(_Folded, "heads", spy_heads)
        return log

    def test_repeated_and_predict_calls_compute_no_window(self, work):
        model = TinyBlockModel(small_config(), seed=1)
        inp = (1, 2)

        def windows():
            return sum(len(run[3]) for _, runs in work["calls"] for run in runs)

        with model.session(inp):
            # 1 2 SEP 3 4 5 6: positions 2-6 from the separator, two windows
            model.score_grid(inp, (3,), (4, 5, 6), 3)
            assert windows() == 2
            model.score_grid(inp, (3,), (4, 5, 6), 2)
            model.score_grid(inp, (3, 4, 5), (), 3)  # the next predict call of a standard decode
            model.score_grid(inp, (3, 4), (5,), 1)
            assert windows() == 2
            model.score_grid(inp, (3, 4, 5, 7), (), 3)  # a new token: the trunk runs
            assert windows() == 3

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_each_computed_position_passes_through_the_heads_once(self, work, scheme):
        """Only a call whose trunk ran computes a head window, and each run
        scores every position it computes from the separator on in one of
        consecutive windows from the first of them."""
        model = TinyBlockModel(small_config(eos_token=None), seed=5)
        result = decode(model, (1, 2, 3), DecodeConfig(block_size=3, max_len=10), scheme)
        assert len(result.output) == 10
        assert len(work["calls"]) == result.model_invocations
        assert work["outside"] == 0
        n = model.num_heads + 1
        for _, runs in work["calls"]:
            for first, end, sep, windows in runs:
                assert sep == 3
                assert windows == list(range(max(first, sep), end, n))

    def test_a_standard_predict_call_after_its_verify_call_computes_none(self, work):
        model = TinyBlockModel(small_config(eos_token=None), seed=5)
        decode(model, (1, 2, 3), DecodeConfig(block_size=3, max_len=10), "standard")
        calls = work["calls"]
        predicts = [runs for (before, _), (candidates, runs) in zip(calls, calls[1:])
                    if before and not candidates]
        assert predicts and all(runs == [] for runs in predicts)

    def test_a_returned_grid_is_not_the_sessions(self):
        model = TinyBlockModel(small_config(), seed=1)
        inp = (1, 2)
        with model.session(inp):
            first = model.score_grid(inp, (3,), (4, 5), 3).grid
            want = first.copy()
            first[:] = 0.0
            again = model.score_grid(inp, (3,), (4, 5), 3).grid
            np.testing.assert_array_equal(again, want)
            again[:] = 0.0
            np.testing.assert_array_equal(model.score_grid(inp, (3, 4), (), 3).grid, want[1:2])


def decode_grids(model, inp, config):
    """The grid of every score_grid call of a combined decode."""
    grids = []
    score_grid = model.score_grid

    def record(*args):
        scores = score_grid(*args)
        grids.append(scores.grid)
        return scores

    model.score_grid = record
    blockwise_decode_combined(model, inp, config)
    del model.score_grid
    return grids


class TestDecodeBinding:
    """The decode step's folded weights are folded once per version of the
    parameters and shared by every session and stateless call, and a
    session or stateless call after any parameter write folds them again."""

    @pytest.fixture
    def folds(self, monkeypatch):
        """The model of every fold, in order."""
        models, fold = [], _Folded.__init__

        def spy(folded, model):
            models.append(model)
            fold(folded, model)

        monkeypatch.setattr(_Folded, "__init__", spy)
        return models

    def test_sessions_with_no_write_between_fold_once(self, folds):
        model = TinyBlockModel(small_config(), seed=1)
        inp = (1, 2)
        for _ in range(4):
            with model.session(inp):
                model.score_grid(inp, (3,), (4, 5), 3)
                model.score_grid(inp, (3, 4), (6,), 3)
            model.score_grid(inp, (3,), (4,), 2)  # stateless
        assert folds == [model]
        model.params["l1.mlp.b1"][0] += 0.25
        for _ in range(2):
            with model.session(inp):
                model.score_grid(inp, (3,), (4, 5), 3)
        assert folds == [model, model]

    @pytest.mark.parametrize("name", ["tok_emb", "pos_emb", "l0.ln1.g", "l0.attn.wq", "l0.attn.wk",
                                      "l0.attn.wv", "l1.attn.wo", "l1.ln2.b", "l1.mlp.w2",
                                      "l1.mlp.b2", "lnf.g", "ext.w1", "ext.w2", "ext.b2",
                                      "proj.w"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_write_between_two_sessions_is_seen(self, dtype, name):
        """A parameter written in place between two sessions: the second
        session scores as a copy of the written model does."""
        model = TinyBlockModel(small_config(), seed=5, dtype=dtype)
        inp = (1, 2)
        with model.session(inp):
            before = model.score_grid(inp, (3,), (4, 5), 3).grid
        model.params[name][..., 1] += 0.5
        with model.session(inp):
            after = model.score_grid(inp, (3,), (4, 5), 3).grid
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, model.copy().score_grid(inp, (3,), (4, 5), 3).grid)

    def test_a_replaced_parameter_is_seen(self):
        model = TinyBlockModel(small_config(), seed=5)
        before = model.score_grid((1, 2), (3,), (4,), 3).grid
        model.params["proj.w"] = model.params["proj.w"] * 2
        after = model.score_grid((1, 2), (3,), (4,), 3).grid
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, model.copy().score_grid((1, 2), (3,), (4,), 3).grid)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_train_step_in_a_train_run_is_seen_by_the_next_decode(self, dtype):
        model = TinyBlockModel(small_config(), seed=8, dtype=dtype)
        inp, config = (1, 2), DecodeConfig(block_size=3, max_len=8, eos_token=11)
        before = decode_grids(model, inp, config)
        batch = TrainBatch.from_pairs([(inp, (3, 4, 5, 11)), ((6,), (7, 8, 11))], model.config)
        with model.train_run(2):
            train_step(model, batch, head=2, learning_rate=0.5)
            after = decode_grids(model, inp, config)
        fresh = decode_grids(model.copy(), inp, config)
        assert not np.array_equal(before[0], after[0])
        assert len(after) == len(fresh)
        for got, want in zip(after, fresh):
            np.testing.assert_array_equal(got, want)


class TestDecodingWithNeuralModel:
    def test_a_train_step_between_decodes_is_seen(self):
        """A session binds the weights it reads when it opens, so the decode
        after a train step scores as a copy of the trained model does."""
        model = TinyBlockModel(small_config(), seed=8)
        inp, config = (1, 2), DecodeConfig(block_size=3, max_len=8, eos_token=11)
        before = decode_grids(model, inp, config)
        batch = TrainBatch.from_pairs([(inp, (3, 4, 5, 11)), ((6,), (7, 8, 11))], model.config)
        train_step(model, batch, head=1, learning_rate=0.5)
        after = decode_grids(model, inp, config)
        fresh = decode_grids(model.copy(), inp, config)
        assert not np.array_equal(before[0], after[0])
        assert len(after) == len(fresh)
        for got, want in zip(after, fresh):
            np.testing.assert_array_equal(got, want)

    def test_blockwise_equals_greedy_untrained(self):
        model = TinyBlockModel(small_config(), seed=5)
        config = DecodeConfig(block_size=3, max_len=8, eos_token=11)
        for inp in ((1,), (2, 3), (4, 5, 6)):
            greedy = greedy_decode(model, inp, config)
            combined = blockwise_decode_combined(model, inp, config)
            assert combined.output == greedy.output

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_head_matches_score_grid_head(self, dtype):
        """Training's one-head logits and loss read the head that decoding
        reads at the same position: the decode step's folded weights give
        the unfolded forward's log-probs for every head at every row, on a
        small model and, within KERNEL_TOL, on the trained checkpoint."""
        small = small_config()
        trained = load_checkpoint(CHECKPOINT)
        eos = trained.config.eos_token
        cases = [
            (TinyBlockModel(small, seed=7, dtype=dtype), (1, 2), (3, 4, 5, 11), ((6,), (7, 8)),
             dict.fromkeys(("rtol", "atol"), {"float32": 1e-4, "float64": 1e-10}[dtype])),
            (TinyBlockModel(trained.config, dtype=dtype, params=trained.params), (1, 2, 3),
             (1, 2, 3) * 14 + (eos,), ((4, 5), (4, 5) * 14), KERNEL_TOL[dtype]),
        ]
        for model, inp, tgt, other, tol in cases:
            batch = TrainBatch.from_pairs([(inp, tgt), other], model.config)
            one = TrainBatch.from_pairs([(inp, tgt)], model.config)
            hf, memory = model.trunk_forward(batch.ids)
            k = model.num_heads
            grid = model.score_grid(inp, (), tgt, k).grid  # row i sits at position len(inp) + i
            # hf's rows are the trunk's packed positions, a row's in order;
            # batch row 0's position p has flat index p
            at = np.flatnonzero(np.isin(memory.index, len(inp) + np.arange(len(grid))))
            for head in range(1, k + 1):
                logits = memory.weights.heads(hf, head - 1, head)[..., 0, :]
                rows = log_softmax(logits[at])
                np.testing.assert_allclose(rows, grid[:, head - 1], **tol)
                picked = [grid[i, head - 1, tgt[i + head - 1]]
                          for i in range(len(tgt) - head + 1)]
                assert sub_loss(model, one, head) == pytest.approx(-np.mean(picked),
                                                                   rel=tol["rtol"])

    def test_head_offsets_differ(self):
        """Heads must predict different offsets, not copies of head 1."""
        model = TinyBlockModel(small_config(), seed=6)
        grid = model.score_grid((1, 2), (), (), 3)
        assert not np.array_equal(grid.grid[0, 0], grid.grid[0, 1])
        assert not np.array_equal(grid.grid[0, 1], grid.grid[0, 2])


class TestTrainBatch:
    def test_compose_layout(self):
        cfg = small_config()
        batch = TrainBatch.from_pairs([((1, 2), (3, 4, 11))], cfg)
        row = batch.ids[0]
        assert list(row[:6]) == [1, 2, 10, 3, 4, 11]
        assert batch.input_lens[0] == 2
        assert batch.target_lens[0] == 3
        assert batch.ids.shape == (1, cfg.max_context)
        assert set(row[6:]) == {0}

    def test_rejects_bad_pairs(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            TrainBatch.from_pairs([], cfg)
        with pytest.raises(ConfigurationError):
            TrainBatch.from_pairs([((1,), ())], cfg)
        with pytest.raises(ConfigurationError):
            TrainBatch.from_pairs([((1,), (12,))], cfg)
        with pytest.raises(LengthError):
            TrainBatch.from_pairs([(tuple(range(1, 9)), tuple(range(1, 9)))], cfg)
