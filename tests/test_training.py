"""Training loop behavior: loss trends, estimator bias, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from blockdec.errors import ConfigurationError, LengthError
from blockdec.harness import training as training_module
from blockdec.harness.bench import BenchConfig, distill_corpus, run_bench
from blockdec.harness.corpus import Corpus, Vocab, _text_vocab, encode_text, make_pattern_corpus
from blockdec.harness.training import (
    TrainingConfig,
    default_model_config,
    train_model,
    training_pairs,
)
from blockdec.models.neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    loss_and_gradients,
    sub_loss,
    train_step,
)


def tiny_corpus(**overrides):
    kwargs = dict(rule="repeat", alphabet=8, n_pairs=64, min_len=3, max_len=3,
                  copies=2, noise=0.0, seed=1)
    kwargs.update(overrides)
    return make_pattern_corpus(**kwargs)


def tiny_training(**overrides):
    kwargs = dict(steps=150, batch_size=8, learning_rate=0.3, seed=0)
    kwargs.update(overrides)
    return TrainingConfig(**kwargs)


def tiny_model_config(corpus):
    return default_model_config(corpus, num_heads=3, d_model=16, d_hidden=16, num_layers=1)


def text_corpus(rows):
    return Corpus(kind="text_char", vocab=_text_vocab(),
                  pairs=tuple((encode_text(i), encode_text(t)) for i, t in rows))


# the longest input and the longest target sit in different pairs
MIXED_TEXT = (("abcdefghij", "x"), ("a", "klmnopqrst"))

# corpus and its decode budget, as before the context rule changed
LENGTH_CASES = {
    "text_mixed": (lambda: text_corpus(MIXED_TEXT), 11),
    "text": (lambda: text_corpus((("abc", "cba"), ("hello", "olleh"))), 6),
    "pattern_generated": (lambda: make_pattern_corpus(
        "reverse", alphabet=6, n_pairs=20, min_len=1, max_len=7, seed=3), 8),
    "pattern_materialized_mixed": (lambda: Corpus(
        kind="synthetic_pattern", vocab=Vocab(size=6, sep_token=4, eos_token=5),
        pairs=(((0,) * 9, (1,)), ((2,), (3,) * 12), ((1, 2), (0, 1, 2)))), 13),
    "grid": (lambda: Corpus(
        kind="intensity_grid", vocab=Vocab(size=257, sep_token=256, eos_token=None, intensity=True),
        pairs=(((1,) * 12, (0,) * 6), ((3,), (9,) * 6)), fixed_target_len=6,
        meta={"width": 3, "height": 2}), 6),
    # a fixed length is the budget even when the vocabulary has an end token
    "fixed_length_with_end_token": (lambda: Corpus(
        kind="synthetic_pattern", vocab=Vocab(size=10, sep_token=8, eos_token=9),
        pairs=(((1,) * 5, (2, 3, 4)), ((4,), (5, 6, 7))), fixed_target_len=3), 3),
}


class TestDefaults:
    def test_model_config_sized_to_corpus(self):
        corpus = tiny_corpus()
        cfg = default_model_config(corpus)
        assert cfg.vocab_size == corpus.vocab.size
        assert cfg.sep_token == corpus.vocab.sep_token
        assert cfg.eos_token == corpus.vocab.eos_token
        # 3 input + SEP + 6 target + EOS = 11, rounded up to 16
        assert cfg.max_context == 16

    @pytest.mark.parametrize("make, budget", LENGTH_CASES.values(), ids=LENGTH_CASES.keys())
    def test_context_holds_every_pair_and_every_decode(self, make, budget):
        corpus = make()
        pairs = training_pairs(corpus)
        longest_input = max(len(i) for i, _ in pairs)
        longest_target = max(len(t) for _, t in pairs)
        assert default_model_config(corpus).max_context >= longest_input + 1 + longest_target
        assert corpus.decode_budget() == budget

    @pytest.mark.parametrize("seed", range(4))
    def test_a_default_model_decodes_its_own_corpus(self, seed):
        corpus = text_corpus(MIXED_TEXT)
        config = default_model_config(corpus, num_heads=4, d_model=16, d_hidden=16, num_layers=1)
        model = TinyBlockModel(config, seed=seed)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 2, 4), repeats=1))
        assert report.meta["pairs"] == 2
        # the same pairs and vocabulary as a pattern corpus, which holds any
        # id: an untrained model's decodes are seldom UTF-8 text
        distill_corpus(model, dataclasses.replace(corpus, kind="synthetic_pattern"))
        assert config.max_context == 24  # 10 input + SEP + 10 target + EOS, rounded up

    def test_training_pairs_append_eos(self):
        corpus = tiny_corpus()
        pairs = training_pairs(corpus)
        eos = corpus.vocab.eos_token
        assert all(t[-1] == eos for _, t in pairs)
        assert all(t[:-1] == orig for (_, t), (_, orig) in zip(pairs, corpus.pairs))

    def test_training_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(steps=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(learning_rate=-1)
        with pytest.raises(ConfigurationError):
            TrainingConfig(lr_decay=2.0)
        with pytest.raises(ConfigurationError, match="seed"):
            TrainingConfig(seed=-1)
        with pytest.raises(ConfigurationError, match="log_every"):
            TrainingConfig(log_every=-1)

    @pytest.mark.parametrize("setting", [
        dict(max_grad_norm=-1.0), dict(max_grad_norm=0.0), dict(max_grad_norm=float("nan")),
        dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
    ], ids=["negative-clip", "zero-clip", "nan-clip", "nan-rate", "inf-rate"])
    def test_a_bad_clip_norm_or_learning_rate_fails_before_the_first_step(self, setting):
        """A negative clip norm climbs the gradient, zero stops training, NaN
        skips the clip, and a NaN or infinite rate makes every parameter NaN:
        the config and the step both refuse them before any update."""
        name = next(iter(setting))
        with pytest.raises(ConfigurationError, match=name):
            TrainingConfig(**setting)
        corpus = tiny_corpus()
        model = TinyBlockModel(tiny_model_config(corpus), seed=0)
        before = {name: p.copy() for name, p in model.params.items()}
        batch = TrainBatch.from_pairs(training_pairs(corpus)[:4], model.config)
        step = dict(learning_rate=0.3, max_grad_norm=1.0) | setting
        with pytest.raises(ConfigurationError, match=name):
            train_step(model, batch, 1, **step)
        for name, param in model.params.items():
            np.testing.assert_array_equal(param, before[name])

    def test_no_clip_norm_means_no_clip(self):
        assert TrainingConfig(max_grad_norm=None).max_grad_norm is None
        assert TrainingConfig(max_grad_norm=float("inf"), learning_rate=1e-9)


class TestTrainModel:
    def test_loss_decreases(self):
        corpus = tiny_corpus()
        model, losses = train_model(corpus, tiny_model_config(corpus), tiny_training())
        assert len(losses) == 150
        assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])

    def test_deterministic_given_seed(self):
        corpus = tiny_corpus()
        a, la = train_model(corpus, tiny_model_config(corpus), tiny_training())
        b, lb = train_model(corpus, tiny_model_config(corpus), tiny_training())
        assert la == lb
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_the_run(self):
        corpus = tiny_corpus()
        _, la = train_model(corpus, tiny_model_config(corpus), tiny_training())
        _, lb = train_model(corpus, tiny_model_config(corpus), tiny_training(seed=1))
        assert la != lb

    def test_freeze_keeps_partitions_fixed(self):
        corpus = tiny_corpus()
        base = TinyBlockModel(tiny_model_config(corpus), seed=9)
        frozen_names = [n for n in base.params if not n.startswith(("ext.", "proj."))]
        before = {n: base.params[n].copy() for n in frozen_names}
        model, _ = train_model(
            corpus, training=tiny_training(freeze=FreezeMask(base=True)), model=base
        )
        assert model is base
        for name in frozen_names:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_vocab_mismatch_rejected(self):
        corpus = tiny_corpus()
        wrong = ModelConfig(vocab_size=50, d_model=8, d_hidden=8, num_heads=2,
                            num_layers=1, max_context=16, sep_token=40)
        model = TinyBlockModel(wrong, seed=0)
        with pytest.raises(ConfigurationError, match=r"\(50 tokens, separator 40\) .* "
                                                     r"\(10 tokens, separator 8\)"):
            train_model(corpus, model=model)

    def test_a_model_config_with_a_model_fails_before_the_first_step(self, monkeypatch):
        # even the model's own config: a model never takes another one
        corpus = tiny_corpus()
        config = tiny_model_config(corpus)
        model = TinyBlockModel(config, seed=0)
        calls = []
        monkeypatch.setattr(training_module, "train_step",
                            lambda *args, **kwargs: calls.append(args) or 0.0)
        with pytest.raises(ConfigurationError, match="keeps its own architecture"):
            train_model(corpus, config, tiny_training(steps=3), model=model)
        assert calls == []


def reference_training(corpus, model, training):
    """train_model's loop with each step's batch composed from its pairs."""
    pairs = training_pairs(corpus)
    rng = np.random.default_rng(training.seed)
    losses = []
    for step in range(training.steps):
        idx = rng.integers(0, len(pairs), size=training.batch_size)
        batch = TrainBatch.from_pairs([pairs[i] for i in idx], model.config)
        head = int(rng.integers(1, model.num_heads + 1))
        lr = training.learning_rate * (1.0 - training.lr_decay * step / training.steps)
        losses.append(train_step(model, batch, head, lr, freeze=training.freeze,
                                 max_grad_norm=training.max_grad_norm))
    return losses


class TestComposedOnce:
    @pytest.mark.parametrize("dtype, freeze, max_grad_norm", [
        (np.float32, FreezeMask(), 1.0),
        (np.float64, FreezeMask(), 1.0),
        (np.float32, FreezeMask(base=True), 0.05),
        (np.float64, FreezeMask(base=True), 0.05),
    ])
    def test_bitwise_equal_to_composing_every_step(self, dtype, freeze, max_grad_norm):
        corpus = tiny_corpus(min_len=2, max_len=5)
        training = tiny_training(steps=120, freeze=freeze, max_grad_norm=max_grad_norm)
        model = TinyBlockModel(tiny_model_config(corpus), seed=5, dtype=dtype)
        reference = model.copy()
        trained, losses = train_model(corpus, training=training, model=model)
        assert losses == reference_training(corpus, reference, training)
        for name in reference.params:
            np.testing.assert_array_equal(trained.params[name], reference.params[name])

    @pytest.mark.parametrize("steps, seed", [(1, 0), (1, 3), (200, 0)])
    def test_a_pair_past_the_context_fails_before_the_first_step(
        self, monkeypatch, steps, seed
    ):
        corpus = tiny_corpus()
        config = tiny_model_config(corpus)
        pairs = list(corpus.pairs)
        pairs.insert(40, ((1,) * 10, (2,) * 5))  # 10 + SEP + 5 + EOS = 17 > 16
        long_corpus = dataclasses.replace(corpus, pairs=tuple(pairs))
        calls = []
        monkeypatch.setattr(training_module, "train_step",
                            lambda *args, **kwargs: calls.append(args) or 0.0)
        with pytest.raises(LengthError, match="pair 40: composed sequence of 17 tokens "
                                              "exceeds context 16"):
            train_model(long_corpus, config, tiny_training(steps=steps, seed=seed))
        assert calls == []


class TestStepMemory:
    """A train_model run keeps one set of batch-sized arrays across its
    steps (`TinyBlockModel.train_run`)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reused_memory_leaks_nothing_between_steps(self, dtype):
        """Step B on a run's memory, after step A on another head and other
        rows, gives B's loss and every gradient bitwise as on new memory:
        A's positions in dlogits, its tokens' rows of the embedding gradient
        and its head's columns of ext.w2 and ext.b2 are all cleared."""
        config = ModelConfig(vocab_size=10, d_model=8, d_hidden=8, num_heads=3,
                             num_layers=2, max_context=16, sep_token=8, eos_token=9)
        model = TinyBlockModel(config, seed=4, dtype=dtype)
        # X holds every symbol and long targets; Y only symbols 0 and 1, and
        # targets too short for head 3
        x = TrainBatch.from_pairs([((i, 7 - i, i), (i, 2, 3, 4, 5, 6, 9)) for i in range(8)],
                                  config)
        y = TrainBatch.from_pairs([((i % 2,), (1, 0, 9)) for i in range(8)], config)
        loss, fresh = loss_and_gradients(model, y, 1)
        with model.train_run(8):
            _, after_x = loss_and_gradients(model, x, 3)
            run_loss, after_y = loss_and_gradients(model, y, 1)
        assert all(after_y[name] is after_x[name] for name in after_x)  # the same arrays
        assert run_loss == loss and after_y.keys() == fresh.keys()
        for name, grad in fresh.items():
            np.testing.assert_array_equal(after_y[name], grad, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("freeze", [FreezeMask(), FreezeMask(base=True)],
                             ids=["unfrozen", "frozen-base"])
    def test_every_slot_the_backward_reads_is_written_by_its_step(self, dtype, freeze):
        """A step on a run's memory with every array NaN gives its loss and
        every gradient bitwise as on new memory: the step memory is the one
        record of a step, and its forward writes every slot its backward
        reads."""
        config = ModelConfig(vocab_size=10, d_model=8, d_hidden=8, num_heads=3,
                             num_layers=2, max_context=16, sep_token=8, eos_token=9)
        model = TinyBlockModel(config, seed=4, dtype=dtype)
        batch = TrainBatch.from_pairs([((i, 7 - i), (i, 2, 3, 4, 9)) for i in range(6)], config)
        for head in (1, 2, 3):
            loss, fresh = loss_and_gradients(model, batch, head, freeze)
            fresh = {name: grad.copy() for name, grad in fresh.items()}
            with model.train_run(len(batch.ids)):
                _, memory = model.trunk_forward(batch.ids)
                filled = fill_floats(vars(memory), np.nan)
                run_loss, grads = loss_and_gradients(model, batch, head, freeze)
            assert filled > 40 and run_loss == loss and grads.keys() == fresh.keys()
            for name, grad in fresh.items():
                np.testing.assert_array_equal(grads[name], grad, err_msg=f"head {head}: {name}")

    def test_a_steady_state_step_allocates_under_3_mb(self, monkeypatch):
        """At the benchmark's train shapes (batch 16, context 64, d=64, k=4,
        2 layers) every step after the first allocates under 3 MB above
        what it started with; a step making its own arrays took 13 MB."""
        corpus = make_pattern_corpus("repeat", alphabet=8, n_pairs=64, min_len=2, max_len=4,
                                     copies=14, seed=1)
        config = default_model_config(corpus, num_heads=4, d_model=64, d_hidden=64,
                                      num_layers=2)
        assert config.max_context == 64
        peaks = []

        def measured(*args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss = train_step(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return loss

        monkeypatch.setattr(training_module, "train_step", measured)
        tracemalloc.start()
        try:
            train_model(corpus, config, TrainingConfig(steps=4, batch_size=16))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4 and max(peaks[1:]) < 3e6, peaks


def fill_floats(value, fill) -> int:
    """Fill every floating-point array in `value`, looking into dicts and
    lists; returns how many arrays it filled."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        value.fill(fill)
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return sum(fill_floats(item, fill) for item in value)
    return 0


def skewed_corpus():
    """15 pairs with one-token targets and one with a six-token target: with
    the end token, heads 3 and 4 train only on the long pair."""
    pairs = tuple(((i % 6, 1), (2,)) for i in range(15)) + (((3, 4), (1, 2, 3, 4, 5, 0)),)
    return Corpus(kind="synthetic_pattern", vocab=Vocab(size=8, sep_token=6, eos_token=7),
                  pairs=pairs)


class TestHeadsPastTheTargets:
    def test_a_head_no_target_reaches_fails_before_the_first_step(self, monkeypatch):
        corpus = skewed_corpus()
        config = default_model_config(corpus, num_heads=8, d_model=8, d_hidden=8)
        calls = []
        monkeypatch.setattr(training_module, "train_step",
                            lambda *args, **kwargs: calls.append(args) or 0.0)
        with pytest.raises(ConfigurationError, match="no training positions for head 8: "
                                                     "the longest target has 7 tokens"):
            train_model(corpus, config, tiny_training(steps=5))
        assert calls == []

    def test_a_batch_short_of_its_head_trains_its_furthest_head(self, monkeypatch):
        """The drawn head, lowered to the batch's longest target: batches
        without the long pair train head 2 where 3 or 4 was drawn."""
        corpus = skewed_corpus()
        config = default_model_config(corpus, num_heads=4, d_model=8, d_hidden=8)
        training = TrainingConfig(steps=200, batch_size=16)
        trained = []

        def spy(model, batch, head, *args, **kwargs):
            trained.append((head, int(batch.target_lens.max())))
            return train_step(model, batch, head, *args, **kwargs)

        monkeypatch.setattr(training_module, "train_step", spy)
        _, losses = train_model(corpus, config, training)
        assert len(losses) == 200 and np.isfinite(losses).all()
        rng = np.random.default_rng(training.seed)
        drawn = []
        for _ in range(training.steps):
            rng.integers(0, len(corpus), size=training.batch_size)
            drawn.append(int(rng.integers(1, 5)))
        assert [head for head, _ in trained] == [min(h, n) for h, (_, n) in zip(drawn, trained)]
        assert {(h, n) for h, (_, n) in zip(drawn, trained) if h > n} == {(3, 2), (4, 2)}
        assert any(head == 4 for head, _ in trained)


class TestSubLossEstimator:
    def test_uniform_head_draws_are_unbiased(self):
        """Mean sub-loss over many uniform head draws must approach the
        mean of the per-head losses, since the estimator is exact in
        expectation. 10000 draws of a 3-head model stay within 1%."""
        model = TinyBlockModel(
            ModelConfig(vocab_size=11, d_model=6, d_hidden=8, num_heads=3,
                        num_layers=1, max_context=12, sep_token=9, eos_token=10),
            seed=3,
        )
        batch = TrainBatch.from_pairs(
            [((1, 2, 3), (4, 5, 6, 10)), ((2, 2), (7, 8, 10))], model.config
        )
        per_head = np.array([sub_loss(model, batch, h) for h in (1, 2, 3)])
        mean_of_k = per_head.mean()
        rng = np.random.default_rng(0)
        draws = rng.integers(1, 4, size=10000)
        sampled = per_head[draws - 1].mean()
        assert abs(sampled - mean_of_k) / mean_of_k < 0.01
        # the heads genuinely differ, so the check is not vacuous
        assert per_head.std() > 1e-4
