"""Training loop behavior: loss trends, estimator bias, determinism."""

import numpy as np
import pytest

from blockdec.errors import ConfigurationError
from blockdec.harness.corpus import make_pattern_corpus
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
    sub_loss,
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


class TestDefaults:
    def test_model_config_sized_to_corpus(self):
        corpus = tiny_corpus()
        cfg = default_model_config(corpus)
        assert cfg.vocab_size == corpus.vocab.size
        assert cfg.sep_token == corpus.vocab.sep_token
        assert cfg.eos_token == corpus.vocab.eos_token
        # 3 input + SEP + 6 target + EOS = 11, rounded up to 16
        assert cfg.max_context == 16

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
