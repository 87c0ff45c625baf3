"""Backpropagation against central finite differences.

The micro-model stays under 2000 parameters so the oracle can sweep every
single one. float64 parameters keep the finite-difference quotient accurate
enough for a 1e-4 relative tolerance.
"""

import numpy as np
import pytest

from blockdec.errors import ConfigurationError, NumericError
from blockdec.models.neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    loss_and_gradients,
    partition_of,
    sub_loss,
    train_step,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def micro_model(seed=3):
    config = ModelConfig(vocab_size=11, d_model=6, d_hidden=8, num_heads=3,
                         num_layers=1, max_context=12, sep_token=9, eos_token=10)
    return TinyBlockModel(config, seed=seed, dtype=np.float64)


def micro_batch(config):
    pairs = [((1, 2, 3), (4, 5, 6, 10)),
             ((2, 2), (7, 8, 10)),
             ((0, 4, 1, 5), (3, 3, 3, 3, 10))]
    return TrainBatch.from_pairs(pairs, config)


def relative_error(a, b):
    return abs(a - b) / max(abs(a) + abs(b), 1e-8)


class TestFiniteDifferences:
    def test_micro_model_is_small_enough_to_sweep(self):
        assert micro_model().param_count() <= 2000

    @pytest.mark.parametrize("head", [1, 2, 3])
    def test_every_parameter_every_partition(self, head):
        model = micro_model()
        batch = micro_batch(model.config)
        _, grads = loss_and_gradients(model, batch, head)
        assert set(grads) == set(model.params)
        worst = {}
        for name, grad in grads.items():
            flat_p = model.params[name].reshape(-1)
            flat_g = grad.reshape(-1)
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + FD_STEP
                up = sub_loss(model, batch, head)
                flat_p[idx] = orig - FD_STEP
                down = sub_loss(model, batch, head)
                flat_p[idx] = orig
                fd = (up - down) / (2 * FD_STEP)
                err = relative_error(fd, flat_g[idx])
                part = partition_of(name)
                worst[part] = max(worst.get(part, 0.0), err)
        assert set(worst) == {"base", "head_extension", "vocab_projection"}
        for part, err in worst.items():
            assert err <= REL_TOL, f"{part}: {err}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_have_their_parameters_shape_and_dtype(self, dtype):
        model = TinyBlockModel(micro_model().config, seed=3, dtype=dtype)
        for head in (1, 2, 3):
            _, grads = loss_and_gradients(model, micro_batch(model.config), head)
            assert set(grads) == set(model.params)
            for name, grad in grads.items():
                assert grad.shape == model.params[name].shape, name
                assert grad.dtype == model.dtype, name

    def test_gradients_deterministic(self):
        model = micro_model()
        batch = micro_batch(model.config)
        _, a = loss_and_gradients(model, batch, 2)
        _, b = loss_and_gradients(model, batch, 2)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestTrainStep:
    def test_unfrozen_updates_match_sgd(self):
        model = micro_model()
        batch = micro_batch(model.config)
        before = {k: v.copy() for k, v in model.params.items()}
        _, grads = loss_and_gradients(model, batch, 1)
        train_step(model, batch, 1, learning_rate=0.1)
        for name in model.params:
            np.testing.assert_allclose(
                model.params[name], before[name] - 0.1 * grads[name], rtol=0, atol=0
            )

    @pytest.mark.parametrize("freeze", [
        FreezeMask(),
        FreezeMask(base=True, vocab_projection=True),
    ])
    def test_freeze_settings(self, freeze):
        model = micro_model()
        batch = micro_batch(model.config)
        before = {k: v.copy() for k, v in model.params.items()}
        train_step(model, batch, 2, learning_rate=0.1, freeze=freeze)
        for name, value in model.params.items():
            if freeze.frozen(partition_of(name)):
                np.testing.assert_array_equal(value, before[name])
            else:
                assert not np.array_equal(value, before[name]), name

    def test_gradient_clipping_bounds_the_norm(self):
        model = micro_model()
        batch = micro_batch(model.config)
        _, grads = loss_and_gradients(model, batch, 1)
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        clip = norm / 4
        before = {k: v.copy() for k, v in model.params.items()}
        train_step(model, batch, 1, learning_rate=1.0, max_grad_norm=clip)
        applied = np.sqrt(sum(
            float(((before[k] - model.params[k]) ** 2).sum()) for k in model.params
        ))
        np.testing.assert_allclose(applied, clip, rtol=1e-6)

    def test_clipping_counts_only_trained_partitions(self):
        model = micro_model()
        batch = micro_batch(model.config)
        freeze = FreezeMask(base=True)
        _, grads = loss_and_gradients(model, batch, 1)
        trained = {k: g for k, g in grads.items() if not freeze.frozen(partition_of(k))}
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in trained.values()))
        clip = norm / 4
        before = {k: v.copy() for k, v in model.params.items()}
        train_step(model, batch, 1, learning_rate=0.1, freeze=freeze, max_grad_norm=clip)
        for name, value in model.params.items():
            if name in trained:
                np.testing.assert_allclose(
                    value, before[name] - 0.1 * trained[name] * clip / norm, rtol=1e-12
                )
            else:
                np.testing.assert_array_equal(value, before[name])

    def test_non_finite_loss_raises_before_update(self):
        model = micro_model()
        batch = micro_batch(model.config)
        model.params["proj.w"][:] = np.nan
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(NumericError):
            train_step(model, batch, 1, learning_rate=0.1)
        for name in model.params:
            np.testing.assert_array_equal(model.params[name], before[name])

    def test_rejects_bad_learning_rate_and_head(self):
        model = micro_model()
        batch = micro_batch(model.config)
        with pytest.raises(ConfigurationError):
            train_step(model, batch, 1, learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            train_step(model, batch, 4, learning_rate=0.1)
        with pytest.raises(ConfigurationError):
            sub_loss(model, batch, 0)
