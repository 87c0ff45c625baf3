"""The train step does only the work its loss reads.

Its head runs only at the positions that carry the loss, q, k and v take
one backward product each way, and the token-embedding gradient is summed
by id without np.add.at. Each test holds one of those cuts to what it
replaced: bitwise where the arithmetic is the same, to 1e-10 in float64
where it sums in another order.
"""

import numpy as np
import pytest

from blockdec.harness.corpus import make_pattern_corpus
from blockdec.harness.training import default_model_config, training_pairs
from blockdec.models.base import log_softmax
from blockdec.models.neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    _add_rows_by_id,
    _loss_positions,
    loss_and_gradients,
    partition_of,
)


class TestTokenEmbeddingGradient:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("vocab", [10, 258])
    def test_bitwise_equal_to_add_at(self, dtype, vocab):
        """Ids repeat, and a third of the vocabulary is absent."""
        rng = np.random.default_rng(vocab)
        ids = rng.integers(0, vocab, size=16 * 64)
        ids[np.isin(ids, np.arange(0, vocab, 3))] = 1
        rows = rng.standard_normal((len(ids), 64)).astype(dtype)
        expected = np.zeros((vocab, 64), dtype=dtype)
        np.add.at(expected, ids, rows)
        out = np.full((vocab, 64), np.nan, dtype=dtype)
        _add_rows_by_id(ids, rows, out, np.empty_like(rows))
        np.testing.assert_array_equal(out, expected)
        assert not out[::3].any() and np.bincount(ids, minlength=vocab).max() > 100


def train_shapes(dtype):
    """A model and batch at the benchmark's train shapes: batch 16, context
    64, d=64, k=4, 2 layers."""
    corpus = make_pattern_corpus("repeat", alphabet=8, n_pairs=64, min_len=2, max_len=4,
                                 copies=14, seed=1)
    config = default_model_config(corpus, num_heads=4, d_model=64, d_hidden=64, num_layers=2)
    batch = TrainBatch.from_pairs(training_pairs(corpus)[:16], config)
    return TinyBlockModel(config, seed=0, dtype=dtype), batch


class TestFusedQKVBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_gradients_are_the_three_products_bitwise(self, dtype):
        """The column blocks of a^T @ [dq|dk|dv] are a^T @ dq, a^T @ dk and
        a^T @ dv, each read from its own contiguous array."""
        model, batch = train_shapes(dtype)
        with model.train_run(len(batch.ids)):
            _, grads = loss_and_gradients(model, batch, 2)
            memory = model._run
        a = memory.layers[0]["a"].reshape(-1, model.config.d_model)
        # after the step, the backward buffer holds layer 0's dq, dk and dv,
        # padded; the memory's index picks the positions the trunk ran
        dqkv = memory.back["dqkv"]
        blocks = np.split(dqkv.reshape(-1, dqkv.shape[-1])[memory.index], 3, axis=1)
        for name, block in zip(("attn.wq", "attn.wk", "attn.wv"), blocks):
            np.testing.assert_array_equal(grads[f"l0.{name}"], a.T @ block.copy(), err_msg=name)


def layernorm_reference(dy, g, xhat, inv, grads, prefix):
    grads[prefix + "g"] = (dy * xhat).sum(axis=(0, 1))
    grads[prefix + "b"] = dy.sum(axis=(0, 1))
    dxhat = dy * g
    mean = dxhat.mean(axis=-1, keepdims=True)
    proj = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - mean - xhat * proj) * inv


def all_rows_reference(model, batch, head):
    """The step before its trunk ran only on composed tokens and its head
    only at target positions: trunk and head, forward and backward, over
    every position, pads too, with the loss gradient zero where no target
    is; q, k and v backpropagated by three products each; np.add.at for the
    token embedding. Returns the loss and every parameter's gradient."""
    hf, memory = model.trunk_forward(batch.ids)  # no lengths: every position
    w, d = memory.weights, model.config.d_model
    w1, b1, w2, b2, proj = w.head

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    def padded(rows):
        """A packed array of the memory in the batch's (B, C, W) layout."""
        out = np.zeros(batch.ids.shape + rows.shape[-1:], dtype=rows.dtype)
        flat(out)[memory.index] = rows
        return out

    hf = padded(hf)
    rows, cols = np.nonzero(_loss_positions(batch, head))
    targets = batch.ids[rows, cols + head]
    logits = w.heads(hf, head - 1, head)[..., 0, :]
    logprobs = log_softmax(logits[rows, cols])
    loss = -logprobs[np.arange(len(rows)), targets].mean()
    probs = np.exp(logprobs)
    probs[np.arange(len(rows)), targets] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[rows, cols] = probs / len(rows)

    g, cut = {}, slice((head - 1) * d, head * d)
    u = np.maximum(hf @ w1 + b1, 0)
    y = u @ w2[:, cut] + b2[cut] + hf
    g["proj.w"] = flat(y).T @ flat(dlogits)
    dy = dlogits @ proj.T
    g["ext.w2"] = np.zeros_like(w2)
    g["ext.w2"][:, cut] = flat(u).T @ flat(dy)
    g["ext.b2"] = np.zeros_like(b2)
    g["ext.b2"][cut] = dy.sum(axis=(0, 1))
    du = (dy @ w2[:, cut].T) * (u > 0)
    g["ext.w1"] = flat(hf).T @ flat(du)
    g["ext.b1"] = du.sum(axis=(0, 1))
    dx = layernorm_reference(du @ w1.T + dy, w.lnf[0], padded(memory.xhatf),
                             padded(memory.invf), g, "lnf.")
    for layer in reversed(range(model.config.num_layers)):
        pre, lw = f"l{layer}.", w.layers[layer]
        lc = {name: padded(a) if a.ndim == 2 else a for name, a in memory.layers[layer].items()}
        g[pre + "mlp.w2"] = flat(lc["u"]).T @ flat(dx)
        g[pre + "mlp.b2"] = dx.sum(axis=(0, 1))
        dupre = (dx @ lw["mlp.w2"].T) * (lc["u"] > 0)
        g[pre + "mlp.w1"] = flat(lc["b"]).T @ flat(dupre)
        g[pre + "mlp.b1"] = dupre.sum(axis=(0, 1))
        dx2 = dx + layernorm_reference(dupre @ lw["mlp.w1"].T, lw["ln2.g"], lc["xhat2"],
                                       lc["inv2"], g, pre + "ln2.")
        q, k, v = np.split(lc["qkv"], 3, axis=-1)
        attn = lc["attn"]
        g[pre + "attn.wo"] = flat(lc["ctx"]).T @ flat(dx2)
        dctx = dx2 @ lw["attn.wo"].T
        dattn = dctx @ v.transpose(0, 2, 1)
        dscores = (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) * attn * w.scale
        da = 0
        for name, grad in (("attn.wq", dscores @ k), ("attn.wk", dscores.transpose(0, 2, 1) @ q),
                           ("attn.wv", attn.transpose(0, 2, 1) @ dctx)):
            g[pre + name] = flat(lc["a"]).T @ flat(grad)
            da = da + grad @ lw[name].T
        dx = dx2 + layernorm_reference(da, lw["ln1.g"], lc["xhat1"], lc["inv1"], g, pre + "ln1.")
    g["pos_emb"] = dx.sum(axis=0)
    g["tok_emb"] = np.zeros_like(w.tok_emb)
    np.add.at(g["tok_emb"], batch.ids.reshape(-1), flat(dx))
    return loss, g


SMALL = ModelConfig(vocab_size=11, d_model=8, d_hidden=8, num_heads=3, num_layers=2,
                    max_context=12, sep_token=9, eos_token=10)

# composed lengths 8, 5, 9 and 9; 12, 5 and 9 with a row that fills the
# context; and 12 in every row, so no pad at all
SMALL_BATCHES = {
    "mixed": [((1, 2, 3), (4, 5, 6, 10)), ((2,), (7, 8, 10)), ((0, 4, 1, 5, 2), (3, 3, 10)),
              ((6,), (1, 2, 3, 4, 5, 6, 10))],
    "one-full": [((1, 2, 3, 4), (5, 6, 7, 8, 1, 2, 10)), ((2,), (7, 8, 10)),
                 ((0, 4, 1, 5, 2), (3, 3, 10))],
    "no-pad": [((1, 2, 3, 4), (5, 6, 7, 8, 1, 2, 10)), ((0, 1), (2, 3, 4, 5, 6, 7, 8, 1, 10)),
               ((5, 6, 7, 8, 0), (1, 2, 3, 4, 5, 10))],
}


def composed_lengths(batch):
    return batch.input_lens + 1 + batch.target_lens


class TestTargetRowsHead:
    @pytest.mark.parametrize("freeze", [FreezeMask(), FreezeMask(base=True)],
                             ids=["unfrozen", "frozen-base"])
    def test_matches_an_all_rows_reference_in_float64(self, freeze):
        """Rows differ in input and target length, so each head's target
        positions start and stop at other places in each row, and the trunk
        runs on another number of positions in each; one batch has a row
        that fills the context, and one has no pad."""
        model = TinyBlockModel(SMALL, seed=5, dtype=np.float64)
        lengths = {name: composed_lengths(TrainBatch.from_pairs(pairs, SMALL)).tolist()
                   for name, pairs in SMALL_BATCHES.items()}
        assert lengths == {"mixed": [8, 5, 9, 9], "one-full": [12, 5, 9],
                           "no-pad": [12, 12, 12]}
        for name, pairs in SMALL_BATCHES.items():
            batch = TrainBatch.from_pairs(pairs, SMALL)
            for head in (1, 2, 3):
                expected_loss, expected = all_rows_reference(model, batch, head)
                with model.train_run(len(batch.ids)):
                    loss, grads = loss_and_gradients(model, batch, head, freeze)
                    ran = len(model._run.index)
                assert ran == sum(lengths[name])
                assert loss == pytest.approx(expected_loss, rel=1e-10, abs=1e-10)
                assert set(grads) == {name for name in model.params
                                      if not freeze.frozen(partition_of(name))}
                for param, grad in grads.items():
                    np.testing.assert_allclose(grad, expected[param], rtol=1e-10, atol=1e-10,
                                               err_msg=f"{name}, head {head}: {param}")


class TestPadPositions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pad_ids_change_no_bit(self, dtype):
        """Other valid ids at the pads leave the loss and every gradient,
        the embeddings' too, bitwise the same."""
        model = TinyBlockModel(SMALL, seed=5, dtype=dtype)
        batch = TrainBatch.from_pairs(SMALL_BATCHES["mixed"], SMALL)
        pads = np.arange(SMALL.max_context) >= composed_lengths(batch)[:, None]
        ids = batch.ids.copy()
        ids[pads] = np.random.default_rng(0).integers(0, SMALL.vocab_size, size=pads.sum())
        assert (ids[pads] != 0).any()
        other = TrainBatch(ids=ids, input_lens=batch.input_lens, target_lens=batch.target_lens)
        for head in (1, 2, 3):
            loss, grads = loss_and_gradients(model, batch, head)
            other_loss, other_grads = loss_and_gradients(model, other, head)
            assert other_loss == loss
            for name, grad in grads.items():
                np.testing.assert_array_equal(other_grads[name], grad, err_msg=name)

    def test_trunk_runs_each_rows_composed_tokens_at_the_train_shapes(self):
        """The trunk runs the batch's summed composed lengths, no pad: at
        the benchmark's train shapes a quarter of the (16, 64) positions
        are pads."""
        model, batch = train_shapes(np.float32)
        with model.train_run(len(batch.ids)):
            loss_and_gradients(model, batch, 1)
            memory = model._run
        ran = composed_lengths(batch).sum()
        assert len(memory.index) == ran and len(memory.hf) == ran
        assert memory.layers[0]["u"].shape[0] == ran and ran < 0.9 * batch.ids.size
