"""Trainable k-head scoring model in plain numpy.

A small decoder-only transformer handles sequence-to-sequence tasks by
composing `input + SEP + output` into one token stream. Between the decoder
trunk and the shared vocabulary projection sits a k-head extension layer: a
single feedforward layer whose hidden width is k * d_hidden and whose output
is k vectors of width d_model, each with a residual connection back to the
trunk output. Head h at position p predicts the token h steps ahead, so one
forward pass yields proposal distributions for a whole block, and the base
next-token distribution (head 1) is routed through the same extension layer.

Scoring runs the trunk only on the positions a call needs: from the first
position whose token differs from what was cached to the end of the
context, each position as row 0 of its own (1, D) slab, the slabs batched
as (n, 1, D). When no position is new the trunk does not run at all. The
head extension and vocabulary projection then run on a fixed window of
num_heads + 1 rows starting at grid row 0, read from a buffer of final
hidden states that extends num_heads rows past the context, so a window
near the end of the context never runs short, and for every head whatever
k is: in float64 projecting fewer heads changes head 1's bits, which greedy
equivalence compares across k. Log-softmax normalizes only the rows and
heads the grid returns. Within a decode session
(`TinyBlockModel.session`) each layer's keys and values are kept for
positions whose tokens have not changed since the previous call; outside
one every call starts from an empty cache. Every position is always
computed at the same index of arrays of the same shape, attention always
spans the whole context under the causal mask training uses, and the
window's shape is fixed by the config, so the activations at position p
depend only on the tokens at positions <= p and the same conditioning
context reproduces bit-identical distributions whatever was cached. The
decode engine relies on this to re-read grid rows across invocations.

Training's trunk and the decode step share one `_Weights` binding, its
layernorm and its attention-and-MLP body; they differ only in where keys
come from (training's own q/k/v product, or the session's store once the
step has written its new keys and values) and in which intermediates they
keep. A call's cost is numpy dispatch, not arithmetic: a (1, 64) slab's
layernorm is twelve numpy calls of under a microsecond each. So the binding
is made once per `trunk_forward` call or per session, and holds the
weights, the fused q/k/v weights and the dtype's constants (d, 1/sqrt(d),
LN_EPS, 1 and 0) as 0-d arrays: numpy converts a Python scalar on every
call, and on numpy 2.4.6 `s + 1e-5` on a (1, 1, 64) float32 slab took
0.67 us, against 0.36 us with a 0-d float32 array. Binding per session
rather than per model means a train step between two decodes is always
seen. `_Weights.heads` is the one head extension and vocabulary projection:
scoring asks it for every head, training for the one head a step trains.

Training optimizes the cross-entropy of one head per step. Sampling that
head uniformly at random makes the per-step loss an unbiased estimator of
the mean loss over all k heads, at one head's cost. Parameter partitions
(trunk, head extension, vocabulary projection) can be frozen independently,
which supports bolting new heads onto a frozen pretrained trunk.

All gradients are computed by hand; see `loss_and_gradients`. They are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..engine import BlockScores
from ..errors import ConfigurationError, LengthError, NumericError
from .base import ScoringModel, check_token_ids, log_softmax

LN_EPS = 1e-5
MASK_VALUE = -1e9

PARTITIONS = ("base", "head_extension", "vocab_projection")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and task settings for a TinyBlockModel.

    vocab_size:      shared vocabulary size, including SEP and any EOS
    d_model:         trunk width
    d_hidden:        feedforward hidden width per head
    num_heads:       proposal heads k (head 1 is the base model)
    num_layers:      transformer layers in the trunk
    max_context:     longest composed sequence (input, SEP, output); training
                     pads every row to it, and attention spans it
    sep_token:       id inserted between input and output
    eos_token:       id that ends an output, or None for fixed-length tasks
    intensity_vocab: token ids are integer intensities (enables the
                     distance acceptance criterion)
    """

    vocab_size: int
    d_model: int
    d_hidden: int
    num_heads: int
    num_layers: int
    max_context: int
    sep_token: int
    eos_token: Optional[int] = None
    intensity_vocab: bool = False

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        for name in ("d_model", "d_hidden", "num_heads", "num_layers", "max_context"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if not 0 <= self.sep_token < self.vocab_size:
            raise ConfigurationError("sep_token outside vocabulary")
        if self.eos_token is not None and not 0 <= self.eos_token < self.vocab_size:
            raise ConfigurationError("eos_token outside vocabulary")


@dataclass(frozen=True)
class FreezeMask:
    """Which parameter partitions a train step must not update."""

    base: bool = False
    head_extension: bool = False
    vocab_projection: bool = False

    def frozen(self, partition: str) -> bool:
        return bool(getattr(self, partition))


def partition_of(name: str) -> str:
    if name.startswith("ext."):
        return "head_extension"
    if name.startswith("proj."):
        return "vocab_projection"
    return "base"


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


class _Weights:
    """What a forward pass reads, bound once (see the module docstring).
    Each layer's weights are a dict under their parameter names less the
    layer prefix, plus "qkv": the query, key and value weights side by side,
    (D, 3D). That is a copy, so a binding holds only until a train step."""

    def __init__(self, model: "TinyBlockModel"):
        p, d = model.params, model.config.d_model

        def const(value):
            return np.array(value, dtype=model.dtype)

        self.d, self.eps, self.one, self.zero = const(d), const(LN_EPS), const(1.0), const(0.0)
        self.scale = const(1.0 / np.sqrt(d))
        self.mask, self.tok_emb, self.pos_emb = model._mask, p["tok_emb"], p["pos_emb"]
        self.layers = []
        for pre in (f"l{layer}." for layer in range(model.config.num_layers)):
            w = {name[len(pre):]: arr for name, arr in p.items() if name.startswith(pre)}
            w["qkv"] = np.concatenate([w["attn.wq"], w["attn.wk"], w["attn.wv"]], axis=1)
            self.layers.append(w)
        self.lnf = p["lnf.g"], p["lnf.b"]
        self.head = p["ext.w1"], p["ext.b1"], p["ext.w2"], p["ext.b2"], p["proj.w"]

    def layernorm(self, x, g, b):
        """Layernorm over the last axis; returns the output and the
        intermediates the backward pass reads."""
        # np.add.reduce sums as ndarray.mean does, without its Python wrapper;
        # np.vecdot is faster but sums in another order, which changes training
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / self.d
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / self.d
        inv = self.one / np.sqrt(var + self.eps)
        xhat = xc * inv
        return xhat * g + b, (xhat, inv)

    def heads(self, hf, first: int, last: int):
        """Logits of heads first+1..last at every row of hf (..., T, D), as
        (..., T, last - first, V), and the u and y the backward pass reads.
        The projection is one (T * (last - first), D) @ (D, V) product per
        leading index of hf; that fixed shape keeps the bits reproducible."""
        w1, b1, w2, b2, proj = self.head
        rows, d = hf.shape[:-1], hf.shape[-1]
        cols = slice(first * d, last * d)
        u = np.maximum(hf @ w1 + b1, self.zero)
        y = (u @ w2[:, cols] + b2[cols]).reshape(rows + (last - first, d))
        y += hf[..., None, :]
        logits = y.reshape(rows[:-1] + (-1, d)) @ proj
        return logits.reshape(y.shape[:-1] + (-1,)), u, y

    def attend_mlp(self, x, w: dict, q, keys_t, values, mask):
        """The rest of a layer once its queries, keys and values are known:
        attention of `q` over `keys_t` (keys transposed) and `values` under
        `mask`, then the feedforward block. Returns the layer output and the
        intermediates the backward pass reads."""
        attn = _softmax(q @ keys_t * self.scale + mask)
        ctx = attn @ values
        x2 = x + ctx @ w["attn.wo"]
        b, ln2 = self.layernorm(x2, w["ln2.g"], w["ln2.b"])
        u = np.maximum(b @ w["mlp.w1"] + w["mlp.b1"], self.zero)
        x3 = x2 + u @ w["mlp.w2"] + w["mlp.b2"]
        return x3, {"attn": attn, "ctx": ctx, "b": b, "ln2": ln2, "u": u}


class _KVCache:
    """A decode session's state: each layer's keys and values side by side,
    (max_context, 2D), and the views of them the decode step attends over;
    the final hidden state of every position, num_heads rows longer so the
    head window of the last position fits; the token each position was
    computed from (-1: not cached), and the session's `_Weights`. Cached
    positions always form a prefix of the context."""

    def __init__(self, model: "TinyBlockModel"):
        cfg = model.config
        c, d = cfg.max_context, cfg.d_model
        self.ids = np.full(c, -1, dtype=np.int64)
        self.kv = np.zeros((cfg.num_layers, c, 2 * d), dtype=model.dtype)
        self.views = [(store, store[:, :d].T, store[:, d:]) for store in self.kv]
        self.hidden = np.zeros((c + cfg.num_heads, d), dtype=model.dtype)
        self.weights = _Weights(model)


class TinyBlockModel(ScoringModel):
    """Decoder-only trunk plus k-head extension, scored one new position at a time."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32, params=None):
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ConfigurationError("dtype must be float32 or float64")
        self.num_heads = config.num_heads
        self.vocab_size = config.vocab_size
        self.intensity_vocab = config.intensity_vocab
        self.max_context = config.max_context
        if params is not None:
            shapes = self._param_shapes()
            if set(params) != set(shapes):
                missing = set(shapes).symmetric_difference(params)
                raise ConfigurationError(f"parameter names do not match: {sorted(missing)}")
            self.params = {}
            for name, val in params.items():
                arr = np.array(val, dtype=self.dtype)
                if arr.shape != shapes[name]:
                    raise ConfigurationError(
                        f"parameter {name} has shape {arr.shape}, expected {shapes[name]}"
                    )
                self.params[name] = arr
        else:
            self.params = self._init_params(seed)
        # causal mask: position p may attend to positions <= p only
        c = config.max_context
        self._mask = np.triu(np.full((c, c), MASK_VALUE, dtype=self.dtype), k=1)
        self._cache = None  # the open session's _KVCache

    def _param_shapes(self) -> dict:
        cfg = self.config
        d, h, k, v, c = cfg.d_model, cfg.d_hidden, cfg.num_heads, cfg.vocab_size, cfg.max_context
        shapes = {"tok_emb": (v, d), "pos_emb": (c, d)}
        for layer in range(cfg.num_layers):
            p = f"l{layer}."
            shapes[p + "ln1.g"] = (d,)
            shapes[p + "ln1.b"] = (d,)
            shapes[p + "attn.wq"] = (d, d)
            shapes[p + "attn.wk"] = (d, d)
            shapes[p + "attn.wv"] = (d, d)
            shapes[p + "attn.wo"] = (d, d)
            shapes[p + "ln2.g"] = (d,)
            shapes[p + "ln2.b"] = (d,)
            shapes[p + "mlp.w1"] = (d, h)
            shapes[p + "mlp.b1"] = (h,)
            shapes[p + "mlp.w2"] = (h, d)
            shapes[p + "mlp.b2"] = (d,)
        shapes["lnf.g"] = (d,)
        shapes["lnf.b"] = (d,)
        shapes["ext.w1"] = (d, k * h)
        shapes["ext.b1"] = (k * h,)
        shapes["ext.w2"] = (k * h, k * d)
        shapes["ext.b2"] = (k * d,)
        shapes["proj.w"] = (d, v)
        return shapes

    def _init_params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in self._param_shapes().items():
            if name.endswith(".g"):
                arr = np.ones(shape)
            elif name.endswith((".b", ".b1", ".b2")):
                arr = np.zeros(shape)
            elif name in ("tok_emb", "pos_emb"):
                arr = rng.normal(scale=0.05, size=shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                arr = rng.uniform(-bound, bound, size=shape)
            params[name] = arr.astype(self.dtype)
        return params

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def copy(self) -> "TinyBlockModel":
        return TinyBlockModel(
            self.config,
            dtype=self.dtype,
            params={k: v.copy() for k, v in self.params.items()},
        )

    # ---- forward passes ----

    def _compose(self, input_tokens, prefix, candidates) -> tuple:
        input_tokens, prefix, candidates = tuple(input_tokens), tuple(prefix), tuple(candidates)
        check_token_ids(input_tokens, self.vocab_size, "input")
        check_token_ids(prefix, self.vocab_size, "prefix")
        check_token_ids(candidates, self.vocab_size, "candidates")
        return input_tokens + (self.config.sep_token,) + prefix + candidates

    def trunk_forward(self, ids_batch: np.ndarray):
        """Training's transformer trunk over padded id batches of shape
        (B, max_context), attending over the keys and values of its own
        positions.

        Returns the final layernormed hidden states (B, C, D) and the
        intermediates the backward pass reads, the binding under "weights".
        """
        w = _Weights(self)
        d = self.config.d_model
        x = w.tok_emb[ids_batch] + w.pos_emb[None, :, :]
        cache = {"ids": ids_batch, "weights": w}
        for layer, lw in enumerate(w.layers):
            a, ln1 = w.layernorm(x, lw["ln1.g"], lw["ln1.b"])
            qkv = a @ lw["qkv"]
            q, keys, values = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
            x, saved = w.attend_mlp(x, lw, q, keys.swapaxes(-1, -2), values, w.mask)
            cache[f"layer{layer}"] = dict(saved, a=a, ln1=ln1, q=q, k=keys, v=values)
        hf, cache["lnf"] = w.layernorm(x, *w.lnf)
        return hf, cache

    def _positions_forward(self, tokens: np.ndarray, first: int, cache: _KVCache):
        """The decode step's trunk over the positions from `first` on, whose
        tokens are `tokens`, each as row 0 of its own (1, D) slab, batched as
        (n, 1, D); positions before `first` must hold valid keys and values
        in `cache`. Writes this call's keys and values into `cache`, attends
        over its stores, writes the final hidden states, and marks every
        later position uncached, as it saw the old tokens.
        """
        w, d = cache.weights, self.config.d_model
        rows = slice(first, first + len(tokens))
        x = (w.tok_emb[tokens] + w.pos_emb[rows])[:, None, :]
        mask = w.mask[rows, None, :]
        cache.ids[first:] = -1  # this call's rows until every layer is written
        for lw, (store, keys_t, values) in zip(w.layers, cache.views):
            qkv = w.layernorm(x, lw["ln1.g"], lw["ln1.b"])[0] @ lw["qkv"]
            store[rows] = qkv[:, 0, d:]
            x = w.attend_mlp(x, lw, qkv[..., :d], keys_t, values, mask)[0]
        cache.ids[rows] = tokens
        cache.hidden[rows] = w.layernorm(x, *w.lnf)[0][:, 0]

    @contextmanager
    def session(self, input_tokens):
        """Keep each layer's keys and values across the score_grid calls of
        one decode. A call reuses them for positions whose tokens match the
        previous calls' and recomputes the rest; results are bitwise those
        of a call outside the session."""
        outer, self._cache = self._cache, _KVCache(self)
        try:
            yield
        finally:
            self._cache = outer

    def score_grid(self, input_tokens, prefix, candidates, k) -> BlockScores:
        """Score k heads at every candidate offset: the trunk on the positions
        not cached, one (1, D) slab each, and the heads on a window of
        num_heads + 1 rows from grid row 0 (see the module docstring).

        Each position is computed as a (1, D) slab attending over
        max_context keys, and the window's shape is fixed by the config, so
        no product a row depends on changes shape with the argument lengths:
        identical conditioning contexts always reproduce bit-identical rows
        no matter how the grid is sliced or what the session has cached.
        """
        self._check_heads(k)
        candidates = tuple(candidates)
        ids = self._compose(input_tokens, prefix, candidates)
        if len(ids) > self.config.max_context:
            raise LengthError(
                f"sequence of {len(ids)} tokens exceeds context {self.config.max_context}"
            )
        cache = self._cache if self._cache is not None else _KVCache(self)
        tokens = np.array(ids, dtype=np.int64)
        changed = np.flatnonzero(cache.ids[: len(ids)] != tokens)
        if changed.size:
            self._positions_forward(tokens[changed[0] :], int(changed[0]), cache)
        base = len(ids) - len(candidates) - 1  # position of grid row 0
        window = cache.hidden[base : base + self.num_heads + 1]
        # every head, whatever k is: head 1's bits must not depend on k
        logits = cache.weights.heads(window, 0, self.num_heads)[0]
        # log_softmax is row-wise, so normalizing only the rows and heads
        # the grid returns gives them bitwise as the whole window would
        grid = log_softmax(logits[: len(candidates) + 1, :k])
        return BlockScores(grid=grid, base_len=len(tuple(prefix)))


def _layernorm_backward(dy, g, cache):
    xhat, inv = cache
    n = xhat.shape[-1]
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )
    return dx, dg, db


def _flat_grad(lhs, dy):
    """Weight gradient for y = lhs @ w summed over batch and position."""
    l2 = lhs.reshape(-1, lhs.shape[-1])
    d2 = dy.reshape(-1, dy.shape[-1])
    return l2.T @ d2


@dataclass
class TrainBatch:
    """Padded composed sequences ready for a train step.

    ids:         (B, max_context) int64, each row input + SEP + target + pad
    input_lens:  (B,) length of the raw input per row
    target_lens: (B,) length of the target per row, counting any end token
    """

    ids: np.ndarray
    input_lens: np.ndarray
    target_lens: np.ndarray

    @classmethod
    def from_pairs(cls, pairs, config: ModelConfig) -> "TrainBatch":
        """Compose (input_tokens, target_tokens) pairs into one padded batch.

        Targets should already carry their end token when the task uses one.
        """
        if not pairs:
            raise ConfigurationError("cannot build an empty batch")
        c = config.max_context
        ids = np.zeros((len(pairs), c), dtype=np.int64)
        input_lens = np.zeros(len(pairs), dtype=np.int64)
        target_lens = np.zeros(len(pairs), dtype=np.int64)
        for row, (inp, tgt) in enumerate(pairs):
            inp = tuple(int(t) for t in inp)
            tgt = tuple(int(t) for t in tgt)
            if not tgt:
                raise ConfigurationError("every training pair needs a non-empty target")
            check_token_ids(inp, config.vocab_size, f"input of pair {row}")
            check_token_ids(tgt, config.vocab_size, f"target of pair {row}")
            composed = inp + (config.sep_token,) + tgt
            if len(composed) > c:
                raise LengthError(
                    f"pair {row}: composed sequence of {len(composed)} tokens exceeds context {c}"
                )
            ids[row, : len(composed)] = composed
            input_lens[row] = len(inp)
            target_lens[row] = len(tgt)
        return cls(ids=ids, input_lens=input_lens, target_lens=target_lens)


def _loss_positions(batch: TrainBatch, head: int):
    """Boolean mask of positions where head `head` has a target.

    Head h at position p predicts ids[p + h]. Valid p runs from the SEP
    (index input_len) through input_len + target_len - h.
    """
    pos = np.arange(batch.ids.shape[1])[None, :]
    sep = batch.input_lens[:, None]
    last = batch.input_lens[:, None] + batch.target_lens[:, None] - head
    return (pos >= sep) & (pos <= last)


def _head_loss(model: TinyBlockModel, batch: TrainBatch, head: int):
    if not 1 <= head <= model.num_heads:
        raise ConfigurationError(f"head must be in [1, {model.num_heads}]")
    mask = _loss_positions(batch, head)
    count = int(mask.sum())
    if count == 0:
        raise ConfigurationError(
            f"no training positions for head {head}; targets are shorter than the head offset"
        )
    hf, trunk_cache = model.trunk_forward(batch.ids)
    logits, u, y = trunk_cache["weights"].heads(hf, head - 1, head)
    logits, y = logits[..., 0, :], y[..., 0, :]
    rows, cols = np.nonzero(mask)
    targets = batch.ids[rows, cols + head]
    logprobs = log_softmax(logits[rows, cols])
    loss = float(-logprobs[np.arange(count), targets].mean())
    aux = (hf, trunk_cache, logits, u, y, rows, cols, targets, count)
    return loss, aux


def sub_loss(model: TinyBlockModel, batch: TrainBatch, head: int) -> float:
    """Mean cross-entropy of one head over its valid positions.

    Averaging sub_loss over a uniformly random head is an unbiased
    estimate of the mean of all per-head losses.
    """
    return _head_loss(model, batch, head)[0]


def loss_and_gradients(model: TinyBlockModel, batch: TrainBatch, head: int):
    """Sub-loss of one head and its gradient for every parameter."""
    loss, aux = _head_loss(model, batch, head)
    hf, cache, logits, u, y, rows, cols, targets, count = aux
    p = model.params
    cfg = model.config
    w1, _, w2, _, proj = cache["weights"].head
    grads = {}

    # cross-entropy at the masked positions, averaged
    dlogits = np.zeros_like(logits)
    probs = _softmax(logits[rows, cols].astype(np.float64))
    probs[np.arange(count), targets] -= 1.0
    dlogits[rows, cols] = (probs / count).astype(model.dtype)

    # vocabulary projection and the trained head's columns of the extension
    cols_of_head = slice((head - 1) * cfg.d_model, head * cfg.d_model)
    grads["proj.w"] = _flat_grad(y, dlogits)
    dy = dlogits @ proj.T
    dhf = dy.copy()  # residual into the head output
    grads["ext.w2"] = np.zeros_like(w2)
    grads["ext.w2"][:, cols_of_head] = _flat_grad(u, dy)
    grads["ext.b2"] = np.zeros_like(p["ext.b2"])
    grads["ext.b2"][cols_of_head] = dy.sum(axis=(0, 1))
    du = dy @ w2[:, cols_of_head].T
    du *= u > 0
    grads["ext.w1"] = _flat_grad(hf, du)
    grads["ext.b1"] = du.sum(axis=(0, 1))
    dhf += du @ w1.T

    # trunk
    dx, dg, db = _layernorm_backward(dhf, p["lnf.g"], cache["lnf"])
    grads["lnf.g"], grads["lnf.b"] = dg, db
    scale = model.dtype.type(1.0 / np.sqrt(cfg.d_model))
    for layer in reversed(range(cfg.num_layers)):
        pre = f"l{layer}."
        lc = cache[f"layer{layer}"]
        # feedforward: x3 = x2 + relu(ln2(x2) @ w1 + b1) @ w2 + b2
        dmo = dx
        grads[pre + "mlp.w2"] = _flat_grad(lc["u"], dmo)
        grads[pre + "mlp.b2"] = dmo.sum(axis=(0, 1))
        dupre = dmo @ p[pre + "mlp.w2"].T
        dupre *= lc["u"] > 0
        grads[pre + "mlp.w1"] = _flat_grad(lc["b"], dupre)
        grads[pre + "mlp.b1"] = dupre.sum(axis=(0, 1))
        db_ = dupre @ p[pre + "mlp.w1"].T
        dx2, dg, db = _layernorm_backward(db_, p[pre + "ln2.g"], lc["ln2"])
        grads[pre + "ln2.g"], grads[pre + "ln2.b"] = dg, db
        dx2 += dx
        # attention: x2 = x + softmax(q k^T scale + mask) v wo
        dattn_out = dx2
        grads[pre + "attn.wo"] = _flat_grad(lc["ctx"], dattn_out)
        dctx = dattn_out @ p[pre + "attn.wo"].T
        dattn = dctx @ lc["v"].transpose(0, 2, 1)
        dv = lc["attn"].transpose(0, 2, 1) @ dctx
        a_ = lc["attn"]
        dscores = a_ * (dattn - (dattn * a_).sum(axis=-1, keepdims=True))
        dq = dscores @ lc["k"] * scale
        dk = dscores.transpose(0, 2, 1) @ lc["q"] * scale
        grads[pre + "attn.wq"] = _flat_grad(lc["a"], dq)
        grads[pre + "attn.wk"] = _flat_grad(lc["a"], dk)
        grads[pre + "attn.wv"] = _flat_grad(lc["a"], dv)
        da = dq @ p[pre + "attn.wq"].T + dk @ p[pre + "attn.wk"].T + dv @ p[pre + "attn.wv"].T
        dx_ln, dg, db = _layernorm_backward(da, p[pre + "ln1.g"], lc["ln1"])
        grads[pre + "ln1.g"], grads[pre + "ln1.b"] = dg, db
        dx = dx2 + dx_ln

    # embeddings
    grads["pos_emb"] = dx.sum(axis=0)
    dtok = np.zeros_like(p["tok_emb"])
    np.add.at(dtok, cache["ids"].reshape(-1), dx.reshape(-1, cfg.d_model))
    grads["tok_emb"] = dtok
    return loss, grads


def train_step(
    model: TinyBlockModel,
    batch: TrainBatch,
    head: int,
    learning_rate: float,
    freeze: FreezeMask = FreezeMask(),
    max_grad_norm: Optional[float] = None,
) -> float:
    """One SGD step on the sub-loss of a single head.

    Parameters in frozen partitions are left untouched. When max_grad_norm
    is set, the trained partitions' gradient is rescaled so its global L2
    norm does not exceed it; frozen partitions' gradients do not count.
    Raises NumericError before applying any update if the loss is not
    finite.
    """
    if learning_rate <= 0:
        raise ConfigurationError("learning_rate must be positive")
    loss, grads = loss_and_gradients(model, batch, head)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss!r}")
    grads = {name: g for name, g in grads.items() if not freeze.frozen(partition_of(name))}
    if max_grad_norm is not None:
        total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
        if total > max_grad_norm:
            factor = model.dtype.type(max_grad_norm / total)
            grads = {name: g * factor for name, g in grads.items()}
    lr = model.dtype.type(learning_rate)
    for name, grad in grads.items():
        model.params[name] -= lr * grad
    return loss
