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
same step scores the heads of every position it computes from the
separator on: the head extension and vocabulary projection run on
consecutive windows of num_heads + 1 rows from the first such position,
over a buffer of final hidden states that extends num_heads rows past the
context, so the last window never runs short. They compute every head
whatever k is (in float64 projecting fewer heads changes head 1's bits,
which greedy equivalence compares across k), and log-softmax normalizes the
computed positions' rows into a float64 buffer of every position's
log-probs. A call's grid is a copy of its rows of that buffer. A decode
session (`TinyBlockModel.session`) is bound to the input it decodes and
keeps each layer's keys and values, hidden states and log-probs for
positions whose tokens have not changed since the previous call; a call
with another input, or outside a session, starts from an empty cache. Every
position is always computed at the same index of arrays of the same shape,
attention always spans the whole context under the causal mask training
uses, and the window's shape is fixed by the config, so the rows at
position p depend only on the tokens at positions <= p and the same
conditioning context reproduces bit-identical distributions whatever was
cached. The decode engine relies on this to re-read grid rows across
invocations.

Training's trunk and the decode step share one `_Weights` binding, its
layernorm, attention and MLP; they differ only in where keys come from
(training's own q/k/v product, or the session's store once the step has
written its new keys and values), in where intermediates go, and in
training's layout (below).
A call's cost is numpy dispatch, not arithmetic: a (1, 64) slab's
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
checked against central finite differences in the test suite. A train
step's intermediates live only in its `_StepMemory`: the forward pass writes
every array the backward pass reads into the memory's named slots with out=,
and the backward reads them there and writes its temporaries and the
gradients beside them. A `train_model` run binds one memory for all its
steps (`TinyBlockModel.train_run`), as a session binds its `_KVCache`: a step
that allocates its own arrays gives them back to the OS when it returns, and
the next step faults them in again. The shared layernorm, attention, MLP
and heads each return one array and write intermediates only into
destinations a caller passes, so the decode step, which passes none, builds
nothing that it then discards.

A step does only the work its loss reads. The trunk's position-wise work
(layernorms, q/k/v product, output projection, MLP, final layernorm, and
their backward) runs only on each row's composed tokens, packed as (N, D)
rows: a pad carries no loss, no composed token attends to it under the
causal mask, and its gradient is zero. At the benchmark's train shapes a
quarter of a batch's positions are pads. Attention alone keeps the padded
(B, C, ...) layout, so a step scatters q/k/v into it and gathers the
context out, and the backward does the reverse. The trained head runs,
forward and backward, only at the positions that carry its loss (a third to
a half of a padded batch has none), gathered from the final hidden states,
and the gradient of those states is scattered back. q, k and v take one
backward product each way: the weight gradients are the column blocks of
one a^T @ [dq|dk|dv] product, bitwise the three separate ones, and the
input gradient is one [dq|dk|dv] @ W_qkv^T product. A stacked product reading a
transposed operand takes the slow path (a (16, 64, 64) @ W.T took 120 us
against 71 with W.T copied C-contiguous, bitwise the same), so a backward
product reads a weight's transpose as a copy, made where it is read, and
the keys or values a stacked product reads transposed are copied first.
The token-embedding gradient sums each id's rows in order after a stable
sort by id, bitwise np.add.at, at a fifth of its cost. None of this runs in
a decode: the session's `_Weights` binding holds no transpose.
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


def _softmax(x: np.ndarray, out=None) -> np.ndarray:
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out)
    np.exp(e, e)
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

    def layernorm(self, x, g, b, y=None, xhat=None, inv=None):
        """Layernorm over the last axis. The output goes into `y` (which
        holds the squares until then), and the normalized input and inverse
        deviation the backward pass reads into `xhat` and `inv`, where
        given; returns the output."""
        # np.add.reduce sums as ndarray.mean does, without its Python wrapper;
        # np.vecdot is faster but sums in another order, which changes training
        xc = np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / self.d, xhat)
        var = np.add.reduce(np.multiply(xc, xc, y), axis=-1, keepdims=True) / self.d
        var += self.eps
        inv = np.divide(self.one, np.sqrt(var, var), inv)
        xc *= inv
        y = np.multiply(xc, g, y)
        y += b
        return y

    def heads(self, hf, first: int, last: int, u=None, y=None, logits=None):
        """Logits of heads first+1..last at every row of hf (..., T, D), as
        (..., T, last - first, V). The logits, and the u and y the backward
        pass reads, go into `logits`, `u` and `y` where given. The
        projection is one (T * (last - first), D) @ (D, V) product per
        leading index of hf; that fixed shape keeps the bits reproducible."""
        w1, b1, w2, b2, proj = self.head
        rows, d = hf.shape[:-1], hf.shape[-1]
        cols = slice(first * d, last * d)
        u = np.matmul(hf, w1, u)
        u += b1
        np.maximum(u, self.zero, out=u)
        y = np.matmul(u, w2[:, cols], y)
        y += b2[cols]
        y = y.reshape(rows + (last - first, d))
        y += hf[..., None, :]
        logits = np.matmul(y.reshape(rows[:-1] + (-1, d)), proj, logits)
        return logits.reshape(y.shape[:-1] + (-1,))

    def attend(self, q, keys_t, values, mask, attn=None, ctx=None):
        """Attention of `q` over `keys_t` (keys transposed) and `values`
        under `mask`. Returns the context; it and the attention weights go
        into `ctx` and `attn` where given."""
        attn = np.matmul(q, keys_t, attn)
        attn *= self.scale
        attn += mask
        _softmax(attn, attn)
        return np.matmul(attn, values, ctx)

    def mlp(self, x, w: dict, ctx, out=None):
        """The rest of a layer once attention's context `ctx` is known: the
        output projection and residual, then the feedforward block. Returns
        the layer output; it and the intermediates the backward pass reads go
        into the arrays of the step memory's layer record `out`, where
        given."""
        out = out or {}
        x2 = ctx @ w["attn.wo"]
        x2 += x
        b = self.layernorm(x2, w["ln2.g"], w["ln2.b"], out.get("b"), out.get("xhat2"),
                           out.get("inv2"))
        u = np.matmul(b, w["mlp.w1"], out.get("u"))
        u += w["mlp.b1"]
        np.maximum(u, self.zero, out=u)
        x3 = np.matmul(u, w["mlp.w2"], out.get("x"))
        x3 += x2
        x3 += w["mlp.b2"]
        return x3


class _StepMemory:
    """The one record of a train step on batches of `rows` padded rows of C
    positions. The trunk's position-wise work (layernorms, products, MLP)
    runs on packed rows: `start` binds the positions a step computes, the
    first lengths[b] of row b, in row-major order. `index` holds each one's
    flat index into the batch's B * C positions, so len(index) is how many
    positions the trunk ran, `pads` the other positions', and `ids` the
    computed positions' token ids. Every packed slot is a view of the first
    len(index) rows of an array with a row for every position. Attention
    alone keeps the padded (B, C, ...) layout: q/k/v and the context's
    gradient are scattered into it (`scatter`), and the context and the
    q/k/v gradient gathered back out (`gather`).

    The forward pass writes into its named slots, with out=, every array the
    backward pass reads: each layer's layernorm outputs (a, b), normalized
    inputs (xhat1, xhat2) and inverse deviations (inv1, inv2), padded fused
    q/k/v, attention weights (padded) and context, feedforward hidden units
    (u) and output (x); the final layernorm's; the ids and `_Weights`
    binding. The trained head's record (`head`) has a row for every
    position of the batch, and a step uses its first rows, one per position
    that carries the head's loss (`trained`, views of them): the gathered
    final hidden states, the head's u, y and logits, and the gradients at
    those rows. The backward writes its temporaries and every gradient
    beside them; a layer's q/k/v weight gradients are the column blocks of
    one (D, 3D) array (`qkv_grads`), which one product fills. `qkv_rows`
    holds the packed q/k/v product (forward) or its gradient (backward),
    `padded` attention's context (forward), or the context's or the
    embeddings' gradient (backward), and `swapped` a layer's keys (forward)
    or values (backward) transposed, C-contiguous, for the product that
    reads them. A run that keeps one across its steps
    (`TinyBlockModel.train_run`) allocates next to nothing per step; a step
    outside a run makes its own."""

    def __init__(self, model: "TinyBlockModel", rows: int):
        cfg = model.config
        c, d, h, k, v = cfg.max_context, cfg.d_model, cfg.d_hidden, cfg.num_heads, cfg.vocab_size
        self.rows = rows

        def new(width, shape=(rows * c,)):
            return np.empty(shape + (width,), dtype=model.dtype)

        # a packed slot is 2-d, a padded one 3-d; `start` takes views of the former
        self.slots = [
            {"a": new(d), "xhat1": new(d), "inv1": new(1), "qkv": new(3 * d, (rows, c)),
             "attn": new(c, (rows, c)), "ctx": new(d), "b": new(d), "xhat2": new(d),
             "inv2": new(1), "u": new(h), "x": new(d)}
            for _ in range(cfg.num_layers)
        ]
        self.final = [new(d), new(d), new(1)]  # hf, xhatf, invf
        self.qkv_all, self.padded, self.swapped = new(3 * d), new(d, (rows, c)), new(c, (rows, d))
        widths = dict(hf=d, u=k * h, y=d, logits=v, dlogits=v, dy=d, du=k * h, dhf=d)
        self.head = {name: new(width) for name, width in widths.items()}
        self.ids = self.index = self.pads = self.weights = None
        self.positions = self.targets = self.trained = None
        widths = dict.fromkeys(("dhf", "dx", "dxhat", "db", "dx2", "dctx", "da", "dln", "sorted"), d)
        self.slots_back = {name: new(width) for name, width in widths.items()}
        self.slots_back.update(dupre=new(h), dattn=new(c, (rows, c)), dscores=new(c, (rows, c)),
                               dqkv=new(3 * d, (rows, c)))
        # in the order the backward pass computes them, which is the order
        # the clip norm sums them in: another order changes training's bits
        order = ["proj.w", "ext.w2", "ext.b2", "ext.w1", "ext.b1", "lnf.g", "lnf.b"]
        for layer in reversed(range(cfg.num_layers)):
            order += [f"l{layer}.{name}" for name in (
                "mlp.w2", "mlp.b2", "mlp.w1", "mlp.b1", "ln2.g", "ln2.b",
                "attn.wo", "attn.wq", "attn.wk", "attn.wv", "ln1.g", "ln1.b")]
        order += ["pos_emb", "tok_emb"]
        self.grads = {name: np.empty_like(model.params[name]) for name in order}
        self.qkv_grads = [np.empty((d, 3 * d), dtype=model.dtype) for _ in range(cfg.num_layers)]
        for layer, fused in enumerate(self.qkv_grads):
            for name, block in zip(("attn.wq", "attn.wk", "attn.wv"), np.split(fused, 3, axis=1)):
                self.grads[f"l{layer}.{name}"] = block

    def start(self, ids: np.ndarray, lengths: np.ndarray, weights: _Weights) -> None:
        """Bind a step on the padded batch `ids` (B, C) whose row b computes
        its first lengths[b] positions, with the weight binding `weights`."""
        real = np.arange(ids.shape[1]) < lengths[:, None]
        self.index, self.pads = np.flatnonzero(real), np.flatnonzero(~real)
        self.ids, self.weights, n = ids.reshape(-1)[self.index], weights, len(self.index)

        def packed(slots):
            return {name: a[:n] if a.ndim == 2 else a for name, a in slots.items()}

        self.layers, self.back = [packed(slots) for slots in self.slots], packed(self.slots_back)
        self.hf, self.xhatf, self.invf = (a[:n] for a in self.final)
        self.qkv_rows = self.qkv_all[:n]

    def scatter(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The packed `rows` into the padded `out` (B, C, W), and zeros at
        the pads: every step rewrites them, as attention reads pad keys and
        values at weight zero and the backward pad queries' context gradient
        at nonzero weights, so a stale row there (a NaN, say) reaches real
        rows. Returns `out`."""
        flat = out.reshape(-1, out.shape[-1])
        flat[self.pads] = 0
        flat[self.index] = rows
        return out

    def gather(self, padded: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The packed rows of `padded` (B, C, W), written into `out`."""
        # mode="clip" skips the copy through a buffer that "raise" makes;
        # every index is in range
        return np.take(padded.reshape(-1, padded.shape[-1]), self.index, axis=0, out=out,
                       mode="clip")


class _KVCache:
    """A decode session's state, bound to the input it decodes: each
    layer's keys and values side by side, (max_context, 2D), and the views
    of them the decode step attends over; the final hidden state of every
    position, num_heads rows longer so the last head window fits; the
    float64 log-probs of every head at every position from the separator
    `sep` on; the token each position was computed from (-1: not cached),
    and the session's `_Weights`. Cached positions always form a prefix of
    the context, and every one from `sep` on has its log-probs."""

    def __init__(self, model: "TinyBlockModel", input_tokens: tuple):
        cfg = model.config
        c, d = cfg.max_context, cfg.d_model
        self.input, self.sep = input_tokens, len(input_tokens)
        self.ids = np.full(c, -1, dtype=np.int64)
        self.kv = np.zeros((cfg.num_layers, c, 2 * d), dtype=model.dtype)
        self.views = [(store, store[:, :d].T, store[:, d:]) for store in self.kv]
        self.hidden = np.zeros((c + cfg.num_heads, d), dtype=model.dtype)
        self.logprobs = np.zeros((c, cfg.num_heads, cfg.vocab_size))
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
        self._run = None  # the open train run's _StepMemory

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

    def _compose(self, input_tokens: tuple, prefix: tuple, candidates: tuple) -> tuple:
        check_token_ids(input_tokens, self.vocab_size, "input")
        check_token_ids(prefix, self.vocab_size, "prefix")
        check_token_ids(candidates, self.vocab_size, "candidates")
        return input_tokens + (self.config.sep_token,) + prefix + candidates

    def trunk_forward(self, ids_batch: np.ndarray, lengths: Optional[np.ndarray] = None):
        """Training's transformer trunk over padded id batches of shape
        (B, max_context), attending over the keys and values of its own
        positions. Row b's first lengths[b] positions are its composed
        tokens, and every position when `lengths` is None. The position-wise
        work runs only on those, packed, in row-major order (see
        `_StepMemory`): no loss reads a pad, and under the causal mask no
        position before it attends to it. It writes the ids, its `_Weights`
        binding and every intermediate the backward pass reads into the open
        train run's `_StepMemory` when its batches have B rows, else into a
        new one.

        Returns the final layernormed hidden states of the computed
        positions, (N, D) for N = sum(lengths), and the memory.
        """
        w, mem = _Weights(self), self._run
        if mem is None or mem.rows != len(ids_batch):
            mem = _StepMemory(self, len(ids_batch))
        c, d = self.config.max_context, self.config.d_model
        mem.start(ids_batch, np.full(len(ids_batch), c) if lengths is None else lengths, w)
        x = w.tok_emb[mem.ids]
        x += w.pos_emb[mem.index % c]
        for lw, out in zip(w.layers, mem.layers):
            a = w.layernorm(x, lw["ln1.g"], lw["ln1.b"], out["a"], out["xhat1"], out["inv1"])
            qkv = mem.scatter(np.matmul(a, lw["qkv"], mem.qkv_rows), out["qkv"])
            # a stacked product reading the transposed view took 115 us
            # against 84 with a C-contiguous copy, bitwise the same
            np.copyto(mem.swapped, qkv[..., d : 2 * d].swapaxes(-1, -2))
            ctx = w.attend(qkv[..., :d], mem.swapped, qkv[..., 2 * d :], w.mask, out["attn"],
                           mem.padded)
            x = w.mlp(x, lw, mem.gather(ctx, out["ctx"]), out)
        return w.layernorm(x, *w.lnf, mem.hf, mem.xhatf, mem.invf), mem

    @contextmanager
    def train_run(self, batch_size: int):
        """Keep one `_StepMemory` across the train steps of a run on batches
        of `batch_size` rows, so each step writes the arrays the last one
        wrote instead of allocating its own. Results are bitwise those of a
        step outside the run; an array a step returns (hidden states,
        gradients) holds until the run's next step."""
        outer, self._run = self._run, _StepMemory(self, batch_size)
        try:
            yield
        finally:
            self._run = outer

    def _positions_forward(self, tokens: np.ndarray, first: int, cache: _KVCache):
        """The decode step over the positions from `first` on, whose tokens
        are `tokens`, each as row 0 of its own (1, D) slab, batched as
        (n, 1, D); positions before `first` must hold valid keys and values
        in `cache`. Writes this call's keys and values into `cache`, attends
        over its stores, writes the final hidden states, and marks every
        later position uncached, as it saw the old tokens. Then scores the
        heads of the positions it computed from the separator on, one
        num_heads + 1-row window at a time, into `cache.logprobs`.
        """
        w, d = cache.weights, self.config.d_model
        rows = slice(first, first + len(tokens))
        x = (w.tok_emb[tokens] + w.pos_emb[rows])[:, None, :]
        mask = w.mask[rows, None, :]
        cache.ids[first:] = -1  # this call's rows until every layer is written
        for lw, (store, keys_t, values) in zip(w.layers, cache.views):
            qkv = w.layernorm(x, lw["ln1.g"], lw["ln1.b"]) @ lw["qkv"]
            store[rows] = qkv[:, 0, d:]
            x = w.mlp(x, lw, w.attend(qkv[..., :d], keys_t, values, mask))
        cache.ids[rows] = tokens
        cache.hidden[rows] = w.layernorm(x, *w.lnf)[:, 0]
        n = self.num_heads + 1
        for s in range(max(first, cache.sep), rows.stop, n):
            # every head, whatever k is: head 1's bits must not depend on k
            logits = w.heads(cache.hidden[s : s + n], 0, self.num_heads)[: rows.stop - s]
            # log_softmax is row-wise, so normalizing only the computed
            # positions gives them bitwise as the whole window would
            cache.logprobs[s : s + len(logits)] = log_softmax(logits)

    @contextmanager
    def session(self, input_tokens):
        """Keep each layer's keys and values, and each position's head
        log-probs, across the score_grid calls of one decode of
        `input_tokens`. A call on that input reuses them for positions whose
        tokens match the previous calls' and recomputes the rest; a call on
        another input starts from an empty cache. Results are bitwise those
        of a call outside the session."""
        outer, self._cache = self._cache, _KVCache(self, tuple(input_tokens))
        try:
            yield
        finally:
            self._cache = outer

    def score_grid(self, input_tokens, prefix, candidates, k) -> BlockScores:
        """Score k heads at every candidate offset: the decode step on the
        positions not cached, then a copy of the call's rows of the
        per-position log-probs. The grid has len(candidates) + 1 rows, a copy
        the session does not keep. No product a row depends on changes shape
        with the argument lengths, so identical conditioning contexts
        reproduce bit-identical rows however the grid is sliced and whatever
        the session has cached (see the module docstring).
        """
        self._check_heads(k)
        input_tokens, prefix, candidates = tuple(input_tokens), tuple(prefix), tuple(candidates)
        ids = self._compose(input_tokens, prefix, candidates)
        if len(ids) > self.config.max_context:
            raise LengthError(
                f"sequence of {len(ids)} tokens exceeds context {self.config.max_context}"
            )
        cache = self._cache
        if cache is None or cache.input != input_tokens:
            cache = _KVCache(self, input_tokens)
        tokens = np.array(ids, dtype=np.int64)
        changed = np.flatnonzero(cache.ids[: len(ids)] != tokens)
        if changed.size:
            self._positions_forward(tokens[changed[0] :], int(changed[0]), cache)
        base = len(input_tokens) + len(prefix)  # position of grid row 0
        grid = cache.logprobs[base : base + len(candidates) + 1, :k].copy()
        return BlockScores(grid=grid, base_len=len(prefix))


def _layernorm_backward(dy, g, xhat, inv, dx, dxhat, dg, db):
    """Layernorm's input gradient, written into `dx`, and its weight
    gradients, into `dg` and `db`, from the normalized input `xhat` and
    inverse deviation `inv` its forward saved; `dxhat` is scratch."""
    n = xhat.shape[-1]
    np.add.reduce(np.multiply(dy, xhat, dxhat), axis=0, out=dg)
    np.add.reduce(dy, axis=0, out=db)
    dxhat = np.multiply(dy, g, dxhat)
    mean = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
    proj = np.add.reduce(np.multiply(dxhat, xhat, dx), axis=-1, keepdims=True) / n
    np.multiply(xhat, proj, dx)
    dxhat -= mean
    np.subtract(dxhat, dx, dx)
    dx *= inv
    return dx


def _add_rows_by_id(ids, rows, out, scratch):
    """Row i of `out` becomes the sum of the rows of `rows` whose id is i,
    added in their order, as np.add.at(out, ids, rows) on zeros adds them,
    and bitwise the same; an id absent gets a zero row. The rows, sorted
    stably by id into `scratch`, are summed one id at a time, each
    np.add.reduce over axis 0 adding its rows in sequence. At the train
    shapes (1,024 rows of 64, V=10) np.add.at took 572 us against 97-127."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    np.take(rows, order, axis=0, out=scratch, mode="clip")
    starts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist()
    out.fill(0)
    for start, end in zip(starts, starts[1:] + [len(ids)]):
        np.add.reduce(scratch[start:end], axis=0, out=out[ids[start]])
    return out


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
    """The sub-loss of head `head` and the step memory its forward pass
    wrote. The trunk runs on each row's composed tokens, and the head only
    at the positions that carry its loss: the memory keeps their indices
    into the trunk's packed positions, their target tokens, and the step's
    rows of the head record (`_StepMemory.trained`), where their final
    hidden states are gathered and the head's forward writes."""
    if not 1 <= head <= model.num_heads:
        raise ConfigurationError(f"head must be in [1, {model.num_heads}]")
    carries_loss = _loss_positions(batch, head)
    if not carries_loss.any():
        raise ConfigurationError(
            f"no training positions for head {head}; targets are shorter than the head offset"
        )
    hf, mem = model.trunk_forward(batch.ids, batch.input_lens + 1 + batch.target_lens)
    positions = np.flatnonzero(carries_loss.reshape(-1)[mem.index])
    # a target sits head positions on in the same row, so the packed index works
    mem.positions, mem.targets = positions, mem.ids[positions + head]
    t = mem.trained = {name: rows[: len(positions)] for name, rows in mem.head.items()}
    # mode="clip" skips the copy through a buffer that "raise" makes; every
    # index is in range
    np.take(hf, positions, axis=0, out=t["hf"], mode="clip")
    logits = mem.weights.heads(t["hf"], head - 1, head, t["u"], t["y"], t["logits"])
    logprobs = log_softmax(logits[:, 0])
    return float(-logprobs[np.arange(len(positions)), mem.targets].mean()), mem


def sub_loss(model: TinyBlockModel, batch: TrainBatch, head: int) -> float:
    """Mean cross-entropy of one head over its valid positions.

    Averaging sub_loss over a uniformly random head is an unbiased
    estimate of the mean of all per-head losses.
    """
    return _head_loss(model, batch, head)[0]


def loss_and_gradients(
    model: TinyBlockModel, batch: TrainBatch, head: int, freeze: FreezeMask = FreezeMask()
):
    """Sub-loss of one head and its gradient for every parameter outside
    the partitions `freeze` freezes. The head's backward runs at its target
    positions only, and with the base frozen the backward pass stops there.
    A product reads a weight's transpose as a C-contiguous copy. The
    gradients are the step memory's arrays (see `TinyBlockModel.train_run`)."""
    loss, mem = _head_loss(model, batch, head)
    w1, _, w2, _, proj = mem.weights.head
    t, grads, n = mem.trained, mem.grads, len(mem.targets)

    # cross-entropy at the target positions, averaged
    probs = _softmax(t["logits"].astype(np.float64))
    probs[np.arange(n), mem.targets] -= 1.0
    dlogits = np.divide(probs, n, t["dlogits"])

    # vocabulary projection and the trained head's columns of the extension
    cols = slice((head - 1) * model.config.d_model, head * model.config.d_model)
    np.matmul(t["y"].T, dlogits, grads["proj.w"])
    dy = np.matmul(dlogits, proj.T.copy(), t["dy"])
    grads["ext.w2"].fill(0)
    np.matmul(t["u"].T, dy, grads["ext.w2"][:, cols])
    grads["ext.b2"].fill(0)
    np.add.reduce(dy, axis=0, out=grads["ext.b2"][cols])
    du = np.matmul(dy, w2[:, cols].T.copy(), t["du"])
    du *= t["u"] > 0
    np.matmul(t["hf"].T, du, grads["ext.w1"])
    np.add.reduce(du, axis=0, out=grads["ext.b1"])

    if not freeze.base:
        dhf = np.matmul(du, w1.T.copy(), t["dhf"])
        dhf += dy  # residual into the head output
        _trunk_backward(mem, dhf)
    return loss, {name: g for name, g in grads.items() if not freeze.frozen(partition_of(name))}


def _trunk_backward(mem: _StepMemory, dhf_rows) -> None:
    """The trunk's and the embeddings' gradients, from the gradient
    `dhf_rows` of the final hidden states at the trained positions, into
    the step memory; the weights are read from the step's binding."""
    w, buf, grads = mem.weights, mem.back, mem.grads
    buf["dhf"].fill(0)
    buf["dhf"][mem.positions] = dhf_rows
    dx = _layernorm_backward(buf["dhf"], w.lnf[0], mem.xhatf, mem.invf, buf["dx"], buf["dxhat"],
                             grads["lnf.g"], grads["lnf.b"])
    for layer in reversed(range(len(w.layers))):
        pre, lw, lc = f"l{layer}.", w.layers[layer], mem.layers[layer]
        # feedforward: x3 = x2 + relu(ln2(x2) @ w1 + b1) @ w2 + b2
        np.matmul(lc["u"].T, dx, grads[pre + "mlp.w2"])
        np.add.reduce(dx, axis=0, out=grads[pre + "mlp.b2"])
        dupre = np.matmul(dx, lw["mlp.w2"].T.copy(), buf["dupre"])
        dupre *= lc["u"] > 0
        np.matmul(lc["b"].T, dupre, grads[pre + "mlp.w1"])
        np.add.reduce(dupre, axis=0, out=grads[pre + "mlp.b1"])
        db = np.matmul(dupre, lw["mlp.w1"].T.copy(), buf["db"])
        dx2 = _layernorm_backward(db, lw["ln2.g"], lc["xhat2"], lc["inv2"], buf["dx2"],
                                  buf["dxhat"], grads[pre + "ln2.g"], grads[pre + "ln2.b"])
        dx2 += dx
        # attention: x2 = x + softmax(q k^T scale + mask) v wo; dq|dk|dv as q|k|v
        (q, k, v), attn = np.split(lc["qkv"], 3, axis=-1), lc["attn"]
        dq, dk, dv = np.split(buf["dqkv"], 3, axis=-1)
        np.matmul(lc["ctx"].T, dx2, grads[pre + "attn.wo"])
        dctx = mem.scatter(np.matmul(dx2, lw["attn.wo"].T.copy(), buf["dctx"]), mem.padded)
        np.copyto(mem.swapped, v.swapaxes(-1, -2))
        dattn = np.matmul(dctx, mem.swapped, buf["dattn"])
        np.matmul(attn.swapaxes(-1, -2), dctx, dv)
        dscores = np.multiply(dattn, attn, buf["dscores"])
        dscores = np.subtract(dattn, np.add.reduce(dscores, axis=-1, keepdims=True), dscores)
        dscores *= attn
        dscores *= w.scale
        np.matmul(dscores, k, dq)
        np.matmul(dscores.swapaxes(-1, -2), q, dk)
        dqkv = mem.gather(buf["dqkv"], mem.qkv_rows)
        np.matmul(lc["a"].T, dqkv, mem.qkv_grads[layer])
        da = np.matmul(dqkv, lw["qkv"].T.copy(), buf["da"])
        dln = _layernorm_backward(da, lw["ln1.g"], lc["xhat1"], lc["inv1"], buf["dln"],
                                  buf["dxhat"], grads[pre + "ln1.g"], grads[pre + "ln1.b"])
        dx = np.add(dx2, dln, buf["dx"])

    # embeddings, from the computed positions' rows only; summed over the
    # batch in the padded layout, zeros at the pads, as a padded step sums
    np.add.reduce(mem.scatter(dx, mem.padded), axis=0, out=grads["pos_emb"])
    _add_rows_by_id(mem.ids, dx, grads["tok_emb"], buf["sorted"])


def check_step_settings(learning_rate: float, max_grad_norm: Optional[float]) -> None:
    """Raise ConfigurationError unless the learning rate is positive and
    finite and the clip norm is positive or None (no clip): other values
    train the wrong way, not at all, or to NaN parameters."""
    if not 0 < learning_rate < np.inf:
        raise ConfigurationError(f"learning_rate must be positive and finite, not {learning_rate}")
    if max_grad_norm is not None and not max_grad_norm > 0:
        raise ConfigurationError(f"max_grad_norm must be positive or None, not {max_grad_norm}")


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
    check_step_settings(learning_rate, max_grad_norm)
    loss, grads = loss_and_gradients(model, batch, head, freeze)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss!r}")
    if max_grad_norm is not None:
        total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
        if total > max_grad_norm:
            factor = model.dtype.type(max_grad_norm / total)
            for g in grads.values():
                g *= factor
    lr = model.dtype.type(learning_rate)
    for name, grad in grads.items():
        grad *= lr
        model.params[name] -= grad
    return loss
