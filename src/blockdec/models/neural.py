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
near the end of the context never runs short; log-softmax normalizes only
the rows and heads the grid returns. Within a decode session
(`TinyBlockModel.session`) each layer's keys and values are kept for
positions whose tokens have not changed since the previous call; outside
one every call starts from an empty cache. Every position is always
computed at the same index of arrays of the same shape, attention always
spans the whole context under the causal mask training uses, and the
window's shape is fixed by the config, so the activations at position p
depend only on the tokens at positions <= p and the same conditioning
context reproduces bit-identical distributions whatever was cached. The
decode engine relies on this to re-read grid rows across invocations.

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


class _KVCache:
    """A decode session's state: each layer's keys and values side by side,
    (max_context, 2D); the final hidden state of every position, num_heads
    rows longer so the head window of the last position fits; the token each
    position was computed from (-1: not cached); and the fused q/k/v weights,
    computed once per session. Cached positions always form a prefix of the
    context."""

    def __init__(self, model: "TinyBlockModel"):
        cfg = model.config
        c = cfg.max_context
        self.ids = np.full(c, -1, dtype=np.int64)
        self.kv = np.zeros((cfg.num_layers, c, 2 * cfg.d_model), dtype=model.dtype)
        self.hidden = np.zeros((c + cfg.num_heads, cfg.d_model), dtype=model.dtype)
        self.wqkv = model._qkv_weights()


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

    def partition_names(self) -> dict:
        out = {part: [] for part in PARTITIONS}
        for name in sorted(self.params):
            out[partition_of(name)].append(name)
        return out

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

    def _qkv_weights(self) -> list:
        """Each layer's query, key and value weights side by side, (D, 3D)."""
        p = self.params
        return [
            np.concatenate([p[f"l{layer}.attn.w{w}"] for w in "qkv"], axis=1)
            for layer in range(self.config.num_layers)
        ]

    def _layer(self, layer: int, x: np.ndarray, mask: np.ndarray, wqkv: np.ndarray,
               kv=None, want_cache=False):
        """One transformer layer over x (..., T, D); returns the layer output
        and, when requested, the intermediates the backward pass needs.

        `wqkv` is the layer's fused (D, 3D) q/k/v weight. Attention reads the
        keys and values computed from x itself, or, with kv = (store, rows),
        the (max_context, 2D) key/value store of a cache after this call's
        keys and values are written at `rows`. `mask` holds the causal mask
        rows of x's positions.
        """
        p = self.params
        pre = f"l{layer}."
        d = self.config.d_model
        a, ln1c = _layernorm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        qkv = a @ wqkv
        q, kv_new = qkv[..., :d], qkv[..., d:]
        if kv is None:
            keys, values = kv_new[..., :d], kv_new[..., d:]
        else:
            store, rows = kv
            store[rows] = kv_new.reshape(-1, 2 * d)
            keys, values = store[:, :d], store[:, d:]
        scale = self.dtype.type(1.0 / np.sqrt(d))
        scores = q @ keys.swapaxes(-1, -2) * scale + mask
        attn = _softmax(scores)
        ctx = attn @ values
        x2 = x + ctx @ p[pre + "attn.wo"]
        b, ln2c = _layernorm(x2, p[pre + "ln2.g"], p[pre + "ln2.b"])
        upre = b @ p[pre + "mlp.w1"] + p[pre + "mlp.b1"]
        u = np.maximum(upre, 0)
        x3 = x2 + u @ p[pre + "mlp.w2"] + p[pre + "mlp.b2"]
        if not want_cache:
            return x3, None
        return x3, {
            "x": x, "a": a, "ln1": ln1c, "q": q, "k": keys, "v": values,
            "attn": attn, "ctx": ctx, "x2": x2, "b": b, "ln2": ln2c, "u": u,
        }

    def trunk_forward(self, ids_batch: np.ndarray, want_cache: bool = False):
        """Transformer trunk over padded id batches of shape (B, max_context).

        Returns the final layernormed hidden states (B, C, D) and, when
        requested, the intermediates needed for the backward pass.
        """
        p = self.params
        x = p["tok_emb"][ids_batch] + p["pos_emb"][None, :, :]
        cache = {"ids": ids_batch, "x0": x} if want_cache else None
        for layer, wqkv in enumerate(self._qkv_weights()):
            x, layer_cache = self._layer(layer, x, self._mask, wqkv, want_cache=want_cache)
            if want_cache:
                cache[f"layer{layer}"] = layer_cache
        hf, lnfc = _layernorm(x, p["lnf.g"], p["lnf.b"])
        if want_cache:
            cache["x_final"] = x
            cache["lnf"] = lnfc
            cache["hf"] = hf
        return hf, cache

    def _positions_forward(self, tokens: np.ndarray, first: int, cache: _KVCache):
        """Trunk over the positions from `first` on, whose tokens are
        `tokens`, each as row 0 of its own (1, D) slab, batched as (n, 1, D);
        positions before `first` must hold valid keys and values in `cache`.
        Writes this call's keys, values and final hidden states into `cache`
        and marks every later position uncached, as it saw the old tokens."""
        p = self.params
        rows = slice(first, first + len(tokens))
        x = (p["tok_emb"][tokens] + p["pos_emb"][rows])[:, None, :]
        mask = self._mask[rows, None, :]
        cache.ids[first:] = -1  # this call's rows until every layer is written
        for layer, wqkv in enumerate(cache.wqkv):
            x, _ = self._layer(layer, x, mask, wqkv, (cache.kv[layer], rows))
        cache.ids[rows] = tokens
        hf, _ = _layernorm(x, p["lnf.g"], p["lnf.b"])
        cache.hidden[rows] = hf[:, 0]

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

    def extension_forward(self, hf: np.ndarray, heads: slice, want_cache: bool = False):
        """Logits of the heads in `heads` (a slice of 0-indexed heads) at
        every position: hf (..., T, D) gives (..., T, len(heads), V).

        score_grid passes every head on its window of num_heads + 1 rows and
        training one head on padded rows (T = max_context). The vocabulary
        projection is one (T * len(heads), D) @ (D, V) product per leading
        index of hf; that fixed shape keeps the result bitwise reproducible.
        """
        first, stop, step = heads.indices(self.num_heads)
        if step != 1 or stop <= first:
            raise ConfigurationError(f"heads must be a non-empty slice of [0, {self.num_heads})")
        p = self.params
        d = self.config.d_model
        lo, hi = first * d, stop * d
        u = np.maximum(hf @ p["ext.w1"] + p["ext.b1"], 0)
        o = u @ p["ext.w2"][:, lo:hi] + p["ext.b2"][lo:hi]
        y = o.reshape(*hf.shape[:-1], stop - first, d) + hf[..., None, :]
        logits = y.reshape(*hf.shape[:-2], -1, d) @ p["proj.w"]
        cache = {"u": u, "y": y, "lo": lo} if want_cache else None
        return logits.reshape(*y.shape[:-1], -1), cache

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
        logits, _ = self.extension_forward(window, slice(None))
        # log_softmax is row-wise, so normalizing only the rows and heads
        # the grid returns gives them bitwise as the whole window would
        grid = log_softmax(logits[: len(candidates) + 1, :k])
        return BlockScores(grid=grid, base_len=len(tuple(prefix)))


def _layernorm(x, g, b):
    n = x.shape[-1]
    # np.add.reduce sums as ndarray.mean does, without its Python wrapper;
    # np.vecdot is faster but sums in another order, which changes training
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def _layernorm_backward(dy, g, cache):
    xhat, inv = cache
    n = xhat.shape[-1]
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
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
                    f"composed sequence of {len(composed)} tokens exceeds context {c}"
                )
            ids[row, : len(composed)] = composed
            input_lens[row] = len(inp)
            target_lens[row] = len(tgt)
        return cls(ids=ids, input_lens=input_lens, target_lens=target_lens)

    def __len__(self):
        return self.ids.shape[0]


def _loss_positions(batch: TrainBatch, head: int, max_context: int):
    """Boolean mask of positions where head `head` has a target.

    Head h at position p predicts ids[p + h]. Valid p runs from the SEP
    (index input_len) through input_len + target_len - h.
    """
    pos = np.arange(max_context)[None, :]
    sep = batch.input_lens[:, None]
    last = batch.input_lens[:, None] + batch.target_lens[:, None] - head
    return (pos >= sep) & (pos <= last)


def _head_loss(model: TinyBlockModel, batch: TrainBatch, head: int, want_cache: bool):
    if not 1 <= head <= model.num_heads:
        raise ConfigurationError(f"head must be in [1, {model.num_heads}]")
    hf, trunk_cache = model.trunk_forward(batch.ids, want_cache=want_cache)
    logits, ext_cache = model.extension_forward(hf, slice(head - 1, head), want_cache=want_cache)
    logits = logits[..., 0, :]
    mask = _loss_positions(batch, head, model.config.max_context)
    count = int(mask.sum())
    if count == 0:
        raise ConfigurationError(
            f"no training positions for head {head}; targets are shorter than the head offset"
        )
    rows, cols = np.nonzero(mask)
    targets = batch.ids[rows, cols + head]
    logprobs = log_softmax(logits[rows, cols])
    loss = float(-logprobs[np.arange(count), targets].mean())
    aux = (hf, trunk_cache, logits, ext_cache, rows, cols, targets, count)
    return loss, aux


def sub_loss(model: TinyBlockModel, batch: TrainBatch, head: int) -> float:
    """Mean cross-entropy of one head over its valid positions.

    Averaging sub_loss over a uniformly random head is an unbiased
    estimate of the mean of all per-head losses.
    """
    loss, _ = _head_loss(model, batch, head, want_cache=False)
    return loss


def loss_and_gradients(model: TinyBlockModel, batch: TrainBatch, head: int):
    """Sub-loss of one head and its gradient for every parameter."""
    loss, aux = _head_loss(model, batch, head, want_cache=True)
    hf, cache, logits, ext_cache, rows, cols, targets, count = aux
    p = model.params
    cfg = model.config
    grads = {}

    # cross-entropy at the masked positions, averaged
    dlogits = np.zeros_like(logits)
    probs = _softmax(logits[rows, cols].astype(np.float64))
    probs[np.arange(count), targets] -= 1.0
    dlogits[rows, cols] = (probs / count).astype(model.dtype)

    # vocabulary projection and head extension
    y, u, lo = ext_cache["y"], ext_cache["u"], ext_cache["lo"]
    grads["proj.w"] = _flat_grad(y, dlogits)
    dy = dlogits @ p["proj.w"].T
    dhf = dy.copy()  # residual into the head output
    w2_slice = p["ext.w2"][:, lo : lo + cfg.d_model]
    grads["ext.w2"] = np.zeros_like(p["ext.w2"])
    grads["ext.w2"][:, lo : lo + cfg.d_model] = _flat_grad(u, dy)
    grads["ext.b2"] = np.zeros_like(p["ext.b2"])
    grads["ext.b2"][lo : lo + cfg.d_model] = dy.sum(axis=(0, 1))
    du = dy @ w2_slice.T
    du *= u > 0
    grads["ext.w1"] = _flat_grad(hf, du)
    grads["ext.b1"] = du.sum(axis=(0, 1))
    dhf += du @ p["ext.w1"].T

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
    grads = {k: v.astype(model.dtype) for k, v in grads.items()}
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
    is set, the whole gradient is rescaled so its global L2 norm does not
    exceed it. Raises NumericError before applying any update if the loss
    is not finite.
    """
    if learning_rate <= 0:
        raise ConfigurationError("learning_rate must be positive")
    loss, grads = loss_and_gradients(model, batch, head)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss {loss!r}")
    if max_grad_norm is not None:
        total = np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
        if total > max_grad_norm:
            factor = model.dtype.type(max_grad_norm / total)
            grads = {name: g * factor for name, g in grads.items()}
    lr = model.dtype.type(learning_rate)
    for name, grad in grads.items():
        if freeze.frozen(partition_of(name)):
            continue
        model.params[name] -= lr * grad
    return loss
