"""The traced run: per-layer metrics, measured from outside the package.

Each model the decode functions receive is wrapped in `TimedModel`, which
times every `score_grid` call and records its arguments. Recorded calls are
then replayed through `TinyBlockModel.trunk_forward`, `BlockScores(...)` and
`verify_block` to split a call's time between the trunk, the head rows, grid
validation and verification. Training is split the same way by replaying
steps through `TrainBatch.from_pairs`, `loss_and_gradients` and
`train_step`.

A workload that never calls a layer (synthetic-engine runs no neural code,
the other two no table model) measures it on a small fixed probe instead,
so every traced run reports every layer; the printed report marks which
layers came from a probe.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from blockdec.engine import BlockScores, verify_block
from blockdec.harness.training import (
    TrainingConfig,
    default_model_config,
    train_model,
    training_pairs,
)
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.neural import TinyBlockModel, TrainBatch, loss_and_gradients, train_step
from blockdec.models.synthetic import SyntheticTableModel

import workloads as wl

KEEP_CALLS = 2000      # calls kept whole (arguments and grid) for replay
REPLAY_CALLS = 300     # calls replayed per model kind
REPLAY_STEPS = 12      # training steps replayed
PROBE_LOADS = 5
MAX_HEAD = 8


@dataclass
class Call:
    request: object
    prefix: tuple
    candidates: tuple
    k: int
    scores: BlockScores


class TimedModel:
    """Stands in for a scoring model: forwards `score_grid`, timing each
    call. Every call's duration and candidate count are kept; the first
    KEEP_CALLS are also kept whole for replay."""

    def __init__(self, model):
        self.model = model
        self.request = None
        self.durations_ns = []
        self.candidates = []
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def score_grid(self, input_tokens, prefix, candidates, k):
        start = time.perf_counter_ns()
        scores = self.model.score_grid(input_tokens, prefix, candidates, k)
        self.durations_ns.append(time.perf_counter_ns() - start)
        self.candidates.append(len(candidates))
        if len(self.calls) < KEEP_CALLS:
            self.calls.append(Call(self.request, tuple(prefix), tuple(candidates), k, scores))
        return scores


class Tracer:
    """Hands out one TimedModel per model and attributes each request's
    calls to its schemes: greedy's come first, then standard's, then
    combined's, and each scheme's invocation count says how many."""

    def __init__(self):
        self.proxies = {}
        self.engine = dict(wall_ns=0, model_ns=0, iterations=0, proposed=0, accepted=0)
        self._mark = 0

    def model_for(self, request):
        proxy = self.proxies.get(id(request.model))
        if proxy is None:
            proxy = self.proxies[id(request.model)] = TimedModel(request.model)
        proxy.request = request
        self._mark = len(proxy.durations_ns)
        return proxy

    def on_request(self, request, results, walls):
        proxy = self.proxies[id(request.model)]
        first = self._mark + results["greedy"].model_invocations
        first += results["standard"].model_invocations
        combined = results["combined"]
        self.engine["wall_ns"] += walls["combined"]
        self.engine["model_ns"] += sum(proxy.durations_ns[first:])
        self.engine["iterations"] += combined.iterations
        self.engine["proposed"] += sum(proxy.candidates[first:])
        self.engine["accepted"] += len(combined.output)

    def calls_of(self, kind) -> list:
        return [c for p in self.proxies.values() if isinstance(p.model, kind) for c in p.calls]

    def durations_of(self, kind) -> list:
        return [
            d for p in self.proxies.values() if isinstance(p.model, kind) for d in p.durations_ns
        ]


def _us(ns) -> float:
    return ns / 1e3


def _p(values, q) -> float:
    return wl.percentile(values, q) if values else 0.0


def _timed(fn, *args):
    start = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - start


def _sample(calls, n=REPLAY_CALLS) -> list:
    if len(calls) <= n:
        return calls
    step = len(calls) / n
    return [calls[int(i * step)] for i in range(n)]


def replay_grid_and_verify(calls) -> dict:
    """Time grid validation and verification on recorded grids."""
    block, verify = [], []
    for c in _sample(calls):
        grid = c.scores.grid
        _, ns = _timed(BlockScores, grid, c.scores.base_len)
        block.append(ns)
        if c.candidates:
            _, ns = _timed(verify_block, c.scores, c.candidates, c.request.criterion)
            verify.append(ns)
    return {
        "engine.block_scores_us.p50": (_us(_p(block, 50)), "us"),
        "criteria.verify_block_us.p50": (_us(_p(verify, 50)), "us"),
    }


def padded_ids(model: TinyBlockModel, call: Call) -> np.ndarray:
    """The (1, C) id batch score_grid builds: input, separator, prefix,
    candidates, zero padding."""
    ids = call.request.input_tokens + (model.config.sep_token,) + call.prefix + call.candidates
    batch = np.zeros((1, model.config.max_context), dtype=np.int64)
    batch[0, : len(ids)] = ids
    return batch


def mflop_per_call(cfg) -> float:
    """Multiply-adds of one score_grid call counted from tensor shapes
    (2 flops each); layernorm, softmax and other elementwise work left out."""
    c, d, h, k, v = cfg.max_context, cfg.d_model, cfg.d_hidden, cfg.num_heads, cfg.vocab_size
    per_layer = 4 * c * d * d + 2 * c * c * d + 2 * c * d * h
    extension = c * d * k * h + c * k * h * k * d
    projection = c * k * d * v
    return 2 * (cfg.num_layers * per_layer + extension + projection) / 1e6


def neural_layer(tracer: Tracer) -> dict:
    calls = tracer.calls_of(TinyBlockModel)
    trunk, head_rows = [], []
    for c in _sample(calls):
        model = c.request.model
        args = (c.request.input_tokens, c.prefix, c.candidates, c.k)
        _, total = _timed(model.score_grid, *args)
        _, part = _timed(model.trunk_forward, padded_ids(model, c))
        trunk.append(part)
        head_rows.append(total - part)
    cfg = calls[0].request.model.config
    scored = cfg.max_context * cfg.num_heads
    read = statistics.fmean(c.scores.rows * c.scores.heads for c in calls)
    durations = tracer.durations_of(TinyBlockModel)
    return {
        "models.neural.score_grid_us.p50": (_us(_p(durations, 50)), "us"),
        "models.neural.score_grid_us.p90": (_us(_p(durations, 90)), "us"),
        "models.neural.trunk_forward_us.p50": (_us(_p(trunk, 50)), "us"),
        "models.neural.head_rows_us.p50": (_us(_p(head_rows, 50)), "us"),
        "models.neural.rows_scored_per_call": (float(scored), "rows"),
        "models.neural.rows_read_per_call": (read, "rows"),
        "models.neural.row_use_ratio": (read / scored, "ratio"),
        "models.neural.mflop_per_call": (mflop_per_call(cfg), "MFLOP"),
    }


def synthetic_layer(tracer: Tracer) -> dict:
    models = [p.model for p in tracer.proxies.values() if isinstance(p.model, SyntheticTableModel)]
    calls = tracer.calls_of(SyntheticTableModel)
    return {
        "models.synthetic.score_grid_us.p50": (
            _us(_p(tracer.durations_of(SyntheticTableModel), 50)), "us"),
        "models.synthetic.rows_per_call": (
            statistics.fmean(c.scores.rows for c in calls), "rows"),
        "models.synthetic.row_cache_entries": (
            float(sum(len(getattr(m, "_row_cache", ())) for m in models)), "entries"),
    }


def engine_layer(tracer: Tracer, exact_sizes, block_size: int) -> dict:
    e = tracer.engine
    out = {
        "engine.self_us_per_iteration": (
            _us((e["wall_ns"] - e["model_ns"]) / e["iterations"]), "us"),
        "engine.model_share": (e["model_ns"] / e["wall_ns"], "ratio"),
        "engine.iterations_per_token": (e["iterations"] / e["accepted"], "ratio"),
        "engine.acceptance_ratio": (e["accepted"] / e["proposed"], "ratio"),
    }
    out.update(accept_rates(exact_sizes, block_size))
    return out


def accept_rates(exact_sizes, block_size: int) -> dict:
    """P(head j accepted | heads before j accepted) from exact-criterion
    accepted sizes. Each decode's last iteration is left out: the budget or
    the end token may have cut it short. Heads the model lacks read 0."""
    sizes = [s for per_decode in exact_sizes for s in per_decode[:-1]]
    out = {}
    for j in range(2, MAX_HEAD + 1):
        reached = sum(s >= j - 1 for s in sizes)
        rate = sum(s >= j for s in sizes) / reached if j <= block_size and reached else 0.0
        out[f"engine.accept_rate.head{j}"] = (rate, "ratio")
    return out


def training_layer(seed: int, sizes, steps_per_s: float = None) -> dict:
    """Replay training steps on the workload's training corpus and split a
    step into batch building, loss plus gradients, and the whole step.
    Without `steps_per_s` from the workload's own training, a short
    train_model run measures it."""
    corpus = wl.train_corpus(seed, sizes.train_pairs)
    config = default_model_config(corpus, **wl.NEURAL_SHAPE)
    if steps_per_s is None:
        steps = REPLAY_STEPS
        start = time.perf_counter()
        train_model(corpus, config, TrainingConfig(steps=steps, batch_size=16, seed=0))
        steps_per_s = steps / (time.perf_counter() - start)
    pairs = training_pairs(corpus)
    model = TinyBlockModel(config, seed=0)
    rng = np.random.default_rng(seed)
    build, grads, step = [], [], []
    for _ in range(REPLAY_STEPS):
        chosen = [pairs[i] for i in rng.integers(0, len(pairs), size=16)]
        head = int(rng.integers(1, config.num_heads + 1))
        batch, ns = _timed(TrainBatch.from_pairs, chosen, config)
        build.append(ns)
        grads.append(_timed(loss_and_gradients, model, batch, head)[1])
        step.append(_timed(train_step, model, batch, head, 0.1)[1])
    return {
        "harness.training.steps_per_s": (steps_per_s, "steps/s"),
        "models.neural.train_batch_build_ms.p50": (_p(build, 50) / 1e6, "ms"),
        "models.neural.loss_and_gradients_ms.p50": (_p(grads, 50) / 1e6, "ms"),
        "models.neural.train_step_ms.p50": (_p(step, 50) / 1e6, "ms"),
    }


def checkpoint_probe() -> float:
    times = []
    for _ in range(PROBE_LOADS):
        start = time.perf_counter()
        load_checkpoint(wl.CHECKPOINT)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def probe_tracer(requests) -> Tracer:
    """Trace one pass over `requests` after an untimed warm pass."""
    wl.run_pass(requests)
    tracer = Tracer()
    wl.run_pass(requests, tracer.model_for, tracer.on_request)
    return tracer


def traced(workload, seconds: float, sizes):
    """Half the window untraced, half traced, then replay. Returns
    (per-layer metrics, measurements, names of layers taken from a probe)."""
    plain = wl.measure(workload, seconds / 2)
    tracer = Tracer()
    timed = wl.measure(workload, seconds / 2, tracer.model_for, tracer.on_request)
    probed = []

    metrics = {}
    untraced = wl.tokens_per_s(plain, "combined")
    with_trace = wl.tokens_per_s(timed, "combined")
    metrics["trace.tokens_per_s.combined.untraced"] = (untraced, "tokens/s")
    metrics["trace.tokens_per_s.combined.traced"] = (with_trace, "tokens/s")
    metrics["trace.overhead_ratio"] = (untraced / with_trace - 1.0, "ratio")

    block_size = workload.requests[0].block_size
    metrics.update(engine_layer(tracer, plain.passes[0].exact_sizes, block_size))
    metrics.update(replay_grid_and_verify(
        [c for p in tracer.proxies.values() for c in p.calls]))

    if tracer.calls_of(TinyBlockModel):
        metrics.update(neural_layer(tracer))
    else:
        model, _ = wl.load_checked_checkpoint()
        metrics.update(neural_layer(probe_tracer(wl.repeat_requests(model, workload.seed, 4))))
        probed.append("models.neural (score_grid)")

    if tracer.calls_of(SyntheticTableModel):
        metrics.update(synthetic_layer(tracer))
    else:
        metrics.update(synthetic_layer(probe_tracer(wl.synthetic_requests(workload.seed, 8))))
        probed.append("models.synthetic")

    if workload.checkpoint_load_ms:
        load_ms = statistics.median(workload.checkpoint_load_ms)
    else:
        load_ms = checkpoint_probe()
        probed.append("models.checkpoint")
    metrics["models.checkpoint.load_ms"] = (load_ms, "ms")

    if workload.train_s:
        steps_per_s = workload.train_steps / statistics.median(workload.train_s)
        metrics.update(training_layer(workload.seed, sizes, steps_per_s))
    else:
        metrics.update(training_layer(workload.seed, sizes))
        probed.append("models.neural (training), harness.training")
    return metrics, (plain, timed), probed
