"""Corpus decoding: the benchmark runner and teacher distillation.

`run_bench` decodes a corpus under several configurations and compares
iteration counts, invocation counts, wall clock, greedy agreement, and
task quality against the greedy baseline. `distill_corpus` replaces a
corpus's targets with a teacher's greedy decodes. Both decode pair by pair
through one loop, under the budget of `Corpus.decode_budget`.

The (k=1, exact) configuration is reported as the greedy baseline itself:
its speedup is 1.0 by definition and every other row's speedup is the ratio
of median greedy wall clock to that row's median wall clock. Wall-clock
fields are the only nondeterministic part of a report; everything else is
reproducible bit for bit from the model and corpus. One untimed greedy pass
runs before the baseline, so a first-call stall (BLAS start-up, cold
caches) is not timed, and `meta` records the numpy build, BLAS, thread
settings and CPU count the wall clock was measured under.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..criteria import EXACT
from ..engine import SCHEMES, DecodeConfig, check_model, decode
from ..errors import BlockdecError, ConfigurationError, CorpusError, check_integers
from .corpus import Corpus, exact_match, is_text, mean_absolute_error, strip_eos, token_accuracy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark settings.

    block_sizes x criteria defines the configuration grid. Decodes repeat
    `repeats` times and the median total wall clock is used for speedups.
    """

    block_sizes: tuple = (1, 2, 4, 8)
    criteria: tuple = (EXACT,)
    repeats: int = 3
    max_pairs: Optional[int] = None
    max_len: Optional[int] = None
    scheme: str = "combined"

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(self.block_sizes))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        check_integers(self, "block_sizes", "repeats", "max_pairs", "max_len")
        if not self.block_sizes or any(k < 1 for k in self.block_sizes):
            raise ConfigurationError("block_sizes must be positive")
        if not self.criteria:
            raise ConfigurationError("need at least one criterion")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ConfigurationError("max_pairs must be >= 1")
        if self.scheme not in SCHEMES or self.scheme == "greedy":
            raise ConfigurationError(f"bench runs standard or combined, not {self.scheme!r}")


@dataclass(frozen=True)
class BenchReport:
    """Benchmark results: one row per configuration, plus run metadata."""

    task: str
    quality_metric: str
    rows: tuple
    meta: dict = field(default_factory=dict)


def _decodes(model, inputs, config, scheme):
    """Decode each input in turn, each only when the one before it has been
    taken; an error names its pair."""
    for i, inp in enumerate(inputs):
        try:
            result = decode(model, inp, config, scheme)
        except BlockdecError as exc:
            raise type(exc)(f"pair {i}: {exc}") from exc
        yield result


def _decode_pass(model, inputs, config, scheme):
    """Decode every input once; returns (results, total wall clock ns)."""
    results = list(_decodes(model, inputs, config, scheme))
    return results, sum(r.wall_clock_ns for r in results)


def _median_time(model, inputs, config, scheme, repeats):
    results, first = _decode_pass(model, inputs, config, scheme)
    times = [first]
    for _ in range(repeats - 1):
        times.append(_decode_pass(model, inputs, config, scheme)[1])
    return results, int(statistics.median(times))


def _environment() -> dict:
    """What the wall-clock fields depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints instead
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _quality(outputs, golds, eos_token, metric):
    scores = []
    exact = 0
    for out, gold in zip(outputs, golds):
        stripped = strip_eos(out, eos_token)
        if metric == "mean_absolute_error":
            scores.append(mean_absolute_error(stripped, gold))
        else:
            scores.append(token_accuracy(stripped, gold))
        exact += exact_match(stripped, gold)
    return sum(scores) / len(scores), exact / len(outputs)


def run_bench(model, corpus: Corpus, bench: BenchConfig = BenchConfig()) -> BenchReport:
    """Benchmark a model over a corpus across the configuration grid."""
    corpus.check_model(model)
    pairs = corpus.pairs[: bench.max_pairs]
    inputs = [inp for inp, _ in pairs]
    golds = [tgt for _, tgt in pairs]
    eos = corpus.vocab.eos_token
    max_len = bench.max_len if bench.max_len is not None else corpus.decode_budget()

    # every row's configuration is checked against the model before any call
    configs = []
    for k in bench.block_sizes:
        for criterion in bench.criteria:
            try:
                config = DecodeConfig(
                    block_size=k, max_len=max_len, criterion=criterion, eos_token=eos
                )
                check_model(model, config)
            except ConfigurationError as exc:
                raise ConfigurationError(f"row k={k}, {criterion.describe()}: {exc}") from exc
            configs.append(config)

    greedy_cfg = DecodeConfig(block_size=1, max_len=max_len, eos_token=eos)
    _decode_pass(model, inputs, greedy_cfg, "greedy")  # warm-up, untimed
    greedy_results, greedy_ns = _median_time(model, inputs, greedy_cfg, "greedy", bench.repeats)
    greedy_outputs = [r.output for r in greedy_results]

    rows = []
    for config in configs:
        k, criterion = config.block_size, config.criterion
        is_baseline = k == 1 and criterion == EXACT
        if is_baseline:
            results, total_ns = greedy_results, greedy_ns
        else:
            results, total_ns = _median_time(model, inputs, config, bench.scheme, bench.repeats)
        tokens = sum(len(r.output) for r in results)
        iterations = sum(r.iterations for r in results)
        invocations = sum(r.model_invocations for r in results)
        matches = sum(r.output == g for r, g in zip(results, greedy_outputs))
        quality, exact_rate = _quality(
            [r.output for r in results], golds, eos, corpus.quality_metric
        )
        rows.append({
            "k": k,
            "criterion": criterion.describe(),
            "mean_accepted_block_size": tokens / iterations if iterations else 0.0,
            "iterations_total": iterations,
            "invocations_total": invocations,
            "wall_clock_speedup_vs_greedy": greedy_ns / total_ns if total_ns else 0.0,
            "greedy_match_rate": matches / len(results),
            "task_quality_metric": quality,
            "exact_match_rate": exact_rate,
            "wall_clock_ns_total": total_ns,
            "baseline_wall_clock_ns": greedy_ns,
            "scheme": "greedy" if is_baseline else bench.scheme,
        })
    meta = {
        "pairs": len(pairs),
        "repeats": bench.repeats,
        "max_len": max_len,
        "scheme": bench.scheme,
        "vocab_size": corpus.vocab.size,
        **_environment(),
    }
    return BenchReport(
        task=corpus.kind, quality_metric=corpus.quality_metric, rows=tuple(rows), meta=meta
    )


def distill_corpus(teacher, corpus: Corpus, max_len: Optional[int] = None) -> Corpus:
    """Replace every target with `teacher`'s greedy decode of its input.

    Training data whose targets a model can reproduce makes proposal heads
    agree with the base model more often, so decoding accepts longer blocks
    (sequence-level distillation). Decodes run under `max_len`, by default
    the corpus's decode budget. The end token is stripped and pairs whose
    decode is empty are dropped; the vocabulary, fixed target length and
    meta carry over, so the result saves like the original. A fixed-length
    corpus keeps its length, so there `max_len` may only be that length. A
    text_char corpus holds only UTF-8 text, so a decode that is not raises
    CorpusError naming its pair before the next pair is decoded.
    """
    corpus.check_model(teacher)
    eos = corpus.vocab.eos_token
    fixed = corpus.fixed_target_len
    if max_len is None:
        max_len = corpus.decode_budget()
    elif fixed is not None and max_len != fixed:
        raise ConfigurationError(
            f"max_len {max_len} differs from the corpus's fixed target length {fixed}"
        )
    inputs = [inp for inp, _ in corpus.pairs]
    config = DecodeConfig(block_size=1, max_len=max_len, eos_token=eos)
    pairs = []
    for i, (inp, result) in enumerate(zip(inputs, _decodes(teacher, inputs, config, "greedy"))):
        target = strip_eos(result.output, eos)
        if corpus.kind == "text_char" and not is_text(target):
            raise CorpusError(
                f"pair {i}: the teacher's decode {target} is not UTF-8 text, "
                "which a text_char corpus cannot hold"
            )
        if target:
            pairs.append((inp, target))
    if not pairs:
        raise CorpusError(
            f"teacher produced no usable targets: all {len(inputs)} decodes were empty"
        )
    return Corpus(
        kind=corpus.kind,
        vocab=corpus.vocab,
        pairs=tuple(pairs),
        fixed_target_len=corpus.fixed_target_len,
        meta=dict(corpus.meta),
    )
