"""The benchmark's workloads: inputs made from a seed, set-up, the timed
closed loop and the correctness checks.

Every workload is a list of decode requests. One client sends them one
after another (a closed loop), and each request is decoded by greedy,
standard blockwise and combined blockwise decoding back to back, so machine
noise lands on all three schemes alike. The timed window repeats whole
passes over the same request list, which keeps every count metric a
function of the seed alone and gives every request one timing per pass.
A fixed calibration kernel runs before each timed decode, so that the
end-to-end times can be rescaled for the host's speed (calibration.py).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from blockdec.criteria import AcceptanceCriterion, distance, exact, top_k
from blockdec.engine import (
    DecodeConfig,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
)
from blockdec.harness.corpus import make_pattern_corpus, strip_eos, token_accuracy
from blockdec.harness.training import TrainingConfig, default_model_config, train_model
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.synthetic import make_synthetic_model

import calibration

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "neural_decode.ckpt"
CHECKPOINT_RECORD = HERE / "data" / "neural_decode.json"

WORKLOADS = ("neural-decode", "synthetic-engine", "train")
SCHEMES = ("greedy", "standard", "combined")
DECODERS = {
    "greedy": greedy_decode,
    "standard": blockwise_decode,
    "combined": blockwise_decode_combined,
}

# the repeat task the neural-decode checkpoint is trained on: inputs of 2-4
# symbols over an alphabet of 8, targets of 14 copies (28-56 tokens)
REPEAT_TASK = dict(rule="repeat", alphabet=8, min_len=2, max_len=4, copies=14)
NEURAL_SHAPE = dict(num_heads=4, d_model=64, d_hidden=64, num_layers=2)
NEURAL_MAX_LEN = 4 * 14 + 1  # longest target plus the end token
HELD_OUT = 1_000_003  # seed offset of the train workload's decode requests

SYNTHETIC_KINDS = ("random_table", "perfect_proposals")
SYNTHETIC_CRITERIA = (exact(), top_k(3), distance(2), exact(min_block=2))
SYNTHETIC_VOCAB = 16
SYNTHETIC_HEADS = 8
SYNTHETIC_MAX_LEN = 32


@dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    requests: int
    setups: int
    warmup_requests: int = 4
    train_steps: int = 64
    train_pairs: int = 256


SIZES = {
    "neural-decode": Sizes(requests=72, setups=9),
    "synthetic-engine": Sizes(requests=48, setups=5),
    "train": Sizes(requests=48, setups=5),
}
# the smoke test's size: every code path, well under a second of decoding
TINY = Sizes(requests=6, setups=2, warmup_requests=1, train_steps=24, train_pairs=32)


@dataclass(frozen=True)
class Request:
    """One decode request. `reference` is what token_accuracy compares the
    combined output against: the gold target on the pattern tasks, and the
    greedy output on the table models, which have no gold."""

    model: object
    input_tokens: tuple
    reference: Optional[tuple]
    criterion: AcceptanceCriterion
    block_size: int
    max_len: int
    eos_token: Optional[int]

    @property
    def exact(self) -> bool:
        return self.criterion.kind == "exact" and self.criterion.min_block == 1

    def config(self, scheme: str) -> DecodeConfig:
        if scheme == "greedy":
            return DecodeConfig(block_size=1, max_len=self.max_len, eos_token=self.eos_token)
        return DecodeConfig(
            block_size=self.block_size,
            max_len=self.max_len,
            criterion=self.criterion,
            eos_token=self.eos_token,
        )


@dataclass
class Workload:
    """A workload after set-up: its requests, the set-up times, and what the
    traced run needs to split time by layer. Each list holding set-up
    figures gets one entry per set-up (see `set_up_again`)."""

    seed: int
    requests: list
    setup_s: list
    checkpoint_load_ms: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    train_failures: list = field(default_factory=list)
    train_steps: int = 0


# ---- inputs and set-up ----

def repeat_requests(model, seed: int, count: int) -> list:
    """Repeat-task requests under the exact criterion. Input lengths cycle
    through 2, 3 and 4, so every seed has the same mix of output lengths
    and only the symbols vary."""
    rng = np.random.default_rng(seed)
    lengths = range(REPEAT_TASK["min_len"], REPEAT_TASK["max_len"] + 1)
    eos = model.config.eos_token
    requests = []
    for i in range(count):
        size = lengths[i % len(lengths)]
        inp = tuple(int(t) for t in rng.integers(0, REPEAT_TASK["alphabet"], size=size))
        gold = inp * REPEAT_TASK["copies"]
        requests.append(Request(model, inp, gold, exact(), model.num_heads, NEURAL_MAX_LEN, eos))
    return requests


def load_checked_checkpoint():
    """Load the committed checkpoint and check it against its record: the
    greedy output of each probe input must equal the recorded one, so a
    swapped or stale checkpoint fails set-up. Returns (model, load ms)."""
    start = time.perf_counter()
    model = load_checkpoint(CHECKPOINT)
    load_ms = (time.perf_counter() - start) * 1e3
    record = json.loads(CHECKPOINT_RECORD.read_text())
    config = DecodeConfig(block_size=1, max_len=NEURAL_MAX_LEN, eos_token=model.config.eos_token)
    for probe in record["probes"]:
        got = list(greedy_decode(model, probe["input"], config).output)
        if got != probe["greedy_output"]:
            raise RuntimeError(
                f"checkpoint {CHECKPOINT.name} does not reproduce the recorded greedy "
                f"output for probe input {probe['input']}; regenerate it with "
                "make_checkpoint.py"
            )
    return model, load_ms


def setup_neural_decode(seed: int, sizes: Sizes) -> Workload:
    start = time.perf_counter()
    model, load_ms = load_checked_checkpoint()
    requests = repeat_requests(model, seed, sizes.requests)
    return Workload(seed, requests, [time.perf_counter() - start], checkpoint_load_ms=[load_ms])


def synthetic_requests(seed: int, count: int) -> list:
    """Requests alternate between the two table models and cycle through
    the criteria; input lengths cycle through 3, 4 and 5."""
    models = [
        make_synthetic_model(kind, seed, SYNTHETIC_VOCAB, SYNTHETIC_HEADS)
        for kind in SYNTHETIC_KINDS
    ]
    rng = np.random.default_rng([seed, 7])
    requests = []
    for i in range(count):
        model = models[i % len(models)]
        criterion = SYNTHETIC_CRITERIA[(i // len(models)) % len(SYNTHETIC_CRITERIA)]
        inp = tuple(int(t) for t in rng.integers(0, SYNTHETIC_VOCAB, size=3 + i % 3))
        requests.append(
            Request(model, inp, None, criterion, SYNTHETIC_HEADS, SYNTHETIC_MAX_LEN, None)
        )
    # a table model has no gold output; its greedy output is the reference
    return [replace(r, reference=decode(r, "greedy")[0].output) for r in requests]


def setup_synthetic_engine(seed: int, sizes: Sizes) -> Workload:
    """Set-up builds fresh models and decodes every request once with every
    scheme, which fills their row caches; the fill counts as set-up."""
    start = time.perf_counter()
    requests = synthetic_requests(seed, sizes.requests)
    for request in requests:
        for scheme in SCHEMES:
            decode(request, scheme)
    return Workload(seed, requests, [time.perf_counter() - start])


def train_corpus(seed: int, pairs: int):
    return make_pattern_corpus(n_pairs=pairs, seed=seed, **REPEAT_TASK)


def train_once(seed: int, sizes: Sizes):
    """Train a model from a fixed initialisation on a seeded repeat corpus.
    Returns (model, losses, training seconds)."""
    corpus = train_corpus(seed, sizes.train_pairs)
    config = default_model_config(corpus, **NEURAL_SHAPE)
    training = TrainingConfig(steps=sizes.train_steps, batch_size=16, seed=0)
    start = time.perf_counter()
    model, losses = train_model(corpus, config, training)
    return model, losses, time.perf_counter() - start


def check_losses(losses) -> list:
    """The training loss must stay finite and end below where it started."""
    if not all(math.isfinite(x) for x in losses):
        return ["training loss is not finite"]
    window = max(1, len(losses) // 8)
    first = statistics.fmean(losses[:window])
    last = statistics.fmean(losses[-window:])
    if not last < first:
        return [f"training loss did not fall ({first:.4f} -> {last:.4f})"]
    return []


def setup_train(seed: int, sizes: Sizes) -> Workload:
    """Set-up trains the model the timed loop then decodes with; the
    held-out requests use a second seed stream."""
    start = time.perf_counter()
    model, losses, seconds = train_once(seed, sizes)
    requests = repeat_requests(model, seed + HELD_OUT, sizes.requests)
    return Workload(
        seed, requests, [time.perf_counter() - start],
        train_s=[seconds], train_failures=[check_losses(losses)], train_steps=sizes.train_steps,
    )


SETUPS = {
    "neural-decode": setup_neural_decode,
    "synthetic-engine": setup_synthetic_engine,
    "train": setup_train,
}


def set_up_again(name: str, workload: Workload, sizes: Sizes) -> None:
    """Run the workload's set-up once more and keep only its figures; the
    requests stay those of the first set-up."""
    again = SETUPS[name](workload.seed, sizes)
    workload.setup_s += again.setup_s
    workload.checkpoint_load_ms += again.checkpoint_load_ms
    workload.train_s += again.train_s
    workload.train_failures += again.train_failures


# ---- decoding and checking ----

class Stamped:
    """Stands in for a scoring model and reads the clock before and after
    each `score_grid` call, so a decode's wall time splits into short
    stretches: engine code, a model call, engine code, and so on."""

    def __init__(self, model):
        self.model = model
        self.stamps = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def score_grid(self, input_tokens, prefix, candidates, k):
        self.stamps.append(time.perf_counter_ns())
        scores = self.model.score_grid(input_tokens, prefix, candidates, k)
        self.stamps.append(time.perf_counter_ns())
        return scores


def decode(request: Request, scheme: str, model=None):
    """Decode one request with one scheme. Returns (result, stretches): the
    wall ns between successive clock reads, from the call into the decoder
    through each model call to its return; they sum to the decode's wall
    time."""
    stamped = Stamped(request.model if model is None else model)
    config = request.config(scheme)
    stamped.stamps.append(time.perf_counter_ns())
    result = DECODERS[scheme](stamped, request.input_tokens, config)
    stamped.stamps.append(time.perf_counter_ns())
    return result, np.diff(stamped.stamps)


def check_request(request: Request, results: dict) -> list:
    """Problems with one request's three decodes; empty when all is well."""
    problems = []
    for scheme, r in results.items():
        if sum(r.accepted_sizes) != len(r.output):
            problems.append(f"{scheme}: accepted sizes do not sum to the output length")
        if r.iterations != len(r.accepted_sizes) or min(r.accepted_sizes, default=1) < 1:
            problems.append(f"{scheme}: iteration accounting is inconsistent")
        if not 1 <= len(r.output) <= request.max_len:
            problems.append(f"{scheme}: output length {len(r.output)} outside the budget")
        eos = request.eos_token
        if eos is not None and eos in r.output[:-1]:
            problems.append(f"{scheme}: tokens after the end token")
    greedy, standard, combined = (results[s] for s in SCHEMES)
    if greedy.model_invocations != len(greedy.output):
        problems.append("greedy: not one invocation per token")
    if standard.model_invocations != 2 * standard.iterations:
        problems.append("standard: not two invocations per iteration")
    if combined.model_invocations != combined.iterations + 1:
        problems.append("combined: not one invocation per iteration plus one")
    if request.exact:
        for scheme in ("standard", "combined"):
            if results[scheme].output != greedy.output:
                problems.append(f"{scheme}: exact-criterion output differs from greedy")
    return problems


@dataclass
class PassStats:
    """One pass over the request list. `tokens[scheme][i]`,
    `stretches[scheme][i]` (see `decode`), `kernel_ns[scheme][i]` (the
    calibration kernel run just before that decode) and `outputs[i]` belong
    to request i and are None when it raised; `failed` maps a request index
    to its problems."""

    tokens: dict
    stretches: dict
    kernel_ns: dict
    counts: dict
    exact_sizes: list
    outputs: list
    failed: dict


def run_pass(requests, model_for=None, on_request=None) -> PassStats:
    """Decode every request with every scheme. `model_for(request)` may
    substitute the model (the traced run passes a timing proxy);
    `on_request(request, results, walls)` sees each request's results."""
    tokens = {scheme: [] for scheme in SCHEMES}
    stretches = {scheme: [] for scheme in SCHEMES}
    kernels = {scheme: [] for scheme in SCHEMES}
    exact_sizes, outputs, failed = [], [], {}
    counts = dict(tokens=0, iterations=0, invocations=0, matches=0, accuracy=0.0)
    for index, request in enumerate(requests):
        model = model_for(request) if model_for else None
        try:
            results, parts, kernel = {}, {}, {}
            for scheme in SCHEMES:
                kernel[scheme] = calibration.kernel_ns()
                results[scheme], parts[scheme] = decode(request, scheme, model)
        except Exception as exc:  # a raising request counts as failed
            failed[index] = [f"{type(exc).__name__}: {exc}"]
            outputs.append(None)
            for scheme in SCHEMES:
                tokens[scheme].append(None)
                stretches[scheme].append(None)
                kernels[scheme].append(None)
            continue
        outputs.append(tuple(results[s].output for s in SCHEMES))
        problems = check_request(request, results)
        if problems:
            failed[index] = problems
        for scheme in SCHEMES:
            tokens[scheme].append(len(results[scheme].output))
            stretches[scheme].append(parts[scheme])
            kernels[scheme].append(kernel[scheme])
        combined = results["combined"]
        counts["tokens"] += len(combined.output)
        counts["iterations"] += combined.iterations
        counts["invocations"] += combined.model_invocations
        counts["matches"] += combined.output == results["greedy"].output
        counts["accuracy"] += token_accuracy(
            strip_eos(combined.output, request.eos_token), request.reference
        )
        if request.exact:
            exact_sizes.append(combined.accepted_sizes)
        if on_request:
            on_request(request, results, {s: int(parts[s].sum()) for s in SCHEMES})
    return PassStats(tokens, stretches, kernels, counts, exact_sizes, outputs, failed)


@dataclass
class Measurement:
    passes: list
    attempted: int
    failed: int     # requests that raised or failed a check, over all passes
    failures: list  # one "pass p request i: problem" line per problem
    fastest: dict   # scheme -> request index -> fastest time of each stretch
    kernel: dict    # scheme -> request index -> fastest calibration kernel ns


def keep_fastest(m: Measurement, stats: PassStats) -> None:
    """Fold one pass's stretches and kernel times into the fastest seen so
    far. A decode makes the same model calls on every pass, so its
    stretches line up."""
    for scheme in SCHEMES:
        fastest, kernel = m.fastest[scheme], m.kernel[scheme]
        for i, parts in enumerate(stats.stretches[scheme]):
            if parts is None:
                continue
            ns = stats.kernel_ns[scheme][i]
            kernel[i] = min(kernel.get(i, ns), ns)
            best = fastest.get(i)
            if best is None:
                fastest[i] = parts.copy()
            elif len(best) != len(parts):
                stats.failed.setdefault(i, []).append(
                    f"{scheme}: model calls differ from the first pass")
            else:
                np.minimum(best, parts, out=best)
        stats.stretches[scheme] = None  # only the fastest are kept


def measure(
    workload: Workload, seconds: float, model_for=None, on_request=None, between=()
) -> Measurement:
    """Whole passes while another one fits in `seconds` of decoding, at
    least one. A request whose outputs differ from its outputs in the first
    pass has failed: the same inputs must give the same outputs. The
    callables in `between` run at pass boundaries spread evenly over the
    window (the rest after it), outside the decoding time."""
    m = Measurement([], 0, 0, [], {s: {} for s in SCHEMES}, {s: {} for s in SCHEMES})
    pending = list(between)
    due = [seconds * (j + 1) / (len(pending) + 1) for j in range(len(pending))]
    decoding_s = 0.0
    while True:
        p = len(m.passes)
        pass_start = time.perf_counter()
        stats = run_pass(workload.requests, model_for, on_request)
        pass_s = time.perf_counter() - pass_start
        decoding_s += pass_s
        if m.passes:
            for i, out in enumerate(stats.outputs):
                if out != m.passes[0].outputs[i] and i not in stats.failed:
                    stats.failed[i] = ["outputs differ from the first pass"]
        keep_fastest(m, stats)
        m.attempted += len(workload.requests)
        m.failed += len(stats.failed)
        for i, problems in sorted(stats.failed.items()):
            m.failures.extend(f"pass {p} request {i}: {problem}" for problem in problems)
        m.passes.append(stats)
        while pending and decoding_s >= due[len(due) - len(pending)]:
            pending.pop(0)()
        if decoding_s + pass_s > seconds:
            break
    for task in pending:
        task()
    return m


def warm_up(workload: Workload, sizes: Sizes) -> None:
    """Decode a few requests untimed, so first-call costs (BLAS start-up,
    lazy imports) never land in a timed pass."""
    run_pass(workload.requests[: sizes.warmup_requests])


# ---- end-to-end metrics ----

def host_scale(m: Measurement) -> float:
    """`calibration.REFERENCE_NS` over the mean fastest calibration kernel
    time: multiplying a measured time by it calibrates the time to the
    reference host (see calibration.py)."""
    kernels = [ns for per in m.kernel.values() for ns in per.values()]
    return calibration.REFERENCE_NS / statistics.fmean(kernels)


def best_times(m: Measurement, scheme: str, scale: float = 1.0) -> list:
    """(output tokens, fastest wall ns times `scale`) of each request that
    decoded. Every pass decodes the same requests, so a stretch's timings
    differ only by machine noise: other work on a shared host slows some
    timings and never speeds one up. A request's fastest time is the sum of
    its stretches' fastest times; stretches of well under a millisecond
    often run undisturbed where a whole decode of tens of milliseconds
    rarely does."""
    best = []
    for i, parts in sorted(m.fastest[scheme].items()):
        tokens = next(p.tokens[scheme][i] for p in m.passes if p.tokens[scheme][i] is not None)
        best.append((tokens, int(parts.sum()) * scale))
    return best


def tokens_per_s(m: Measurement, scheme: str, calibrated: bool = True) -> float:
    """Output tokens over the summed fastest time of each request,
    calibrated to the reference host unless `calibrated` is false."""
    best = best_times(m, scheme, host_scale(m) if calibrated else 1.0)
    return sum(t for t, _ in best) / (sum(ns for _, ns in best) / 1e9)


def ms_per_token(m: Measurement) -> list:
    """Combined-scheme calibrated fastest time over output tokens, one
    sample per request."""
    return [ns / 1e6 / t for t, ns in best_times(m, "combined", host_scale(m))]


def percentile(values, q: int) -> float:
    """The q-th percentile, 0 < q < 100, by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def accounting(workload: Workload, measurements) -> tuple:
    """(attempted, failed, failure lines) over the timed passes and, for
    train, the training runs made at set-up."""
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    lines = [line for m in measurements for line in m.failures]
    for i, problems in enumerate(workload.train_failures):
        attempted += 1
        failed += bool(problems)
        lines.extend(f"training run {i}: {p}" for p in problems)
    return attempted, failed, lines


def end_to_end(workload: Workload, m: Measurement) -> dict:
    """Every end-to-end metric as {name: (value, unit)}. Counts come from
    the first pass; every pass repeats them."""
    counts, n = m.passes[0].counts, len(workload.requests)
    times = ms_per_token(m)
    greedy_ns, combined_ns = (
        sum(ns for _, ns in best_times(m, s)) for s in ("greedy", "combined")
    )
    return {
        "tokens_per_s.greedy": (tokens_per_s(m, "greedy"), "tokens/s"),
        "tokens_per_s.standard": (tokens_per_s(m, "standard"), "tokens/s"),
        "tokens_per_s.combined": (tokens_per_s(m, "combined"), "tokens/s"),
        "ms_per_token.p50": (statistics.median(times), "ms/token"),
        "ms_per_token.p90": (percentile(times, 90), "ms/token"),
        "speedup_vs_greedy": (greedy_ns / combined_ns, "ratio"),
        "invocations_per_token": (counts["invocations"] / counts["tokens"], "calls/token"),
        "mean_accepted_block_size": (counts["tokens"] / counts["iterations"], "tokens"),
        "greedy_match_rate": (counts["matches"] / n, "ratio"),
        "token_accuracy": (counts["accuracy"] / n, "ratio"),
        "setup_s": (statistics.median(workload.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
