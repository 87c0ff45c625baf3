"""Blockwise parallel decoding engine.

The engine drives a k-head scoring model through one predict / verify /
accept loop:

  predict  propose k future tokens, one per head, all conditioned on the
           current output prefix
  verify   score every proposal position in a single model call and find
           the longest prefix of proposals the base head agrees with
  accept   extend the output by that prefix (at least one token per
           iteration, or the criterion's min_block floor) and repeat

A :class:`DecodeState` holds that loop's state as data: it names the next
``score_grid`` call and takes the grid back, and :func:`decode` makes the
calls it names. Three schemes, named in ``SCHEMES``, differ only in where
each iteration's proposals come from. Greedy proposes one token with the
base head and accepts it unverified. Standard blockwise decoding makes a
separate predict call before each verify call. Combined blockwise decoding
reads the next proposals from the verify grid row that matches the tokens
just accepted, so only its first iteration makes a predict call. With the
exact acceptance criterion the blockwise output is identical to greedy
decoding token for token; the payoff is fewer model invocations.

Each decode runs inside ``model.session(input_tokens)``, so a model may
keep state across the calls of one decode (TinyBlockModel keeps each
layer's keys and values, and each position's scores, there). Every call
still goes through ``model.score_grid`` on the object ``decode`` was given.

``decode`` and its three one-scheme wrappers return a :class:`DecodeResult`
whose accounting satisfies sum(accepted_sizes) == len(output); its
iterations are len(accepted_sizes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import AcceptanceCriterion, EXACT, accepted, apply_min_block
from .errors import ConfigurationError, LengthError, ModelContractError, check_integers

NORMALIZATION_TOL = 1e-5
SCHEMES = ("greedy", "standard", "combined")


@dataclass(frozen=True)
class DecodeConfig:
    """Settings for one decode run.

    block_size: number of proposal heads used per iteration (k)
    max_len:    output token budget, counting a produced end token
    criterion:  per-position acceptance predicate; its min_block is the
                floor on tokens accepted per iteration, at most block_size
    eos_token:  token id that terminates decoding, or None
    """

    block_size: int
    max_len: int
    criterion: AcceptanceCriterion = EXACT
    eos_token: Optional[int] = None

    def __post_init__(self):
        check_integers(self, "block_size", "max_len", "eos_token")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1")
        if self.max_len < 1:
            raise ConfigurationError("max_len must be >= 1")
        if self.criterion.min_block > self.block_size:
            raise ConfigurationError(
                "criterion.min_block exceeds block_size "
                f"({self.criterion.min_block} > {self.block_size})"
            )
        if self.eos_token is not None and self.eos_token < 0:
            raise ConfigurationError("eos_token must be a non-negative id or None")


@dataclass(frozen=True)
class BlockScores:
    """Log-probability grid from one scoring call.

    grid[i, h] is the head h+1 distribution over the vocabulary given the
    output prefix extended by the first i candidate tokens. Row 0 conditions
    on the bare prefix, so grid has len(candidates) + 1 rows. Head 1
    (grid[:, 0]) is the base next-token distribution used for verification.

    base_len records the prefix length row 0 conditions on.
    """

    grid: np.ndarray
    base_len: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 3:
            raise ModelContractError(
                f"score grid must be (rows, heads, vocab), got shape {grid.shape}"
            )
        if not grid.shape[0] or not grid.shape[1]:
            raise ModelContractError(
                f"score grid needs at least one row and one head, got shape {grid.shape}"
            )
        # the ufunc reductions are what ndarray.sum and np.max call, minus
        # their Python wrappers
        mass = np.add.reduce(np.exp(grid), axis=-1)
        worst = float(np.maximum.reduce(np.abs(mass - 1.0), axis=None))
        # NaN fails this test too; only then is the grid scanned for it
        if not worst <= NORMALIZATION_TOL:
            if np.isnan(grid).any():
                raise ModelContractError("score grid contains NaN")
            raise ModelContractError(
                f"score grid rows are not normalized log-probs (off by {worst:.3e})"
            )
        if self.base_len < 0:
            raise ModelContractError("base_len must be >= 0")

    @property
    def rows(self) -> int:
        return self.grid.shape[0]

    @property
    def heads(self) -> int:
        return self.grid.shape[1]


@dataclass(frozen=True)
class DecodeResult:
    """Output of a decode run plus its accounting.

    output:            produced token ids, including the end token if one
                       was produced within budget
    accepted_sizes:    tokens accepted per iteration, each >= 1
    model_invocations: scoring calls made (each call scores a full grid)
    wall_clock_ns:     elapsed time of the decode loop
    """

    output: tuple
    accepted_sizes: tuple
    model_invocations: int
    wall_clock_ns: int

    def __post_init__(self):
        object.__setattr__(self, "output", tuple(int(t) for t in self.output))
        object.__setattr__(
            self, "accepted_sizes", tuple(int(s) for s in self.accepted_sizes)
        )
        if sum(self.accepted_sizes) != len(self.output):
            raise ModelContractError(
                "accepted_sizes do not sum to output length: "
                f"{self.accepted_sizes} vs {len(self.output)} tokens"
            )
        if any(s < 1 for s in self.accepted_sizes):
            raise ModelContractError("every iteration must accept at least one token")
        if self.model_invocations < self.iterations:
            raise ModelContractError("fewer invocations than iterations")
        if self.wall_clock_ns < 0:
            raise ModelContractError("negative wall clock")

    @property
    def iterations(self) -> int:
        """Number of predict/verify/accept rounds."""
        return len(self.accepted_sizes)

    @property
    def mean_accepted_block_size(self) -> float:
        if self.iterations == 0:
            return 0.0
        return len(self.output) / self.iterations


def check_model(model, config: DecodeConfig):
    """Raise ConfigurationError if `model` cannot run a decode under `config`."""
    if config.block_size > model.num_heads:
        raise ConfigurationError(
            f"block_size {config.block_size} exceeds model heads {model.num_heads}"
        )
    if config.eos_token is not None and config.eos_token >= model.vocab_size:
        raise ConfigurationError(
            f"eos_token {config.eos_token} is outside the model's vocabulary "
            f"[0, {model.vocab_size})"
        )
    if config.criterion.kind == "distance" and not getattr(model, "intensity_vocab", False):
        raise ConfigurationError(
            "distance criterion requires a model over an integer intensity vocabulary"
        )


def _grid_proposals(scores: BlockScores, row: int, k: int) -> tuple:
    """Argmax token of each of the first k heads at one grid row; ties go to
    the lowest token id."""
    if row >= scores.rows:
        raise ModelContractError(
            f"grid has {scores.rows} rows, cannot read row {row}"
        )
    if k > scores.heads:
        raise ModelContractError(f"grid has {scores.heads} heads, need {k}")
    return tuple(scores.grid[row, :k].argmax(axis=-1).tolist())


def verify_block(base_scores: BlockScores, proposals, criterion: AcceptanceCriterion) -> int:
    """Longest prefix of `proposals` accepted by the base head.

    Proposal j is checked against the base distribution conditioned on the
    prefix plus proposals[:j], which is grid row j. Returns a count in
    [0, len(proposals)]; zero is possible for externally supplied proposals,
    while the decode loop always receives at least one acceptance because
    the first proposal is the base head's own argmax.
    """
    proposals = tuple(proposals)
    if not proposals:
        raise ValueError("verify_block needs at least one proposal")
    if base_scores.rows < len(proposals):
        raise ModelContractError(
            f"grid has {base_scores.rows} rows, need {len(proposals)} to verify"
        )
    ok = accepted(criterion, proposals, base_scores.grid[: len(proposals), 0])
    first = int(ok.argmin())  # the first rejection, or 0 when none is rejected
    return len(proposals) if ok[first] else first


def _top2_margin(scores: BlockScores, row: int) -> float:
    """Base-head log-prob gap between the best and second-best token."""
    second, best = np.partition(scores.grid[row, 0], -2)[-2:]
    return float(best - second)


class DecodeState:
    """One decode's predict / verify / accept state, advanced one score_grid
    call at a time until ``done``.

    So that blockwise decoding finishes wherever greedy decoding does within
    the model's ``max_context`` (None: no limit), proposals are cut to the
    room left plus one and at most the room is passed as candidates, as
    verifying n proposals reads grid rows 0..n-1 only. Combined decoding
    raises LengthError where row n, which its next proposals read, was not
    computed and the decode is not done: greedy decoding overruns there."""

    def __init__(self, input_tokens, config: DecodeConfig, scheme: str,
                 max_context: Optional[int] = None):
        if scheme not in SCHEMES:
            raise ConfigurationError(f"unknown decode scheme {scheme!r}, pick from {SCHEMES}")
        self.input_tokens = tuple(input_tokens)
        self.config = config
        self.scheme = scheme
        self.max_context = max_context
        self.k = 1 if scheme == "greedy" else config.block_size
        self.output = []
        self.accepted_sizes = []
        self.invocations = 0
        self.proposals = None  # read from a grid, awaiting verification
        self.source = None  # the grid and row the proposals came from
        self.done = False

    def next_call(self) -> tuple:
        """The (prefix, candidates, k) of the score_grid call to make next; a
        predict call has no candidates."""
        candidates = self.proposals[: self._room()] if self.proposals else ()
        return tuple(self.output), candidates, self.k

    def _room(self) -> Optional[int]:
        """Candidates the context holds after the output so far, or None."""
        if self.max_context is None:
            return None
        return self.max_context - len(self.input_tokens) - 1 - len(self.output)

    def feed(self, scores: BlockScores) -> None:
        """Take the grid of the call ``next_call()`` named and advance."""
        self.invocations += 1
        if self.proposals is None:  # a predict call
            self._propose(scores, 0)
            if self.scheme != "greedy":
                return
            k_hat = 1
        else:
            k_hat = verify_block(scores, self.proposals, self.config.criterion)
            if k_hat < 1:
                raise ModelContractError(
                    "model rejected its own base proposal at iteration "
                    f"{len(self.accepted_sizes)}, prefix length {len(self.output)}: base-head "
                    f"top-2 margin {_top2_margin(*self.source):.3e} in the row the proposal "
                    f"was read from, {_top2_margin(scores, 0):.3e} in the verify row; "
                    "scoring is not deterministic"
                )
        config = self.config
        remaining = config.max_len - len(self.output)
        # the min-block floor may accept past the verified prefix; an end
        # token cuts the block short and ends the decode
        k_eff = apply_min_block(k_hat, config.criterion.min_block, config.block_size, remaining)
        block = self.proposals[:k_eff]
        eos = config.eos_token in block
        if eos:
            block = block[: block.index(config.eos_token) + 1]
        self.output.extend(block)
        self.accepted_sizes.append(len(block))
        self.done = eos or len(self.output) >= config.max_len
        self.proposals = None
        if self.scheme == "combined" and not self.done:
            self._propose(scores, len(block))

    def _propose(self, scores: BlockScores, row: int) -> None:
        room = self._room()
        if room is not None and room < 0:
            raise LengthError(
                f"sequence of {self.max_context - room} tokens exceeds context {self.max_context}"
            )
        self.source = (scores, row)
        limit = self.config.max_len - len(self.output)
        if room is not None:
            limit = min(limit, room + 1)
        self.proposals = _grid_proposals(scores, row, self.k)[:limit]


def decode(model, input_tokens, config: DecodeConfig, scheme: str) -> DecodeResult:
    """Decode `input_tokens` with the scheme named, one of ``SCHEMES`` (see
    the module docstring), by making the score_grid calls a
    :class:`DecodeState` names, within the model's ``max_context``. A bad
    scheme or model fails before any call."""
    state = DecodeState(input_tokens, config, scheme, getattr(model, "max_context", None))
    check_model(model, config)
    input_tokens = state.input_tokens
    start = time.perf_counter_ns()
    with model.session(input_tokens):
        while not state.done:
            state.feed(model.score_grid(input_tokens, *state.next_call()))
    elapsed = time.perf_counter_ns() - start
    return DecodeResult(output=state.output, accepted_sizes=state.accepted_sizes,
                        model_invocations=state.invocations, wall_clock_ns=elapsed)


def greedy_decode(model, input_tokens, config: DecodeConfig) -> DecodeResult:
    """Standard one-token-at-a-time argmax decoding.

    One model invocation per output token. Serves as the correctness and
    timing baseline for the blockwise schemes.
    """
    return decode(model, input_tokens, config, "greedy")


def blockwise_decode(model, input_tokens, config: DecodeConfig) -> DecodeResult:
    """Blockwise decoding with separate predict and verify calls.

    Each iteration costs two model invocations, so producing m tokens in
    blocks of k takes about 2m/k calls instead of greedy's m.
    """
    return decode(model, input_tokens, config, "standard")


def blockwise_decode_combined(model, input_tokens, config: DecodeConfig) -> DecodeResult:
    """Blockwise decoding with merged scoring and proposal.

    The verify call for iteration t already contains, at the grid row
    matching the accepted prefix, every head's distribution for iteration
    t+1's proposals. Reusing that row drops the separate predict call, so
    producing m tokens in blocks of k costs about m/k + 1 invocations: one
    initial proposal call plus one call per iteration.
    """
    return decode(model, input_tokens, config, "combined")
