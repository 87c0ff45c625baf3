"""Per-position acceptance predicates for the verify substep.

A criterion decides whether a proposed token is acceptable given the base
model's distribution over the same position. ``exact`` preserves greedy
equivalence; ``top_k`` and ``distance`` trade fidelity for larger accepted
blocks. The ``min_block`` floor forces a minimum number of tokens per
iteration and is applied by the decode loop via :func:`apply_min_block`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError

# each kind's textual keys and the fields they set; min_block belongs to every kind
PARAMS = {"exact": {}, "top_k": {"k": "top_k_k"}, "distance": {"eps": "epsilon"}}
KINDS = tuple(PARAMS)


@dataclass(frozen=True)
class AcceptanceCriterion:
    """Acceptance predicate configuration.

    kind:      one of "exact", "top_k", "distance"
    top_k_k:   membership rank for the top_k kind (top_k_k=1 behaves as exact)
    epsilon:   integer intensity radius for the distance kind
    min_block: floor on tokens accepted per decode iteration (1 = no floor)
    """

    kind: str = "exact"
    top_k_k: int = 1
    epsilon: int = 0
    min_block: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown criterion kind {self.kind!r}")
        if self.top_k_k < 1:
            raise ConfigurationError("top_k_k must be >= 1")
        if self.epsilon < 0 or int(self.epsilon) != self.epsilon:
            raise ConfigurationError("epsilon must be a non-negative integer")
        if self.min_block < 1:
            raise ConfigurationError("min_block must be >= 1")
        # another kind's field keeps its default: equal descriptions, equal criteria
        for kind, names in PARAMS.items():
            for name in names.values():
                if kind != self.kind and getattr(self, name) != getattr(type(self), name):
                    raise ConfigurationError(f"{name} does not apply to kind={self.kind}")

    def describe(self) -> str:
        """Textual form in the ``PARAMS`` grammar, e.g. ``kind=top_k,k=2``."""
        parts = [f"kind={self.kind}"]
        parts += [f"{key}={getattr(self, name)}" for key, name in PARAMS[self.kind].items()]
        if self.min_block != 1:
            parts.append(f"min_block={self.min_block}")
        return ",".join(parts)


def parse_criterion(text: str) -> AcceptanceCriterion:
    """Parse the ``PARAMS`` grammar that ``describe()`` writes, e.g.
    ``kind=top_k,k=2,min_block=1``; a bare kind name is shorthand for it."""
    fields = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            if part in PARAMS and "kind" not in fields:
                fields["kind"] = part
                continue
            raise ParseError(f"expected key=value in criterion, got {part!r}")
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key in fields:
            raise ParseError(f"duplicate criterion key {key!r}")
        fields[key] = value
    kind = fields.pop("kind", None)
    if kind is None:
        raise ParseError(f"criterion needs a kind, one of {', '.join(PARAMS)}")
    if kind not in PARAMS:
        raise ParseError(f"unknown criterion kind {kind!r}")
    names = {**PARAMS[kind], "min_block": "min_block"}
    kwargs = {"kind": kind}
    for key, value in fields.items():
        if key not in names:
            raise ParseError(f"key {key!r} is not valid for kind={kind}")
        try:
            kwargs[names[key]] = int(value)
        except ValueError:
            raise ParseError(f"criterion key {key} needs an integer, got {value!r}") from None
    return AcceptanceCriterion(**kwargs)


EXACT = AcceptanceCriterion()


def exact(min_block: int = 1) -> AcceptanceCriterion:
    return AcceptanceCriterion(kind="exact", min_block=min_block)


def top_k(k: int, min_block: int = 1) -> AcceptanceCriterion:
    return AcceptanceCriterion(kind="top_k", top_k_k=k, min_block=min_block)


def distance(epsilon: int, min_block: int = 1) -> AcceptanceCriterion:
    return AcceptanceCriterion(kind="distance", epsilon=epsilon, min_block=min_block)


def accepted(criterion: AcceptanceCriterion, proposals, base_rows: np.ndarray) -> np.ndarray:
    """Whether each proposal is acceptable against the base model's
    log-probability distribution for its position: proposals[j] is judged
    against base_rows[j]. Every row is decided in one numpy pass; returns a
    boolean array of len(proposals). Pure function."""
    base_rows = np.asarray(base_rows)
    proposals = np.asarray(proposals, dtype=np.int64)
    if criterion.kind == "exact":
        return proposals == base_rows.argmax(axis=-1)
    if criterion.kind == "distance":
        # token ids are integer intensities
        return np.abs(proposals - base_rows.argmax(axis=-1)) <= criterion.epsilon
    # top_k: a proposal's rank counts the tokens ordered before it by
    # (descending score, ascending token id), so ties go to the lower id
    vocab = base_rows.shape[-1]
    known = (proposals >= 0) & (proposals < vocab)
    score = base_rows[np.arange(len(proposals)), np.where(known, proposals, 0)][:, None]
    ids = np.arange(vocab)
    before = (base_rows > score) | ((base_rows == score) & (ids < proposals[:, None]))
    return known & (before.sum(axis=-1) < criterion.top_k_k)


def accepts(criterion: AcceptanceCriterion, proposal: int, base_dist: np.ndarray) -> bool:
    """Decide whether `proposal` is acceptable against the base model's
    log-probability distribution for the same position: the one-row case
    of :func:`accepted`. Pure function."""
    return bool(accepted(criterion, [proposal], np.asarray(base_dist)[None])[0])


def apply_min_block(k_hat: int, floor: int, k: int, remaining: int) -> int:
    """Raise a verified prefix length to the configured floor.

    Returns max(k_hat, min(floor, remaining)). Tokens forced beyond the
    verified prefix are taken from the proposal list by the decode loop,
    which deliberately abandons greedy equivalence.
    """
    if not 1 <= k_hat <= k:
        raise ValueError(f"k_hat={k_hat} outside [1, {k}]")
    return max(k_hat, min(floor, remaining))
