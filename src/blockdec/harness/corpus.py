"""Task corpora: loading, saving, generation, and quality metrics.

Three corpus kinds are supported.

text_char
    Tab-separated lines `input<TAB>target`, one pair per line, UTF-8. Text
    is tokenized as raw bytes: ids 0..255 are byte values, 256 is the
    input/output separator, 257 ends an output. Tabs, newlines and
    backslashes inside fields are escaped as \\t, \\n and \\\\.

synthetic_pattern
    JSON over a small symbol alphabet: ids 0..A-1 are symbols, A separates,
    A+1 ends an output. Either materialized, with "pairs" holding
    [[input, target], ...] lists, or a generator spec where "pairs" is a
    count and "rule", "seed", "alphabet", "min_len", "max_len", "copies",
    "noise" describe how to draw them.

intensity_grid
    JSON fixed-length grids of integer intensities: ids 0..255 are
    intensities, 256 separates, and there is no end token because every
    target has exactly width * height values in raster order. The
    intensity vocabulary makes the distance acceptance criterion
    meaningful.

Targets are stored without any end token; training appends it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, CorpusError, ParseError

KINDS = ("text_char", "synthetic_pattern", "intensity_grid")
PATTERN_RULES = ("repeat", "reverse", "sort")

BYTE_SEP = 256
BYTE_EOS = 257


@dataclass(frozen=True)
class Vocab:
    """Token id layout of a corpus.

    eos_token is None for fixed-length tasks that never emit an end token.
    intensity marks vocabularies whose ids are ordered intensities.
    """

    size: int
    sep_token: int
    eos_token: Optional[int]
    intensity: bool = False

    def __post_init__(self):
        if not 0 <= self.sep_token < self.size:
            raise ConfigurationError("sep_token outside vocabulary")
        if self.eos_token is not None and not 0 <= self.eos_token < self.size:
            raise ConfigurationError("eos_token outside vocabulary")


@dataclass(frozen=True)
class Corpus:
    """A task dataset: (input, target) token pairs plus vocabulary info.

    fixed_target_len is set for grid tasks whose outputs always have the
    same length; meta carries kind-specific details (alphabet, grid shape).
    """

    kind: str
    vocab: Vocab
    pairs: tuple
    fixed_target_len: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CorpusError(f"unknown corpus kind {self.kind!r}")
        pairs = tuple(
            (tuple(int(t) for t in inp), tuple(int(t) for t in tgt))
            for inp, tgt in self.pairs
        )
        object.__setattr__(self, "pairs", pairs)
        limit = self.vocab.size
        for inp, tgt in pairs:
            if not tgt:
                raise CorpusError("corpus contains an empty target")
            for t in inp + tgt:
                if not 0 <= t < limit:
                    raise CorpusError(f"token id {t} outside vocabulary of {limit}")
            if self.fixed_target_len is not None and len(tgt) != self.fixed_target_len:
                raise CorpusError(
                    f"target of {len(tgt)} tokens in a fixed-length corpus of "
                    f"{self.fixed_target_len}"
                )

    def __len__(self):
        return len(self.pairs)

    @property
    def quality_metric(self) -> str:
        return "mean_absolute_error" if self.kind == "intensity_grid" else "token_accuracy"

    def max_target_len(self) -> int:
        return max(len(t) for _, t in self.pairs)

    def decode_budget(self) -> int:
        """Tokens a decode of this corpus's inputs may produce: the fixed
        target length, else the longest target plus room for the end token
        when the vocabulary has one."""
        if self.fixed_target_len is not None:
            return self.fixed_target_len
        return self.max_target_len() + (1 if self.vocab.eos_token is not None else 0)

    def max_composed_len(self) -> int:
        """Longest input + SEP + target (+ end token) in the corpus."""
        extra = 2 if self.vocab.eos_token is not None else 1
        return max(len(i) + len(t) + extra for i, t in self.pairs)


# ---- text_char ----

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n"}


def _escape(text: str) -> str:
    out = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


def _unescape(text: str, line: int) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\":
            pair = text[i : i + 2]
            if pair not in _UNESCAPES:
                raise ParseError(f"bad escape {pair!r}", line=line)
            out.append(_UNESCAPES[pair])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def encode_text(text: str) -> tuple:
    """Tokenize text as UTF-8 byte values."""
    return tuple(text.encode("utf-8"))


def decode_text(tokens) -> str:
    """Inverse of encode_text; non-byte ids (SEP, EOS) are dropped."""
    return bytes(t for t in tokens if t < 256).decode("utf-8", errors="replace")


def _text_vocab() -> Vocab:
    return Vocab(size=258, sep_token=BYTE_SEP, eos_token=BYTE_EOS)


def _load_text_char(text: str) -> Corpus:
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(
                f"expected 2 tab-separated fields, found {len(fields)}", line=lineno
            )
        inp, tgt = (_unescape(f, lineno) for f in fields)
        if not tgt:
            raise ParseError("empty target", line=lineno)
        pairs.append((encode_text(inp), encode_text(tgt)))
    if not pairs:
        raise CorpusError("corpus has no pairs")
    return Corpus(kind="text_char", vocab=_text_vocab(), pairs=tuple(pairs))


def _dump_text_char(corpus: Corpus) -> str:
    lines = []
    for inp, tgt in corpus.pairs:
        lines.append(f"{_escape(decode_text(inp))}\t{_escape(decode_text(tgt))}")
    return "\n".join(lines) + "\n"


# ---- synthetic_pattern ----

def _pattern_vocab(alphabet: int) -> Vocab:
    if not 2 <= alphabet <= 64:
        raise CorpusError(f"pattern alphabet must be in [2, 64], got {alphabet}")
    return Vocab(size=alphabet + 2, sep_token=alphabet, eos_token=alphabet + 1)


def _apply_rule(rule: str, inp: tuple, copies: int) -> tuple:
    if rule == "repeat":
        base = inp
    elif rule == "reverse":
        base = tuple(reversed(inp))
    elif rule == "sort":
        base = tuple(sorted(inp))
    else:
        raise CorpusError(f"unknown pattern rule {rule!r}")
    return base * copies


def make_pattern_corpus(
    rule: str,
    alphabet: int,
    n_pairs: int,
    min_len: int,
    max_len: int,
    copies: int = 1,
    noise: float = 0.0,
    seed: int = 0,
) -> Corpus:
    """Generate a pattern corpus whose targets follow `rule` applied to the
    input, with `noise` probability of corrupting each target token."""
    if not 1 <= min_len <= max_len:
        raise CorpusError("need 1 <= min_len <= max_len")
    if copies < 1:
        raise CorpusError("copies must be >= 1")
    if not 0.0 <= noise <= 1.0:
        raise CorpusError("noise must be in [0, 1]")
    if n_pairs < 1:
        raise CorpusError("n_pairs must be >= 1")
    vocab = _pattern_vocab(alphabet)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        inp = tuple(rng.integers(0, alphabet, size=length).tolist())
        tgt = list(_apply_rule(rule, inp, copies))
        for i in range(len(tgt)):
            if noise > 0.0 and rng.random() < noise:
                tgt[i] = int(rng.integers(0, alphabet))
        pairs.append((inp, tuple(tgt)))
    meta = {
        "rule": rule, "alphabet": alphabet, "min_len": min_len, "max_len": max_len,
        "copies": copies, "noise": noise, "seed": seed,
    }
    return Corpus(kind="synthetic_pattern", vocab=vocab, pairs=tuple(pairs), meta=meta)


def _load_pattern(doc: dict) -> Corpus:
    alphabet = doc.get("alphabet")
    if not isinstance(alphabet, int):
        raise CorpusError("synthetic_pattern needs an integer 'alphabet'")
    pairs_field = doc.get("pairs")
    if isinstance(pairs_field, int):
        return make_pattern_corpus(
            rule=doc.get("rule", "repeat"),
            alphabet=alphabet,
            n_pairs=pairs_field,
            min_len=doc.get("min_len", 1),
            max_len=doc.get("max_len", 8),
            copies=doc.get("copies", 1),
            noise=doc.get("noise", 0.0),
            seed=doc.get("seed", 0),
        )
    if not isinstance(pairs_field, list):
        raise CorpusError("'pairs' must be a pair list or a generator count")
    pairs = _pairs_from_json(pairs_field)
    meta = {"alphabet": alphabet}
    return Corpus(
        kind="synthetic_pattern", vocab=_pattern_vocab(alphabet), pairs=pairs, meta=meta
    )


# ---- intensity_grid ----

def _load_intensity(doc: dict) -> Corpus:
    width, height = doc.get("width"), doc.get("height")
    if not (isinstance(width, int) and isinstance(height, int)) or width < 1 or height < 1:
        raise CorpusError("intensity_grid needs positive integer 'width' and 'height'")
    pairs = _pairs_from_json(doc.get("pairs"))
    vocab = Vocab(size=257, sep_token=256, eos_token=None, intensity=True)
    return Corpus(
        kind="intensity_grid",
        vocab=vocab,
        pairs=pairs,
        fixed_target_len=width * height,
        meta={"width": width, "height": height},
    )


def _pairs_from_json(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise CorpusError("'pairs' must be a non-empty list")
    pairs = []
    for i, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2):
            raise CorpusError(f"pair {i} is not a [input, target] list")
        inp, tgt = item
        if not (isinstance(inp, list) and isinstance(tgt, list)):
            raise CorpusError(f"pair {i} fields must be token lists")
        pairs.append((tuple(inp), tuple(tgt)))
    return tuple(pairs)


# ---- load / save ----

def load_corpus(path, kind: Optional[str] = None) -> Corpus:
    """Read a corpus file, inferring the kind when not given.

    JSON documents declare their kind in a "kind" field; anything else is
    treated as text_char TSV.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if kind is None:
        kind = "text_char"
        if stripped.startswith("{"):
            try:
                kind = json.loads(stripped).get("kind", "")
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON corpus: {exc}") from exc
    if kind == "text_char":
        return _load_text_char(text)
    if kind not in KINDS:
        raise CorpusError(f"unknown corpus kind {kind!r}")
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON corpus: {exc}") from exc
    if doc.get("kind") != kind:
        raise CorpusError(f"corpus declares kind {doc.get('kind')!r}, expected {kind!r}")
    if kind == "synthetic_pattern":
        return _load_pattern(doc)
    return _load_intensity(doc)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in its canonical on-disk form (pairs materialized)."""
    if corpus.kind == "text_char":
        payload = _dump_text_char(corpus)
    else:
        doc = {"kind": corpus.kind}
        if corpus.kind == "synthetic_pattern":
            doc["alphabet"] = corpus.meta["alphabet"]
        else:
            doc["width"] = corpus.meta["width"]
            doc["height"] = corpus.meta["height"]
        doc["pairs"] = [[list(i), list(t)] for i, t in corpus.pairs]
        payload = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


# ---- quality metrics ----

def strip_eos(tokens, eos_token: Optional[int]) -> tuple:
    """Cut a decoded output at its end token, if any."""
    tokens = tuple(tokens)
    if eos_token is None or eos_token not in tokens:
        return tokens
    return tokens[: tokens.index(eos_token)]


def token_accuracy(output, gold) -> float:
    """Fraction of positions that match, counting length mismatch as misses."""
    output, gold = tuple(output), tuple(gold)
    if not output and not gold:
        return 1.0
    hits = sum(1 for a, b in zip(output, gold) if a == b)
    return hits / max(len(output), len(gold))


def exact_match(output, gold) -> bool:
    return tuple(output) == tuple(gold)


def mean_absolute_error(output, gold) -> float:
    """Mean absolute intensity difference; unmatched positions count as the
    full intensity range."""
    output, gold = tuple(output), tuple(gold)
    if not output and not gold:
        return 0.0
    total = sum(abs(int(a) - int(b)) for a, b in zip(output, gold))
    total += 255 * abs(len(output) - len(gold))
    return total / max(len(output), len(gold))
