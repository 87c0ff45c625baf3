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

Targets are stored without any end token; `training_pairs` appends it, and
the longest training target is a corpus's decode budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, CorpusError, LengthError, ParseError
from ..models.base import check_token_ids

KINDS = ("text_char", "synthetic_pattern", "intensity_grid")
# each pattern rule's target for an input, before it is repeated `copies` times
PATTERN_RULES = {
    "repeat": lambda inp: inp,
    "reverse": lambda inp: tuple(reversed(inp)),
    "sort": lambda inp: tuple(sorted(inp)),
}

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

    def fits(self, model) -> bool:
        """True when `model` has this vocabulary's size and, if it places its
        own separator (`config.sep_token`), separator."""
        return model.vocab_size == self.size and _model_sep(model) in (None, self.sep_token)


def _model_sep(model):
    return getattr(getattr(model, "config", None), "sep_token", None)


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
        for i, (inp, tgt) in enumerate(pairs):
            if not tgt:
                raise CorpusError("corpus contains an empty target")
            try:
                check_token_ids(inp, self.vocab.size, f"input of pair {i}")
                check_token_ids(tgt, self.vocab.size, f"target of pair {i}")
            except ConfigurationError as exc:
                raise CorpusError(str(exc)) from None
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

    def decode_budget(self) -> int:
        """Tokens a decode of this corpus's inputs may produce: the fixed
        target length, else the longest training target (see
        `training_pairs`), which has room for the end token."""
        if self.fixed_target_len is not None:
            return self.fixed_target_len
        return max(len(t) for _, t in training_pairs(self))

    def check_model(self, model) -> None:
        """Raise ConfigurationError unless the corpus's vocabulary fits
        `model`, and LengthError, naming the pair, if an input and its
        separator exceed the model's `max_context`. A decode may end before
        it fills the context, so the decode budget is not checked."""
        if not self.vocab.fits(model):
            raise ConfigurationError(
                f"model vocabulary ({model.vocab_size} tokens, separator {_model_sep(model)}) "
                f"differs from the corpus's ({self.vocab.size} tokens, "
                f"separator {self.vocab.sep_token})"
            )
        limit = getattr(model, "max_context", None)
        if limit is None:
            return
        for i, (inp, _) in enumerate(self.pairs):
            if len(inp) + 1 > limit:
                raise LengthError(
                    f"pair {i}: input of {len(inp)} tokens and its separator exceed "
                    f"context {limit}"
                )


def training_pairs(corpus: Corpus) -> list:
    """Corpus pairs with the end token appended to each target, when the
    vocabulary has one. No other code adds the end token to a target."""
    eos = corpus.vocab.eos_token
    if eos is None:
        return list(corpus.pairs)
    return [(inp, tgt + (eos,)) for inp, tgt in corpus.pairs]


# ---- text_char ----

# a bare carriage return would not survive reading the file back: Python's
# text mode reads it as a line break
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}


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


def is_text(tokens) -> bool:
    """True when `tokens` are the UTF-8 bytes of some text: the only token
    sequences a text_char field saves and loads back as themselves."""
    return encode_text(decode_text(tokens)) == tuple(tokens)


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
    if rule not in PATTERN_RULES:
        raise CorpusError(f"unknown pattern rule {rule!r}")
    if not 1 <= min_len <= max_len:
        raise CorpusError("need 1 <= min_len <= max_len")
    if copies < 1:
        raise CorpusError("copies must be >= 1")
    if not 0.0 <= noise <= 1.0:
        raise CorpusError("noise must be in [0, 1]")
    if n_pairs < 1:
        raise CorpusError("n_pairs must be >= 1")
    if seed < 0:
        raise CorpusError("seed must be non-negative")
    vocab = _pattern_vocab(alphabet)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        inp = tuple(rng.integers(0, alphabet, size=length).tolist())
        tgt = list(PATTERN_RULES[rule](inp) * copies)
        for i in range(len(tgt)):
            if noise > 0.0 and rng.random() < noise:
                tgt[i] = int(rng.integers(0, alphabet))
        pairs.append((inp, tuple(tgt)))
    meta = {
        "rule": rule, "alphabet": alphabet, "min_len": min_len, "max_len": max_len,
        "copies": copies, "noise": noise, "seed": seed,
    }
    return Corpus(kind="synthetic_pattern", vocab=vocab, pairs=tuple(pairs), meta=meta)


def _is_json_int(value) -> bool:
    # bool is an int subclass, and int() would pass 1.9 or "3"
    return type(value) is int


def _int_field(doc: dict, key: str, default=None) -> int:
    """doc[key], or `default` when absent, refused unless a JSON integer."""
    value = doc.get(key, default)
    if not _is_json_int(value):
        raise CorpusError(f"'{key}' must be an integer, got {json.dumps(value)}")
    return value


def _load_pattern(doc: dict) -> Corpus:
    alphabet = _int_field(doc, "alphabet")
    pairs_field = doc.get("pairs")
    if _is_json_int(pairs_field):
        rule, noise = doc.get("rule", "repeat"), doc.get("noise", 0.0)
        if not isinstance(rule, str):
            raise CorpusError(f"'rule' must be a string, got {json.dumps(rule)}")
        if not (_is_json_int(noise) or type(noise) is float):
            raise CorpusError(f"'noise' must be a number, got {json.dumps(noise)}")
        return make_pattern_corpus(
            rule=rule,
            alphabet=alphabet,
            n_pairs=pairs_field,
            min_len=_int_field(doc, "min_len", 1),
            max_len=_int_field(doc, "max_len", 8),
            copies=_int_field(doc, "copies", 1),
            noise=noise,
            seed=_int_field(doc, "seed", 0),
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
    width, height = _int_field(doc, "width"), _int_field(doc, "height")
    if width < 1 or height < 1:
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
        bad = [t for t in inp + tgt if not _is_json_int(t)]
        if bad:
            raise CorpusError(f"pair {i} holds {json.dumps(bad[0])}, not an integer token id")
        pairs.append((tuple(inp), tuple(tgt)))
    return tuple(pairs)


# ---- load / save ----

def load_corpus(path, kind: Optional[str] = None) -> Corpus:
    """Read a corpus file, inferring the kind when not given.

    JSON documents declare their kind in a "kind" field; anything else is
    treated as text_char TSV.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_corpus(fh.read(), kind)


def _parse_corpus(text: str, kind: Optional[str]) -> Corpus:
    stripped = text.lstrip()
    doc = None
    if kind != "text_char" and (kind in KINDS or (kind is None and stripped.startswith("{"))):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON corpus: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("a JSON corpus must be an object")
    if kind is None:
        kind = "text_char" if doc is None else doc.get("kind", "")
    if kind == "text_char":
        return _load_text_char(text)
    if kind not in KINDS:
        raise CorpusError(f"unknown corpus kind {kind!r}")
    if doc.get("kind") != kind:
        raise CorpusError(f"corpus declares kind {doc.get('kind')!r}, expected {kind!r}")
    if kind == "synthetic_pattern":
        return _load_pattern(doc)
    return _load_intensity(doc)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus in its canonical on-disk form (pairs materialized).

    The payload is first parsed back as `load_corpus` would, and a corpus it
    would not reproduce (vocabulary, pairs, fixed target length) raises
    CorpusError naming the first difference before the file is opened."""
    if corpus.kind == "text_char":
        payload = _dump_text_char(corpus)
    else:
        doc = {"kind": corpus.kind}
        if corpus.kind == "synthetic_pattern":
            doc["alphabet"] = corpus.vocab.size - 2  # _pattern_vocab: alphabet, SEP, EOS
        else:
            doc["width"] = corpus.meta.get("width")
            doc["height"] = corpus.meta.get("height")
        doc["pairs"] = [[list(i), list(t)] for i, t in corpus.pairs]
        payload = json.dumps(doc, indent=1) + "\n"
    refused = f"{corpus.kind} corpus would not load back as saved"
    try:
        loaded = _parse_corpus(payload, corpus.kind)
    except CorpusError as exc:
        raise CorpusError(f"{refused}: {exc}") from None
    checks = [
        ("vocabulary", corpus.vocab, loaded.vocab),
        ("pair count", len(corpus), len(loaded)),
        *((f"pair {i}", a, b) for i, (a, b) in enumerate(zip(corpus.pairs, loaded.pairs))),
        ("fixed target length", corpus.fixed_target_len, loaded.fixed_target_len),
    ]
    for what, saved, read in checks:
        if saved != read:
            raise CorpusError(f"{refused}: its {what} {saved} would read {read}")
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
