"""Corpus formats, generators, and quality metrics."""

import json
import re

import numpy as np
import pytest

from blockdec.errors import ConfigurationError, CorpusError, ParseError
from blockdec.harness.corpus import (
    Corpus,
    Vocab,
    decode_text,
    encode_text,
    exact_match,
    load_corpus,
    make_pattern_corpus,
    mean_absolute_error,
    save_corpus,
    strip_eos,
    token_accuracy,
)


class TestTextChar:
    def test_round_trip_with_escapes(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("hello\tworld\nwith\\ttab\tand\\nnewline\nback\\\\slash\tok\n")
        corpus = load_corpus(path)
        assert corpus.kind == "text_char"
        assert len(corpus) == 3
        assert corpus.pairs[0] == (encode_text("hello"), encode_text("world"))
        assert decode_text(corpus.pairs[1][0]) == "with\ttab"
        assert decode_text(corpus.pairs[1][1]) == "and\nnewline"
        assert decode_text(corpus.pairs[2][0]) == "back\\slash"
        out = tmp_path / "again.tsv"
        save_corpus(corpus, out)
        assert load_corpus(out).pairs == corpus.pairs

    def test_carriage_returns_round_trip(self, tmp_path):
        """A file read in text mode turns a bare \\r into a line break, so
        save_corpus must escape it in either field."""
        pair = ("a\rb", "c\r\nd")
        corpus = Corpus(kind="text_char", vocab=Vocab(size=258, sep_token=256, eos_token=257),
                        pairs=(tuple(map(encode_text, pair)), tuple(map(encode_text, pair[::-1]))))
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path)
        assert "\r" not in path.read_bytes().decode("utf-8")
        assert load_corpus(path).pairs == corpus.pairs

    def test_vocab_layout(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\n")
        corpus = load_corpus(path)
        assert corpus.vocab == Vocab(size=258, sep_token=256, eos_token=257)
        assert corpus.quality_metric == "token_accuracy"

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("good\tpair\nno tab here\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert err.value.line == 2
        assert "line 2" in str(err.value)
        path.write_text("bad\\qescape\tx\n")
        with pytest.raises(ParseError):
            load_corpus(path)
        path.write_text("input\t\n")
        with pytest.raises(ParseError, match="empty target"):
            load_corpus(path)
        path.write_text("")
        with pytest.raises(CorpusError):
            load_corpus(path)

    def test_non_ascii_text(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("café\tnaïve\n")
        corpus = load_corpus(path)
        assert decode_text(corpus.pairs[0][0]) == "café"
        assert decode_text(corpus.pairs[0][1]) == "naïve"
        assert all(t < 256 for t in corpus.pairs[0][0])


class TestPattern:
    def test_generator_rules(self):
        for rule, fn in (
            ("repeat", lambda s: s * 2),
            ("reverse", lambda s: tuple(reversed(s)) * 2),
            ("sort", lambda s: tuple(sorted(s)) * 2),
        ):
            corpus = make_pattern_corpus(rule, alphabet=8, n_pairs=20, min_len=2,
                                         max_len=5, copies=2, seed=3)
            for inp, tgt in corpus.pairs:
                assert tgt == fn(inp)

    def test_generator_deterministic(self):
        a = make_pattern_corpus("repeat", 8, 30, 2, 5, copies=2, noise=0.2, seed=7)
        b = make_pattern_corpus("repeat", 8, 30, 2, 5, copies=2, noise=0.2, seed=7)
        assert a.pairs == b.pairs

    def test_noise_corrupts_roughly_the_right_fraction(self):
        noisy = make_pattern_corpus("repeat", 8, 200, 6, 6, copies=2, noise=0.25, seed=5)
        diffs = total = 0
        for inp, tgt in noisy.pairs:
            gold = inp * 2
            diffs += sum(x != y for x, y in zip(gold, tgt))
            total += len(gold)
        # a quarter of tokens are redrawn, an eighth of redraws keep the value
        assert 0.15 < diffs / total < 0.30

    def test_vocab_and_validation(self):
        corpus = make_pattern_corpus("repeat", 10, 5, 1, 3, seed=0)
        assert corpus.vocab == Vocab(size=12, sep_token=10, eos_token=11)
        with pytest.raises(CorpusError):
            make_pattern_corpus("shuffle", 8, 5, 1, 3)
        with pytest.raises(CorpusError):
            make_pattern_corpus("repeat", 100, 5, 1, 3)
        with pytest.raises(CorpusError):
            make_pattern_corpus("repeat", 8, 5, 4, 3)
        with pytest.raises(CorpusError):
            make_pattern_corpus("repeat", 8, 5, 1, 3, noise=1.5)
        with pytest.raises(CorpusError, match="seed must be non-negative"):
            make_pattern_corpus("repeat", 8, 5, 1, 3, seed=-1)

    def test_json_generator_spec(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "kind": "synthetic_pattern", "alphabet": 8, "rule": "reverse",
            "pairs": 12, "min_len": 2, "max_len": 4, "copies": 1, "seed": 9,
        }))
        corpus = load_corpus(path)
        assert len(corpus) == 12
        assert all(t == tuple(reversed(i)) for i, t in corpus.pairs)

    def test_json_materialized_round_trip(self, tmp_path):
        corpus = make_pattern_corpus("sort", 8, 10, 2, 4, seed=2)
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.pairs == corpus.pairs
        assert loaded.vocab == corpus.vocab

    def test_a_corpus_built_without_meta_round_trips(self, tmp_path):
        # the alphabet is read from the vocabulary, which every pattern corpus has
        vocab = Vocab(size=7, sep_token=5, eos_token=6)
        corpus = Corpus(kind="synthetic_pattern", vocab=vocab, pairs=(((1, 4), (4, 1)),))
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.pairs == corpus.pairs
        assert loaded.vocab == vocab
        assert loaded.meta == {"alphabet": 5}

    def test_bad_documents(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "synthetic_pattern", "pairs": 3}))
        with pytest.raises(CorpusError, match="alphabet"):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "synthetic_pattern", "alphabet": 8,
                                    "pairs": "many"}))
        with pytest.raises(CorpusError):
            load_corpus(path)
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_corpus(path)
        path.write_text(json.dumps({"kind": "who_knows", "pairs": []}))
        with pytest.raises(CorpusError, match="kind"):
            load_corpus(path)


    def test_generator_spec_parses_the_document_once(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "synthetic_pattern", "alphabet": 4, "pairs": 3}))
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
        assert len(load_corpus(path)) == 3
        assert len(calls) == 1

    def test_a_json_corpus_must_be_an_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[[1, 2]]")
        with pytest.raises(ParseError, match="object"):
            load_corpus(path, kind="synthetic_pattern")


BAD_TOKENS = {"float": 1.9, "bool": True, "string": "3", "null": None}


@pytest.mark.parametrize("bad", BAD_TOKENS.values(), ids=list(BAD_TOKENS))
class TestJsonTokensAreIntegers:
    def test_pattern_pairs(self, tmp_path, bad):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "synthetic_pattern", "alphabet": 4,
                                    "pairs": [[[1], [2]], [[0, bad], [3]]]}))
        with pytest.raises(CorpusError, match=f"pair 1 holds {re.escape(json.dumps(bad))}"):
            load_corpus(path)

    def test_grid_pairs(self, tmp_path, bad):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"kind": "intensity_grid", "width": 2, "height": 1,
                                    "pairs": [[[1], [2, bad]]]}))
        with pytest.raises(CorpusError, match="pair 0 holds"):
            load_corpus(path)


PATTERN_SPEC = {"kind": "synthetic_pattern", "alphabet": 4, "pairs": 3}
GRID_SPEC = {"kind": "intensity_grid", "width": 2, "height": 1, "pairs": [[[1], [2, 3]]]}
BAD_FIELDS = [
    (PATTERN_SPEC, "alphabet", True, "must be an integer"),
    (PATTERN_SPEC, "alphabet", 4.0, "must be an integer"),
    (PATTERN_SPEC, "pairs", True, "must be a pair list or a generator count"),
    (PATTERN_SPEC, "min_len", "2", "must be an integer"),
    (PATTERN_SPEC, "max_len", 2.5, "must be an integer"),
    (PATTERN_SPEC, "copies", True, "must be an integer"),
    (PATTERN_SPEC, "seed", "x", "must be an integer"),
    (PATTERN_SPEC, "seed", None, "must be an integer"),
    (PATTERN_SPEC, "noise", "x", "must be a number"),
    (PATTERN_SPEC, "noise", False, "must be a number"),
    (PATTERN_SPEC, "rule", ["x"], "must be a string"),
    (GRID_SPEC, "width", True, "must be an integer"),
    (GRID_SPEC, "height", True, "must be an integer"),
    (GRID_SPEC, "width", "2", "must be an integer"),
]


class TestGeneratorSpecFields:
    @pytest.mark.parametrize("doc, key, value, message", BAD_FIELDS,
                             ids=[f"{key}={json.dumps(v)}" for _, key, v, _ in BAD_FIELDS])
    def test_a_field_of_the_wrong_json_type_is_named(self, tmp_path, doc, key, value, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(CorpusError, match=f"'{key}' {message}"):
            load_corpus(path)

    def test_the_specs_load_as_they_are(self, tmp_path):
        path = tmp_path / "c.json"
        for doc, pairs in ((PATTERN_SPEC, 3), (GRID_SPEC, 1)):
            path.write_text(json.dumps(doc))
            assert len(load_corpus(path)) == pairs


class TestIntensityGrid:
    def grid_doc(self, pairs):
        return {"kind": "intensity_grid", "width": 2, "height": 2, "pairs": pairs}

    def test_load_and_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        pairs = [[[10, 20], [1, 2, 3, 4]], [[30], [250, 0, 128, 5]]]
        path.write_text(json.dumps(self.grid_doc(pairs)))
        corpus = load_corpus(path)
        assert corpus.kind == "intensity_grid"
        assert corpus.fixed_target_len == 4
        assert corpus.vocab.eos_token is None
        assert corpus.vocab.intensity
        assert corpus.quality_metric == "mean_absolute_error"
        out = tmp_path / "again.json"
        save_corpus(corpus, out)
        assert load_corpus(out).pairs == corpus.pairs

    def test_wrong_target_length_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.grid_doc([[[1], [1, 2, 3]]])))
        with pytest.raises(CorpusError, match="fixed-length"):
            load_corpus(path)

    def test_explicit_kind_mismatch(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self.grid_doc([[[1], [1, 2, 3, 4]]])))
        with pytest.raises(CorpusError, match="declares kind"):
            load_corpus(path, kind="synthetic_pattern")


class TestSaveWritesOnlyWhatLoadsBack:
    """save_corpus refuses, before the file is opened, a corpus whose saved
    form would load back with another vocabulary, pairs or target length."""

    @staticmethod
    def refused(corpus, tmp_path, match):
        path = tmp_path / "c.out"
        with pytest.raises(CorpusError, match=match):
            save_corpus(corpus, path)
        assert not path.exists()

    def test_a_grid_corpus_without_its_shape(self, tmp_path):
        vocab = Vocab(size=257, sep_token=256, eos_token=None, intensity=True)
        corpus = Corpus(kind="intensity_grid", vocab=vocab, pairs=(((1,), (2, 3)),),
                        fixed_target_len=2)
        self.refused(corpus, tmp_path, "'width' must be an integer, got null")

    @pytest.mark.parametrize("token, read", [(255, "(97, 239, 191, 189)"), (256, "(97,)")],
                             ids=["byte_255", "separator"])
    def test_a_text_pair_that_is_not_utf8_text(self, tmp_path, token, read):
        corpus = Corpus(kind="text_char", vocab=Vocab(size=258, sep_token=256, eos_token=257),
                        pairs=((encode_text("a"), encode_text("b")), ((97, token), (98,))))
        self.refused(corpus, tmp_path,
                     re.escape(f"pair 1 ((97, {token}), (98,)) would read ({read}, (98,))"))

    @pytest.mark.parametrize("changes, what", [
        ({"vocab": Vocab(size=7, sep_token=5, eos_token=None)}, "vocabulary"),
        ({"fixed_target_len": 2}, "fixed target length 2 would read None"),
    ], ids=["no_end_token", "fixed_target_len"])
    def test_a_pattern_corpus_the_format_cannot_hold(self, tmp_path, changes, what):
        fields = {"vocab": Vocab(size=7, sep_token=5, eos_token=6), **changes}
        corpus = Corpus(kind="synthetic_pattern", pairs=(((1, 4), (4, 1)),), **fields)
        self.refused(corpus, tmp_path, what)


class TestCorpusValidation:
    def test_out_of_vocab_token(self):
        with pytest.raises(CorpusError, match=r"token id 12 in the target of pair 0 "
                                              r"is outside the vocabulary \[0, 10\)"):
            Corpus(kind="synthetic_pattern",
                   vocab=Vocab(size=10, sep_token=8, eos_token=9),
                   pairs=(((1,), (12,)),))

    def test_out_of_vocab_input_names_the_pair(self):
        with pytest.raises(CorpusError, match=r"token id -1 in the input of pair 1 "):
            Corpus(kind="synthetic_pattern",
                   vocab=Vocab(size=10, sep_token=8, eos_token=9),
                   pairs=(((1,), (2,)), ((3, -1), (2,))))

    def test_empty_target(self):
        with pytest.raises(CorpusError, match="empty target"):
            Corpus(kind="synthetic_pattern",
                   vocab=Vocab(size=10, sep_token=8, eos_token=9),
                   pairs=(((1,), ()),))


class TestDecodeBudget:
    PAIRS = (((1,), (2, 3)), ((4,), (5, 6, 7)))

    def test_fixed_length_is_the_budget(self):
        corpus = Corpus(kind="intensity_grid",
                        vocab=Vocab(size=257, sep_token=256, eos_token=None, intensity=True),
                        pairs=(((1,), (2, 3, 4, 5)),), fixed_target_len=4)
        assert corpus.decode_budget() == 4

    def test_end_token_adds_one(self):
        corpus = Corpus(kind="synthetic_pattern",
                        vocab=Vocab(size=10, sep_token=8, eos_token=9), pairs=self.PAIRS)
        assert corpus.decode_budget() == 4

    def test_no_end_token_is_the_longest_target(self):
        corpus = Corpus(kind="synthetic_pattern",
                        vocab=Vocab(size=10, sep_token=8, eos_token=None), pairs=self.PAIRS)
        assert corpus.decode_budget() == 3


class TestMetrics:
    def test_token_accuracy_oracle(self):
        assert token_accuracy((1, 2, 3), (1, 2, 3)) == 1.0
        assert token_accuracy((1, 2, 3), (1, 9, 3)) == pytest.approx(2 / 3)
        assert token_accuracy((1, 2), (1, 2, 3, 4)) == pytest.approx(2 / 4)
        assert token_accuracy((1, 2, 3, 4), (1, 2)) == pytest.approx(2 / 4)
        assert token_accuracy((), ()) == 1.0
        assert token_accuracy((), (1,)) == 0.0

    def test_exact_match(self):
        assert exact_match((1, 2), (1, 2))
        assert not exact_match((1, 2), (1, 2, 3))

    def test_mean_absolute_error_oracle(self):
        assert mean_absolute_error((10, 20), (12, 26)) == pytest.approx(4.0)
        assert mean_absolute_error((5,), (5,)) == 0.0
        assert mean_absolute_error((5, 5), (5,)) == pytest.approx((0 + 255) / 2)
        assert mean_absolute_error((), ()) == 0.0

    def test_strip_eos(self):
        assert strip_eos((1, 2, 9, 3), 9) == (1, 2)
        assert strip_eos((1, 2), 9) == (1, 2)
        assert strip_eos((9,), 9) == ()
        assert strip_eos((1, 2), None) == (1, 2)
