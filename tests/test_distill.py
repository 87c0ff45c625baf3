"""Corpus distillation equals per-input greedy decoding."""

import re

import numpy as np
import pytest

from blockdec.engine import DecodeConfig, greedy_decode
from blockdec.errors import ConfigurationError, CorpusError, LengthError
from blockdec.harness.bench import distill_corpus
from blockdec.harness.corpus import (
    Corpus,
    Vocab,
    _text_vocab,
    encode_text,
    load_corpus,
    make_pattern_corpus,
    save_corpus,
    strip_eos,
)
from blockdec.models.base import TableBackedModel
from blockdec.models.neural import ModelConfig, TinyBlockModel
from blockdec.models.synthetic import make_synthetic_model

VOCAB = Vocab(size=8, sep_token=6, eos_token=7)


def one_hot_logprobs(token, vocab_size):
    logits = np.full((1, vocab_size), -20.0)
    logits[0, token] = 0.0
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ConstantModel(TableBackedModel):
    """Base head always picks the same token, with an end token after four;
    input (5,) gets the end token at once."""

    vocab_size = 8
    num_heads = 1

    def head_logprobs(self, input_tokens, context):
        ends = len(context) >= 4 or tuple(input_tokens) == (5,)
        return one_hot_logprobs(7 if ends else 3, self.vocab_size)


def corpus_of(inputs, vocab=VOCAB, target=(1,)):
    return Corpus(kind="synthetic_pattern", vocab=vocab,
                  pairs=tuple((inp, target) for inp in inputs))


class TestDistillCorpus:
    def test_constant_teacher_gives_constant_targets(self):
        distilled = distill_corpus(ConstantModel(), corpus_of([(0,), (1, 2)]), max_len=10)
        assert [t for _, t in distilled.pairs] == [(3, 3, 3, 3), (3, 3, 3, 3)]
        assert distilled.pairs[0][0] == (0,)

    def test_targets_match_greedy_decode(self):
        teacher = make_synthetic_model("random_table", seed=4, vocab_size=10, num_heads=2)
        vocab = Vocab(size=10, sep_token=8, eos_token=9)
        corpus = corpus_of([(i,) for i in range(8)], vocab)
        distilled = distill_corpus(teacher, corpus, max_len=6)
        config = DecodeConfig(block_size=1, max_len=6, eos_token=9)
        want = []
        for inp, _ in corpus.pairs:
            target = strip_eos(greedy_decode(teacher, inp, config).output, 9)
            if target:
                want.append((inp, target))
        assert list(distilled.pairs) == want

    def test_deterministic(self):
        teacher = make_synthetic_model("random_table", seed=4, vocab_size=10, num_heads=2)
        corpus = corpus_of([(1,), (2, 3)], Vocab(size=10, sep_token=8, eos_token=9))
        assert distill_corpus(teacher, corpus, 5) == distill_corpus(teacher, corpus, 5)

    def test_truncated_targets_have_no_end_token(self):
        distilled = distill_corpus(ConstantModel(), corpus_of([(0,)]), max_len=3)
        assert distilled.pairs == (((0,), (3, 3, 3)),)

    def test_no_end_token_decodes_fixed_length(self):
        vocab = Vocab(size=8, sep_token=6, eos_token=None)
        distilled = distill_corpus(ConstantModel(), corpus_of([(0,)], vocab), max_len=6)
        assert distilled.pairs[0][1] == (3, 3, 3, 3, 7, 7)

    def test_default_budget_is_the_corpus_decode_budget(self):
        corpus = corpus_of([(0,)], target=(1, 1))
        assert corpus.decode_budget() == 3
        assert distill_corpus(ConstantModel(), corpus).pairs == (((0,), (3, 3, 3)),)

    def test_empty_targets_are_dropped(self):
        distilled = distill_corpus(ConstantModel(), corpus_of([(0,), (5,), (1, 2)]))
        assert [inp for inp, _ in distilled.pairs] == [(0,), (1, 2)]

    def test_no_usable_target_raises(self):
        with pytest.raises(CorpusError, match="no usable targets"):
            distill_corpus(ConstantModel(), corpus_of([(5,)]))

    def test_failures_carry_the_pair_index(self):
        model = TinyBlockModel(ModelConfig(
            vocab_size=6, d_model=4, d_hidden=4, num_heads=2, num_layers=1,
            max_context=8, sep_token=4, eos_token=5))
        corpus = Corpus(kind="synthetic_pattern", vocab=Vocab(size=6, sep_token=4,
                                                              eos_token=5),
                        pairs=(((0,), (1,)), ((0,) * 7, (1,))))
        with pytest.raises(LengthError, match="pair 1"):
            distill_corpus(model, corpus)


def grid_corpus():
    """A 2x2 intensity_grid corpus: every target has exactly 4 tokens."""
    return Corpus(kind="intensity_grid",
                  vocab=Vocab(size=257, sep_token=256, eos_token=None, intensity=True),
                  pairs=(((10, 20), (1, 2, 3, 4)), ((30,), (250, 0, 128, 5))),
                  fixed_target_len=4, meta={"width": 2, "height": 2})


def counting_teacher(vocab_size):
    """A table model that counts its score_grid calls in `.calls`."""
    teacher = make_synthetic_model("random_table", seed=2, vocab_size=vocab_size,
                                   num_heads=1)
    teacher.calls = 0
    score_grid = teacher.score_grid

    def spy(*args):
        teacher.calls += 1
        return score_grid(*args)

    teacher.score_grid = spy
    return teacher


class TestFixedLengthBudget:
    def test_other_max_len_is_rejected_before_any_decode(self):
        teacher = counting_teacher(257)
        with pytest.raises(ConfigurationError, match="max_len 3 .* fixed target length 4"):
            distill_corpus(teacher, grid_corpus(), max_len=3)
        assert teacher.calls == 0

    def test_the_fixed_length_itself_is_accepted(self):
        teacher = counting_teacher(257)
        distilled = distill_corpus(teacher, grid_corpus(), max_len=4)
        assert distilled == distill_corpus(teacher, grid_corpus())
        assert teacher.calls > 0


class TestVocabularyMatch:
    def test_mismatched_checkpoint_is_rejected_before_any_decode(self):
        # at vocabulary 10 the teacher can emit ids the vocab-8 corpus cannot hold
        model = TinyBlockModel(ModelConfig(
            vocab_size=10, d_model=4, d_hidden=4, num_heads=2, num_layers=1,
            max_context=16, sep_token=8, eos_token=9))
        model.calls = 0
        score_grid = model.score_grid

        def spy(*args):
            model.calls += 1
            return score_grid(*args)

        model.score_grid = spy
        with pytest.raises(ConfigurationError, match=r"\(10 tokens, separator 8\) .* "
                                                     r"\(8 tokens, separator 6\)"):
            distill_corpus(model, corpus_of([(0,), (1, 2)]))
        assert model.calls == 0

    def test_table_teacher_of_another_size_is_rejected(self):
        teacher = counting_teacher(256)
        with pytest.raises(ConfigurationError, match="256 tokens"):
            distill_corpus(teacher, grid_corpus())
        assert teacher.calls == 0


class TestDistilledCorpusSaves:
    def test_pattern_corpus_round_trips(self, tmp_path):
        gold = make_pattern_corpus("repeat", alphabet=6, n_pairs=12, min_len=2,
                                   max_len=4, copies=2, seed=3)
        teacher = make_synthetic_model("perfect_proposals", seed=1,
                                       vocab_size=gold.vocab.size, num_heads=2)
        distilled = distill_corpus(teacher, gold)
        assert distilled.meta == gold.meta
        path = tmp_path / "distilled.json"
        save_corpus(distilled, path)
        loaded = load_corpus(path)
        assert loaded.pairs == distilled.pairs
        assert loaded.vocab == distilled.vocab

    def test_grid_corpus_keeps_fixed_length(self, tmp_path):
        gold = grid_corpus()
        teacher = make_synthetic_model("random_table", seed=2, vocab_size=257, num_heads=1)
        distilled = distill_corpus(teacher, gold)
        assert distilled.fixed_target_len == 4
        assert all(len(t) == 4 for _, t in distilled.pairs)
        path = tmp_path / "distilled.json"
        save_corpus(distilled, path)
        assert load_corpus(path).pairs == distilled.pairs


class ByteTeacher(TableBackedModel):
    """On the text vocabulary, decodes input "bad" to `bad_output` and any
    other input to "ok", each followed by the end token."""

    vocab_size = 258
    num_heads = 1

    def __init__(self, bad_output):
        self.bad_output = tuple(bad_output)

    def head_logprobs(self, input_tokens, context):
        bad = tuple(input_tokens) == encode_text("bad")
        output = self.bad_output if bad else encode_text("ok")
        token = output[len(context)] if len(context) < len(output) else 257
        return one_hot_logprobs(token, self.vocab_size)


def recording(teacher):
    """Record in `teacher.inputs` the input of every score_grid call."""
    teacher.inputs = []
    score_grid = teacher.score_grid

    def spy(input_tokens, *args):
        teacher.inputs.append(tuple(input_tokens))
        return score_grid(input_tokens, *args)

    teacher.score_grid = spy
    return teacher


def text_corpus(*inputs):
    return Corpus(kind="text_char", vocab=_text_vocab(),
                  pairs=tuple((encode_text(i), encode_text("target")) for i in inputs))


class TestTextTargets:
    # a lone continuation byte, a cut two-byte sequence, the separator id
    @pytest.mark.parametrize("bad_output", [(0x80,), (0x6F, 0xC3), (0x6F, 256)])
    def test_a_decode_that_is_not_text_fails_before_the_next_decode(self, bad_output):
        teacher = recording(ByteTeacher(bad_output))
        corpus = text_corpus("first", "bad", "last")
        with pytest.raises(CorpusError, match=rf"pair 1: the teacher's decode "
                                              rf"{re.escape(str(bad_output))} is not UTF-8"):
            distill_corpus(teacher, corpus)
        assert teacher.inputs[-1] == encode_text("bad")
        assert encode_text("last") not in teacher.inputs

    def test_text_decodes_distill_and_save(self, tmp_path):
        teacher = recording(ByteTeacher(encode_text("é")))
        distilled = distill_corpus(teacher, text_corpus("first", "bad", "last"))
        assert [t for _, t in distilled.pairs] == [encode_text(t) for t in ("ok", "é", "ok")]
        path = tmp_path / "distilled.tsv"
        save_corpus(distilled, path)
        assert load_corpus(path) == distilled
