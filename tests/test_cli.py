"""CLI: criterion grammar, option placement, and the four subcommands
exercised end to end on a tiny corpus."""

import json
import re

import pytest

from blockdec.criteria import AcceptanceCriterion
from blockdec.engine import (
    SCHEMES, DecodeConfig, blockwise_decode, blockwise_decode_combined, greedy_decode,
)
from blockdec.errors import ParseError
from blockdec.harness import cli as cli_module
from blockdec.harness.cli import cli, parse_criterion
from blockdec.harness.corpus import BYTE_EOS, BYTE_SEP, _text_vocab, load_corpus
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.neural import ModelConfig, TinyBlockModel
from blockdec.models.synthetic import make_synthetic_model


class TestParseCriterion:
    def test_good_specs(self):
        assert parse_criterion("kind=exact") == AcceptanceCriterion("exact")
        assert parse_criterion("exact") == AcceptanceCriterion("exact")
        assert parse_criterion("kind=top_k,k=3") == AcceptanceCriterion("top_k", top_k_k=3)
        assert parse_criterion("top_k, k=2, min_block=2") == AcceptanceCriterion(
            "top_k", top_k_k=2, min_block=2)
        assert parse_criterion("kind=distance,eps=5") == AcceptanceCriterion(
            "distance", epsilon=5)

    def test_round_trips_describe(self):
        for spec in ("kind=exact", "kind=top_k,k=4", "kind=distance,eps=2,min_block=3"):
            criterion = parse_criterion(spec)
            assert parse_criterion(criterion.describe()) == criterion

    @pytest.mark.parametrize("bad", [
        "", "k=2", "kind=fuzzy", "kind=exact,k=2", "kind=top_k,eps=1",
        "kind=top_k,k=two", "kind=exact,kind=exact", "kind=top_k,k=2,k=3",
        "bogus",
    ])
    def test_bad_specs(self, bad):
        with pytest.raises(ParseError):
            parse_criterion(bad)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus file plus a briefly trained checkpoint, shared across tests."""
    root = tmp_path_factory.mktemp("cliws")
    corpus_path = root / "corpus.json"
    corpus_path.write_text(json.dumps({
        "kind": "synthetic_pattern", "alphabet": 6, "rule": "repeat",
        "pairs": 32, "min_len": 2, "max_len": 3, "copies": 2, "seed": 4,
    }))
    ckpt = root / "model.ckpt"
    code = cli([
        "train", "--corpus", str(corpus_path), "--steps", "60",
        "--batch-size", "8", "--heads", "2", "--d-model", "16",
        "--d-hidden", "16", "--layers", "1", "--seed", "1", "--out", str(ckpt),
    ])
    assert code == 0
    return {"root": root, "corpus": corpus_path, "ckpt": ckpt}


class TestTrain:
    def test_checkpoint_written_and_loadable(self, workspace, capsys):
        model = load_checkpoint(workspace["ckpt"])
        assert model.config.vocab_size == 8
        assert model.config.num_heads == 2
        capsys.readouterr()

    def test_init_from_continues(self, workspace, tmp_path, capsys):
        out = tmp_path / "cont.ckpt"
        code = cli([
            "train", "--corpus", str(workspace["corpus"]), "--steps", "5",
            "--init-from", str(workspace["ckpt"]), "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert "trained 5 steps" in capsys.readouterr().out
        assert load_checkpoint(out).config == load_checkpoint(workspace["ckpt"]).config


class TestDecode:
    def test_trace_and_stats(self, workspace, capsys):
        code = cli([
            "decode", "--model", str(workspace["ckpt"]), "--tokens", "1,2,3",
            "--block-size", "2", "--max-len", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"^Step 1: \d+ tokens \[", out, re.M)
        assert "output:" in out
        assert re.search(r"\d+ tokens in \d+ iterations, \d+ model invocations", out)

    def test_check_greedy_agrees(self, workspace, capsys):
        code = cli([
            "decode", "--model", str(workspace["ckpt"]), "--tokens", "2,4",
            "--block-size", "2", "--max-len", "8", "--check-greedy",
        ])
        assert code == 0
        assert "matches greedy: True" in capsys.readouterr().out

    def test_synthetic_perfect_full_blocks(self, capsys):
        code = cli([
            "decode", "--synthetic", "perfect_proposals", "--tokens", "1,2",
            "--block-size", "4", "--max-len", "8", "--vocab-size", "16",
            "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Step 1: 4 tokens [" in out
        assert "Step 2: 4 tokens [" in out
        assert "mean block 4.00" in out

    def test_no_trace_and_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "decoded.txt"
        code = cli([
            "decode", "--synthetic", "random_table", "--tokens", "5",
            "--block-size", "2", "--max-len", "4", "--no-trace",
            "--out", str(out_path), "--seed", "0",
        ])
        text = capsys.readouterr().out
        assert code == 0
        assert "Step" not in text
        written = out_path.read_text().strip()
        assert re.fullmatch(r"\d+(,\d+)*", written)

    def test_seed_position_equivalent(self, capsys):
        args = ["decode", "--synthetic", "random_table", "--tokens", "7",
                "--block-size", "2", "--max-len", "6", "--no-trace"]
        outputs = []
        for argv in ([*args, "--seed", "9"], ["--seed", "9", *args]):
            assert cli(argv) == 0
            outputs.append(capsys.readouterr().out.splitlines()[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scheme_runs_its_wrapper(self, scheme, capsys):
        wrapper = {"greedy": greedy_decode, "standard": blockwise_decode,
                   "combined": blockwise_decode_combined}[scheme]
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "3,5",
                    "--block-size", "4", "--max-len", "12", "--seed", "4",
                    "--scheme", scheme, "--no-trace"])
        out = capsys.readouterr().out
        model = make_synthetic_model("random_table", seed=4, vocab_size=16, num_heads=4)
        want = wrapper(model, (3, 5), DecodeConfig(block_size=4, max_len=12))
        assert code == 0
        assert f"output: {','.join(map(str, want.output))}\n" in out
        assert f"{want.model_invocations} model invocations" in out

    def test_env_seed_fallback(self, capsys, monkeypatch):
        args = ["decode", "--synthetic", "random_table", "--tokens", "7",
                "--block-size", "2", "--max-len", "6", "--no-trace"]
        monkeypatch.setenv("BLOCKDEC_SEED", "9")
        assert cli(args) == 0
        from_env = capsys.readouterr().out.splitlines()[0]
        monkeypatch.delenv("BLOCKDEC_SEED")
        assert cli([*args, "--seed", "9"]) == 0
        assert from_env == capsys.readouterr().out.splitlines()[0]


class TestTextRendering:
    def test_decode_prints_bytes_markers_and_text(self, capsys, monkeypatch):
        text = _text_vocab()
        config = ModelConfig(vocab_size=text.size, d_model=8, d_hidden=8, num_heads=2,
                             num_layers=1, max_context=24, sep_token=text.sep_token,
                             eos_token=text.eos_token)
        # an untrained model whose decode of "ab" holds printable and other
        # bytes, a separator and, last, an end token
        model = TinyBlockModel(config, seed=526)
        monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: model)
        code = cli(["decode", "--model", "model.ckpt", "--input", "ab",
                    "--block-size", "2", "--max-len", "20"])
        out = capsys.readouterr().out
        want = greedy_decode(model, tuple(b"ab"),
                             DecodeConfig(block_size=1, max_len=20, eos_token=BYTE_EOS)).output
        assert code == 0
        assert BYTE_SEP in want and want[-1] == BYTE_EOS
        assert any(32 <= t < 127 for t in want) and any(128 <= t < 256 for t in want)
        names = {BYTE_SEP: "<sep>", BYTE_EOS: "<eos>"}
        rendered = [names.get(t) or (chr(t) if 32 <= t < 127 else f"\\x{t:02x}") for t in want]
        traced = re.findall(r"^Step \d+: \d+ tokens \[(.*)\]$", out, re.M)
        assert ", ".join(traced) == ", ".join(rendered)
        decoded = bytes(t for t in want if t < 256).decode("utf-8", errors="replace")
        assert f"output: {decoded}\n" in out


class TestDistill:
    def test_rewrites_targets(self, workspace, tmp_path, capsys):
        out = tmp_path / "distilled.json"
        code = cli([
            "distill", "--teacher", str(workspace["ckpt"]),
            "--corpus", str(workspace["corpus"]), "--max-len", "8",
            "--out", str(out),
        ])
        assert code == 0
        distilled = load_corpus(out)
        original = load_corpus(workspace["corpus"])
        assert distilled.vocab == original.vocab
        assert 0 < len(distilled) <= len(original)
        inputs = {inp for inp, _ in original.pairs}
        assert all(inp in inputs for inp, _ in distilled.pairs)
        capsys.readouterr()

    def test_mismatched_teacher_fails_before_decoding(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "wide.json"
        corpus.write_text(json.dumps({"kind": "synthetic_pattern", "alphabet": 8,
                                      "pairs": 4, "seed": 1}))
        out = tmp_path / "distilled.json"
        code = cli(["distill", "--teacher", str(workspace["ckpt"]), "--corpus", str(corpus),
                    "--out", str(out)])
        assert code == 2
        assert "differs from the corpus's" in capsys.readouterr().err
        assert not out.exists()

    def test_max_len_off_a_fixed_length_corpus_fails_before_decoding(
        self, tmp_path, capsys, monkeypatch
    ):
        corpus = tmp_path / "grid.json"
        corpus.write_text(json.dumps({
            "kind": "intensity_grid", "width": 2, "height": 2,
            "pairs": [[[10, 20], [1, 2, 3, 4]], [[30], [250, 0, 128, 5]]],
        }))
        teacher = make_synthetic_model("random_table", seed=2, vocab_size=257, num_heads=1)
        calls = []
        score_grid = teacher.score_grid
        teacher.score_grid = lambda *args: calls.append(args) or score_grid(*args)
        monkeypatch.setattr(cli_module, "load_checkpoint", lambda path: teacher)
        out = tmp_path / "distilled.json"
        code = cli(["distill", "--teacher", "teacher.ckpt", "--corpus", str(corpus),
                    "--max-len", "3", "--out", str(out)])
        assert code == 2
        assert "max_len 3" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestBench:
    def test_json_report_to_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli([
            "bench", "--synthetic", "random_table", "--corpus", str(workspace["corpus"]),
            "--block-sizes", "1,2", "--criteria", "kind=exact;kind=top_k,k=2",
            "--repeats", "1", "--max-pairs", "4", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 4
        assert doc["meta"]["pairs"] == 4
        assert doc["rows"][0]["scheme"] == "greedy"
        capsys.readouterr()

    def test_markdown_to_stdout(self, workspace, capsys):
        code = cli([
            "--report-format", "markdown",
            "bench", "--model", str(workspace["ckpt"]), "--corpus", str(workspace["corpus"]),
            "--block-sizes", "1,2", "--repeats", "1", "--max-pairs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("### synthetic_pattern")
        assert "| k | criterion |" in out

    def test_mismatched_checkpoint_is_refused(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "wide.json"
        corpus.write_text(json.dumps({"kind": "synthetic_pattern", "alphabet": 8,
                                      "pairs": 4, "seed": 1}))
        code = cli(["bench", "--model", str(workspace["ckpt"]), "--corpus", str(corpus),
                    "--block-sizes", "1,2", "--repeats", "1"])
        assert code == 2
        assert "(8 tokens, separator 6) differs from the corpus's " \
               "(10 tokens, separator 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1.9", "true", '"3"', "null"])
    def test_a_non_integer_token_exits_2(self, tmp_path, capsys, bad):
        corpus = tmp_path / "bad.json"
        corpus.write_text('{"kind": "synthetic_pattern", "alphabet": 4, '
                          f'"pairs": [[[1], [2]], [[{bad}], [3]]]}}')
        code = cli(["bench", "--synthetic", "random_table", "--corpus", str(corpus),
                    "--block-sizes", "1", "--repeats", "1"])
        assert code == 2
        assert f"pair 1 holds {bad}, not an integer" in capsys.readouterr().err

    def test_heads_is_not_an_option(self, workspace, capsys):
        with pytest.raises(SystemExit):
            cli(["bench", "--synthetic", "random_table", "--corpus",
                 str(workspace["corpus"]), "--heads", "8"])
        assert "unrecognized arguments: --heads" in capsys.readouterr().err

    def test_greedy_scheme_is_refused(self, workspace, capsys):
        code = cli(["bench", "--synthetic", "random_table", "--corpus", str(workspace["corpus"]),
                    "--scheme", "greedy"])
        assert code == 2
        assert "'greedy'" in capsys.readouterr().err


class TestErrors:
    def test_missing_corpus_file(self, capsys):
        code = cli(["train", "--corpus", "/nonexistent/c.json", "--steps", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_criterion(self, workspace, capsys):
        code = cli([
            "decode", "--synthetic", "random_table", "--tokens", "1",
            "--criterion", "kind=fuzzy",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_tokens(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "1,x"])
        assert code == 2
        capsys.readouterr()

    def test_negative_tokens(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "1,-2"])
        assert code == 2
        assert "token id -2" in capsys.readouterr().err

    def test_token_outside_the_vocabulary(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "100",
                    "--vocab-size", "16"])
        assert code == 2
        assert "token id 100 in the input" in capsys.readouterr().err

    def test_min_block_is_set_through_the_criterion(self, capsys):
        code = cli(["decode", "--synthetic", "adversarial", "--tokens", "1",
                    "--criterion", "kind=exact,min_block=4", "--max-len", "8"])
        assert code == 0
        assert "8 tokens in 2 iterations" in capsys.readouterr().out

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BLOCKDEC_SEED", "nope")
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "1"])
        assert code == 2
        capsys.readouterr()
