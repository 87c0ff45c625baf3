"""CLI: criterion grammar, option placement, and the four subcommands
exercised end to end on a tiny corpus."""

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import blockdec

from blockdec.criteria import EXACT, AcceptanceCriterion
from blockdec.engine import (
    SCHEMES, DecodeConfig, blockwise_decode, blockwise_decode_combined, greedy_decode,
)
from blockdec.errors import ParseError
from blockdec.harness import cli as cli_module
from blockdec.harness.bench import BenchConfig, BenchReport
from blockdec.harness.cli import cli, parse_criterion
from blockdec.harness.corpus import BYTE_EOS, BYTE_SEP, _text_vocab, load_corpus
from blockdec.harness.training import TrainingConfig
from blockdec.models.checkpoint import load_checkpoint
from blockdec.models.neural import FreezeMask, ModelConfig, TinyBlockModel
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

    @pytest.mark.parametrize("flag, value", [
        ("--heads", "8"), ("--d-model", "64"), ("--d-hidden", "64"), ("--layers", "3"),
        ("--max-context", "96"),
    ])
    def test_an_architecture_flag_with_init_from_exits_2(self, workspace, tmp_path, capsys,
                                                         flag, value):
        out = tmp_path / "cont.ckpt"
        code = cli(["train", "--corpus", str(workspace["corpus"]), "--steps", "5",
                    "--init-from", str(workspace["ckpt"]), flag, value, "--out", str(out)])
        assert code == 2
        assert "keeps its own architecture" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--seed", "seed must be >= 0"), ("--log-every", "log_every must be >= 0"),
    ])
    def test_a_negative_seed_or_log_every_exits_2(self, workspace, tmp_path, capsys,
                                                  flag, message):
        out = tmp_path / "model.ckpt"
        code = cli(["train", "--corpus", str(workspace["corpus"]), "--steps", "2",
                    flag, "-1", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def spy(monkeypatch, name, returns=None):
    """Replace `cli_module.<name>` with a recorder of its bound arguments; it
    calls through to the real function unless `returns` is given."""
    real = getattr(cli_module, name)
    calls = []

    def record(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs) if returns is None else returns
    monkeypatch.setattr(cli_module, name, record)
    return calls


class TestTheLibraryOwnsEveryDefault:
    """A command given no optional flags hands the library its own default
    configs, so no parser default can drift from the library's."""

    def test_train(self, workspace, tmp_path, monkeypatch, capsys):
        calls = spy(monkeypatch, "train_model",
                    returns=(load_checkpoint(workspace["ckpt"]), [1.0]))
        out = str(tmp_path / "model.ckpt")
        assert cli(["train", "--corpus", str(workspace["corpus"]), "--seed", "7",
                    "--out", out]) == 0
        assert cli(["train", "--corpus", str(workspace["corpus"]), "--seed", "7",
                    "--steps", "5", "--freeze", "base", "--out", out]) == 0
        defaults, given = calls
        assert defaults["training"] == TrainingConfig(seed=7)
        assert defaults.get("model_config") is None and defaults.get("model") is None
        assert given["training"] == TrainingConfig(seed=7, steps=5, freeze=FreezeMask(base=True))
        capsys.readouterr()

    def test_bench(self, workspace, monkeypatch, capsys):
        report = BenchReport(task="t", quality_metric="q", rows=({"k": 1},))
        calls = spy(monkeypatch, "run_bench", returns=report)
        assert cli(["bench", "--synthetic", "random_table",
                    "--corpus", str(workspace["corpus"])]) == 0
        (call,) = calls
        assert call["bench"] == BenchConfig()
        assert call["model"].num_heads == max(BenchConfig().block_sizes)
        assert json.loads(capsys.readouterr().out)["rows"] == [{"k": 1}]

    def test_decode(self, monkeypatch, capsys):
        calls = spy(monkeypatch, "decode")
        assert cli(["decode", "--synthetic", "random_table", "--tokens", "3", "--seed", "0"]) == 0
        (call,) = calls
        assert call["config"] == DecodeConfig(block_size=4, max_len=32)
        assert call["config"].criterion == EXACT
        assert call["scheme"] == "combined"
        library = make_synthetic_model("random_table", seed=0, num_heads=4)
        assert call["model"].vocab_size == library.vocab_size
        capsys.readouterr()


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


    def test_a_synthetic_model_over_the_byte_vocabulary_renders_text(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "1,2",
                    "--vocab-size", "258", "--block-size", "2", "--max-len", "12",
                    "--seed", "0"])
        out = capsys.readouterr().out
        model = make_synthetic_model("random_table", seed=0, vocab_size=258, num_heads=2)
        want = greedy_decode(model, (1, 2), DecodeConfig(block_size=1, max_len=12)).output
        assert code == 0
        assert any(32 <= t < 127 for t in want) and any(t >= 128 for t in want)
        rendered = [chr(t) if 32 <= t < 127 else f"\\x{t:02x}" for t in want]
        traced = re.findall(r"^Step \d+: \d+ tokens \[(.*)\]$", out, re.M)
        assert ", ".join(traced) == ", ".join(rendered)
        decoded = bytes(want).decode("utf-8", errors="replace")
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
            "bench", "--model", str(workspace["ckpt"]), "--corpus", str(workspace["corpus"]),
            "--block-sizes", "1,2", "--repeats", "1", "--max-pairs", "2",
            "--report-format", "markdown",
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

    def test_a_non_integer_generator_field_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "bad.json"
        corpus.write_text('{"kind": "synthetic_pattern", "alphabet": 4, "pairs": 3, '
                          '"min_len": "2"}')
        code = cli(["bench", "--synthetic", "random_table", "--corpus", str(corpus),
                    "--block-sizes", "1", "--repeats", "1"])
        assert code == 2
        assert "error: 'min_len' must be an integer, got \"2\"" in capsys.readouterr().err

    def test_max_pairs_0_exits_2(self, workspace, capsys):
        code = cli(["bench", "--synthetic", "random_table", "--corpus", str(workspace["corpus"]),
                    "--block-sizes", "1", "--repeats", "1", "--max-pairs", "0"])
        assert code == 2
        assert "max_pairs must be >= 1" in capsys.readouterr().err

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

    def test_vocab_size_with_a_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "decoded.txt"
        code = cli(["decode", "--model", str(workspace["ckpt"]), "--tokens", "1",
                    "--vocab-size", "16", "--out", str(out)])
        assert code == 2
        assert "--vocab-size sizes a --synthetic model" in capsys.readouterr().err
        assert not out.exists()

    def test_token_outside_the_vocabulary(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "100",
                    "--vocab-size", "16"])
        assert code == 2
        assert "token id 100 in the input" in capsys.readouterr().err

    def test_block_size_0_on_a_synthetic_model_names_the_block_size(self, capsys):
        code = cli(["decode", "--synthetic", "random_table", "--tokens", "1",
                    "--block-size", "0"])
        assert code == 2
        assert "block_size must be >= 1" in capsys.readouterr().err

    def test_min_block_is_set_through_the_criterion(self, capsys):
        code = cli(["decode", "--synthetic", "adversarial", "--tokens", "1",
                    "--criterion", "kind=exact,min_block=4", "--max-len", "8"])
        assert code == 0
        assert "8 tokens in 2 iterations" in capsys.readouterr().out

def options(parser) -> set:
    return {o for action in parser._actions for o in action.option_strings}


class TestEachOptionLivesWhereItIsRead:
    """An option is declared only on the subcommands that read it, so one
    given anywhere else exits 2 in argparse before any work."""

    def test_where_each_option_is_declared(self):
        parser = cli_module.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert options(parser) == {"-h", "--help", "--version"}
        declared = {name: options(command) for name, command in sub.choices.items()}
        assert set(declared) == {"train", "distill", "decode", "bench"}
        assert {n for n, opts in declared.items() if "--out" in opts} == set(declared)
        assert {n for n, opts in declared.items() if "--report-format" in opts} == {"bench"}
        assert {n for n, opts in declared.items() if "--seed" in opts} == {
            "train", "decode", "bench"}

    @staticmethod
    def argv(command, workspace, out):
        corpus, ckpt = str(workspace["corpus"]), str(workspace["ckpt"])
        return {
            "train": ["train", "--corpus", corpus, "--steps", "2"],
            "distill": ["distill", "--teacher", ckpt, "--corpus", corpus],
            "decode": ["decode", "--model", ckpt, "--tokens", "1", "--block-size", "2",
                       "--max-len", "8"],
            "bench": ["bench", "--model", ckpt, "--corpus", corpus, "--block-sizes", "1",
                      "--repeats", "1"],
        }[command] + ["--out", str(out)]

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--report-format", "csv"]),
        ("distill", ["--report-format", "csv"]),
        ("decode", ["--report-format", "csv"]),
        ("distill", ["--seed", "3"]),
    ], ids=["train-report_format", "distill-report_format", "decode-report_format",
            "distill-seed"])
    def test_an_option_the_command_does_not_read_exits_2(self, workspace, tmp_path, capsys,
                                                         command, extra):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli([*self.argv(command, workspace, out), *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(extra)}" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--seed", "3"]), ("bench", ["--report-format", "csv"]),
    ], ids=["train-seed", "bench-report_format"])
    def test_an_option_before_the_subcommand_exits_2(self, workspace, tmp_path, capsys,
                                                      command, extra):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli([*extra, *self.argv(command, workspace, out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["decode", "bench"])
    def test_seed_with_a_checkpoint_exits_2_before_it_loads(self, workspace, tmp_path, capsys,
                                                            monkeypatch, command):
        loads = spy(monkeypatch, "load_checkpoint")
        out = tmp_path / "out"
        assert cli([*self.argv(command, workspace, out), "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert "--seed seeds a --synthetic model; a checkpoint has its own weights" \
            in captured.err
        assert loads == []
        assert captured.out == "" and not out.exists()


class TestTheModuleEntryPoint:
    """`python -m blockdec` exits 2 both for an option argparse refuses
    (in process, `cli` raises SystemExit) and for a ConfigurationError (in
    process, `cli` returns 2)."""

    @staticmethod
    def run(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(blockdec.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "blockdec", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_an_option_argparse_refuses(self, workspace):
        done = self.run("distill", "--teacher", str(workspace["ckpt"]),
                        "--corpus", str(workspace["corpus"]), "--seed", "3")
        assert done.returncode == 2
        assert "unrecognized arguments: --seed 3" in done.stderr
        assert done.stdout == ""

    def test_a_configuration_error(self, workspace):
        done = self.run("decode", "--model", str(workspace["ckpt"]), "--tokens", "1",
                        "--seed", "3")
        assert done.returncode == 2
        assert "error: --seed seeds a --synthetic model" in done.stderr
        assert done.stdout == ""
