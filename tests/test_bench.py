"""Benchmark runner: row contents, baseline semantics, determinism."""

import math

import pytest

from blockdec.criteria import EXACT, top_k
from blockdec.engine import DecodeConfig, blockwise_decode_combined, greedy_decode
from blockdec.errors import ConfigurationError
from blockdec.harness.bench import BenchConfig, BenchReport, run_bench
from blockdec.harness.corpus import Corpus, Vocab, make_pattern_corpus
from blockdec.models.synthetic import make_synthetic_model

ROW_KEYS = (
    "k", "criterion", "mean_accepted_block_size", "iterations_total",
    "invocations_total", "wall_clock_speedup_vs_greedy", "greedy_match_rate",
    "task_quality_metric", "exact_match_rate", "wall_clock_ns_total",
    "baseline_wall_clock_ns", "scheme",
)
WALL_CLOCK_KEYS = (
    "wall_clock_speedup_vs_greedy", "wall_clock_ns_total", "baseline_wall_clock_ns",
)


def pattern_corpus(n=6):
    return make_pattern_corpus("repeat", alphabet=10, n_pairs=n, min_len=2,
                               max_len=4, copies=2, seed=11)


def intensity_corpus(n=4, m=8):
    pairs = tuple(
        (tuple(range(i + 1)), tuple((7 * i + 13 * j) % 256 for j in range(m)))
        for i in range(n)
    )
    return Corpus(
        kind="intensity_grid",
        vocab=Vocab(size=257, sep_token=256, eos_token=None, intensity=True),
        pairs=pairs,
        fixed_target_len=m,
        meta={"width": m, "height": 1},
    )


def stable_rows(report):
    return [{k: v for k, v in row.items() if k not in WALL_CLOCK_KEYS}
            for row in report.rows]


class TestReportShape:
    def test_row_keys_and_grid(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=12, num_heads=4)
        corpus = pattern_corpus()
        report = run_bench(model, corpus, BenchConfig(
            block_sizes=(1, 4), criteria=(EXACT, top_k(2)), repeats=1))
        assert isinstance(report, BenchReport)
        assert len(report.rows) == 4
        assert all(tuple(row.keys()) == ROW_KEYS for row in report.rows)
        assert [(r["k"], r["criterion"]) for r in report.rows] == [
            (1, "kind=exact"), (1, "kind=top_k,k=2"),
            (4, "kind=exact"), (4, "kind=top_k,k=2"),
        ]
        assert report.task == "synthetic_pattern"
        assert report.quality_metric == "token_accuracy"
        assert report.meta["pairs"] == len(corpus)
        assert report.meta["vocab_size"] == 12

    def test_baseline_row_is_greedy(self):
        model = make_synthetic_model("random_table", seed=1, vocab_size=12, num_heads=4)
        report = run_bench(model, pattern_corpus(), BenchConfig(
            block_sizes=(1, 2), repeats=1))
        base = report.rows[0]
        assert base["k"] == 1 and base["criterion"] == "kind=exact"
        assert base["scheme"] == "greedy"
        assert base["wall_clock_speedup_vs_greedy"] == 1.0
        assert base["greedy_match_rate"] == 1.0
        assert base["mean_accepted_block_size"] == 1.0
        # greedy scores one block per emitted token
        assert base["invocations_total"] == base["iterations_total"]
        assert report.rows[1]["scheme"] == "combined"

    def test_max_pairs(self):
        model = make_synthetic_model("random_table", seed=1, vocab_size=12, num_heads=2)
        report = run_bench(model, pattern_corpus(6), BenchConfig(
            block_sizes=(1,), repeats=1, max_pairs=2))
        assert report.meta["pairs"] == 2


class TestWarmUpAndEnvironment:
    def test_meta_records_the_environment(self):
        model = make_synthetic_model("random_table", seed=0, vocab_size=12, num_heads=2)
        meta = run_bench(model, pattern_corpus(2), BenchConfig(
            block_sizes=(1,), repeats=1)).meta
        assert isinstance(meta["numpy"], str) and isinstance(meta["blas"], str)
        assert set(meta["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert meta["cpu_count"] is None or meta["cpu_count"] >= 1

    def test_warm_up_leaves_row_totals_unchanged(self):
        model = make_synthetic_model("random_table", seed=4, vocab_size=12, num_heads=4)
        corpus = pattern_corpus(4)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 4), repeats=2))
        max_len = report.meta["max_len"]
        eos = corpus.vocab.eos_token
        for row, decode, k in ((report.rows[0], greedy_decode, 1),
                               (report.rows[1], blockwise_decode_combined, 4)):
            config = DecodeConfig(block_size=k, max_len=max_len, eos_token=eos)
            results = [decode(model, inp, config) for inp, _ in corpus.pairs]
            assert row["iterations_total"] == sum(r.iterations for r in results)
            assert row["invocations_total"] == sum(r.model_invocations for r in results)


class TestExactSemantics:
    def test_exact_rows_match_greedy_everywhere(self):
        model = make_synthetic_model("random_table", seed=3, vocab_size=12, num_heads=8)
        report = run_bench(model, pattern_corpus(), BenchConfig(
            block_sizes=(1, 2, 4, 8), repeats=1))
        for row in report.rows:
            assert row["greedy_match_rate"] == 1.0

    def test_perfect_model_invocation_arithmetic(self):
        corpus = intensity_corpus(n=4, m=8)
        model = make_synthetic_model("perfect_proposals", seed=7, vocab_size=257,
                                     num_heads=4)
        for scheme, extra in (("combined", 1), ("standard", 2)):
            report = run_bench(model, corpus, BenchConfig(
                block_sizes=(4,), repeats=1, scheme=scheme))
            row = report.rows[0]
            iters_per_pair = math.ceil(8 / 4)
            assert row["iterations_total"] == 4 * iters_per_pair
            if scheme == "combined":
                assert row["invocations_total"] == 4 * (iters_per_pair + 1)
            else:
                assert row["invocations_total"] == 4 * iters_per_pair * extra
            assert row["mean_accepted_block_size"] == 4.0
            assert row["greedy_match_rate"] == 1.0

    def test_adversarial_model_single_steps(self):
        corpus = intensity_corpus(n=2, m=6)
        model = make_synthetic_model("adversarial", seed=7, vocab_size=257, num_heads=4)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(4,), repeats=1))
        assert report.rows[0]["mean_accepted_block_size"] == 1.0
        assert report.rows[0]["greedy_match_rate"] == 1.0

    def test_perfect_model_block_size_ladder(self):
        corpus = intensity_corpus(n=2, m=12)
        model = make_synthetic_model("perfect_proposals", seed=3, vocab_size=257,
                                     num_heads=4)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 2, 4), repeats=1))
        assert [r["mean_accepted_block_size"] for r in report.rows] == [1.0, 2.0, 4.0]
        iters = [r["iterations_total"] for r in report.rows]
        assert iters == sorted(iters, reverse=True)

    def test_block_size_times_iterations_is_token_total(self):
        corpus = pattern_corpus(5)
        model = make_synthetic_model("random_table", seed=2, vocab_size=12, num_heads=4)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 2, 4), repeats=1))
        tokens = {round(r["mean_accepted_block_size"] * r["iterations_total"])
                  for r in report.rows}
        assert len(tokens) == 1  # every config decodes the same greedy output


class TestIntensityMetric:
    def test_mae_metric_reported(self):
        corpus = intensity_corpus(n=3, m=4)
        model = make_synthetic_model("random_table", seed=5, vocab_size=257, num_heads=2)
        report = run_bench(model, corpus, BenchConfig(block_sizes=(1, 2), repeats=1))
        assert report.quality_metric == "mean_absolute_error"
        assert report.task == "intensity_grid"
        assert report.meta["max_len"] == 4
        for row in report.rows:
            assert row["task_quality_metric"] >= 0.0
            assert math.isfinite(row["task_quality_metric"])


class TestDeterminism:
    def test_rows_reproducible_modulo_wall_clock(self):
        corpus = pattern_corpus(4)
        reports = []
        for _ in range(2):
            model = make_synthetic_model("random_table", seed=9, vocab_size=12,
                                         num_heads=4)
            reports.append(run_bench(model, corpus, BenchConfig(
                block_sizes=(1, 2, 4), criteria=(EXACT, top_k(3)), repeats=2)))
        assert stable_rows(reports[0]) == stable_rows(reports[1])
        assert reports[0].meta == reports[1].meta


class TestDecodeErrors:
    def test_failures_carry_the_pair_index(self):
        from blockdec.errors import LengthError
        from blockdec.models.neural import ModelConfig, TinyBlockModel

        model = TinyBlockModel(ModelConfig(
            vocab_size=6, d_model=4, d_hidden=4, num_heads=2, num_layers=1,
            max_context=8, sep_token=4, eos_token=5))
        corpus = Corpus(kind="synthetic_pattern", vocab=Vocab(size=6, sep_token=4,
                                                              eos_token=5),
                        pairs=(((0,), (1,)), ((0,) * 7, (1,))))
        with pytest.raises(LengthError, match="pair 1"):
            run_bench(model, corpus, BenchConfig(block_sizes=(1,), repeats=1))


def counted(model):
    """`model` with its score_grid calls counted in `.calls`."""
    model.calls = 0
    score_grid = model.score_grid

    def spy(*args):
        model.calls += 1
        return score_grid(*args)

    model.score_grid = spy
    return model


class TestVocabularyMatch:
    """run_bench refuses a model of another vocabulary before any decode."""

    def test_mismatched_checkpoint_is_rejected_before_scoring(self):
        from blockdec.models.neural import ModelConfig, TinyBlockModel

        model = counted(TinyBlockModel(ModelConfig(
            vocab_size=10, d_model=4, d_hidden=4, num_heads=2, num_layers=1,
            max_context=16, sep_token=8, eos_token=9)))
        corpus = make_pattern_corpus("repeat", alphabet=6, n_pairs=4, min_len=2,
                                     max_len=3, seed=0)
        with pytest.raises(ConfigurationError,
                           match=r"model vocabulary \(10 tokens, separator 8\) differs "
                                 r"from the corpus's \(8 tokens, separator 6\)"):
            run_bench(model, corpus, BenchConfig(block_sizes=(1, 2), repeats=1))
        assert model.calls == 0

    def test_separator_counts_for_a_checkpoint(self):
        from blockdec.models.neural import ModelConfig, TinyBlockModel

        model = counted(TinyBlockModel(ModelConfig(
            vocab_size=8, d_model=4, d_hidden=4, num_heads=2, num_layers=1,
            max_context=16, sep_token=7, eos_token=6)))
        corpus = make_pattern_corpus("repeat", alphabet=6, n_pairs=4, min_len=2,
                                     max_len=3, seed=0)
        with pytest.raises(ConfigurationError, match="separator 7"):
            run_bench(model, corpus, BenchConfig(block_sizes=(1,), repeats=1))
        assert model.calls == 0

    def test_table_model_of_another_size_is_rejected(self):
        model = counted(make_synthetic_model("random_table", seed=0, vocab_size=16,
                                             num_heads=2))
        with pytest.raises(ConfigurationError,
                           match=r"\(16 tokens, separator None\) .* \(12 tokens"):
            run_bench(model, pattern_corpus(2), BenchConfig(block_sizes=(1,), repeats=1))
        assert model.calls == 0


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BenchConfig(block_sizes=())
        with pytest.raises(ConfigurationError):
            BenchConfig(block_sizes=(0,))
        with pytest.raises(ConfigurationError):
            BenchConfig(criteria=())
        with pytest.raises(ConfigurationError):
            BenchConfig(repeats=0)
        with pytest.raises(ConfigurationError):
            BenchConfig(scheme="turbo")
