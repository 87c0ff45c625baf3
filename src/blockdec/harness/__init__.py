"""Task corpora, training loop, corpus decoding (benchmark runner and
teacher distillation), reports, and the CLI."""

from .corpus import (
    Corpus,
    Vocab,
    exact_match,
    load_corpus,
    make_pattern_corpus,
    mean_absolute_error,
    save_corpus,
    strip_eos,
    token_accuracy,
)
from .training import TrainingConfig, default_model_config, train_model
from .bench import BenchConfig, distill_corpus, run_bench
from .report import emit_report

__all__ = [
    "Corpus",
    "Vocab",
    "exact_match",
    "load_corpus",
    "make_pattern_corpus",
    "mean_absolute_error",
    "save_corpus",
    "strip_eos",
    "token_accuracy",
    "TrainingConfig",
    "default_model_config",
    "train_model",
    "BenchConfig",
    "run_bench",
    "distill_corpus",
    "emit_report",
]
