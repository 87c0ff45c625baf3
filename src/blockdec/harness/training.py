"""Training loop for the k-head model on a task corpus.

Each step draws a random batch, draws one head uniformly at random, and
takes one SGD step on that head's sub-loss. The uniform draw keeps the
expected step equal to training on the mean of all head losses at a
fraction of the cost. Freezing partitions turns the same loop into
head-only fine-tuning on top of a fixed trunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..models.neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    train_step,
)
from .corpus import Corpus


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for train_model.

    The learning rate decays linearly from learning_rate to
    learning_rate * (1 - lr_decay) over the run.
    """

    steps: int = 8000
    batch_size: int = 16
    learning_rate: float = 0.3
    lr_decay: float = 0.9
    max_grad_norm: Optional[float] = 1.0
    seed: int = 0
    freeze: FreezeMask = FreezeMask()
    log_every: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= self.lr_decay <= 1.0:
            raise ConfigurationError("lr_decay must be in [0, 1]")


def _round_up(value: int, multiple: int = 8) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def default_model_config(
    corpus: Corpus,
    num_heads: int = 4,
    d_model: int = 64,
    d_hidden: int = 64,
    num_layers: int = 2,
    max_context: Optional[int] = None,
) -> ModelConfig:
    """Model settings sized to a corpus.

    The context length covers the longest composed sequence in the corpus,
    which also covers decoding up to the corpus's own target lengths.
    """
    if max_context is None:
        max_context = _round_up(corpus.max_composed_len())
    return ModelConfig(
        vocab_size=corpus.vocab.size,
        d_model=d_model,
        d_hidden=d_hidden,
        num_heads=num_heads,
        num_layers=num_layers,
        max_context=max_context,
        sep_token=corpus.vocab.sep_token,
        eos_token=corpus.vocab.eos_token,
        intensity_vocab=corpus.vocab.intensity,
    )


def training_pairs(corpus: Corpus) -> list:
    """Corpus pairs with the end token appended to each target, when the
    vocabulary has one."""
    eos = corpus.vocab.eos_token
    if eos is None:
        return list(corpus.pairs)
    return [(inp, tgt + (eos,)) for inp, tgt in corpus.pairs]


def train_model(
    corpus: Corpus,
    model_config: Optional[ModelConfig] = None,
    training: TrainingConfig = TrainingConfig(),
    model: Optional[TinyBlockModel] = None,
) -> tuple:
    """Train a model on a corpus; returns (model, per-step loss list).

    Pass `model` to continue training an existing one (for head-only
    fine-tuning combine it with a freeze mask); otherwise a fresh model is
    built from `model_config` or corpus-derived defaults.
    """
    if model is None:
        if model_config is None:
            model_config = default_model_config(corpus)
        model = TinyBlockModel(model_config, seed=training.seed)
    corpus.check_model(model)
    cfg = model.config
    pairs = training_pairs(corpus)
    rng = np.random.default_rng(training.seed)
    losses = []
    for step in range(training.steps):
        idx = rng.integers(0, len(pairs), size=training.batch_size)
        batch = TrainBatch.from_pairs([pairs[i] for i in idx], cfg)
        head = int(rng.integers(1, cfg.num_heads + 1))
        lr = training.learning_rate * (1.0 - training.lr_decay * step / training.steps)
        loss = train_step(
            model, batch, head, lr,
            freeze=training.freeze, max_grad_norm=training.max_grad_norm,
        )
        losses.append(loss)
        if training.log_every and (step % training.log_every == 0 or step == training.steps - 1):
            print(f"step {step:6d}  head {head}  lr {lr:.4f}  loss {loss:.4f}")
    return model, losses
