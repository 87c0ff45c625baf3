"""Training loop for the k-head model on a task corpus.

The corpus is composed into padded rows and checked against the model once,
before the first step, so a pair past the model's context, or a head that no
target is long enough to train, fails before any training. Each step draws a
random batch of those rows, draws one head uniformly at random, and takes one
SGD step on that head's sub-loss. The uniform draw keeps the expected step
equal to training on the mean of all head losses at a fraction of the cost.
The run binds the step's batch-sized arrays once (`TinyBlockModel.train_run`),
so each step writes the arrays the last one wrote.
Freezing partitions turns the same loop into head-only fine-tuning on top of
a fixed trunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, check_integers
from ..models.neural import (
    PARTITIONS,
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    check_step_settings,
    train_step,
)
from .corpus import Corpus, training_pairs


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
        check_integers(self, "steps", "batch_size", "seed", "log_every")
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        check_step_settings(self.learning_rate, self.max_grad_norm)
        if not 0.0 <= self.lr_decay <= 1.0:
            raise ConfigurationError("lr_decay must be in [0, 1]")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.log_every < 0:
            raise ConfigurationError("log_every must be >= 0 (0: no log)")
        if all(self.freeze.frozen(partition) for partition in PARTITIONS):
            raise ConfigurationError(
                "freeze leaves no partition to train: every step would change nothing"
            )


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

    The context length is the longest input + SEP + the longest training
    target, rounded up to a multiple of 8. It holds every training pair and
    every decode of a corpus input up to `Corpus.decode_budget()` tokens.
    """
    if max_context is None:
        pairs = training_pairs(corpus)
        longest_input = max(len(inp) for inp, _ in pairs)
        max_context = _round_up(longest_input + 1 + max(len(tgt) for _, tgt in pairs))
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


def train_model(
    corpus: Corpus,
    model_config: Optional[ModelConfig] = None,
    training: TrainingConfig = TrainingConfig(),
    model: Optional[TinyBlockModel] = None,
) -> tuple:
    """Train a model on a corpus; returns (model, per-step loss list).

    Pass `model` to continue training an existing one (for head-only
    fine-tuning combine it with a freeze mask); it keeps its own config, so
    a `model_config` with it is refused. Otherwise a fresh model is built
    from `model_config` or corpus-derived defaults.

    Head h trains on targets of at least h tokens (counting the end token),
    so a corpus whose longest target is shorter than num_heads is refused
    before the first step. A step whose drawn head is longer than every
    target in its batch trains the furthest head the batch can train, its
    longest target's length, instead, and the log names the head trained.
    """
    if model is not None and model_config is not None:
        raise ConfigurationError(
            "a model_config was given with a model to continue training; "
            "that model keeps its own architecture"
        )
    if model is None:
        model = TinyBlockModel(model_config or default_model_config(corpus), seed=training.seed)
    corpus.check_model(model)
    cfg = model.config
    composed = TrainBatch.from_pairs(training_pairs(corpus), cfg)
    longest = int(composed.target_lens.max())
    if longest < cfg.num_heads:
        raise ConfigurationError(
            f"no training positions for head {longest + 1}: the longest target has "
            f"{longest} tokens, counting any end token, and head h needs h"
        )
    rng = np.random.default_rng(training.seed)
    losses = []
    with model.train_run(training.batch_size):
        for step in range(training.steps):
            idx = rng.integers(0, len(composed.ids), size=training.batch_size)
            batch = TrainBatch(
                composed.ids[idx], composed.input_lens[idx], composed.target_lens[idx]
            )
            head = min(int(rng.integers(1, cfg.num_heads + 1)), int(batch.target_lens.max()))
            lr = training.learning_rate * (1.0 - training.lr_decay * step / training.steps)
            loss = train_step(
                model, batch, head, lr,
                freeze=training.freeze, max_grad_norm=training.max_grad_norm,
            )
            losses.append(loss)
            if training.log_every and (
                step % training.log_every == 0 or step == training.steps - 1
            ):
                print(f"step {step:6d}  head {head}  lr {lr:.4f}  loss {loss:.4f}")
    return model, losses
