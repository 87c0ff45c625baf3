"""Scoring models: synthetic table models for engine tests, a trainable
numpy k-head model, and checkpoint IO."""

from .base import ScoringModel, TableBackedModel
from .synthetic import SYNTHETIC_KINDS, make_synthetic_model
from .neural import (
    FreezeMask,
    ModelConfig,
    TinyBlockModel,
    TrainBatch,
    loss_and_gradients,
    sub_loss,
    train_step,
)
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "ScoringModel",
    "TableBackedModel",
    "SYNTHETIC_KINDS",
    "make_synthetic_model",
    "FreezeMask",
    "ModelConfig",
    "TinyBlockModel",
    "TrainBatch",
    "loss_and_gradients",
    "sub_loss",
    "train_step",
    "load_checkpoint",
    "save_checkpoint",
]
