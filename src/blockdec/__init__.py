"""Blockwise parallel decoding for autoregressive sequence models."""

from .criteria import AcceptanceCriterion, EXACT, accepts, apply_min_block
from .engine import (
    BlockScores,
    DecodeConfig,
    DecodeResult,
    DecodeState,
    blockwise_decode,
    blockwise_decode_combined,
    greedy_decode,
    verify_block,
)
from . import errors

__version__ = "0.1.0"

from . import models, harness  # noqa: E402  (need engine types defined first)

__all__ = [
    "AcceptanceCriterion",
    "EXACT",
    "accepts",
    "apply_min_block",
    "BlockScores",
    "DecodeConfig",
    "DecodeResult",
    "DecodeState",
    "blockwise_decode",
    "blockwise_decode_combined",
    "greedy_decode",
    "verify_block",
    "errors",
    "models",
    "harness",
    "__version__",
]
