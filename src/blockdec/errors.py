"""Exception types shared across the package, and the integer check every
settings object makes."""

import operator


class BlockdecError(Exception):
    """Base class for all blockdec errors."""


class ModelContractError(BlockdecError):
    """A scoring model violated its interface contract (malformed distributions,
    wrong grid arity, non-finite entries)."""


class ConfigurationError(BlockdecError):
    """Incompatible configuration: block size exceeds model heads, distance
    criterion on a non-intensity vocabulary, invalid criterion parameters."""


def check_integers(settings, *names: str) -> None:
    """Raise ConfigurationError naming the first of the fields `names` of
    `settings` that is not None, an integer or a tuple of integers.
    operator.index decides, as for token ids: it refuses what int() would
    truncate or parse (2.5, 2.0, "3"), which a model call would otherwise
    round or fail on."""
    for name in names:
        value = getattr(settings, name)
        for item in value if isinstance(value, tuple) else (value,):
            if item is not None:
                try:
                    operator.index(item)
                except TypeError:
                    raise ConfigurationError(f"{name} must be an integer, not {item!r}") from None


class LengthError(BlockdecError):
    """A composed sequence exceeds the model's context window."""


class NumericError(BlockdecError):
    """A training step produced a non-finite loss; parameters were left unchanged."""


class CheckpointFormatError(BlockdecError):
    """Checkpoint file is corrupt, truncated, or has an unsupported version."""


class CorpusError(BlockdecError):
    """Base class for corpus loading problems."""


class ParseError(CorpusError):
    """Malformed corpus file content; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
