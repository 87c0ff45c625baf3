"""Exception types shared across the package."""


class BlockdecError(Exception):
    """Base class for all blockdec errors."""


class ModelContractError(BlockdecError):
    """A scoring model violated its interface contract (malformed distributions,
    wrong grid arity, non-finite entries)."""


class ConfigurationError(BlockdecError):
    """Incompatible configuration: block size exceeds model heads, distance
    criterion on a non-intensity vocabulary, invalid criterion parameters."""


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
