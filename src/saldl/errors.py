"""Exception types shared across the package.

Each class maps to one failure category so callers (and the CLI) can
distinguish bad parameters from bad data without parsing messages.
"""


class SaldlError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(SaldlError, ValueError):
    """A scalar or config parameter is outside its legal range."""


class InvalidLabelError(SaldlError, ValueError):
    """A label lies outside the label support."""


class InvalidInputError(SaldlError, ValueError):
    """An input array contains non-finite or otherwise unusable values."""


class ShapeError(SaldlError, ValueError):
    """Two arrays that must share a shape or support do not."""


class EmptyInputError(SaldlError, ValueError):
    """An operation that needs at least one sample received none."""


class ParseError(SaldlError, ValueError):
    """A file could not be parsed; names the file, given its ``path``, and
    carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


class StratificationError(SaldlError, ValueError):
    """A stratified split cannot be realized for the given data."""


class TrainingDivergedError(SaldlError, RuntimeError):
    """Training produced a non-finite loss; carries the history so far."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class DegenerateEmbeddingError(SaldlError, ValueError):
    """An embedding has zero norm and no cosine direction."""
