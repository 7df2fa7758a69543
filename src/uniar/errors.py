"""Exception hierarchy shared across the package.

Two broad failure classes: data that violates a structural contract
(shapes, ranges, file formats) and computations that are numerically
undefined on the given input (zero variance, empty normalization).
The CLI maps these onto distinct exit codes.
"""


class UniarError(Exception):
    """Base class for all package errors."""


class ValidationError(UniarError):
    """Structurally invalid input: bad shape, range, enum value, or file format."""


class ParseError(ValidationError):
    """Malformed text input. Carries 1-based line and column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class NumericError(UniarError):
    """Computation undefined on this input: zero variance, non-normalizable map, or a
    NaN/Inf loss, gradient or model output (the message names the op or parameter)."""
