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
    """Malformed input file. Carries the file's ``path`` and the 1-based
    ``line`` and ``column`` when known, and prints as `PATH: line L,
    column C: message` with the unknown parts left out."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.path = None  # data.reads_file sets it to the file being parsed

    def __str__(self):
        line = None if self.line is None else f"line {self.line}" + (
            "" if self.column is None else f", column {self.column}")
        return ": ".join(str(p) for p in (self.path, line, self.args[0]) if p is not None)


class NumericError(UniarError):
    """Computation undefined on this input: zero variance, non-normalizable map, or a
    NaN/Inf loss, gradient or model output (the message names the op or parameter)."""
