"""Exception types, each mapped to a CLI exit code."""


class CantordynError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class StructureError(CantordynError):
    """Invalid mathematical object, mismatched operands, or violated precondition."""

    exit_code = 2


class ParseError(StructureError):
    """Config text could not be parsed; carries its line when known."""

    exit_code = 2

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceLimitError(CantordynError):
    """A cap of `limits` (coset index, class count, cells) was exceeded."""

    exit_code = 3


class InvariantViolation(CantordynError):
    """An internal law failed to hold; indicates a mis-specified action or a bug."""

    exit_code = 4
