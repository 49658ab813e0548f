"""The toolkit's three error classes, one per command-line exit code.

The class is the exit code: `cli` maps an `L2SError` to 1, a
`DataFormatError` to 2 and a `CheckFailed` to 3. A raise site says what
went wrong in its message, not in a class of its own.
"""


class L2SError(Exception):
    """Bad input, configuration or use: exit code 1."""


class DataFormatError(L2SError):
    """A data file failed to parse; carries a line number when known.
    Exit code 2."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckFailed(L2SError):
    """An exact check found the property it verifies false: exit code 3.
    The message is the check's name, a colon and what it found."""
