"""Exception types shared across the toolkit."""


class SawkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SawkitError, ValueError):
    """A domain object or argument violates one of its invariants.

    ``row`` is the 0-based index of the first offending data row when the
    invariant is one each row must keep, such as finite values or a strictly
    increasing axis, and None otherwise.  ``field`` names the one scalar
    field whose value breaks the invariant, such as a temperature read from
    a metadata line, and is None otherwise.
    """

    def __init__(self, message, row=None, field=None):
        super().__init__(message)
        self.row = row
        self.field = field


class ParseError(SawkitError, ValueError):
    """Malformed input text. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(SawkitError, RuntimeError):
    """A fit could not be set up, did not converge, or hit a physical bound."""
