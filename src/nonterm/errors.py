"""Exception types shared across the package, and the deadline check.

Every limit of an analysis stops work by raising one of them, and
``analyze`` alone decides what each ends: an ``ExhaustedError`` ends one
technique, a ``DeadlineError`` every technique still running, and any
other ``ResourceLimitError`` the whole analysis.
"""

import time


class NontermError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPositionError(NontermError):
    """A position does not exist in the term it was applied to."""


class HoleMismatchError(NontermError):
    """A context was plugged in a way that leaves or mismatches holes."""


class ResourceLimitError(NontermError):
    """A configured size / count / time budget was exceeded."""


class ExhaustedError(ResourceLimitError):
    """A search took more than ``detection.NODE_CAP`` steps."""


class DeadlineError(NontermError):
    """The analysis ran past its deadline, in its unfolding or a search."""


class UnrollError(NontermError):
    """A loop witness's rule word did not re-apply inside its embedding."""


class ParseError(NontermError):
    """Concrete-syntax error; carries line/column information."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


def check_deadline(deadline, what: str) -> None:
    """Raise ``DeadlineError`` once ``deadline``, a ``time.monotonic()``
    reading, has passed; None is no deadline.  ``what`` names the work
    that passed it."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineError(f"{what} passed its deadline")
