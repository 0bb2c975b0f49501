"""Exception types shared across the package."""


class NontermError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPositionError(NontermError):
    """A position does not exist in the term it was applied to."""


class HoleMismatchError(NontermError):
    """A context was plugged in a way that leaves or mismatches holes."""


class ResourceLimitError(NontermError):
    """A configured size / count / time budget was exceeded."""


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
