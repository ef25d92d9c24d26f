"""Exception types shared across the engine."""


def quoted(text: str) -> str:
    """User input for a one-line error message: repr'd, cut to 60 characters."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


class GroupError(Exception):
    """Base class for all engine errors."""


class MalformedPermutationError(GroupError):
    """Image array is not a bijection of {0, ..., n-1}."""


class DegreeMismatchError(GroupError):
    """Operands act on point sets of different sizes."""


class SizeLimitError(GroupError):
    """A construction would exceed the configured element cap.

    Carries the order the construction would have needed, so callers can
    report exactly how far out of reach the object is.
    """

    def __init__(self, message, required_order=None):
        super().__init__(message)
        self.required_order = required_order


class NotNormalError(GroupError):
    """Operation requires a normal subgroup."""


class NotPrimeError(GroupError):
    """Argument must be a prime number."""


class PreconditionError(GroupError):
    """A documented hypothesis of the operation is violated."""


class AutBudgetError(GroupError):
    """Automorphism group computation refused: over the configured budget."""


class CatalogError(GroupError):
    """Catalog file is unreadable or malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ConfigError(GroupError):
    """A GASCHUETZ_* environment value is not a positive number."""


class UnknownNameError(GroupError):
    """A group name could not be resolved to a constructor or catalog entry."""
