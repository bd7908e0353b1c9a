"""Exception types shared across the package."""

__all__ = ["PatternFormatError", "GuardLimitError", "ZeroTermRankError"]


class PatternFormatError(ValueError):
    """Raised when pattern or state-space text violates the file grammar.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class GuardLimitError(ValueError):
    """Raised when an exhaustive/combinatorial routine is asked to exceed its size guard."""


class ZeroTermRankError(ValueError):
    """Raised when a pattern has no entries at all; no verdict is defined for it."""
