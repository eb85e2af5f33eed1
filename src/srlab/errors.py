"""Exception types shared across the package."""

from __future__ import annotations


class SrlabError(Exception):
    """Base class for all package-specific errors."""


class RadicandMismatchError(SrlabError):
    """Raised when exact scalars over different radicands are combined."""


class InsufficientPrecisionError(SrlabError):
    """Raised when a truncated series cannot certify the requested fact."""


class DivisionByZeroError(SrlabError, ZeroDivisionError):
    """Raised on division by an exactly-zero element."""


class ParseError(SrlabError):
    """Raised on malformed literals, with the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ConfigError(SrlabError):
    """Raised on invalid run or field configuration."""


class UnresolvedRecipeError(SrlabError):
    """Raised when a word is needed but the recipe search found no unique recipe."""


class UnsupportedAngleError(SrlabError):
    """Raised when a commutator is requested for an angle the case lacks."""


class ResourceBoundError(SrlabError):
    """Raised when an enumeration or expansion exceeds its configured bound."""
