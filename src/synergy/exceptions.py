"""Semantic exception hierarchy shared across the package."""


class SynergyError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SynergyError):
    """Vectors that must share a dimension do not."""


class InvalidCoalitionError(SynergyError):
    """A coalition references feature indices outside 1..n."""


class CapExceededError(SynergyError):
    """A size/scale cap was exceeded (table width, degree, oracle scale, ...)."""


class NonFiniteError(SynergyError):
    """A NaN or infinity appeared where a finite value is required."""


class ParseError(SynergyError):
    """Expression text could not be parsed. Carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
