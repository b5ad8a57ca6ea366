"""Exception types shared across the package."""

__all__ = [
    "NotACovarianceError",
    "NonFiniteObjectiveError",
]


class NotACovarianceError(ValueError):
    """A matrix or parameter that must define a covariance fails to be SPD."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective, gradient or weight evaluated to NaN/inf where that is fatal."""
