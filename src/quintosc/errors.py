"""Exception types shared across the package."""


class QuintoscError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QuintoscError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(QuintoscError):
    """A user-supplied function returned a non-finite value.

    Carries the offending abscissa so the caller can locate the problem.
    """

    def __init__(self, message: str, abscissa: float):
        super().__init__(f"{message} (at abscissa {abscissa!r})")
        self.abscissa = abscissa


class ConvergenceError(QuintoscError):
    """An iteration or quadrature did not reach its tolerance within its cap."""


class UnsupportedCaseError(QuintoscError):
    """The coefficient triple is outside solve's domain: its h2 is not positive on [0, 1]."""
