"""Shared exception types.

Every error raised on a user-facing path derives from one of these so the
CLI can map failures onto stable exit codes.
"""

__all__ = ["DomainError", "InfeasibleError", "FitError", "FitEvaluationError", "SchemaError"]


class DomainError(ValueError):
    """An input is outside the physical or mathematical domain of an operation."""


class InfeasibleError(ValueError):
    """The request is well-formed but cannot be met (e.g. upshift, power ceiling)."""


class FitError(RuntimeError):
    """Nonlinear fit failed in a way that is not just non-convergence."""


class FitEvaluationError(FitError):
    """The model evaluator returned non-finite values during a fit.

    ``fit`` is the fit at the last accepted point, with termination
    "non_finite", or None when the model is not finite at the starting point.
    """

    def __init__(self, message: str, fit=None) -> None:
        super().__init__(message)
        self.fit = fit


class SchemaError(ValueError):
    """A structured input or output document failed schema validation."""
