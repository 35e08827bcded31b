"""Exception types raised across the package."""

from __future__ import annotations


class SelfPredictError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SelfPredictError, ValueError):
    """An argument failed validation (shape, range, or stochasticity)."""


class ShapeMismatchError(InvalidInputError):
    """Two arrays that must agree in shape do not."""


class NotSymmetricError(InvalidInputError):
    """An operation requiring a symmetric matrix received an asymmetric one."""


class NotDoublyStochasticError(InvalidInputError):
    """An operation requiring unit column sums received a matrix without them."""


class NonConvergenceError(SelfPredictError, RuntimeError):
    """An iterative routine hit its iteration cap before meeting tolerance."""


class DegenerateCovarianceError(SelfPredictError, RuntimeError):
    """The representation covariance vanished, so no predictor is defined."""


class NonFiniteStateError(SelfPredictError, RuntimeError):
    """A predictor solve met a non-finite representation or target."""


class InnerSolveFailureError(SelfPredictError, RuntimeError):
    """The predictor minimization could not reach the requested stationarity."""


class StepSizeUnderflowError(SelfPredictError, RuntimeError):
    """The adaptive integrator drove its step below floating point spacing."""


class UnknownScenarioError(SelfPredictError, ValueError):
    """A scenario name is not in the catalog."""
