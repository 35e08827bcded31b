"""Exception types raised across the package, and require_number, the one check of every
numeric argument and range (config fields, sizes, widths, seeds, alpha, tolerances)."""

from __future__ import annotations

import math
import numbers


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


def require_number(value, name: str, low, *, high=None, integer: bool = False,
                   above: bool = False, optional: bool = False):
    """value, checked: an integer (int or numpy integer) if integer, else any real number;
    never a bool; finite as a float; at least low (above it if above) and at most high, if
    given; None only if optional.  Else InvalidInputError, naming the argument name."""
    if value is None and optional:
        return value
    try:
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
              and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # no repr either: a long enough int has none
        raise InvalidInputError(f"{name} must be finite, got an int beyond the float range") from None
    if not ok:
        raise InvalidInputError(
            f"{name} must be {'an integer' if integer else 'a finite real number'}, got {value!r}")
    if not ((value > low if above else value >= low) and (high is None or value <= high)):
        raise InvalidInputError(f"{name} must be {'above' if above else 'at least'} {low}"
                                + ("" if high is None else f" and at most {high}") + f", got {value}")
    return value
