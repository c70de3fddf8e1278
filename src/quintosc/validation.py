"""Validation harness for the quintication pipeline.

Measures the residual L u = u'' - f_a(u) of the solved quintic against
the original force (its sup over the amplitude, timed in closed form),
compares exact and approximate periods, and provides an independent
Runge-Kutta oracle for trajectory-level checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models, quintic
from .chebyshev import QuinticCoefficients, model_coefficients
from .errors import DomainError, EvaluationError, QuintoscError


@dataclass(frozen=True, eq=False)
class ResidualReport:
    model: models.OscillatorModel
    coefficients: QuinticCoefficients
    grid: int
    sup_norm: float
    argmax_t: float


@dataclass(frozen=True)
class PeriodComparison:
    exact: float
    approximate: float
    ratio: float
    method: str


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    times: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    tolerance: float


def _residual(model: models.OscillatorModel | None, c: QuinticCoefficients, u):
    """L u = u'' - f_a(u) with u'' = -(c1*u + c3*u^3 + c5*u^5); 0 when model is None."""
    s = u * u
    udd = -(u * (c.c1 + s * (c.c3 + c.c5 * s)))
    return udd - (models.restoring_force(model, u) if model is not None else udd)


@functools.lru_cache(maxsize=1, typed=True)  # one grid size at a time: a sweep reuses one
def _amplitudes(grid: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, grid)
    u.flags.writeable = False
    return u


def residual_sup_norm(model: models.OscillatorModel, solution: quintic.ClosedFormSolution,
                      grid: int = 4001) -> ResidualReport:
    """Sup norm of L u = u'' - f_a(u) over the first quarter period.

    u'' = -(c1*u + c3*u^3 + c5*u^5) holds exactly, so L u depends on t only
    through u, which falls from 1 to 0 over that quarter: the sup is taken
    over ``grid`` equally spaced amplitudes in [0, 1].  argmax_t is when the
    solved quintic reaches the maximising amplitude, inverted in closed form
    by one Carlson R_F call (quintic._time_to).  An invalid model raises
    DomainError, and a residual that is not finite EvaluationError at its amplitude.
    """
    if grid < 2:
        raise DomainError(f"residual grid must have at least 2 points, got {grid}")
    c = solution.coefficients
    u = _amplitudes(grid)
    residual = np.abs(_residual(model, c, u))
    i = int(np.argmax(residual))  # the first NaN, if there is one
    if not math.isfinite(residual[i]):
        raise EvaluationError("residual is not finite", float(u[i]))
    return ResidualReport(model, solution.coefficients, grid, float(residual[i]),
                          quintic._time_to(solution, float(u[i])))


def period_ratio(model: models.OscillatorModel) -> PeriodComparison:
    """Ratio of the exact model period to the quintication period, with the exact period's method."""
    exact = models.exact_period(model)
    approx = quintic.solve(model_coefficients(model)).period
    return PeriodComparison(exact.value, approx, exact.value / approx, exact.method)


def rk_oracle(rhs: models.OscillatorModel | Callable, t_end: float, tol: float = 1e-10, samples: int = 2001) -> OracleTrajectory:
    """Integrate u'' = f(u) from (1, 0) with an adaptive embedded RK pair.

    ``rhs`` is either a model or a plain callable u -> f(u).  The local
    tolerance must lie in [1e-13, 1e-6] and the horizon t_end must be
    positive and finite; the returned trajectory holds ``samples`` >= 1
    uniformly spaced points on [0, t_end].
    """
    if not 1e-13 <= tol <= 1e-6:
        raise DomainError(f"oracle tolerance must lie in [1e-13, 1e-6], got {tol}")
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"oracle horizon must be positive and finite, got {t_end}")
    if samples < 1:
        raise DomainError(f"oracle needs at least 1 sample, got {samples}")
    from scipy.integrate import solve_ivp  # imported here: only this oracle needs scipy

    force = (lambda u: models.restoring_force(rhs, u)) if isinstance(rhs, models.OscillatorModel) else rhs
    times = np.linspace(0.0, t_end, samples)
    result = solve_ivp(
        lambda t, y: (y[1], force(y[0])),
        (0.0, t_end),
        (1.0, 0.0),
        method="DOP853",
        t_eval=times,
        rtol=tol,
        atol=1e-3 * tol,
    )
    if not result.success:
        raise QuintoscError(f"oracle integration failed: {result.message}")
    return OracleTrajectory(times, result.y[0], result.y[1], tol)


def compare_trajectories(closed: quintic.ClosedFormSolution, oracle: OracleTrajectory) -> float:
    """Max pointwise gap between the closed form and the oracle samples; NaN or inf values raise DomainError."""
    times = np.asarray(oracle.times, dtype=float)
    if times.size == 0 or not np.isfinite(times).all() or np.any(np.diff(times) <= 0.0):
        raise DomainError("oracle trajectory must carry a finite, strictly increasing time span")
    gap = float(np.max(np.abs(quintic.evaluate(closed, times) - oracle.values)))
    if not math.isfinite(gap):
        raise DomainError("oracle trajectory holds values that are not finite")
    return gap
