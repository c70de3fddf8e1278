"""Validation harness for the quintication pipeline.

quintify runs the pipeline for one model and keeps each layer's result: the
triple, its discriminant, the exact period, the solution and the residual
L u = u'' - f_a(u) against the original force (its sup over the amplitude,
timed in closed form).  An independent Runge-Kutta oracle checks trajectories.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import models, quintic
from .chebyshev import QuinticCoefficients, model_coefficients
from .errors import DomainError, EvaluationError, QuintoscError


@dataclass(frozen=True, eq=False)
class ResidualReport:
    grid: int
    sup_norm: float
    argmax_t: float


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    times: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    tolerance: float


def _residual(model: models.OscillatorModel | None, c: QuinticCoefficients, u: np.ndarray, u2=None) -> np.ndarray:
    """L u = u'' - f_a(u) at the amplitudes u, with u'' = -(c1*u + c3*u^3 + c5*u^5); exact zeros when model is None.

    With f_a = u * sum_k p_k u^(2k) - beta * u / sqrt(1 + (a u)^2) (models._parts), L u is the same force formula
    on q_k = -(c_k + p_k) and -beta: the quintic and the polynomial part cancel once, in the coefficients, and the
    points take one Horner pass, on u2 = u^2 if given, and one relativistic term.  An invalid model raises DomainError.
    """
    if model is None:
        return np.zeros_like(u)
    return models._force(*_defect(model, c), model.a, u, u2)


def _defect(model: models.OscillatorModel | None, c: QuinticCoefficients) -> tuple[list[float], float]:
    """(q, -beta) with q_k = -(c_k + p_k): L u is models._force on them; no terms when model is None.  An invalid
    model raises DomainError."""
    if model is None:
        return [], 0.0
    models._require_valid(model)
    p, beta = models._parts(model)
    return [-(ck + pk) for ck, pk in itertools.zip_longest(c.as_tuple(), p, fillvalue=0.0)], -beta


@functools.lru_cache(maxsize=1, typed=True)  # one grid size at a time: a sweep reuses one
def _amplitudes(grid: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.linspace(0.0, 1.0, grid)
    u2 = np.square(u)
    u.flags.writeable = u2.flags.writeable = False
    return u, u2


def residual_sup_norm(model: models.OscillatorModel, solution: quintic.ClosedFormSolution,
                      grid: int = 4001) -> ResidualReport:
    """Sup norm of L u = u'' - f_a(u) over the first quarter period.

    u'' = -(c1*u + c3*u^3 + c5*u^5) holds exactly, so L u depends on t only
    through u, which falls from 1 to 0 over that quarter: the sup is taken
    over ``grid`` equally spaced amplitudes in [0, 1].  argmax_t is when the
    solved quintic reaches the maximising amplitude, inverted in closed form
    by one Carlson R_F call (quintic._time_to).  When the quintic is the
    force itself (every q_k zero and no relativistic term), L u is zero at
    every amplitude and the first maximum is at u = 0: no point is sampled.
    An invalid model raises DomainError, and a residual that is not finite
    EvaluationError at its amplitude.
    """
    if grid < 2:
        raise DomainError(f"residual grid must have at least 2 points, got {grid}")
    q, beta = _defect(model, solution.coefficients)
    if not (beta or any(q)):
        return ResidualReport(grid, 0.0, quintic._time_to(solution, 0.0))
    u, u2 = _amplitudes(grid)
    residual = models._force(q, beta, model.a, u, u2)
    np.abs(residual, out=residual)  # _force's array is new
    i = int(residual.argmax())  # the first NaN, if there is one
    if not math.isfinite(residual[i]):
        raise EvaluationError("residual is not finite", float(u[i]))
    return ResidualReport(grid, float(residual[i]), quintic._time_to(solution, float(u[i])))


class Quintication(NamedTuple):
    """quintify's record of one model: each layer's result, in the order the pipeline forms them."""

    coefficients: QuinticCoefficients
    discriminant: float
    exact: models.ExactPeriod
    solution: quintic.ClosedFormSolution
    residual: ResidualReport


def quintify(model: models.OscillatorModel) -> Quintication:
    """Validate, project, take the discriminant and the exact period, solve, and take the residual sup on 4001
    amplitudes, in that order: the first step that fails raises its QuintoscError (an invalid model DomainError,
    its problems joined by "; ").  The period ratio is exact.value / solution.period."""
    models._require_valid(model)
    c = model_coefficients(model)
    delta = quintic.discriminant(c)
    exact = models.exact_period(model)
    solution = quintic.solve(c)
    return Quintication(c, delta, exact, solution, residual_sup_norm(model, solution))


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
    if times.size == 0 or not np.isfinite(times).all() or np.any(times[1:] <= times[:-1]):
        raise DomainError("oracle trajectory must carry a finite, strictly increasing time span")
    gap = float(np.max(np.abs(quintic.evaluate(closed, times) - oracle.values)))
    if not math.isfinite(gap):
        raise DomainError("oracle trajectory holds values that are not finite")
    return gap
