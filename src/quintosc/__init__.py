"""Quintic approximation of odd nonlinear oscillators.

The pipeline: project an odd restoring force onto the first three odd
Chebyshev polynomials (module chebyshev), solve the resulting quintic
oscillator exactly with Jacobi elliptic functions (module quintic), and
measure the approximation against the original model (modules models
and validation); quintify runs it for one model into one Quintication.
"""

__version__ = "0.1.0"

from .chebyshev import (
    QuinticCoefficients,
    model_coefficients,
    project_odd_quintic,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    QuintoscError,
    UnsupportedCaseError,
)
from .models import ExactPeriod, OscillatorModel, exact_period, potential_phi, restoring_force, time_integral_psi, validate_params
from .quintic import ClosedFormSolution, classify, discriminant, evaluate, derivative, period_by_quadrature, solve
from .validation import OracleTrajectory, Quintication, ResidualReport, compare_trajectories, quintify, residual_sup_norm, rk_oracle

__all__ = [
    "__version__",
    "ClosedFormSolution",
    "ConvergenceError",
    "DomainError",
    "EvaluationError",
    "ExactPeriod",
    "OracleTrajectory",
    "OscillatorModel",
    "QuinticCoefficients",
    "Quintication",
    "QuintoscError",
    "ResidualReport",
    "UnsupportedCaseError",
    "classify",
    "compare_trajectories",
    "derivative",
    "discriminant",
    "evaluate",
    "exact_period",
    "model_coefficients",
    "period_by_quadrature",
    "potential_phi",
    "project_odd_quintic",
    "quintify",
    "residual_sup_norm",
    "restoring_force",
    "rk_oracle",
    "solve",
    "time_integral_psi",
    "validate_params",
]
