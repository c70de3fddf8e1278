"""Normalised oscillator models.

Each model describes an initial value problem u'' = f_a(u), u(0) = 1,
u'(0) = 0 on the normalised amplitude interval [-1, 1], where f_a is an
odd restoring force.  The catalogue covers a relativistic-style force,
a cable-suspended-mass force, a Duffing term combined with the
relativistic one, and arbitrary odd polynomial forces supplied as a
coefficient list.

The potential is defined as Phi(u) = -2 * integral_u^1 f_a(s) ds, so that
the conserved energy reads u'^2 = Phi(u) and the exact period is
T = 2 * integral_{-1}^{1} ds / sqrt(Phi(s)).  Every model here factors as
Phi(u) = (1 - u^2) * G(u) with G smooth and positive, which removes the
inverse-square-root endpoint singularity from all quadratures via the
substitution u = sin(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as poly
from scipy.integrate import quad

from . import elliptic
from .errors import DomainError, QuintoscError

RELATIVISTIC = "relativistic"
CABLE_MASS = "cable-mass"
DUFFING_RELATIVISTIC = "duffing-relativistic"
GENERIC = "generic"

KINDS = (RELATIVISTIC, CABLE_MASS, DUFFING_RELATIVISTIC, GENERIC)

# exact_period evaluation routes
CLOSED_FORM_KE = "closed_form_ke"
CLOSED_FORM_PI = "closed_form_pi"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class OscillatorModel:
    """Immutable model description.

    ``a`` is the oscillation amplitude of the un-normalised problem and
    enters the normalised force as a parameter; ``b`` weights the
    square-root term in the cable-mass and Duffing-relativistic forces.
    ``force_spec`` lists odd-polynomial coefficients (p0, p1, ...) for the
    generic model, meaning f(u) = p0*u + p1*u**3 + p2*u**5 + ...

    The constructor is deliberately permissive about parameter values so
    that invalid models can be built and then diagnosed through
    validate_params; only structurally nonsensical input is rejected.
    """

    kind: str
    a: float = 1.0
    b: float = 0.0
    force_spec: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.force_spec is not None:
            object.__setattr__(self, "force_spec", tuple(float(p) for p in self.force_spec))


@dataclass(frozen=True)
class ExactPeriod:
    value: float
    method: str


def _sqrt_term(a: float, u):
    return np.sqrt(1.0 + (a * a) * np.square(u))


def restoring_force(model: OscillatorModel, u):
    """Normalised odd restoring force f_a(u); accepts scalars or arrays."""
    u = np.asarray(u, dtype=float)
    a, b = model.a, model.b
    if model.kind == RELATIVISTIC:
        out = -u / _sqrt_term(a, u)
    elif model.kind == CABLE_MASS:
        out = -u - b * u / _sqrt_term(a, u)
    elif model.kind == DUFFING_RELATIVISTIC:
        out = -u - (a * a) * u ** 3 - b * u / _sqrt_term(a, u)
    else:
        out = _generic_force(model, u)
    return out if out.ndim else float(out)


def _generic_force(model: OscillatorModel, u: np.ndarray) -> np.ndarray:
    if not model.force_spec:
        raise DomainError("generic model requires a non-empty force_spec")
    u2 = np.square(u)
    acc = np.zeros_like(u)
    for p in reversed(model.force_spec):
        acc = acc * u2 + p
    return acc * u


def _generic_g_coeffs(spec: Sequence[float]) -> np.ndarray:
    # Phi = -sum_k p_k (1 - u^(2k+2)) / (k+1) and (1 - u^(2k+2)) / (1 - u^2)
    # telescopes to sum_{j<=k} u^(2j), so G is a polynomial in u^2.
    g = np.zeros(len(spec))
    for k, p in enumerate(spec):
        g[: k + 1] -= p / (k + 1)
    return g


def _g_factor(model: OscillatorModel, u):
    """The factor G(u) = Phi(u) / (1 - u**2); smooth and even."""
    u = np.asarray(u, dtype=float)
    a, b = model.a, model.b
    if model.kind == GENERIC:
        if not model.force_spec:
            raise DomainError("generic model requires a non-empty force_spec")
        g = _generic_g_coeffs(model.force_spec)
        u2 = np.square(u)
        acc = np.zeros_like(u)
        for coeff in reversed(g):
            acc = acc * u2 + coeff
        return acc
    J = math.hypot(1.0, a)
    # (J - sqrt(1+a^2 u^2)) / (1 - u^2) rationalised; exact at u = +-1.
    g_rel = 2.0 / (J + _sqrt_term(a, u))
    if model.kind == RELATIVISTIC:
        return g_rel
    if model.kind == CABLE_MASS:
        return 1.0 + b * g_rel
    return 0.5 * (2.0 + a * a + (a * a) * np.square(u)) + b * g_rel


def potential_phi(model: OscillatorModel, u):
    """Potential Phi(u) = -2 * integral_u^1 f_a; vanishes at u = +-1."""
    u = np.asarray(u, dtype=float)
    out = (1.0 - np.square(u)) * _g_factor(model, u)
    return out if out.ndim else float(out)


def _psi_by_quadrature(model: OscillatorModel, u: float) -> float:
    # Psi(u) after u = sin(theta): integral_{asin u}^{pi/2} d theta / sqrt(G(sin theta)).
    lo, hi = math.asin(u), math.pi / 2.0
    out = quad(lambda theta: 1.0 / math.sqrt(_g_factor(model, math.sin(theta))), lo, hi,
               epsabs=1e-14, epsrel=1e-12, limit=200, full_output=1)
    if len(out) > 3:
        raise QuintoscError(f"quadrature on [{lo}, {hi}] did not converge: {out[3]}")
    return out[0]


def exact_period(model: OscillatorModel) -> ExactPeriod:
    """Exact period of the model oscillation.

    Closed forms exist for the relativistic force (complete K and E) and
    the cable-mass force (complete third-kind integral); the others fall
    back to adaptive quadrature of the regularised period integral.
    """
    _require_valid(model)
    a, b = model.a, model.b
    if model.kind == RELATIVISTIC:
        J = math.hypot(1.0, a)
        m = ((J - 1.0) / a) ** 2
        amp = math.sqrt(J + 1.0)
        value = 4.0 * math.sqrt(2.0) * (amp * elliptic.complete_E(m) - elliptic.complete_K(m) / amp)
        return ExactPeriod(value, CLOSED_FORM_KE)
    if model.kind == CABLE_MASS:
        J = math.hypot(1.0, a)
        A = J + b
        n = 0.5 * (1.0 - J)
        m = n * (b - n) / A
        # K(m) and Pi(n, m) for these negative n, m through their Carlson forms.
        K = elliptic.carlson_rf(0.0, 1.0 - m, 1.0)
        Pi = K + n / 3.0 * elliptic.carlson_rj(0.0, 1.0 - m, 1.0, 1.0 - n)
        return ExactPeriod(4.0 / math.sqrt(A) * ((1.0 + J) * Pi - K), CLOSED_FORM_PI)
    return ExactPeriod(4.0 * _psi_by_quadrature(model, 0.0), QUADRATURE)


def time_integral_psi(model: OscillatorModel, u: float) -> float:
    """Time for the trajectory to travel from amplitude 1 down to u.

    Psi(u) = integral_u^1 ds / sqrt(Phi(s)), defined for u in (-1, 1];
    Psi(1) = 0 and Psi(0) is a quarter period.  The relativistic model
    uses the incomplete-F/E closed form, the rest integrate numerically.
    """
    _require_valid(model)
    if not -1.0 < u <= 1.0:
        raise DomainError(f"time_integral_psi requires u in (-1, 1], got u={u}")
    if u == 1.0:
        return 0.0
    if model.kind == RELATIVISTIC:
        if u < 0.0:
            return 2.0 * _psi_relativistic(model.a, 0.0) - _psi_relativistic(model.a, -u)
        return _psi_relativistic(model.a, u)
    return _psi_by_quadrature(model, u)


def _psi_relativistic(a: float, u: float) -> float:
    J = math.hypot(1.0, a)
    m = ((J - 1.0) / a) ** 2
    amp = math.sqrt(J + 1.0)
    arg = (J - math.sqrt(1.0 + a * a * u * u)) / (J - 1.0)
    phi = math.asin(math.sqrt(min(max(arg, 0.0), 1.0)))
    return math.sqrt(2.0) * (amp * elliptic.incomplete_E(phi, m) - elliptic.incomplete_F(phi, m) / amp)


def validate_params(model: OscillatorModel) -> list[str]:
    """Check parameter domains and potential positivity.

    Returns an empty list when the model is usable; otherwise a list of
    human-readable diagnostics, each naming the violated condition (and
    the offending abscissa for potential-positivity failures).  For the
    catalogue kinds G > 0 holds analytically once a (and b where it is
    used) is positive and finite.  For the generic model G is a
    polynomial in s = u^2, so its minimum over s in [0, 1] is taken
    exactly, at s = 0, s = 1 or a critical point.
    """
    problems: list[str] = []
    if model.kind == GENERIC:
        if not model.force_spec:
            problems.append("generic model requires force_spec, a non-empty list of odd-polynomial coefficients")
        elif not math.isfinite(sum(model.force_spec)):
            problems.append("force_spec contains non-finite coefficients")
        elif sum(model.force_spec) >= 0.0:
            problems.append(f"restoring force must be negative at u=1, got f(1)={sum(model.force_spec)}")
        else:
            g = _generic_g_coeffs(model.force_spec)
            s = np.concatenate(([0.0, 1.0], np.clip(poly.polyroots(poly.polyder(g)).real, 0.0, 1.0)))
            gs = poly.polyval(s, g)
            i = np.argmin(gs)
            if not gs[i] > 0.0:
                problems.append(f"potential must be positive on (-1, 1): "
                                f"Phi({math.sqrt(s[i]):.6g}) = {(1.0 - s[i]) * gs[i]:.6g}")
    else:
        if not 0.0 < model.a < math.inf:
            problems.append(f"amplitude a must be positive and finite, got a={model.a}")
        if model.kind in (CABLE_MASS, DUFFING_RELATIVISTIC) and not 0.0 < model.b < math.inf:
            problems.append(f"parameter b must be positive and finite for {model.kind}, got b={model.b}")
    return problems


def _require_valid(model: OscillatorModel) -> None:
    problems = validate_params(model)
    if problems:
        raise DomainError("; ".join(problems))
