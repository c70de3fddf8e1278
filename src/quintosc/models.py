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

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import legendre, polynomial as poly

from . import elliptic
from .errors import ConvergenceError, DomainError

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

    @functools.cached_property
    def _problems(self) -> tuple[str, ...]:
        # A frozen model's problems depend on its fields only: find them once per instance.
        return tuple(_find_problems(self))


@dataclass(frozen=True)
class ExactPeriod:
    value: float
    method: str


def _sqrt_term(a: float, u):
    # (a*u)^2, not a^2 u^2: once a*a overflows, inf * 0 would be NaN at u = 0.
    return np.sqrt(1.0 + np.square(a * u))


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
    return poly.polyval(np.square(u), model.force_spec) * u


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
        return poly.polyval(np.square(u), _generic_g_coeffs(model.force_spec))
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


# Nested trapezoid for complete quarter periods: 8 panels, doubled up to 2^16.
_TRAPEZOID_PANELS = (8, 2 ** 16)
_TRAPEZOID_TOL = 1e-15
# Gauss-Legendre for partial intervals: 16 nodes, doubled up to 1024.
_GAUSS_NODES = (16, 1024)
_GAUSS_TOL = 1e-14


def _theta_integrand(model: OscillatorModel):
    """The regularised integrand theta -> 1 / sqrt(G(sin theta)) of Psi and the period."""
    if model.kind != GENERIC:
        return lambda theta: 1.0 / np.sqrt(_g_factor(model, np.sin(theta)))
    # With s = sin^2 and c = cos^2, G(s) = c G(0) + s G(1) + c s R(s), so a
    # G(0) or G(1) near zero keeps its relative precision at u = 0 and u = +-1,
    # where s or c is small; Horner in s alone loses it at u = +-1.  G(1) is
    # -f(1).  R(s) = (G(s) - c G(0) - s G(1)) / (s c): dividing by s shifts
    # the coefficients and dividing by c = 1 - s takes running sums.
    g = _generic_g_coeffs(model.force_spec)
    g_0, g_1 = g[0], -sum(model.force_spec)
    r = np.cumsum(np.concatenate(([g[0] + g[1] - g_1], g[2:]))[:-1]) if len(g) > 2 else [0.0]

    def integrand(theta):
        s, c = np.square(np.sin(theta)), np.square(np.cos(theta))
        return 1.0 / np.sqrt(c * g_0 + s * g_1 + c * s * poly.polyval(s, r))

    return integrand


def _quarter_period_integral(g) -> float:
    """Integral of g over [0, pi/2] for a smooth g even about 0 and about pi/2.

    Such a g is even and pi-periodic, so the trapezoid rule on the nodes
    k*pi/(2n) is the periodic trapezoid rule, which converges exponentially
    (Trefethen & Weideman, SIAM Review 56, 2014).  Each doubling of n adds
    only the n midpoints.  The loop stops when two levels agree to
    _TRAPEZOID_TOL relative and returns the finer one.
    """
    n, cap = _TRAPEZOID_PANELS
    h = 0.5 * math.pi / n
    values = g(h * np.arange(n + 1))
    total = np.sum(values) - 0.5 * (values[0] + values[-1])
    estimate = h * total
    while n < cap:
        total += np.sum(g(h * (np.arange(n) + 0.5)))
        n, h, previous = 2 * n, 0.5 * h, estimate
        estimate = h * total
        if not 0.0 < estimate < math.inf:
            raise DomainError(f"quarter-period integrand is not finite and positive (integral {estimate})")
        if abs(estimate - previous) <= _TRAPEZOID_TOL * estimate:
            return float(estimate)
    raise ConvergenceError(f"quarter-period trapezoid did not converge within {cap} panels "
                           f"(last change {abs(estimate - previous) / estimate:.3g} relative)")


@functools.lru_cache(maxsize=None)  # at most 7 rules: n = 16, 32, ..., 1024
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tail_integral(g, u: float) -> float:
    """Integral of g over [asin u, pi/2] for 0 < u < 1 by Gauss-Legendre.

    The interval never contains theta = 0, where a model's integrand may
    have complex singularities close by.  Its width acos(u) keeps full
    relative precision as u -> 1, where pi/2 - asin(u) would not.
    """
    half = 0.5 * math.acos(u)
    n, cap = _GAUSS_NODES
    estimate = math.nan
    while n <= cap:
        nodes, weights = _gauss_legendre(n)
        previous, estimate = estimate, half * np.sum(weights * g(0.5 * math.pi - half * (1.0 + nodes)))
        if not 0.0 < estimate < math.inf:
            raise DomainError(f"time integrand is not finite and positive (integral {estimate})")
        if abs(estimate - previous) <= _GAUSS_TOL * estimate:
            return float(estimate)
        n *= 2
    raise ConvergenceError(f"Gauss-Legendre rule on [asin({u}), pi/2] did not converge within {cap} nodes")


def exact_period(model: OscillatorModel) -> ExactPeriod:
    """Exact period of the model oscillation.

    Closed forms exist for the relativistic force (4 Psi(0), complete K and E) and
    the cable-mass force (complete third-kind integral).  The others take
    four times the quarter period integral of 1/sqrt(G(sin theta)) by the
    nested periodic trapezoid rule, converged to 1e-15 relative.
    """
    _require_valid(model)
    a, b = model.a, model.b
    if model.kind == RELATIVISTIC:
        return ExactPeriod(4.0 * _psi_relativistic(a, 0.0), CLOSED_FORM_KE)
    if model.kind == CABLE_MASS:
        J = math.hypot(1.0, a)
        A = J + b
        n = 0.5 * (1.0 - J)
        m = n * ((b - n) / A)
        # T = 4 / sqrt(A) * ((1 + J) Pi(n, m) - K(m)) for these negative n, m, with
        # K = R_F(0, 1 - m, 1) and Pi = K + n/3 R_J(0, 1 - m, 1, 1 - n).  The
        # arguments are divided by t = 1 - m (R_F and R_J are homogeneous of
        # degree -1/2 and -3/2) and J is factored out, so that for huge a
        # nothing overflows and R_J does not underflow.
        t = 1.0 - m
        rf = elliptic.carlson_rf(0.0, 1.0, 1.0 / t)
        rj = elliptic.carlson_rj(0.0, 1.0, 1.0 / t, (1.0 - n) / t)
        value = 4.0 * (J / math.sqrt(A)) / math.sqrt(t) * (rf + (1.0 + 1.0 / J) * (n / (3.0 * t)) * rj)
        return ExactPeriod(value, CLOSED_FORM_PI)
    return ExactPeriod(4.0 * _quarter_period_integral(_theta_integrand(model)), QUADRATURE)


def time_integral_psi(model: OscillatorModel, u: float) -> float:
    """Time for the trajectory to travel from amplitude 1 down to u.

    Psi(u) = integral_u^1 ds / sqrt(Phi(s)), defined for u in (-1, 1];
    Psi(1) = 0 and Psi(0) is a quarter period.  Negative u reflect through
    Psi(u) = 2 Psi(0) - Psi(-u).  The relativistic model uses the
    incomplete-F/E closed form; the others integrate 1/sqrt(G(sin theta)),
    over [0, pi/2] by the nested trapezoid rule of exact_period and over
    [asin u, pi/2] by Gauss-Legendre.
    """
    _require_valid(model)
    if not -1.0 < u <= 1.0:
        raise DomainError(f"time_integral_psi requires u in (-1, 1], got u={u}")
    if u < 0.0:
        return 2.0 * time_integral_psi(model, 0.0) - time_integral_psi(model, -u)
    if u == 1.0:
        return 0.0
    if model.kind == RELATIVISTIC:
        return _psi_relativistic(model.a, u)
    g = _theta_integrand(model)
    return _quarter_period_integral(g) if u == 0.0 else _tail_integral(g, u)


def _psi_relativistic(a: float, u: float) -> float:
    """Psi(u) = sqrt(2) (sqrt(J+1) E(phi | m) - F(phi | m) / sqrt(J+1)), J = sqrt(1 + a^2), 0 <= u < 1.

    m = ((J - 1) / a)^2 rounds to 1 from a ~ 1e16 on, but 1 - m = 2 / (J + 1)
    does not.  sin^2(phi) = (J - h) / (J - 1), h = sqrt(1 + a^2 u^2), is
    (1 - u^2) / (1 + t) and cos^2(phi) = (u^2 + t) / (1 + t) with
    t = (a u / (h + 1)) (a u / (J + 1)) in [0, 1): nothing cancels or overflows.
    """
    J = math.hypot(1.0, a)
    au = a * u
    t = au / (math.hypot(1.0, au) + 1.0) * (au / (J + 1.0))
    s = math.sqrt((1.0 - u) * (1.0 + u) / (1.0 + t))
    f, e = elliptic._legendre_fe(s, (u * u + t) / (1.0 + t), 2.0 / (J + 1.0))
    amp = math.sqrt(J + 1.0)
    return math.sqrt(2.0) * (amp * e - f / amp)


def validate_params(model: OscillatorModel) -> list[str]:
    """Check parameter domains and potential positivity.

    Returns an empty list when the model is usable; otherwise a list of
    human-readable diagnostics, each naming the violated condition (and
    the offending abscissa for potential-positivity failures).  For the
    catalogue kinds G > 0 holds analytically once a (and b where it is
    used) is positive and finite.  For the generic model G is a
    polynomial in s = u^2, so its minimum over s in [0, 1] is taken
    exactly, at s = 0, s = 1 or a critical point.  The problems are
    computed once per model instance; exact_period, time_integral_psi
    and validation.residual_sup_norm reuse them, and each call here
    returns a fresh list.
    """
    return list(model._problems)


def _find_problems(model: OscillatorModel) -> list[str]:
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
    if model._problems:
        raise DomainError("; ".join(model._problems))
