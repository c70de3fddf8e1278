"""Fifth-order Chebyshev projection of odd restoring forces.

An odd force f on [-1, 1] is replaced by its projection onto T1, T3, T5
with respect to the Chebyshev weight,

    alpha_n = (2/pi) * integral_{-1}^{1} T_n(s) f(s) / sqrt(1 - s^2) ds,

evaluated by Gauss-Chebyshev quadrature, which absorbs the weight exactly
and is spectrally accurate for analytic forces.  Rewriting the projection
in the monomial basis turns the original oscillator into the quintic one
solved in module quintic.

The convergence rate depends on the force: the catalogue forces have
branch points at u = +-i/a, so their Chebyshev coefficients decay like
rho^-n with rho = 1/a + sqrt(1 + 1/a^2), and a fixed 64-node rule aliases
the slow tail for large a.  The default rule is therefore adaptive.  It
evaluates 64, 192, 576, ... first-kind nodes, which nest under tripling
so that each level reuses every force value of the previous one.  It
stops when the largest change of any alpha is at most 1e-14 * max|f|,
returns the coarser of the last two levels (the one whose error that
change estimates, and the exact 64-node value whenever 64 nodes already
resolve the force), and raises ConvergenceError if 46 656 nodes (64 * 3^6)
do not converge.  An explicit node count keeps the fixed rule.  The
generic model's force is an odd polynomial, which a fixed rule integrates
exactly, so model_coefficients passes max(64, L + 3) nodes for its L
coefficients and the adaptive default serves arbitrary forces.

For the catalogue models the projection integrals also have closed forms
in terms of complete elliptic integrals (the J_n moments below, compare
Byrd & Friedman 236.16 / 331.01-03); both routes are exposed so they can
be checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models
from .elliptic import _legendre_fe
from .errors import ConvergenceError, DomainError, EvaluationError


@dataclass(frozen=True)
class ChebyshevOddCoefficients:
    """Projection coefficients (alpha1, alpha3, alpha5).

    Even-index coefficients of an odd integrand vanish identically and
    are not stored.
    """

    alpha1: float
    alpha3: float
    alpha5: float


@dataclass(frozen=True)
class QuinticCoefficients:
    """Monomial coefficients of the approximating force -(c1*u + c3*u^3 + c5*u^5).

    ``provenance`` records how the triple was obtained: "quadrature" for
    the Gauss-Chebyshev route, "closed_form" for the elliptic-moment
    route, "manual" for hand-entered triples.
    """

    c1: float
    c3: float
    c5: float
    provenance: str = "manual"

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c3, self.c5)


@dataclass(frozen=True)
class EllipticMoments:
    """Closed-form values of J_n(a) = integral s^n / sqrt((1-s^2)(1+a^2 s^2)) ds over [-1, 1]."""

    j2: float
    j4: float
    j6: float


# Chebyshev-weight moments w_n = integral s^n / sqrt(1-s^2) ds over [-1, 1], n = 2, 4, 6, 8.
PI_MOMENTS = (math.pi / 2.0, 3.0 * math.pi / 8.0, 5.0 * math.pi / 16.0, 35.0 * math.pi / 128.0)


_FIRST_LEVEL = 64
_MAX_NODES = _FIRST_LEVEL * 3 ** 6  # 46 656
_CONVERGED = 1e-14
_TINY = np.finfo(float).tiny


def _force_values(force: Callable, s: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(force(s), dtype=float)
        if vals.shape != s.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(force(float(x))) for x in s])
    finite = np.isfinite(vals)
    if not finite.all():
        raise EvaluationError("force returned a non-finite value", float(s[np.argmin(finite)]))
    return vals


def _fixed_rule(force: Callable, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Alphas of the ``nodes``-point first-kind rule and the force values used."""
    theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * (math.pi / (2.0 * nodes))
    vals = _force_values(force, np.cos(theta))
    # T_n(cos theta) = cos(n theta), so the weights collapse to 2/nodes.
    sums = [float(np.cos(theta) @ vals), float(np.cos(3.0 * theta) @ vals), float(np.cos(5.0 * theta) @ vals)]
    return (2.0 / nodes) * np.array(sums), vals


def project_odd_quintic(force: Callable, nodes: int | None = None) -> ChebyshevOddCoefficients:
    """Project an odd force onto T1, T3, T5 by Gauss-Chebyshev quadrature.

    ``force`` may accept arrays or plain floats.  An explicit ``nodes``
    (at least 16) selects the fixed ``nodes``-point rule, which is exact for
    polynomial integrands of degree <= 2*nodes - 1.

    By default the node count adapts: the rule is evaluated on 64, 192,
    576, ... first-kind nodes.  These nest under tripling, so each level
    evaluates the force only at its 2N new abscissae theta_old +- pi/(3N)
    and updates alpha_3N = alpha_N/3 + (2/(3N)) * (sum over the new
    nodes).  The iteration stops once the largest change of any alpha is
    at most 1e-14 * max|f| over the finer level's nodes, and returns the
    *coarser* level, whose error that change estimates; a force that 64
    nodes already resolve (every odd polynomial up to degree 121) gets
    exactly the fixed 64-node value.  Past 46 656 nodes (64 * 3^6) without
    convergence it raises ``ConvergenceError``; pass ``nodes`` explicitly to
    accept a fixed rule instead.  Non-finite force values raise
    ``EvaluationError`` at the first offending abscissa of the level that
    produced them.
    """
    if nodes is not None:
        if nodes < 16:
            raise DomainError(f"project_odd_quintic requires nodes >= 16, got {nodes}")
        return ChebyshevOddCoefficients(*_fixed_rule(force, nodes)[0].tolist())
    n = _FIRST_LEVEL
    alphas, vals = _fixed_rule(force, n)
    fmax = float(np.max(np.abs(vals)))
    while True:
        # The nodes the 3n-point rule adds to the n-point one: odd multiples
        # of pi/(6n) that are not multiples of 3, i.e. theta_old +- pi/(3n).
        k = np.arange(1, 6 * n, 2)
        theta = k[k % 3 != 0] * (math.pi / (6.0 * n))
        basis = np.cos(np.multiply.outer([1.0, 3.0, 5.0], theta))
        vals = _force_values(force, basis[0])
        fmax = max(fmax, float(np.max(np.abs(vals))))
        # Pairwise sums: on the long levels a BLAS dot wakes its threads,
        # which cost milliseconds per call on a loaded host.
        finer = alphas / 3.0 + (2.0 / (3.0 * n)) * (basis * vals).sum(axis=1)
        change = float(np.max(np.abs(finer - alphas)))
        # The floor keeps forces of subnormal size, whose values carry no
        # relative precision, from never converging.
        if change <= max(_CONVERGED * fmax, _TINY):
            return ChebyshevOddCoefficients(*alphas.tolist())
        n *= 3
        if n >= _MAX_NODES:
            raise ConvergenceError(
                f"adaptive Chebyshev projection did not converge within {_MAX_NODES} nodes "
                f"(last change {change:.3e}, max|f| {fmax:.3e}); pass nodes explicitly for a fixed rule")
        alphas = finer


def to_monomial(alphas: ChebyshevOddCoefficients, provenance: str = "quadrature") -> QuinticCoefficients:
    """Rewrite alpha1*T1 + alpha3*T3 + alpha5*T5 as -(c1*u + c3*u^3 + c5*u^5)."""
    a1, a3, a5 = alphas.alpha1, alphas.alpha3, alphas.alpha5
    return QuinticCoefficients(
        -(a1 - 3.0 * a3 + 5.0 * a5),
        -4.0 * (a3 - 5.0 * a5),
        -16.0 * a5,
        provenance,
    )


_SERIES_CUTOFF = 0.25


def _moments_by_series(a: float) -> EllipticMoments:
    # Below the cutoff the K/E brackets cancel to order a^4 and a^6 and
    # the prefactors 1/a^4, 1/a^6 amplify the rounding, so expand the
    # weight binomially instead; terms shrink by a^2 per order.
    a2 = a * a
    weights = [math.pi]
    for j in range(1, 64):
        weights.append(weights[-1] * (2 * j - 1) / (2 * j))
    totals = [0.0, 0.0, 0.0]
    coeff = 1.0
    for k in range(60):
        for i in (1, 2, 3):
            totals[i - 1] += coeff * weights[i + k]
        coeff *= -a2 * (2 * k + 1) / (2 * k + 2)
        if abs(coeff) < 1e-18:
            break
    return EllipticMoments(*totals)


def closed_form_moments(a: float) -> EllipticMoments:
    """Elliptic moments J2, J4, J6 for the weight 1/sqrt(1 + a^2 s^2), a > 0."""
    if not a > 0.0:
        raise DomainError(f"closed_form_moments requires a > 0, got a={a}")
    if a <= _SERIES_CUTOFF:
        return _moments_by_series(a)
    # K and E at m = a^2 / (1 + a^2), passed as m1 = 1 / J^2.  The brackets
    # are scaled by 1 / a^2 = x so that no power of a overflows.
    J = math.hypot(1.0, a)
    m1 = (1.0 / J) * (1.0 / J)
    if m1 == 0.0:
        raise DomainError(f"closed_form_moments needs m1 = 1/(1 + a^2) > 0, which underflows at a={a}")
    K, E = _legendre_fe(1.0, 0.0, m1)
    x = (1.0 / a) * (1.0 / a)
    je = (J / a) * E / a
    kj = K / J / a / a
    j2 = 2.0 * (je - kj)
    j4 = 2.0 / 3.0 * (2.0 * (1.0 - x) * je - (1.0 - 2.0 * x) * kj)
    j6 = 2.0 / 15.0 * ((8.0 - 7.0 * x + 8.0 * x * x) * je - (4.0 - 3.0 * x + 8.0 * x * x) * kj)
    return EllipticMoments(j2, j4, j6)


def _alphas_from_moments(m2: float, m4: float, m6: float) -> ChebyshevOddCoefficients:
    # All catalogue forces are -(u * weight(u)), so the projections share
    # one pattern in the even moments M_n of the weight.
    C = -2.0 / math.pi
    return ChebyshevOddCoefficients(
        C * m2,
        C * (4.0 * m4 - 3.0 * m2),
        C * (16.0 * m6 - 20.0 * m4 + 5.0 * m2),
    )


def model_coefficients(model: models.OscillatorModel) -> QuinticCoefficients:
    """Quintic coefficients of a catalogue model via the closed-form moments.

    The generic model has no closed form and takes the quadrature route
    (the provenance tag says which path produced the result).  Its force
    is an odd polynomial of degree 2L - 1 for L coefficients, so the fixed
    rule on max(64, L + 3) nodes, exact up to degree 2 * nodes - 1,
    integrates T5 * f exactly; up to L = 61 it is the 64-node level the
    adaptive default would stop at.  Coefficients that overflow raise
    DomainError on either route.
    """
    if model.kind == models.GENERIC:
        nodes = max(_FIRST_LEVEL, len(model.force_spec or ()) + 3)
        c = to_monomial(project_odd_quintic(lambda u: models.restoring_force(model, u), nodes), "quadrature")
    else:
        a, b = model.a, model.b
        jm = closed_form_moments(a)
        w2, w4, w6, w8 = PI_MOMENTS
        if model.kind == models.RELATIVISTIC:
            m2, m4, m6 = jm.j2, jm.j4, jm.j6
        elif model.kind == models.CABLE_MASS:
            m2 = w2 + b * jm.j2
            m4 = w4 + b * jm.j4
            m6 = w6 + b * jm.j6
        else:
            a2 = a * a
            m2 = w2 + a2 * w4 + b * jm.j2
            m4 = w4 + a2 * w6 + b * jm.j4
            m6 = w6 + a2 * w8 + b * jm.j6
        c = to_monomial(_alphas_from_moments(m2, m4, m6), "closed_form")
    if not all(map(math.isfinite, c.as_tuple())):
        raise DomainError(f"quintic coefficients of {model} overflow: {c.as_tuple()}")
    return c
