"""Fifth-order Chebyshev projection of odd restoring forces.

An odd force f on [-1, 1] is replaced by its projection onto T1, T3, T5
with respect to the Chebyshev weight,

    alpha_n = (2/pi) * integral_{-1}^{1} T_n(s) f(s) / sqrt(1 - s^2) ds.

Rewriting the projection in the monomial basis turns the original
oscillator into the quintic one solved in module quintic.

project_odd_quintic evaluates the integrals of any force by Gauss-Chebyshev
quadrature, which absorbs the weight exactly and is spectrally accurate for
analytic forces, and returns that quintic's triple.  The catalogue forces have
branch points at u = +-i/a, so their Chebyshev coefficients decay like rho^-n
with rho = 1/a + sqrt(1 + 1/a^2), and a fixed 64-node rule aliases the slow
tail for large a.  The default rule is therefore adaptive: the fixed rule on
64, 192, 576, ... first-kind nodes, each level evaluated at all of its nodes,
until the largest change of any alpha is at most 1e-14 * max|f|.  It keeps the
coarser of the last two levels, whose error that change estimates, and raises
ConvergenceError if 46 656 nodes (64 * 3^6) do not converge.  An explicit node
count keeps the fixed rule.

model_coefficients needs no quadrature of the force.  Every model is an odd
polynomial plus beta times the relativistic force (models._parts), so its
alphas are linear in (p, beta): the T1/T3/T5 part of each power u^(2k+1) is
a table of dyadic rationals (Mason & Handscomb, Chebyshev Polynomials, 2003),
and the relativistic alphas are the 64-node sums at a <= 3.5 and complete elliptic
integrals K and E above, by elliptic._cel (Byrd & Friedman 236.16 / 331.01-03).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models
from .elliptic import _cel
from .errors import ConvergenceError, DomainError, EvaluationError


@dataclass(frozen=True)
class QuinticCoefficients:
    """Monomial coefficients of the approximating force -(c1*u + c3*u^3 + c5*u^5).

    ``provenance`` records how the triple was obtained: "quadrature" for
    project_odd_quintic's Gauss-Chebyshev rule and for generic models, whose
    polynomial model_coefficients projects exactly by its table; "closed_form"
    for the catalogue kinds, whose relativistic term model_coefficients takes
    from the 64-node sums or K and E; "manual" for hand-entered triples.
    """

    c1: float
    c3: float
    c5: float
    provenance: str = "manual"

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c3, self.c5)


_FIRST_LEVEL = 64
_MAX_NODES = _FIRST_LEVEL * 3 ** 6  # 46 656
_CONVERGED = 1e-14
_TINY = np.finfo(float).tiny


def _force_values(force: Callable, s: np.ndarray) -> np.ndarray:
    try:  # the force gets its own copy of the nodes, which it may write into
        vals = np.asarray(force(s.copy()), dtype=float)
        if vals.shape != s.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(force(float(x))) for x in s])
    finite = np.isfinite(vals)
    if not finite.all():
        raise EvaluationError("force returned a non-finite value", float(s[np.argmin(finite)]))
    return vals


def _basis(nodes: int) -> np.ndarray:
    """Read-only (3, nodes) rows cos(theta), cos(3 theta), cos(5 theta) on the ``nodes``-point
    first-kind rule's angles theta; the first row holds its nodes."""
    theta = (2.0 * np.arange(1, nodes + 1) - 1.0) * (math.pi / (2.0 * nodes))
    rows = np.cos(np.multiply.outer([1.0, 3.0, 5.0], theta))
    rows.flags.writeable = False
    return rows


def _fixed_rule(force: Callable, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Alphas of the ``nodes``-point first-kind rule and the force values used."""
    basis = _basis(nodes)
    vals = _force_values(force, basis[0])
    # T_n(cos theta) = cos(n theta), so the weights collapse to 2/nodes.  Pairwise sums: on the
    # long adaptive levels a BLAS dot wakes its threads, which cost milliseconds per call on a
    # loaded host.  Sums that overflow stay silent here and raise below.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = (basis * vals).sum(axis=1)
    if not np.isfinite(sums).all():
        raise DomainError(f"Chebyshev projection sums overflow on {nodes} nodes: {sums.tolist()}")
    return (2.0 / nodes) * sums, vals


def project_odd_quintic(force: Callable, nodes: int | None = None) -> QuinticCoefficients:
    """Quintic triple of an odd force: its Gauss-Chebyshev projection onto T1, T3, T5, in monomials.

    Provenance is "quadrature".  ``force`` may accept arrays or plain
    floats; it gets its own copy of each node array and may write into it.
    An explicit ``nodes`` (at least 16) selects the fixed ``nodes``-point
    rule, which is exact for polynomial integrands of degree <= 2*nodes - 1.

    By default the node count adapts: the fixed rule is evaluated on 64,
    192, 576, ... first-kind nodes, each level at all of its nodes.  The
    iteration stops once the largest change of any alpha is at most
    1e-14 * max|f| over the nodes seen, and keeps the *coarser* level,
    whose error that change estimates, bit for bit as the fixed rule at
    that node count; a force that 64 nodes already resolve (every odd
    polynomial up to degree 121) gets the 64-node value.  Past 46 656
    nodes (64 * 3^6) without convergence it raises ``ConvergenceError``;
    pass ``nodes`` explicitly to accept a fixed rule.  Non-finite force
    values raise ``EvaluationError`` at the first offending abscissa of
    the level that produced them, and finite values whose sums overflow
    raise ``DomainError`` at that level, on either rule, as does a triple
    that overflows.
    """
    alphas = _alphas(force, nodes)
    return _quintic(tuple(-c for c in _monomial(*alphas)), "quadrature", f"the projection {alphas}")


def _alphas(force: Callable, nodes: int | None) -> tuple[float, float, float]:
    """project_odd_quintic's (alpha1, alpha3, alpha5): the fixed rule, or the adaptive one when nodes is None."""
    if nodes is not None:
        if nodes < 16:
            raise DomainError(f"project_odd_quintic requires nodes >= 16, got {nodes}")
        return tuple(_fixed_rule(force, nodes)[0].tolist())
    n = _FIRST_LEVEL
    alphas, vals = _fixed_rule(force, n)
    fmax = float(np.max(np.abs(vals)))
    while True:
        finer, vals = _fixed_rule(force, 3 * n)
        fmax = max(fmax, float(np.max(np.abs(vals))))
        change = float(np.max(np.abs(finer - alphas)))  # finite: _fixed_rule raised on any overflow
        # The floor keeps forces of subnormal size, whose values carry no
        # relative precision, from never converging.
        if change <= max(_CONVERGED * fmax, _TINY):
            return tuple(alphas.tolist())
        n *= 3
        if n >= _MAX_NODES:
            raise ConvergenceError(
                f"adaptive Chebyshev projection did not converge within {_MAX_NODES} nodes "
                f"(last change {change:.3e}, max|f| {fmax:.3e}); pass nodes explicitly for a fixed rule")
        alphas = finer


def _monomial(a1, a3, a5):
    """(c1, c3, c5) with a1*T1 + a3*T3 + a5*T5 = c1*u + c3*u^3 + c5*u^5; exact on ints."""
    return (a1 - 3 * a3 + 5 * a5, 4 * (a3 - 5 * a5), 16 * a5)


def _quintic(c: tuple[float, float, float], provenance: str, source) -> QuinticCoefficients:
    """The triple c as QuinticCoefficients; one that is not finite raises DomainError."""
    if not all(map(math.isfinite, c)):
        raise DomainError(f"quintic coefficients of {source} overflow: {c}")
    return QuinticCoefficients(*c, provenance)


@functools.lru_cache(maxsize=None)  # one entry per power of the longest force_spec seen
def _power_triple(k: int) -> tuple[float, float, float]:
    """Monomial triple of the T1/T3/T5 part of u^(2k+1) = 4^-k * sum_i C(2k+1, k+1+i) T_(2i+1).

    The entries are dyadic rationals, formed in integers and rounded once; k <= 2 gives a unit vector.
    """
    b = [math.comb(2 * k + 1, k + 1 + i) for i in range(3)]  # 0 once k + 1 + i > 2k + 1
    return tuple(c / 4 ** k for c in _monomial(*b))


# Up to this amplitude the relativistic alphas are the 64-node first-kind sums: the force's
# Bernstein ellipse has rho = (1 + sqrt(1 + a^2)) / a >= 1.33 there, so the rule's aliasing, of
# order rho^-123 in alpha5, stays at rounding level, while the K/E form cancels more as a falls.
_RULE_CUTOFF = 3.5
_RULE = _basis(_FIRST_LEVEL)


def _relativistic_alphas(a: float) -> tuple[float, float, float]:
    """(alpha1, alpha3, alpha5) of the relativistic force -u / sqrt(1 + a^2 u^2), a > 0."""
    if not a > 0.0:
        raise DomainError(f"model_coefficients requires a > 0, got a={a}")
    if a <= _RULE_CUTOFF:
        # The force table's own formula at the rule's nodes; pairwise sums, with no BLAS dot.
        return tuple(((2.0 / _FIRST_LEVEL) * (_RULE * models._force((), 1.0, a, _RULE[0])).sum(axis=1)).tolist())
    # K and E at m = a^2 / (1 + a^2), passed as m1 = 1 / J^2.  The brackets
    # are scaled by 1 / a^2 = x so that no power of a overflows.
    J = math.hypot(1.0, a)
    m1 = (1.0 / J) * (1.0 / J)
    if m1 == 0.0:
        raise DomainError(f"model_coefficients needs m1 = 1/(1 + a^2) > 0, which underflows at a={a}")
    K, E = _cel(1.0 / J, 1.0, 1.0, 1.0), _cel(1.0 / J, 1.0, 1.0, m1)
    x = (1.0 / a) * (1.0 / a)
    je = (J / a) * E / a
    kj = K / J / a / a
    C = -2.0 / math.pi
    return (2.0 * C * (je - kj),
            C / 3.0 * ((10.0 + 16.0 * x) * kj - (2.0 + 16.0 * x) * je),
            C / 15.0 * ((6.0 + 176.0 * x + 256.0 * x * x) * je - (78.0 + 304.0 * x + 256.0 * x * x) * kj))


def model_coefficients(model: models.OscillatorModel) -> QuinticCoefficients:
    """Quintic coefficients of a model, straight from its force table (p, beta).

    The projection is linear in f(u) = u * sum_k p_k u^(2k) - beta * u / sqrt(1 + a^2 u^2), so
    c = -sum_k p_k * _power_triple(k) - beta * (the monomial triple of the relativistic alphas),
    with no quadrature of the force and no branch on its kind.  Coefficients that overflow
    raise DomainError, as does an a that is not positive when beta is nonzero.
    """
    p, beta = models._parts(model)
    c1 = c3 = c5 = 0.0
    for k, pk in enumerate(p):
        t1, t3, t5 = _power_triple(k)
        c1, c3, c5 = c1 - pk * t1, c3 - pk * t3, c5 - pk * t5
    if beta:
        r1, r3, r5 = _monomial(*_relativistic_alphas(model.a))
        c1, c3, c5 = c1 - beta * r1, c3 - beta * r3, c5 - beta * r5
    # Generic triples keep the label "quadrature": perfbench's per-route spans read it.
    return _quintic((c1, c3, c5), "quadrature" if model.kind == models.GENERIC else "closed_form", model)
