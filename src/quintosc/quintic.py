"""Exact solution of the quintic oscillator.

The initial value problem is

    u'' = -(c1*u + c3*u^3 + c5*u^5),  u(0) = 1,  u'(0) = 0.

Energy conservation gives u'^2 = (1 - u^2) * h2(u^2) / 6 with the
quadratic h2(s) = (6c1 + 3c3 + 2c5) + (3c3 + 2c5)*s + 2*c5*s^2, and the
solution is periodic with |u| <= 1 whenever c5 > 0 and either

    (I)  h2 has no real root in a neighbourhood of [0, 1]
         (discriminant delta = 3c3^2 - 4c5(4c1 + c3 + c5) < 0), or
    (II) delta > 0 with h2(0) = 6c1 + 3c3 + 2c5 > 0 and h2'(0) = 3c3 + 2c5 > 0,
         which put both roots of h2 on the negative axis.

The paper inverts each case into Jacobi functions (DLMF chapter 22; we pass
m = k^2).  Case I's inversion, m = 1/2 - (sqrt(6)/8) k~ / sqrt(PQ) with P = h2(1)/6,
Q = h2(0) and k~ = 4c1 + 3c3 + 2c5, holds wherever P, Q and k~ are positive, as
m(1 - m) = -delta / (32 PQ): it solves Case II at m < 0, the imaginary modulus
of DLMF 22.17, and delta = 0 at m = 0, so it is the one inversion used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .chebyshev import QuinticCoefficients
from .elliptic import _dn2, _gauss, _legendre_f, _real, _sqrt, complete_K
from .errors import DomainError, UnsupportedCaseError
from .models import GENERIC, OscillatorModel, _quarter_period_integral, _theta_integrand

CASE_I = "I"
CASE_II = "II"
DEGENERATE = "degenerate"
UNSUPPORTED = "unsupported"

# When |c5| falls below this fraction of the largest coefficient the
# quintic term (and the sign of the discriminant with it) is rounding
# noise; solve() then lifts c5 to exactly this fraction.
C5_FLOOR = 1e-10

Coefficients = Union[QuinticCoefficients, tuple]


def _coerce(c: Coefficients) -> QuinticCoefficients:
    if isinstance(c, QuinticCoefficients):
        return c
    return QuinticCoefficients(*map(float, c))


@dataclass(frozen=True)
class CaseIParameters:
    """Case I's inversion parameters, which serve every solvable triple (m < 0 in Case II)."""

    A: float
    B: float
    m: float
    period: float


@dataclass(frozen=True)
class ClosedFormSolution:
    """A solved quintic IVP.

    ``coefficients`` is the triple the caller asked about; ``solved``
    is the triple actually inverted.  They differ only when solve() lifted
    a negligible c5 to C5_FLOOR times the scale.  ``case`` is classify's
    label of the solved triple; ``params`` holds the one inversion of every case.
    """

    coefficients: QuinticCoefficients
    case: str
    params: CaseIParameters
    period: float
    solved: QuinticCoefficients
    nudge: float = 0.0  # the c5 lift: solved.c5 is coefficients.c5 + nudge up to rounding


def _delta(c1: float, c3: float, c5: float) -> float:
    return 3.0 * c3 * c3 - 4.0 * c5 * (4.0 * c1 + c3 + c5)


def discriminant(c: Coefficients) -> float:
    """delta = 3*c3^2 - 4*c5*(4*c1 + c3 + c5); a delta that is not finite raises DomainError."""
    c = _coerce(c)
    delta = _delta(c.c1, c.c3, c.c5)
    if not math.isfinite(delta):
        raise DomainError(f"discriminant of ({c.c1}, {c.c3}, {c.c5}) is not finite: {delta}")
    return delta


def _unit_triple(c: QuinticCoefficients, scale: float) -> tuple[int, list[float]]:
    """k with 4^k near ``scale``, and the triple divided by 4^k, exact unless a quotient is subnormal."""
    k = math.frexp(scale)[1] // 2
    return k, [math.ldexp(x, -2 * k) for x in c.as_tuple()]


def _pqk(c1: float, c3: float, c5: float) -> tuple[float, float, float]:
    """P = h2(1)/6, Q = h2(0) and k~ = 4c1 + 3c3 + 2c5, each an exact sum rounded once."""
    f1, d3, d5 = 4.0 * c1, c3 + c3, c5 + c5  # exact: scaling by a power of two
    return math.fsum((c1, c3, c5)), math.fsum((f1, c1 + c1, d3, c3, d5)), math.fsum((f1, d3, c3, d5))


def classify(c: Coefficients) -> str:
    """Sort a triple into CASE_I, CASE_II, DEGENERATE or UNSUPPORTED.

    The case of lambda*c equals that of c for every lambda > 0, so the
    triple is first divided by its scale max(|c1|, |c3|, |c5|); vanishing
    of the discriminant of that unit triple is decided up to the
    tolerance 1e-9 * max(1, 3*c3^2).  Inside that band the triple is DEGENERATE
    when P, Q and k~ are positive: at delta = 0, k~ = (4/3) c5 s0 (s0 - 1), so k~ <= 0
    puts the double root s0 of h2 in [0, 1], a separatrix.  Case I has h2 > 0, so P, Q > 0
    and m in (0, 1); Case II has k~ = (2Q + h2'(0)) / 3 > 0 too: solve's m is real and < 1.
    """
    c = _coerce(c)
    if not c.c5 > 0.0:
        return UNSUPPORTED
    scale = max(abs(c.c1), abs(c.c3), c.c5)
    c1, c3, c5 = c.c1 / scale, c.c3 / scale, c.c5 / scale
    delta = _delta(c1, c3, c5)  # NaN for a non-finite triple, which fails every test below
    if abs(delta) <= 1e-9 * max(1.0, 3.0 * c3 * c3):
        P, Q, k_tilde = _pqk(*_unit_triple(c, scale)[1])
        return DEGENERATE if P > 0.0 and Q > 0.0 and k_tilde > 0.0 else UNSUPPORTED
    if delta < 0.0:
        return CASE_I
    # h2'(0) > 0 first: it fails for a non-finite triple, so _pqk sees finite terms only.
    return CASE_II if 3.0 * c3 + 2.0 * c5 > 0.0 and _pqk(*_unit_triple(c, scale)[1])[1] > 0.0 else UNSUPPORTED


def solve(c: Coefficients) -> ClosedFormSolution:
    """Classify a triple once and return its ClosedFormSolution.

    Every case, the degenerate band included, takes Case I's parameters
    (a Case II triple gets m < 0, a degenerate one m near 0).  A c5 that is
    negligible against the other coefficients is lifted to C5_FLOOR times
    their scale first, and the lift is recorded on the result as ``nudge``.
    """
    c = _coerce(c)
    scale = max(abs(c.c1), abs(c.c3), abs(c.c5))
    if scale == 0.0:
        raise UnsupportedCaseError("cannot solve the all-zero triple")
    target = c if abs(c.c5) > C5_FLOOR * scale else QuinticCoefficients(c.c1, c.c3, C5_FLOOR * scale, c.provenance)
    label = classify(target)
    if label == UNSUPPORTED:
        raise UnsupportedCaseError(f"triple ({c.c1}, {c.c3}, {c.c5}) is outside both solvable cases (needs c5 > 0 "
                                   "and, for a positive discriminant, 6c1 + 3c3 + 2c5 > 0 and 3c3 + 2c5 > 0; "
                                   "a vanishing one needs the double root of h2 off [0, 1])")
    # u(t) solves 4^k * c when v(2^k t) solves c, so the parameters are built
    # on a triple of unit size, where nothing overflows or underflows, and
    # only A and the period carry the scale, as exact powers of two.
    k, unit = _unit_triple(target, scale)
    P, Q, k_tilde = _pqk(*unit)
    A = math.ldexp((6.0 / P) ** 0.25 / Q ** 0.25 / 2.0, -k)  # P * Q would underflow at a subnormal Q
    m = 0.5 - math.sqrt(6.0) / 8.0 * k_tilde / math.sqrt(P) / math.sqrt(Q)
    params = CaseIParameters(A, Q / (6.0 * P), m, 8.0 * A * complete_K(m))
    return ClosedFormSolution(c, label, params, params.period, target, target.c5 - c.c5)


def period_by_quadrature(c: Coefficients) -> float:
    """Period from the time integral, independent of the closed forms.

    The quintic force -(c1*u + c3*u^3 + c5*u^5) is the generic odd
    polynomial model, whose potential factors as (1 - u^2) * h2(u^2) / 6.
    With u = sin(theta), T = 4 * integral_0^{pi/2} d theta / sqrt(h2(sin^2 theta) / 6),
    taken by the nested periodic trapezoid rule of models.exact_period.
    As in solve, the rule runs on the triple scaled to unit size by an exact
    power of four, so subnormal and huge triples neither overflow nor
    underflow.  A triple whose h2 is not positive on [0, 1] raises DomainError.
    """
    c = _coerce(c)
    k, unit = _unit_triple(c, max(abs(c.c1), abs(c.c3), abs(c.c5)))
    model = OscillatorModel(GENERIC, force_spec=[-x for x in unit])
    return math.ldexp(4.0 * _quarter_period_integral(_theta_integrand(model)), -k)


# The last computed _jacobi result, (solution, key, (sn, cn)), held for the paired call, so that
# evaluate and derivative on the same solution and times make one kernel call.  The next call
# empties it: at most one grid is held process-wide.  The held arrays are read-only and the key
# is private, so concurrent callers can lose a hit but never read another call's values.
_last = None


def _same_times(key, t) -> bool:
    """Same type, shape and bits, so that -0.0 != 0.0; never float ==."""
    if isinstance(t, float) or isinstance(key, float):
        return type(key) is type(t) and key.hex() == t.hex()
    return np.array_equal(key.view(np.int64), t.view(np.int64))  # False for another shape


def _jacobi(solution: ClosedFormSolution, t):
    """sn and cn at t/(2A), for finite scalar or array t.

    The kernel scales t once, inside its tangent argument, by a factor rounded once.  One
    reduction, max |t|, guards the times: NaN or inf raises, and only a batch that reaches
    past the span is clipped.  A scalar t runs the same lines as an array on Python floats
    (+ - * /, abs, min, max, a correctly rounded sqrt, numpy's tan loop), so _u and _du give
    scalar and batch the same bits.

    Each call empties the slot _last, reuses it for the same solution object and times of the
    same bits, and otherwise stores its result there with a private copy of t taken before the clip.
    """
    global _last
    t = _real(t)
    last, _last = _last, None
    if last is not None and last[0] is solution and _same_times(last[1], t):
        return last[2]
    key = t if isinstance(t, float) else t.copy()
    # Past 2^52 periods an ulp of t spans a period; clipping there keeps the tangent argument finite.
    span = math.ldexp(solution.period, 52)
    top = abs(t) if isinstance(t, float) else np.abs(t).max(initial=0.0)  # NaN if any t is NaN
    if not top <= span:
        if not math.isfinite(top):
            raise DomainError("evaluate and derivative need finite times")
        t = min(max(t, -span), span) if isinstance(t, float) else np.minimum(np.maximum(t, -span), span)
    sn, cn = _gauss(t, solution.params.m, over=2.0 * solution.params.A)
    if not isinstance(sn, float):
        sn.flags.writeable = cn.flags.writeable = False
    _last = (solution, key, (sn, cn))
    return sn, cn


# sn and cn carry the sign of the wave: no square root of u^2 or of the energy is taken, so
# zero crossings and turning points keep full relative precision.  psi = am(t/A)/2 gives
# u = sqrt(sb) cos(psi) / D, u' = -sqrt(sb) sin(psi) dn(t/A) / (2A D^3), D^2 = sb cos^2(psi) + sin^2(psi);
# at t/(2A) (DLMF 22.6.5-22.6.6) cos(psi) = cn/w, sin(psi) = sn dn/w, w^2 = 1 - m sn^4 and
# dn(t/A) w^2 = dn^4 + m (1 - m) sn^4 = cn^2 dn^2 + (1 - m) sn^2, so w cancels and, for every m < 1, no sum does.

def _squares(p: CaseIParameters, sn, cn):
    """sn^2, cn^2, dn^2 and e = sb cn^2 + sn^2 dn^2 = D^2 w^2, the one copy u and u' share."""
    sn2, cn2 = sn * sn, cn * cn
    dn2 = _dn2(sn2, cn2, p.m)
    return sn2, cn2, dn2, math.sqrt(p.B) * cn2 + sn2 * dn2


def _u(solution: ClosedFormSolution, sn, cn):
    p = solution.params
    return math.sqrt(math.sqrt(p.B)) * cn / _sqrt(_squares(p, sn, cn)[3])


def _du(solution: ClosedFormSolution, sn, cn):
    p = solution.params
    sn2, cn2, dn2, e = _squares(p, sn, cn)
    w2_dn = _dn2(sn2, cn2 * dn2, p.m)  # w^2 dn(t/A)
    du = -math.sqrt(math.sqrt(p.B)) / (2.0 * p.A) * w2_dn * _sqrt(dn2 / e) / e
    return du * sn + 0.0  # sn last, so a subnormal u' rounds once; +0.0 drops negative zeros


def _time_to(solution: ClosedFormSolution, u: float) -> float:
    """First time t >= 0 at which the solution reaches amplitude u in [0, 1].

    Inverts evaluate over the first quarter period: t is an incomplete
    F(phi | m) (elliptic._legendre_f), with sin and cos of the amplitude
    phi read off u algebraically, so u = 1 gives 0 and u = 0 a quarter period.
    """
    p = solution.params
    # tan^2(psi) = sb (1 - u^2) / u^2 with phi = 2 psi = am(t/A) in [0, pi];
    # past pi/2, F(phi) = 2K - F(pi - phi) and 2 A K is a quarter period.
    w = math.sqrt(p.B) * (1.0 - u) * (1.0 + u)
    d = u * u + w
    sin_phi, cos_phi = 2.0 * u * math.sqrt(w) / d, (u * u - w) / d
    f = p.A * _legendre_f(sin_phi, cos_phi ** 2, 1.0 - p.m)
    return f if cos_phi >= 0.0 else 0.25 * solution.period - f


def evaluate(solution: ClosedFormSolution, t):
    """Signed trajectory u(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    return _u(solution, *_jacobi(solution, t))


def derivative(solution: ClosedFormSolution, t):
    """Velocity u'(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    return _du(solution, *_jacobi(solution, t))
