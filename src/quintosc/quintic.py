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

Each case inverts the resulting elliptic time integral into Jacobi
functions; see DLMF chapter 22 for the function conventions (we pass the
parameter m = k^2 throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .chebyshev import QuinticCoefficients
from .elliptic import _dn2, _gauss, _legendre_f, _real, _sqrt, complete_K
from .errors import ConstructionError, DomainError, UnsupportedCaseError
from .models import GENERIC, OscillatorModel, _quarter_period_integral, _theta_integrand

CASE_I = "I"
CASE_II = "II"
DEGENERATE = "degenerate"
UNSUPPORTED = "unsupported"

# Step added to c5, as a fraction of max(|c1|, |c3|, |c5|), when the discriminant
# vanishes: the degenerate solution is the limit of Case I solutions, so a tiny
# perturbation recovers it to comparable accuracy; classify says why it lands in Case I.
NUDGE = 1e-8

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
    A: float
    B: float
    m: float
    period: float


@dataclass(frozen=True)
class CaseIIParameters:
    s1: float
    s2: float
    m: float
    rate: float
    period: float


@dataclass(frozen=True)
class ClosedFormSolution:
    """A solved quintic IVP.

    ``coefficients`` is the triple the caller asked about; ``solved``
    is the triple actually inverted.  They differ only when solve() had
    to shift c5 (degenerate discriminant or negligible quintic term).
    """

    coefficients: QuinticCoefficients
    case: str
    params: Union[CaseIParameters, CaseIIParameters]
    period: float
    solved: QuinticCoefficients
    nudge: float = 0.0  # the c5 shift: solved.c5 is coefficients.c5 + nudge up to rounding


def _delta(c1: float, c3: float, c5: float) -> float:
    return 3.0 * c3 * c3 - 4.0 * c5 * (4.0 * c1 + c3 + c5)


def discriminant(c: Coefficients) -> float:
    """delta = 3*c3^2 - 4*c5*(4*c1 + c3 + c5); a delta that is not finite raises DomainError."""
    c = _coerce(c)
    delta = _delta(c.c1, c.c3, c.c5)
    if not math.isfinite(delta):
        raise DomainError(f"discriminant of ({c.c1}, {c.c3}, {c.c5}) is not finite: {delta}")
    return delta


def classify(c: Coefficients) -> str:
    """Sort a triple into CASE_I, CASE_II, DEGENERATE or UNSUPPORTED.

    The case of lambda*c equals that of c for every lambda > 0, so the
    triple is first divided by its scale max(|c1|, |c3|, |c5|); vanishing
    of the discriminant of that unit triple is decided up to the
    tolerance 1e-9 * max(1, 3*c3^2).  With c5 >= C5_FLOOR, as solve passes it, c1 = -1
    never falls in that band and 4c1 + c3 + 2c5 >= 1 - 1e-9 there, so NUDGE added to c5
    takes delta below it, into Case I.  Off it, h2 > 3e-10 on every s in Case I and
    3*delta > 7e-10 in Case II: the case builders need no guard on P, Q, m or real roots.
    """
    c = _coerce(c)
    if not c.c5 > 0.0:
        return UNSUPPORTED
    scale = max(abs(c.c1), abs(c.c3), c.c5)
    c1, c3, c5 = c.c1 / scale, c.c3 / scale, c.c5 / scale
    delta = _delta(c1, c3, c5)  # NaN for a non-finite triple, which falls through to UNSUPPORTED
    if abs(delta) <= 1e-9 * max(1.0, 3.0 * c3 * c3):
        return DEGENERATE
    if delta < 0.0:
        return CASE_I
    if 6.0 * c1 + 3.0 * c3 + 2.0 * c5 > 0.0 and 3.0 * c3 + 2.0 * c5 > 0.0:
        return CASE_II
    return UNSUPPORTED


def _case_one(c1: float, c3: float, c5: float, k: int) -> CaseIParameters:
    """Negative-discriminant solution parameters of the Case I triple 4^k * (c1, c3, c5)."""
    P = c1 + c3 + c5
    Q = 6.0 * c1 + 3.0 * c3 + 2.0 * c5
    k_tilde = 4.0 * c1 + 3.0 * c3 + 2.0 * c5
    pq = P * Q
    A = math.ldexp((6.0 / pq) ** 0.25 / 2.0, -k)
    B = Q / (6.0 * P)
    m = 0.5 - math.sqrt(6.0) / 8.0 * k_tilde / math.sqrt(pq)
    return CaseIParameters(A, B, m, 8.0 * A * complete_K(m))


def _case_two(c1: float, c3: float, c5: float, k: int) -> CaseIIParameters:
    """Positive-discriminant solution parameters of the Case II triple 4^k * (c1, c3, c5)."""
    # h2(s) = a2*s^2 + b2*s + q2 with both roots negative in Case II.
    a2 = 2.0 * c5
    b2 = 3.0 * c3 + 2.0 * c5
    q2 = 6.0 * c1 + 3.0 * c3 + 2.0 * c5
    disc = b2 * b2 - 4.0 * a2 * q2  # equals 3*delta
    w = -(b2 + math.copysign(math.sqrt(disc), b2)) / 2.0
    r1, r2 = w / a2, q2 / w
    s1, s2 = min(r1, r2), max(r1, r2)
    if not s1 < s2 < 0.0:
        raise ConstructionError(f"Case II requires h2 roots s1 < s2 < 0, got ({s1}, {s2})")
    m = (s2 - s1) / (s1 * (s2 - 1.0))
    if not 0.0 < m < 1.0:
        raise ConstructionError(f"Case II parameter m={m} outside (0, 1)")
    rate = math.ldexp(math.sqrt(c5 * s1 * (s2 - 1.0) / 3.0), k)
    return CaseIIParameters(s1, s2, m, rate, 4.0 * complete_K(m) / rate)


def _unit_triple(c: QuinticCoefficients, scale: float) -> tuple[int, list[float]]:
    """k with 4^k near ``scale``, and the triple divided by 4^k, exact unless a quotient is subnormal."""
    k = math.frexp(scale)[1] // 2
    return k, [math.ldexp(x, -2 * k) for x in c.as_tuple()]


def solve(c: Coefficients) -> ClosedFormSolution:
    """Classify a triple once and return its ClosedFormSolution.

    Two borderline situations are solved through a nearby triple, with
    the c5 shift recorded on the result as ``nudge``: a c5 that is
    negligible against the other coefficients is lifted to C5_FLOOR times
    their scale, and a degenerate triple (vanishing discriminant) gets
    NUDGE times that scale added to c5, which always lands in Case I.
    """
    c = _coerce(c)
    scale = max(abs(c.c1), abs(c.c3), abs(c.c5))
    if scale == 0.0:
        raise UnsupportedCaseError("cannot solve the all-zero triple")
    target = c if abs(c.c5) > C5_FLOOR * scale else QuinticCoefficients(c.c1, c.c3, C5_FLOOR * scale, c.provenance)
    label = classify(target)
    if label == UNSUPPORTED:
        raise UnsupportedCaseError(f"triple ({c.c1}, {c.c3}, {c.c5}) is outside both solvable cases (needs c5 > 0 "
                                   "and, for a positive discriminant, 6c1 + 3c3 + 2c5 > 0 and 3c3 + 2c5 > 0)")
    nudge = target.c5 - c.c5
    if label == DEGENERATE:  # one step always lands in Case I (see classify)
        label, nudge, target = CASE_I, nudge + NUDGE * scale, QuinticCoefficients(
            c.c1, c.c3, target.c5 + NUDGE * scale, c.provenance)
    # u(t) solves 4^k * c when v(2^k t) solves c, so the parameters are built
    # on a triple of unit size, where nothing overflows or underflows, and
    # only A, the rate and the period carry the scale, as exact powers of two.
    k, unit = _unit_triple(target, scale)
    params = (_case_one if label == CASE_I else _case_two)(*unit, k)
    return ClosedFormSolution(c, label, params, params.period, target, nudge)


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
    """sn and cn at t/(2A) in Case I and at rate * t in Case II, for finite scalar or array t.

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
    p = solution.params
    sn, cn = _gauss(t, p.m, over=2.0 * p.A) if solution.case == CASE_I else _gauss(t, p.m, p.rate)
    if not isinstance(sn, float):
        sn.flags.writeable = cn.flags.writeable = False
    _last = (solution, key, (sn, cn))
    return sn, cn


# sn and cn carry the sign of the wave: no square root of u^2 or of the energy is taken, so
# zero crossings and turning points keep full relative precision.  Case I: psi = am(t/A)/2 gives
# u = sqrt(sb) cos(psi) / D, u' = -sqrt(sb) sin(psi) dn(t/A) / (2A D^3), D^2 = sb cos^2(psi) + sin^2(psi);
# at t/(2A) (DLMF 22.6.5-22.6.6) cos(psi) = cn/w, sin(psi) = sn dn/w, dn(t/A) = (dn^4 + m (1 - m) sn^4) / w^2,
# w^2 = 1 - m sn^4, so w cancels.  Case II: u = cn sqrt(-s1/q), q = sn^2 - s1 > 0 (s1 < 0).  No sum cancels.

def _case_i_squares(p: CaseIParameters, sn, cn):
    """Case I: sn^2, dn^2 and e = sb cn^2 + sn^2 dn^2 = D^2 w^2, the one copy u and u' share."""
    sn2, cn2 = sn * sn, cn * cn
    dn2 = _dn2(sn2, cn2, p.m)
    return sn2, dn2, math.sqrt(p.B) * cn2 + sn2 * dn2


def _u(solution: ClosedFormSolution, sn, cn):
    p = solution.params
    if solution.case == CASE_I:
        return math.sqrt(math.sqrt(p.B)) * cn / _sqrt(_case_i_squares(p, sn, cn)[2])
    return cn * _sqrt(-p.s1 / (sn * sn - p.s1))


def _du(solution: ClosedFormSolution, sn, cn):
    p = solution.params
    if solution.case == CASE_I:
        sn2, dn2, e = _case_i_squares(p, sn, cn)
        w2_dn = dn2 * dn2 + p.m * (1.0 - p.m) * sn2 * sn2  # w^2 dn(t/A)
        du = -math.sqrt(math.sqrt(p.B)) / (2.0 * p.A) * w2_dn * _sqrt(dn2 / e) / e
    else:
        sn2 = sn * sn
        q = sn2 - p.s1
        du = -p.rate * math.sqrt(-p.s1) * (1.0 - p.s1) * _sqrt(_dn2(sn2, cn * cn, p.m) / q) / q
    return du * sn + 0.0  # sn last, so a subnormal u' rounds once; +0.0 drops negative zeros


def _time_to(solution: ClosedFormSolution, u: float) -> float:
    """First time t >= 0 at which the solution reaches amplitude u in [0, 1].

    Inverts evaluate over the first quarter period: t is an incomplete
    F(phi | m) (elliptic._legendre_f), with sin and cos of the amplitude
    phi read off u algebraically, so u = 1 gives 0 and u = 0 a quarter period.
    """
    p = solution.params
    if solution.case == CASE_I:
        # tan^2(psi) = sb (1 - u^2) / u^2 with phi = 2 psi = am(t/A) in [0, pi];
        # past pi/2, F(phi) = 2K - F(pi - phi) and 2 A K is a quarter period.
        w = math.sqrt(p.B) * (1.0 - u) * (1.0 + u)
        d = u * u + w
        sin_phi, cos_phi = 2.0 * u * math.sqrt(w) / d, (u * u - w) / d
        f = p.A * _legendre_f(sin_phi, cos_phi ** 2, 1.0 - p.m)
        return f if cos_phi >= 0.0 else 0.25 * solution.period - f
    # u^2 = -s1 cn^2 / (sn^2 - s1) with phi = am(rate t) in [0, pi/2].
    q = u * u - p.s1
    sn2, cn2 = -p.s1 * (1.0 - u) * (1.0 + u) / q, u * u * (1.0 - p.s1) / q
    return _legendre_f(math.sqrt(sn2), cn2, 1.0 - p.m) / p.rate


def evaluate(solution: ClosedFormSolution, t):
    """Signed trajectory u(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    return _u(solution, *_jacobi(solution, t))


def derivative(solution: ClosedFormSolution, t):
    """Velocity u'(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    return _du(solution, *_jacobi(solution, t))
