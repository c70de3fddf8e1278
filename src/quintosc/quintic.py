"""Exact solution of the quintic oscillator.

The initial value problem is

    u'' = -(c1*u + c3*u^3 + c5*u^5),  u(0) = 1,  u'(0) = 0.

Energy conservation gives u'^2 = (1 - u^2) * h2(u^2) / 6 with the
quadratic h2(s) = (6c1 + 3c3 + 2c5) + (3c3 + 2c5)*s + 2*c5*s^2, and the
solution is periodic with |u| <= 1 exactly when h2 > 0 on [0, 1].

The paper inverts the time integral into Jacobi functions (DLMF chapter 22;
we pass m = k^2) with m = 1/2 - (sqrt(6)/8) k~ / sqrt(PQ), P = h2(1)/6,
Q = h2(0) and k~ = 4c1 + 3c3 + 2c5.  As m(1 - m) = -delta / (32 PQ) with the
discriminant delta = 3c3^2 - 4c5(4c1 + c3 + c5), h2 > 0 on [0, 1] is P, Q > 0 and
(delta < 0 or k~ > 0): m is in (0, 1) when h2 has no real root (the paper's Case I) and
m < 0, the imaginary modulus of DLMF 22.17, when its real roots lie off [0, 1]
(Case II, whatever the sign of c5), so one inversion serves every periodic triple.
Its Landen chain (the AGM of (1, sqrt(1 - m))) is built once per triple, and only the constants that
an evaluation reads are kept; the period 8 A K(m) takes K(m) = pi / (2 a_N) from its limit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .chebyshev import QuinticCoefficients
from .elliptic import M_MIN, _dn2, _gauss, _legendre_f, _real, _sqrt, _top
from .errors import DomainError, UnsupportedCaseError
from .models import GENERIC, OscillatorModel, _exact, _quarter_period_integral, _reading, _theta_integrand, _unit_scale

CASE_I = "I"
CASE_II = "II"
DEGENERATE = "degenerate"
UNSUPPORTED = "unsupported"

Coefficients = Union[QuinticCoefficients, tuple]


def _coerce(c: Coefficients) -> QuinticCoefficients:
    if isinstance(c, QuinticCoefficients):
        return c
    return QuinticCoefficients(*map(float, c))


class InversionParameters(NamedTuple):
    """The inversion parameters of a periodic triple: m < 0 when h2 has real roots; m1 = 1 - m, never cancelled."""

    A: float
    B: float
    m: float
    m1: float
    period: float
    # What every evaluation reads, rounded once, from _landen(m1) = (stages, a_N): the Gauss stage table,
    # a_N / (4A), sqrt(B), B^(1/4), -B^(1/4) / (2A), 2^52 T.  The chain's length N is len(stages[0]).
    stages: tuple
    half: float
    sb: float
    sqrt_sb: float
    du_scale: float
    span: float


@dataclass(frozen=True)
class ClosedFormSolution:
    """A solved quintic IVP: ``case`` is classify's label of ``coefficients``, ``params`` its inversion."""

    coefficients: QuinticCoefficients
    case: str
    params: InversionParameters
    period: float
    nudge = 0.0  # a class constant, not a field: solve never alters c5, and perfbench's counters read it


def discriminant(c: Coefficients) -> float:
    """delta = 3*c3^2 - 4*c5*(4*c1 + c3 + c5), exact and rounded once; a delta that is not finite raises DomainError."""
    c = _coerce(c)
    if all(map(math.isfinite, c.as_tuple())):
        *_, d, delta_d2 = _exact(*c.as_tuple())
        with contextlib.suppress(OverflowError):
            return delta_d2 / (d * d)  # int / int rounds once
    raise DomainError(f"discriminant of ({c.c1}, {c.c3}, {c.c5}) is not finite")


def _inversion(c: QuinticCoefficients) -> tuple[str, InversionParameters | None]:
    """classify's label of a triple and, unless it is UNSUPPORTED, its inversion parameters.

    A triple is UNSUPPORTED unless it has an exact reading (models._reading: h2 > 0 on [0, 1]) with m >= M_MIN.
    The label is DEGENERATE at delta = 0 exactly, else CASE_I for delta < 0 and CASE_II for delta > 0; the rest
    are the reading and the constants that an evaluation reads.
    """
    reading = _reading(c.as_tuple())
    if reading is None or not reading[1] >= M_MIN:
        return UNSUPPORTED, None
    delta_d2, m, m1, A, B, stages, a_n, period = reading
    label = DEGENERATE if delta_d2 == 0 else CASE_I if delta_d2 < 0 else CASE_II
    sb = math.sqrt(B)
    return label, InversionParameters(A, B, m, m1, period, stages, 0.5 * a_n / (2.0 * A),
                                      sb, math.sqrt(sb), -math.sqrt(sb) / (2.0 * A), math.ldexp(period, 52))


def classify(c: Coefficients) -> str:
    """Sort a triple into CASE_I, CASE_II, DEGENERATE or UNSUPPORTED (see _inversion).

    A triple is solvable exactly when h2 > 0 on [0, 1], c5 of either sign, unless its m
    falls below elliptic.M_MIN; lambda*c has the case of c for every lambda > 0.
    """
    return _inversion(_coerce(c))[0]


def solve(c: Coefficients) -> ClosedFormSolution:
    """Classify a triple once and return its ClosedFormSolution.

    Every accepted triple takes the one inversion (A, B, m, m1), m < 0 when h2 has real roots;
    a triple whose h2 is not positive on [0, 1] raises UnsupportedCaseError.
    """
    c = _coerce(c)
    label, params = _inversion(c)
    if params is None:
        raise UnsupportedCaseError(f"triple ({c.c1}, {c.c3}, {c.c5}) is outside solve's domain: "
                                   f"it needs h2 > 0 on [0, 1] and m >= {M_MIN:g}")
    return ClosedFormSolution(c, label, params, params.period)


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
    k, unit = _unit_scale(c.as_tuple())
    model = OscillatorModel(GENERIC, force_spec=[-x for x in unit])
    return math.ldexp(4.0 * _quarter_period_integral(_theta_integrand(model)), -k)


# The last computed _jacobi result, (solution, key, (sn, cn, sn^2, cn^2, dn^2, e)), held for the paired
# call, so that evaluate and derivative on the same solution and times make one kernel call and form the
# squares once.  The next call empties it: at most one grid is held process-wide.  The held arrays are
# read-only and the key is private, so concurrent callers can lose a hit but never read another call's values.
_last = None


def _jacobi(solution: ClosedFormSolution, t):
    """sn and cn at t/(2A), for finite scalar or array t, then sn^2, cn^2, dn^2 and e = sb cn^2 + sn^2 dn^2.

    The kernel scales t once, inside its tangent argument, by the solution's a_N / (4A).  One
    reduction, max |t|, guards the times: NaN or inf raises, and only a batch that reaches
    past the span 2^52 T, where an ulp of t spans a period, is clipped, so the tangent argument
    stays finite.  A scalar t runs the same lines as an array on Python floats
    (+ - * /, abs, min, max, a correctly rounded sqrt, numpy's tan loop), so evaluate and
    derivative give scalar and batch the same bits.

    Each call empties the slot _last, reuses it for the same solution object and a key of the same
    bits, and otherwise stores its result there, every array read-only.  The key, taken before the
    clip, is (t, sign of t) for a float, so that -0.0 != 0.0, and (shape, bytes) for an array.
    """
    global _last
    t = _real(t)
    key = (t, math.copysign(1.0, t)) if isinstance(t, float) else (t.shape, t.tobytes())
    last, _last = _last, None
    if last is not None and last[0] is solution and last[1] == key:
        return last[2]
    p = solution.params
    if not _top(t) <= p.span:
        t = min(max(t, -p.span), p.span) if isinstance(t, float) else np.minimum(np.maximum(t, -p.span), p.span)
    sn, cn = _gauss(t, p.half, p.m1, p.stages)
    sn2, cn2 = sn * sn, cn * cn
    dn2 = _dn2(sn2, cn2, p.m1)
    values = (sn, cn, sn2, cn2, dn2, p.sb * cn2 + sn2 * dn2)
    if not isinstance(sn, float):
        for x in values:
            x.flags.writeable = False
    _last = (solution, key, values)
    return values


def _time_to(solution: ClosedFormSolution, u: float) -> float:
    """First time t >= 0 at which the solution reaches amplitude u in [0, 1].

    Inverts evaluate over the first quarter period: t is an incomplete
    F(phi | m) (elliptic._legendre_f), with sin and cos of the amplitude
    phi read off u algebraically, so u = 1 gives 0 and u = 0 a quarter period.
    """
    p = solution.params
    # tan^2(psi) = sb (1 - u^2) / u^2 with phi = 2 psi = am(t/A) in [0, pi];
    # past pi/2, F(phi) = 2K - F(pi - phi) and 2 A K is a quarter period.
    w = p.sb * (1.0 - u) * (1.0 + u)
    d = u * u + w
    sin_phi, cos_phi = 2.0 * u * math.sqrt(w) / d, (u * u - w) / d
    f = p.A * _legendre_f(sin_phi, cos_phi ** 2, p.m1)
    return f if cos_phi >= 0.0 else 0.25 * solution.period - f


# sn and cn carry the sign of the wave: no square root of u^2 or of the energy is taken, so
# zero crossings and turning points keep full relative precision.  psi = am(t/A)/2 gives
# u = sqrt(sb) cos(psi) / D, u' = -sqrt(sb) sin(psi) dn(t/A) / (2A D^3), D^2 = sb cos^2(psi) + sin^2(psi);
# at t/(2A) (DLMF 22.6.5-22.6.6) cos(psi) = cn/w, sin(psi) = sn dn/w, w^2 = 1 - m sn^4 and
# dn(t/A) w^2 = dn^4 + m (1 - m) sn^4 = cn^2 dn^2 + (1 - m) sn^2, so w cancels and, for every m < 1, no sum does.
# _jacobi's e is D^2 w^2.
def evaluate(solution: ClosedFormSolution, t):
    """Signed trajectory u(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    sn, cn, sn2, cn2, dn2, e = _jacobi(solution, t)
    return solution.params.sqrt_sb * cn / _sqrt(e)


def derivative(solution: ClosedFormSolution, t):
    """Velocity u'(t) for scalar or array t, over all finite times (NaN or inf raises DomainError)."""
    sn, cn, sn2, cn2, dn2, e = _jacobi(solution, t)
    p = solution.params
    w2_dn = _dn2(sn2, cn2 * dn2, p.m1)  # w^2 dn(t/A)
    du = p.du_scale * w2_dn * _sqrt(dn2 / e) / e
    return du * sn + 0.0  # sn last, so a subnormal u' rounds once; +0.0 drops negative zeros
