"""Normalised oscillator models.

Each model describes an initial value problem u'' = f_a(u), u(0) = 1,
u'(0) = 0 on the normalised amplitude interval [-1, 1], where f_a is an
odd restoring force.  The catalogue covers a relativistic-style force,
a cable-suspended-mass force, a Duffing term combined with the
relativistic one, and arbitrary odd polynomial forces supplied as a
coefficient list.  Each is an odd polynomial plus a weighted relativistic
term, read from the kind in one place (_parts).

The potential is defined as Phi(u) = -2 * integral_u^1 f_a(s) ds, so that
the conserved energy reads u'^2 = Phi(u) and the exact period is
T = 2 * integral_{-1}^{1} ds / sqrt(Phi(s)).  Every model here factors as
Phi(u) = (1 - u^2) * G(u) with G smooth and positive, which removes the
inverse-square-root endpoint singularity from all quadratures via the
substitution u = sin(theta).  The period is in closed form for the
relativistic and cable-mass forces and, as solve's period of c = -p, for a
generic force of degree <= 5; the others take the trapezoid rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
CLOSED_FORM_K = "closed_form_k"
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


def _parts(model: OscillatorModel) -> tuple[tuple[float, ...], float]:
    """Each kind's force as an odd polynomial plus a weighted relativistic term,
    f(u) = u * sum_k p_k u^(2k) - beta * u / sqrt(1 + (a u)^2): returns (p, beta)."""
    if model.kind == RELATIVISTIC:
        return (), 1.0
    if model.kind == CABLE_MASS:
        return (-1.0,), model.b
    if model.kind == DUFFING_RELATIVISTIC:
        return (-1.0, -model.a * model.a), model.b
    if not model.force_spec:
        raise DomainError("generic model requires a non-empty force_spec")
    return model.force_spec, 0.0


def _sqrt_term(a: float, u):
    # (a*u)^2, not a^2 u^2: once a*a overflows, inf * 0 would be NaN at u = 0.
    t = a * u
    t *= t  # (a u)^2 in place: t * t rounds as np.square(t) does
    t += 1.0
    return np.sqrt(t)


def _g_rel(a: float, u):
    """G of the relativistic term, (J - sqrt(1 + a^2 u^2)) / (1 - u^2) rationalised; exact at u = +-1."""
    return 2.0 / (math.hypot(1.0, a) + _sqrt_term(a, u))


def _horner(x, c):
    """Sum of c[k] * x**k for a non-empty 1-d c: polyval's bits at each finite x >= +0.0, whose x * 0 is +0.0."""
    acc = c[-1] + 0.0 if len(c) > 1 else x * 0.0 + c[0]  # the first *= makes a new array; the rest work in place
    for ck in c[-2::-1]:
        acc *= x
        acc += ck
    return acc


def _even(c, u, u2=None):
    """Sum of c[k] * u**(2k) for a non-empty c (u2: np.square(u), if the caller holds it); a constant stays a float."""
    return c[0] if len(c) == 1 else _horner(np.square(u) if u2 is None else u2, c)


def _force(p, beta: float, a: float, u: np.ndarray, u2=None) -> np.ndarray:
    """u * sum_k p_k u^(2k) - beta * u / sqrt(1 + (a u)^2) for a float array u (u2 as in _even), p or beta nonzero:
    the restoring force of _parts' (p, beta), and validation's residual on combined coefficients."""
    out = None
    if p:
        out = _even(p, u, u2)  # a new array, or a float that *= rebinds
        out *= u
    if beta:
        rel = beta * u
        rel /= _sqrt_term(a, u)
        if out is None:
            return -rel
        out -= rel
    return out


def restoring_force(model: OscillatorModel, u):
    """Normalised odd restoring force f_a(u) for scalar or array u; an invalid model, NaN or inf raises DomainError."""
    _require_valid(model)
    u = np.asarray(elliptic._real(u))  # as in evaluate, text raises TypeError
    elliptic._top(u)  # and NaN or inf DomainError
    out = _force(*_parts(model), model.a, u)
    return out if out.ndim else float(out)


def _generic_g_coeffs(spec: Sequence[float]) -> list[float]:
    # Phi = -sum_k p_k (1 - u^(2k+2)) / (k+1) and (1 - u^(2k+2)) / (1 - u^2)
    # telescopes to sum_{j<=k} u^(2j), so G is a polynomial in u^2 with
    # g_j = -sum_{k>=j} p_k / (k+1), subtracted in order of k.
    q = [p / (k + 1) for k, p in enumerate(spec)]
    return [functools.reduce(operator.sub, q[j:], 0.0) for j in range(len(q))]


def potential_phi(model: OscillatorModel, u):
    """Potential Phi(u) = -2 * integral_u^1 f_a, 0 at u = +-1; an invalid model, NaN or inf raises DomainError."""
    _require_valid(model)
    u = np.asarray(elliptic._real(u))  # as in evaluate, text raises TypeError
    elliptic._top(u)  # and NaN or inf DomainError
    (p, beta), u2 = _parts(model), np.square(u)
    g = _even(_generic_g_coeffs(p), u, u2) if p else 0.0
    out = (1.0 - u2) * (g + beta * _g_rel(model.a, u) if beta else g)  # (1 - u^2) G(u)
    return out if out.ndim else float(out)


# Nested trapezoid for complete quarter periods: 8 panels, doubled up to 2^16.
_TRAPEZOID_PANELS = (8, 2 ** 16)
# The first integrand call covers the 64-panel grid, whose strided views are the
# 8-, 16-, 32- and 64-panel levels; finer levels evaluate their midpoints.
_TRAPEZOID_GRID = 64
_TRAPEZOID_TOL = 1e-15


@functools.cache  # the first grid and the midpoints of 64 to 2^15 panels: at most 11 entries
def _nodes(n: int) -> tuple[np.ndarray, ...]:
    """Read-only (theta, sin theta, sin^2 theta, cos^2 theta) on the first grid (n = 0), else at n midpoints."""
    theta = (0.5 * math.pi / (n or _TRAPEZOID_GRID)) * (np.arange(n) + 0.5 if n else np.arange(_TRAPEZOID_GRID + 1))
    u = np.sin(theta)
    nodes = (theta, u, np.square(u), np.square(np.cos(theta)))
    for x in nodes:
        x.flags.writeable = False
    return nodes


def _theta_integrand(model: OscillatorModel):
    """The regularised integrand 1 / sqrt(G(sin theta)) of Psi and the period, on a level's _nodes."""
    p, beta = _parts(model)
    if p:
        # With s = sin^2 and c = cos^2, the polynomial part of G is
        # c G(0) + s G(1) + c s R(s), so a G(0) or G(1) near zero keeps its
        # relative precision at u = 0 and u = +-1, where s or c is small;
        # Horner in s alone loses it at u = +-1.  G(1) is -f(1).
        # R(s) = (G(s) - c G(0) - s G(1)) / (s c): dividing by s shifts the
        # coefficients and dividing by c = 1 - s takes running sums.
        g = _generic_g_coeffs(p)
        g_0, g_1 = g[0], -sum(p)
        r = list(itertools.accumulate([g[0] + g[1] - g_1] + g[2:-1])) if len(g) > 2 else None

    def integrand(nodes):
        _, u, s, c = nodes
        G = beta * _g_rel(model.a, u) if beta else 0.0
        if p:
            g_p = c * g_0 + s * g_1 if r is None else c * g_0 + s * g_1 + c * s * _horner(s, r)
            G = g_p + G if beta else g_p
        return 1.0 / np.sqrt(G)

    return integrand


def _quarter_period_integral(g) -> float:
    """Integral of g over [0, pi/2] for a smooth g even about 0 and about pi/2.

    Such a g is even and pi-periodic, so the trapezoid rule on the nodes
    k*pi/(2n) is the periodic trapezoid rule, which converges exponentially
    (Trefethen & Weideman, SIAM Review 56, 2014).  g is evaluated once on
    the 64-panel grid, which must be finite and positive (else DomainError);
    the 8-, 16-, 32- and 64-panel levels are its strided views, and each
    further doubling of n evaluates only the n new midpoints.  Every level's
    step is a power-of-two multiple of the finest, so the nodes are the same
    floats however they are formed.  The loop stops when two levels agree to
    _TRAPEZOID_TOL relative and returns the finer one.
    """
    n, cap = _TRAPEZOID_PANELS
    # g runs silently on every level: values and sums that are not finite and positive raise below.
    with np.errstate(all="ignore"):
        grid = g(_nodes(0))
        if not (0.0 < grid.min() and grid.max() < math.inf):  # NaN fails both
            raise DomainError(f"quarter-period integrand is not finite and positive on the first grid "
                              f"(min {grid.min()}, max {grid.max()})")
        stride = _TRAPEZOID_GRID // n
        values = grid[::stride]
        h = 0.5 * math.pi / n
        # np.add.reduce is np.sum's own reduction, without its dispatch layers.
        total = np.add.reduce(values) - 0.5 * (values[0] + values[-1])
        estimate = h * total
        while n < cap:
            stride //= 2
            total += np.add.reduce(grid[stride::2 * stride] if stride else g(_nodes(n)))
            n, h, previous = 2 * n, 0.5 * h, estimate
            estimate = h * total
            if not 0.0 < estimate < math.inf:
                raise DomainError(f"quarter-period integrand is not finite and positive (integral {estimate})")
            if abs(estimate - previous) <= _TRAPEZOID_TOL * estimate:
                return float(estimate)
    raise ConvergenceError(f"quarter-period trapezoid did not converge within {cap} panels "
                           f"(last change {abs(estimate - previous) / estimate:.3g} relative)")


def _unit_scale(xs: Sequence[float]) -> tuple[int, list[float]]:
    """k with 4^k near max |x|, and the xs divided by 4^k, exact unless a quotient is subnormal."""
    k = math.frexp(max(map(abs, xs)))[1] // 2
    return k, [math.ldexp(x, -2 * k) for x in xs]


def _exact(c1: float, c3: float, c5: float) -> tuple[int, int, int, int, int]:
    """A finite triple as integers (n1, n3, n5) over one power of two d, and d^2 delta, all exact."""
    (n1, q1), (n3, q3), (n5, q5) = c1.as_integer_ratio(), c3.as_integer_ratio(), c5.as_integer_ratio()
    d = max(q1, q3, q5)
    n1, n3, n5 = n1 * (d // q1), n3 * (d // q3), n5 * (d // q5)
    return n1, n3, n5, d, 3 * n3 * n3 - 4 * n5 * (4 * n1 + n3 + n5)


def _reading(c: Sequence[float]) -> Optional[tuple]:
    """The exact reading of the quintic u'' = -(c1 u + c3 u^3 + c5 u^5), c = (c1, c3, c5) or a prefix of it (zeros
    after): None unless c is finite and h2 > 0 on [0, 1], else (d^2 delta, m, m1, A, B, stages, a_N, period).

    P, Q, k~ and delta come from one exact integer image of c scaled to unit size, each rounded once.  h2 > 0 on
    [0, 1] is P, Q > 0 and (delta < 0 or k~ > 0): at delta = 0, k~ = (4/3) c5 s0 (s0 - 1) puts a double root s0 of
    h2 in [0, 1] when k~ <= 0, a separatrix on which u never reaches 0.  m1 = 1 - m is (1 + x) / 2,
    x = sqrt(6) k~ / (4 sqrt(PQ)), or -delta / (16 PQ (1 - x)) when x < 0: nothing cancels.  The period 8 A K(m)
    takes K(m) = pi / (2 a_N) from the Landen chain elliptic._landen(m1) = (stages, a_N), DLMF 19.8.5.
    """
    if not all(map(math.isfinite, c)):
        return None
    # u(t) solves 4^k * c when v(2^k t) solves c, so the reading is built on c of unit size, where nothing
    # overflows or underflows, and only A and the period carry the scale, as exact powers of two.
    k, unit = _unit_scale(c)
    n1, n3, n5, d, delta_d2 = _exact(*unit, *[0.0] * (3 - len(unit)))
    P, Q, k_tilde = (n1 + n3 + n5) / d, (6 * n1 + 3 * n3 + 2 * n5) / d, (4 * n1 + 3 * n3 + 2 * n5) / d
    if not (P > 0.0 and Q > 0.0 and (delta_d2 < 0 or k_tilde > 0.0)):  # the zero triple too
        return None
    half_x = math.sqrt(6.0) / 8.0 * k_tilde / math.sqrt(P) / math.sqrt(Q)
    m = 0.5 - half_x
    m1 = 0.5 + half_x if half_x >= 0.0 else -delta_d2 / (d * d) / P / Q / (32.0 * m)
    # P * Q would underflow at a subnormal Q; 6 / P overflows at a subnormal P, whose m is below elliptic.M_MIN.
    A = math.ldexp(((6.0 / P) ** 0.25 if P > 1e-300 else 6.0 ** 0.25 / P ** 0.25) / Q ** 0.25 / 2.0, -k)
    stages, a_n = elliptic._landen(m1)
    return delta_d2, m, m1, A, Q / (6.0 * P), stages, a_n, 8.0 * A * (0.5 * math.pi / a_n)


def _quarter_period(model: OscillatorModel) -> tuple[float, str]:
    """Psi(0), a quarter period, and its route: a quarter of _reading's period of c = -p for a generic force of
    degree <= 5 (trailing zeros dropped), its own quintic, else the trapezoid on 1/sqrt(G(sin theta))."""
    if model.kind == GENERIC and not any(model.force_spec[3:]):
        return 0.25 * _reading([-p for p in model.force_spec[:3]])[-1], CLOSED_FORM_K
    return _quarter_period_integral(_theta_integrand(model)), QUADRATURE


def exact_period(model: OscillatorModel) -> ExactPeriod:
    """Exact period of the model oscillation.

    Closed forms exist for the relativistic force (4 Psi(0), complete K and E)
    and the cable-mass force (complete third-kind integral), each one call of
    elliptic._cel, and for a generic force of degree <= 5, whose period is
    solve's 8 A K(m) of c = -p, from _reading and its Landen AGM.  The others
    take four times the quarter period integral of 1/sqrt(G(sin theta)) by the
    nested periodic trapezoid rule, converged to 1e-15 relative: one integrand
    call on 64 panels, then one per doubling past them.
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
        # T = 4 / sqrt(A) ((1 + J) Pi(n, m) - K(m)) = 4 / sqrt(A) cel(kc, q, J, J + n), kc = sqrt(1 - m), q = 1 - n,
        # both >= 1: _cel's reciprocal form, with J factored out of a and b and applied last, overflows at no a.
        kc, q = math.sqrt(1.0 - m), 1.0 - n
        value = 4.0 * (J / math.sqrt(A) / kc) * elliptic._cel(1.0 / kc, 1.0 / q, (J + n) / J / q, 1.0 / q)
        return ExactPeriod(value, CLOSED_FORM_PI)
    value, method = _quarter_period(model)
    return ExactPeriod(4.0 * value, method)


def time_integral_psi(model: OscillatorModel, u: float) -> float:
    """Time for the trajectory to travel from amplitude 1 down to u.

    Psi(u) = integral_u^1 ds / sqrt(Phi(s)); Psi(1) = 0 and Psi(0) is a
    quarter period.  The relativistic model takes every u in (-1, 1] by its
    F/E closed form, negative u through Psi(u) = 2 Psi(0) - Psi(-u).  The
    other kinds take u = 1 and u = 0 only, Psi(0) being exact_period's
    quarter period: a quarter of solve's period for a generic force of
    degree <= 5, else the nested trapezoid on 1/sqrt(G(sin theta)) (also for
    the cable-mass kind); any other u raises DomainError.
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
    if u != 0.0:
        raise DomainError(f"time_integral_psi of a {model.kind} model takes u = 0 or u = 1 only, got u={u}")
    return _quarter_period(model)[0]


def _psi_relativistic(a: float, u: float) -> float:
    """Psi(u) = sqrt(2) (sqrt(J+1) E(phi | m) - F(phi | m) / sqrt(J+1)), J = sqrt(1 + a^2), 0 <= u < 1.

    m = ((J - 1) / a)^2 rounds to 1 from a ~ 1e16 on, but 1 - m = 2 / (J + 1)
    does not.  sin^2(phi) = (J - h) / (J - 1), h = sqrt(1 + a^2 u^2), is
    (1 - u^2) / (1 + t) and cos^2(phi) = (u^2 + t) / (1 + t) with
    t = (a u / (h + 1)) (a u / (J + 1)) in [0, 1): nothing cancels or overflows.
    """
    J = math.hypot(1.0, a)
    if u == 0.0:  # (J + 1) E - K = cel(kc, 1, J, 1) with kc^2 = 1 - m: two positive terms, J scaled out
        return J / math.sqrt(0.5 * (J + 1.0)) * elliptic._cel(math.sqrt(2.0 / (J + 1.0)), 1.0, 1.0, 1.0 / J)
    au = a * u
    t = au / (math.hypot(1.0, au) + 1.0) * (au / (J + 1.0))
    s = math.sqrt((1.0 - u) * (1.0 + u) / (1.0 + t))
    f, e = elliptic._legendre_fe(s, (u * u + t) / (1.0 + t), 2.0 / (J + 1.0))
    amp = math.sqrt(J + 1.0)
    return math.sqrt(2.0) * (amp * e - f / amp)


def validate_params(model: OscillatorModel) -> list[str]:
    """Check parameter domains and potential positivity.

    Returns an empty list when the model is usable; otherwise a list of human-readable diagnostics, each
    naming the violated condition (and the offending abscissa for potential-positivity failures).  For the
    catalogue kinds G > 0 holds analytically once a (and b where it is used) is positive and finite;
    duffing-relativistic also needs a^2 finite.  For the generic model G is a polynomial in s = u^2, trailing
    zero coefficients dropped.  Degree <= 5 is decided exactly, by _reading's rule on c = -p; degree >= 7 by
    the least rounded G at s = 0, s = 1 or a critical point (by the quadratic formula for a cubic G, else from
    companion-matrix eigenvalues), which also names a rejection's abscissa.  The problems are computed once
    per model instance; exact_period, time_integral_psi, restoring_force, potential_phi,
    validation.residual_sup_norm and validation.quintify reuse them, and each call here returns a fresh list.
    """
    return list(model._problems)


def _find_problems(model: OscillatorModel) -> list[str]:
    problems: list[str] = []
    if model.kind == GENERIC:
        spec = model.force_spec or ()
        while len(spec) > 1 and not spec[-1]:
            spec = spec[:-1]  # trailing zero coefficients
        f1 = sum(spec)
        if not spec:
            problems.append("generic model requires force_spec, a non-empty list of odd-polynomial coefficients")
        elif not all(map(math.isfinite, spec)):
            problems.append("force_spec contains non-finite coefficients")
        elif not math.isfinite(f1):
            problems.append(f"restoring force at u=1 overflows: f(1) = sum(force_spec) = {f1}")
        elif len(spec) <= 3 and _reading([-p for p in spec]):
            pass  # degree <= 5: G = h2 / 6 of c = -p, positive on [0, 1] by the exact rule
        elif f1 >= 0.0:
            problems.append(f"restoring force must be negative at u=1, got f(1)={f1}")
        else:
            g = _generic_g_coeffs(spec)
            d = [k * g[k] for k in range(1, len(g))]  # G', formed as polyder forms it
            roots = _quadratic_roots(*d, *[0.0] * (3 - len(d))) if len(d) <= 3 else _roots(d)
            s = [0.0, 1.0] + [min(1.0, max(0.0, r)) for r in roots]  # none for a constant G
            gs = [_horner(x, g) for x in s]
            i = np.argmin(gs)
            if not gs[i] > 0.0:
                problems.append(f"potential must be positive on (-1, 1): "
                                f"Phi({math.sqrt(s[i]):.6g}) = {(1.0 - s[i]) * gs[i]:.6g}")
            elif len(spec) <= 3:
                problems.append(f"potential must be positive on (-1, 1): Phi <= 0 in exact arithmetic "
                                f"near u={math.sqrt(s[i]):.6g}")
    else:
        # Up to the largest float, not inf: an int past it would overflow later.  a^2 as floats warns on no dtype.
        if not 0.0 < model.a <= sys.float_info.max:
            problems.append(f"amplitude a must be positive and finite, got a={model.a}")
        elif model.kind == DUFFING_RELATIVISTIC and float(model.a) * float(model.a) == math.inf:
            problems.append(f"the cubic coefficient a^2 of {model.kind} overflows at a={model.a}")
        if model.kind in (CABLE_MASS, DUFFING_RELATIVISTIC) and not 0.0 < model.b <= sys.float_info.max:
            problems.append(f"parameter b must be positive and finite for {model.kind}, got b={model.b}")
    return problems


def _quadratic_roots(d0: float, d1: float, d2: float) -> list[float]:
    """The candidates _roots gives for d0 + d1 s + d2 s^2, without LAPACK: a line's root, none for a constant,
    else the sorted real roots by the stable quadratic formula, or a complex pair's real part twice.  It runs on
    the d scaled to at most 1 by a power of two; a d2 that scales to 0 leaves roots past 2^500, which [0, 1]
    clips to the endpoints the caller tries anyway, so it is taken as a line."""
    e = math.frexp(max(abs(d0), abs(d1), abs(d2)))[1]
    a0, a1, a2 = math.ldexp(d0, -e), math.ldexp(d1, -e), math.ldexp(d2, -e)
    if not a2:
        return [-d0 / d1] if d1 else []
    disc = a1 * a1 - 4.0 * a0 * a2
    if disc < 0.0:
        return [-0.5 * a1 / a2] * 2
    q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    return sorted((q / a2, a0 / q)) if q else [0.0, 0.0]


def _roots(d: list[float]) -> list[float]:
    """Real parts of the sorted roots of sum d[k] s^k: numpy 2.4's polyroots step for step, so the same
    bits, without importing numpy.polynomial into every process.  A leading coefficient that is zero, or so small
    that some d[k] / d[-1] overflows, is dropped first: it changes the sum on [0, 1] by less than a rounding."""
    while len(d) > 1 and (d[-1] == 0.0 or not max(map(abs, d[:-1])) / abs(d[-1]) < math.inf):
        d = d[:-1]
    if len(d) < 3:  # a line, or no root
        return [-d[0] / d[1]] if len(d) == 2 else []
    companion = np.eye(len(d) - 1, k=-1)
    companion[:, -1] -= np.array(d[:-1]) / d[-1]
    return np.sort(np.linalg.eigvals(companion)).real.tolist()


def _require_valid(model: OscillatorModel) -> None:
    if model._problems:
        raise DomainError("; ".join(model._problems))
