"""Legendre elliptic integrals and Jacobi elliptic functions.

Conventions
-----------
Every function below takes the *parameter* m = k**2, never the modulus k.
This matches DLMF chapters 19 and 22; callers translating formulas written
in terms of the modulus must square it first.

Every Legendre integral, complete or incomplete, goes through one pair of
private routines on Carlson's symmetric forms R_F and R_D (duplication
iteration: Carlson, Numer. Algorithms 10, 1995), which take sin(phi),
cos^2(phi) and the complementary parameter m1 = 1 - m.  A caller that
knows m1 exactly passes it, so nothing cancels as m -> 1.  The Jacobi
functions come from one Gauss-transformation kernel: one sin and one cos
per point, then only + - * /, so a float runs the same lines as an array,
on Python floats, and gives the same bits (numpy's sin and cos loop serves both).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .errors import ConvergenceError, DomainError

ArrayLike = Union[float, np.ndarray]

# The Gauss chain stops at a modulus k below this: sn(z | k^2) and cn(z | k^2)
# are sin z and cos z up to O(k^2 z), under an ulp of z.
_GAUSS_TOL = 2.0 ** -27
_MAX_ITER = 100

# Carlson duplication cutoffs tuned for double precision: the truncation
# error of the fifth-order series is O(eps**6) at these values.
_RF_ERRTOL = 0.0025
_RC_ERRTOL = 0.0012
_RD_ERRTOL = 0.0015
_RJ_ERRTOL = 0.0015


class JacobiTriple(NamedTuple):
    sn: ArrayLike
    cn: ArrayLike
    dn: ArrayLike


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m).

    Requires 0 <= m < 1; K diverges logarithmically as m -> 1.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_K requires 0 <= m < 1, got m={m}")
    return _legendre_f(1.0, 0.0, 1.0 - m)


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), 0 <= m <= 1."""
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"complete_E requires 0 <= m <= 1, got m={m}")
    return 1.0 if m == 1.0 else _legendre_fe(1.0, 0.0, 1.0 - m)[1]


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z).

    Arguments must be nonnegative with at most one of them zero.
    """
    # Written so that NaN fails: every comparison with NaN is false.
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0) or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0:
        raise DomainError(f"carlson_rf requires nonnegative args, at most one zero: {(x, y, z)}")
    for _ in range(_MAX_ITER):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RF_ERRTOL:
            e2 = dx * dy - dz * dz
            e3 = dx * dy * dz
            return (1.0 + (e2 / 24.0 - 0.1 - 3.0 * e3 / 44.0) * e2 + e3 / 14.0) / math.sqrt(mu)
    raise ConvergenceError("carlson_rf failed to converge")


def carlson_rc(x: float, y: float) -> float:
    """Degenerate symmetric integral R_C(x, y) = R_F(x, y, y), y > 0."""
    if not (x >= 0.0 and y > 0.0):
        raise DomainError(f"carlson_rc requires x >= 0 and y > 0, got {(x, y)}")
    for _ in range(_MAX_ITER):
        lam = 2.0 * math.sqrt(x) * math.sqrt(y) + y
        x, y = 0.25 * (x + lam), 0.25 * (y + lam)
        mu = (x + 2.0 * y) / 3.0
        s = (y - x) / (3.0 * mu)
        if abs(s) < _RC_ERRTOL:
            return (1.0 + s * s * (0.3 + s * (1.0 / 7.0 + s * (0.375 + s * 9.0 / 22.0)))) / math.sqrt(mu)
    raise ConvergenceError("carlson_rc failed to converge")  # pragma: no cover


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's degenerate integral R_D(x, y, z) = R_J(x, y, z, z).

    Requires z > 0 and x, y >= 0 with at most one of x, y zero.
    """
    if not (x >= 0.0 and y >= 0.0 and z > 0.0) or (x + y) == 0.0:
        raise DomainError(f"carlson_rd requires x, y >= 0 (not both zero) and z > 0: {(x, y, z)}")
    total = 0.0
    factor = 1.0
    for _ in range(_MAX_ITER):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        total += factor / (sz * (z + lam))
        factor *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + 3.0 * z) / 5.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        if max(abs(dx), abs(dy), abs(dz)) < _RD_ERRTOL:
            ea = dx * dy
            eb = dz * dz
            ec = ea - eb
            ed = ea - 6.0 * eb
            ee = ed + 2.0 * ec
            series = (
                1.0
                + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * dz * ee)
                + dz * (ee / 6.0 + dz * (-9.0 / 22.0 * ec + 3.0 / 26.0 * dz * ea))
            )
            return 3.0 * total + factor * series / (mu * math.sqrt(mu))
    raise ConvergenceError("carlson_rd failed to converge")  # pragma: no cover


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's symmetric integral R_J(x, y, z, p) for p > 0.

    Requires x, y, z >= 0 with at most one of them zero.
    """
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0 and p > 0.0) or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0:
        raise DomainError(f"carlson_rj requires nonnegative x, y, z (at most one zero) and p > 0: {(x, y, z, p)}")
    # R_J is homogeneous of degree -3/2: R_J(x, ...) = 8^-k R_J(x / 4^k, ...).
    # Scaling the largest argument near 1 keeps the squares below from
    # overflowing, and powers of two scale exactly, so the value is unchanged.
    k = math.frexp(max(x, y, z, p))[1] // 2
    scale = math.ldexp(1.0, -2 * k)
    x, y, z, p = x * scale, y * scale, z * scale, p * scale
    total = 0.0
    factor = 1.0
    for _ in range(_MAX_ITER):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        alpha = (p * (sx + sy + sz) + sx * sy * sz) ** 2
        beta = p * (p + lam) ** 2
        total += factor * carlson_rc(alpha, beta)
        factor *= 0.25
        x, y, z, p = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (p + lam)
        mu = (x + y + z + 2.0 * p) / 5.0
        dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
        dp = (mu - p) / mu
        if max(abs(dx), abs(dy), abs(dz), abs(dp)) < _RJ_ERRTOL:
            ea = dx * (dy + dz) + dy * dz
            eb = dx * dy * dz
            ec = dp * dp
            ed = ea - 3.0 * ec
            ee = eb + 2.0 * dp * (ea - ec)
            series = (
                1.0
                + ed * (-3.0 / 14.0 + 9.0 / 88.0 * ed - 4.5 / 26.0 * ee)
                + eb * (1.0 / 6.0 + dp * (-3.0 / 11.0 + dp * 3.0 / 26.0))
                + dp * ea * (1.0 / 3.0 - dp * 3.0 / 22.0)
                - dp * ec / 3.0
            )
            return math.ldexp(3.0 * total + factor * series / (mu * math.sqrt(mu)), -3 * k)
    raise ConvergenceError("carlson_rj failed to converge")


def _legendre_f(s: float, c2: float, m1: float) -> float:
    """F(phi | 1 - m1) = s R_F(c2, c2 + m1 s^2, 1) from s = sin(phi), c2 = cos^2(phi) (DLMF 19.25.5).

    c2 + m1 s^2 is 1 - m sin^2(phi) without the cancellation as m -> 1.
    """
    return s * carlson_rf(c2, c2 + m1 * s * s, 1.0)


def _legendre_fe(s: float, c2: float, m1: float) -> tuple[float, float]:
    """F and E(phi | 1 - m1) for |phi| <= pi/2, from s = sin(phi), c2 = cos^2(phi).

    E = m1 F + (m m1 / 3) s^3 R_D(c2, 1, d2) + m s c / sqrt(d2), d2 = c2 + m1 s^2
    (DLMF 19.25.10), adds terms of one sign, so nothing cancels as m -> 1.
    R_D ~ 3 / m1 would overflow for a subnormal m1; its arguments scaled by
    4^18 divide it by exactly 2^54.
    """
    f = _legendre_f(s, c2, m1)
    d2 = c2 + m1 * s * s
    m = 1.0 - m1
    rd = carlson_rd(math.ldexp(c2, 36), math.ldexp(1.0, 36), math.ldexp(d2, 36))
    return f, m1 * f + m * s ** 3 / 3.0 * (math.ldexp(m1, 54) * rd) + m * s * math.sqrt(c2 / d2)


def incomplete_F(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi | m).

    Restricted to |phi| <= pi/2 and 0 <= m < 1 (m = 1 only if |phi| < pi/2,
    but we reject it outright for simplicity of the contract).
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"incomplete_F requires 0 <= m < 1, got m={m}")
    if abs(phi) > math.pi / 2.0 + 1e-12:
        raise DomainError(f"incomplete_F requires |phi| <= pi/2, got phi={phi}")
    return _legendre_f(math.sin(phi), math.cos(phi) ** 2, 1.0 - m)


def incomplete_E(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi | m)."""
    if not 0.0 <= m < 1.0:
        raise DomainError(f"incomplete_E requires 0 <= m < 1, got m={m}")
    if abs(phi) > math.pi / 2.0 + 1e-12:
        raise DomainError(f"incomplete_E requires |phi| <= pi/2, got phi={phi}")
    return _legendre_fe(math.sin(phi), math.cos(phi) ** 2, 1.0 - m)[1]


def _real(x: ArrayLike) -> ArrayLike:
    """x as a plain float for any real scalar (np.float32 and 0-d arrays too), else as a float64 array."""
    if type(x) is float:
        return x
    try:
        x = np.asarray(x, dtype=float)
    except OverflowError:
        raise DomainError("argument is too large for a float") from None
    return x if x.ndim else float(x)


def _sqrt(x: ArrayLike) -> ArrayLike:
    """math.sqrt for a float, np.sqrt for an array: both correctly rounded, so the bits agree."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _gauss(x: ArrayLike, m: float) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """sn(x | m), cn(x | m) and the base angle z = a_N x, for 0 <= m < 1.

    Descending Landen (Gauss) transformation, DLMF 22.7.1-22.7.3: the AGM from
    (1, sqrt(1 - m)) gives the moduli k_n = c_n / a_n, and each stage lifts
    sn, cn, dn of modulus k_n at x a_n to modulus k_(n-1) at x a_(n-1), from
    sin z, cos z, 1 at k_N, so no argument reduction is needed.
    """
    # The AGM always ends: a and b meet to within an ulp.
    a, b, ks = 1.0, math.sqrt(1.0 - m), []
    while not ks or ks[-1] >= _GAUSS_TOL:
        ks.append((a - b) / (a + b))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    z = a * x
    s, c, d = np.sin(z), np.cos(z), 1.0
    if isinstance(z, float):  # numpy's loop pins the bits of sin and cos; the stages then run on floats
        s, c = float(s), float(c)
    # Augmented assignments work in place on arrays and rebind floats.
    for k in reversed(ks):
        t = s * s
        t *= k
        r = 1.0 / (1.0 + t)
        c *= d
        c *= r
        d = 1.0 - t
        d *= r
        s *= r
        s *= 1.0 + k
    return s, c, z


def jacobi_am(u: ArrayLike, m: float) -> ArrayLike:
    """Jacobi amplitude am(u, m) for 0 <= m < 1 and unrestricted real u.

    am - z stays within pi/2 of zero for the Gauss base angle z = pi u / (2K),
    which fixes the branch of atan2(sn, cn).
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"jacobi_am requires 0 <= m < 1, got m={m}")
    s, c, z = _gauss(_real(u), m)
    phi = np.arctan2(s, c)
    am = phi + 2.0 * math.pi * np.round((z - phi) / (2.0 * math.pi))
    return am if isinstance(am, np.ndarray) else float(am)


def jacobi_sn_cn_dn(u: ArrayLike, m: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn for 0 <= m <= 1.

    A float u gives floats, bit-identical to the same u inside an array.
    m = 1 gives the hyperbolic functions (the amplitude itself is not
    defined there, which is why jacobi_am excludes it).
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m}")
    u = _real(u)
    if m == 1.0:
        e = np.exp(-np.abs(u))  # sech u = 2 e / (1 + e^2) has no cosh to overflow past |u| ~ 710
        sn, cn, dn = np.tanh(u), 2.0 * e / (1.0 + e * e), 2.0 * e / (1.0 + e * e)
    else:
        sn, cn, _ = _gauss(u, m)
        dn = _sqrt(cn * cn + (1.0 - m) * sn * sn)  # 1 - m sn^2 without the cancellation as m -> 1
    return JacobiTriple(*map(float, (sn, cn, dn))) if isinstance(u, float) else JacobiTriple(sn, cn, dn)
