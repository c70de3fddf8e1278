"""Legendre elliptic integrals and Jacobi elliptic functions.

Conventions
-----------
Every function below takes the *parameter* m = k**2, never the modulus k.
This matches DLMF chapters 19 and 22; callers translating formulas written
in terms of the modulus must square it first.

Complete integrals use the arithmetic-geometric mean, incomplete ones go
through Carlson's symmetric forms R_F, R_C, R_D, R_J with the standard
duplication iteration (Carlson, Numer. Math. 33, 1979).  The Jacobi
amplitude uses a descending Landen chain, which keeps it well defined for
arbitrarily large arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError

ArrayLike = Union[float, np.ndarray]

# One ulp of the iterate is ~2.2e-16 relative, so the loop must accept a
# gap slightly above that or it can stall forever one ulp apart.
_AGM_TOL = 1e-15
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


def _agm_chain(m: float) -> tuple[list[float], list[float]]:
    """Run the AGM from (1, sqrt(1-m)); return the c_n and a_n sequences.

    The returned lists start at n = 1, i.e. chain[0] holds (c_1, a_1).
    """
    a, b = 1.0, math.sqrt(1.0 - m)
    cs: list[float] = []
    As: list[float] = []
    for _ in range(_MAX_ITER):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        cs.append(c)
        As.append(a)
        if abs(c) < _AGM_TOL * a:
            return cs, As
    raise RuntimeError("AGM failed to converge")  # pragma: no cover


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m).

    Requires 0 <= m < 1; K diverges logarithmically as m -> 1.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_K requires 0 <= m < 1, got m={m}")
    if m == 0.0:
        return math.pi / 2.0
    _, As = _agm_chain(m)
    return math.pi / (2.0 * As[-1])


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), 0 <= m <= 1."""
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"complete_E requires 0 <= m <= 1, got m={m}")
    if m == 0.0:
        return math.pi / 2.0
    if m == 1.0:
        return 1.0
    cs, As = _agm_chain(m)
    # E = K * (1 - sum 2**(n-1) c_n**2), where c_0**2 = m.
    total = 0.5 * m
    weight = 0.5
    for c in cs:
        weight *= 2.0
        total += weight * c * c
    K = math.pi / (2.0 * As[-1])
    return K * (1.0 - total)


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z).

    Arguments must be nonnegative with at most one of them zero.
    """
    if min(x, y, z) < 0.0 or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0:
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
    raise RuntimeError("carlson_rf failed to converge")  # pragma: no cover


def carlson_rc(x: float, y: float) -> float:
    """Degenerate symmetric integral R_C(x, y) = R_F(x, y, y), y > 0."""
    if x < 0.0 or y <= 0.0:
        raise DomainError(f"carlson_rc requires x >= 0 and y > 0, got {(x, y)}")
    for _ in range(_MAX_ITER):
        lam = 2.0 * math.sqrt(x) * math.sqrt(y) + y
        x, y = 0.25 * (x + lam), 0.25 * (y + lam)
        mu = (x + 2.0 * y) / 3.0
        s = (y - x) / (3.0 * mu)
        if abs(s) < _RC_ERRTOL:
            return (1.0 + s * s * (0.3 + s * (1.0 / 7.0 + s * (0.375 + s * 9.0 / 22.0)))) / math.sqrt(mu)
    raise RuntimeError("carlson_rc failed to converge")  # pragma: no cover


def carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's degenerate integral R_D(x, y, z) = R_J(x, y, z, z).

    Requires z > 0 and x, y >= 0 with at most one of x, y zero.
    """
    if min(x, y) < 0.0 or (x + y) == 0.0 or z <= 0.0:
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
    raise RuntimeError("carlson_rd failed to converge")  # pragma: no cover


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's symmetric integral R_J(x, y, z, p) for p > 0.

    Requires x, y, z >= 0 with at most one of them zero.
    """
    if min(x, y, z) < 0.0 or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0 or p <= 0.0:
        raise DomainError(f"carlson_rj requires nonnegative x, y, z (at most one zero) and p > 0: {(x, y, z, p)}")
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
            return 3.0 * total + factor * series / (mu * math.sqrt(mu))
    raise RuntimeError("carlson_rj failed to converge")  # pragma: no cover


def complete_Pi(n: float, m: float) -> float:
    """Complete elliptic integral of the third kind Pi(n, m).

    The characteristic must satisfy n < 1 and the parameter 0 <= m < 1.
    """
    if n >= 1.0:
        raise DomainError(f"complete_Pi requires characteristic n < 1, got n={n}")
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_Pi requires 0 <= m < 1, got m={m}")
    rf = carlson_rf(0.0, 1.0 - m, 1.0)
    if n == 0.0:
        return rf
    return rf + n / 3.0 * carlson_rj(0.0, 1.0 - m, 1.0, 1.0 - n)


def incomplete_F(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi | m).

    Restricted to |phi| <= pi/2 and 0 <= m < 1 (m = 1 only if |phi| < pi/2,
    but we reject it outright for simplicity of the contract).
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"incomplete_F requires 0 <= m < 1, got m={m}")
    if abs(phi) > math.pi / 2.0 + 1e-12:
        raise DomainError(f"incomplete_F requires |phi| <= pi/2, got phi={phi}")
    s = math.sin(phi)
    c2 = max(math.cos(phi) ** 2, 0.0)
    return s * carlson_rf(c2, 1.0 - m * s * s, 1.0)


def incomplete_E(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the second kind E(phi | m)."""
    if not 0.0 <= m < 1.0:
        raise DomainError(f"incomplete_E requires 0 <= m < 1, got m={m}")
    if abs(phi) > math.pi / 2.0 + 1e-12:
        raise DomainError(f"incomplete_E requires |phi| <= pi/2, got phi={phi}")
    s = math.sin(phi)
    if s == 0.0:
        return 0.0
    c2 = max(math.cos(phi) ** 2, 0.0)
    w = 1.0 - m * s * s
    return s * carlson_rf(c2, w, 1.0) - m * s ** 3 / 3.0 * carlson_rd(c2, w, 1.0)


def jacobi_am(u: ArrayLike, m: float) -> ArrayLike:
    """Jacobi amplitude am(u, m) for 0 <= m < 1 and unrestricted real u.

    Arguments outside [0, K] are folded in with the quasi-periodicity
    am(u + 2K) = am(u) + pi and the reflection am(2K - u) = pi - am(u),
    so the result stays accurate far from the origin.
    """
    if not 0.0 <= m < 1.0:
        raise DomainError(f"jacobi_am requires 0 <= m < 1, got m={m}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if m == 0.0:
        out = u_arr.copy()
        return float(out[0]) if scalar else out

    cs, As = _agm_chain(m)
    K = math.pi / (2.0 * As[-1])  # complete_K(m) from the same chain
    wind = np.floor(u_arr / (2.0 * K))
    ur = u_arr - 2.0 * K * wind  # in [0, 2K)
    refl = ur > K
    ur = np.where(refl, 2.0 * K - ur, ur)  # in [0, K]

    phi = np.ldexp(As[-1] * ur, len(cs))
    for c, a in zip(reversed(cs), reversed(As)):
        phi = 0.5 * (phi + np.arcsin(np.clip(c / a * np.sin(phi), -1.0, 1.0)))
    phi = np.where(refl, math.pi - phi, phi) + math.pi * wind
    return float(phi[0]) if scalar else phi


def jacobi_sn_cn_dn(u: ArrayLike, m: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn for 0 <= m <= 1.

    The limiting cases short-circuit: m = 0 gives trigonometric and
    m = 1 hyperbolic functions (the amplitude itself is not defined
    at m = 1, which is why jacobi_am excludes it).
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)
    if m == 1.0:
        sn = np.tanh(u_arr)
        cn = 1.0 / np.cosh(u_arr)
        dn = cn.copy()
    else:
        phi = np.atleast_1d(jacobi_am(u_arr, m))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(1.0 - m * sn * sn)
    if scalar:
        return JacobiTriple(float(sn[0]), float(cn[0]), float(dn[0]))
    return JacobiTriple(sn, cn, dn)
