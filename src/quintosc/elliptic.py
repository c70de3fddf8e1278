"""Legendre elliptic integrals and Jacobi elliptic functions.

Conventions
-----------
Every function below takes the *parameter* m = k**2, never the modulus k.
This matches DLMF chapters 19 and 22; callers translating formulas written
in terms of the modulus must square it first.

The complete integrals K, E and Pi are one AGM loop each, Bulirsch's cel
(_cel; Numer. Math. 13, 1969).  The incomplete F and E go through one pair of
private routines on Carlson's symmetric forms (duplication iteration:
Carlson, Numer. Algorithms 10, 1995), which take sin(phi), cos^2(phi) and
the complementary parameter m1 = 1 - m.  R_F and R_J are the only Carlson
kernels: R_J(x, y, z, z) is R_D (DLMF 19.16.5), which E needs.  A caller that
knows m1 exactly passes it, so nothing cancels as m -> 1.  The Jacobi
functions come from one Gauss-transformation kernel, which takes m1 too and
the Landen chain of m (_landen): one tangent per point, w = tan(z/2), then
only + - * /, so a float runs the same lines as an array, on Python floats,
and gives the same bits (numpy's tan loop serves both).  The stages' constant
factors 1 + k_n are multiplied into one float and applied to sn once, not per
stage, from the stage table that _landen builds with the chain, once per solution
in the quintic.  The chain's limit a_N also gives K(m) = pi / (2 a_N) (DLMF 19.8.5).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .errors import ConvergenceError, DomainError

ArrayLike = Union[float, np.ndarray]

# The Gauss chain stops at a modulus k below this, where sn(z | k^2) and cn(z | k^2) are sin z and cos z
# up to O(k^2 z), under an ulp of z; cel's AGM stops at means this close, one step short of an ulp.
_GAUSS_TOL = 2.0 ** -27
_MAX_ITER = 100

# Carlson duplication cutoffs tuned for double precision: the truncation
# error of the fifth-order series is O(eps**6) at these values.
_RF_ERRTOL = 0.0025
_RJ_ERRTOL = 0.0015

# The most negative m the Jacobi functions take.  Against 40-digit mpmath over seeded u in
# [-50K, 50K], the worst sn, cn or relative dn error grows from 1e-14 at m = -1e8 to 1.1e-13
# at -1e12 (0.7 of the 1e-13 + 4 eps |u| sqrt(1 - m) the tests allow), 1.8e-13 at -3e12 and
# 8e-13 at -1e16; the values are finite but wrong by ~1 at -1e80.
M_MIN = -1e12


class JacobiTriple(NamedTuple):
    sn: ArrayLike
    cn: ArrayLike
    dn: ArrayLike


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind K(m).

    Requires a finite m < 1 (m < 0 is the imaginary modulus of DLMF 19.7.5); K diverges as m -> 1.
    """
    if not -math.inf < m < 1.0:
        raise DomainError(f"complete_K requires a finite m < 1, got m={m}")
    kc = math.sqrt(1.0 - m)
    return _cel(kc, 1.0, 1.0, 1.0) if kc <= 1.0 else _cel(1.0 / kc, 1.0, 1.0, 1.0) / kc


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), 0 <= m <= 1."""
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"complete_E requires 0 <= m <= 1, got m={m}")
    return 1.0 if m == 1.0 else _cel(math.sqrt(1.0 - m), 1.0, 1.0, 1.0 - m)


def _cel(kc: float, p: float, a: float, b: float) -> float:
    """Integral of (a cos^2 + b sin^2) / ((cos^2 + p sin^2) sqrt(cos^2 + kc^2 sin^2)) over [0, pi/2], finite kc, p > 0.

    K = cel(kc, 1, 1, 1), E = cel(kc, 1, 1, kc^2), Pi(1 - p | 1 - kc^2) = cel(kc, p, 1, 1).  Callers keep kc <= 1,
    by cel(kc, p, a, b) = cel(1/kc, 1/p, b, a) / (p kc) (phi -> pi/2 - phi), so the loop's products stay finite.
    """
    if not (0.0 < kc < math.inf and 0.0 < p < math.inf):
        raise DomainError(f"cel requires finite kc, p > 0, got kc={kc}, p={p}")
    p = math.sqrt(p)
    b, em = b / p, 1.0
    for _ in range(_MAX_ITER):  # the AGM of (1, kc), doubled each step; a NaN never converges
        g = kc * em / p
        a, b, p = a + b / p, 2.0 * (b + a * g), p + g
        g, em = em, em + kc
        if abs(g - kc) <= g * _GAUSS_TOL:
            return 0.5 * math.pi * (b + a * em) / (em * (em + p))
        kc = 2.0 * math.sqrt(kc * g)
    raise ConvergenceError("cel failed to converge")


def carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's symmetric integral R_F(x, y, z).

    Arguments must be nonnegative with at most one of them zero.
    """
    # Written so that NaN fails: every comparison with NaN is false.
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0) or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0:
        raise DomainError(f"carlson_rf requires nonnegative args, at most one zero: {(x, y, z)}")
    try:
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
    except ZeroDivisionError:  # every argument underflowed to 0 in the duplication
        raise DomainError("carlson_rf's arguments are too small for the duplication") from None
    raise ConvergenceError("carlson_rf failed to converge")


def carlson_rj(x: float, y: float, z: float, p: float) -> float:
    """Carlson's symmetric integral R_J(x, y, z, p) for p > 0; p = z gives R_D(x, y, z) (DLMF 19.16.5).

    Requires x, y, z >= 0 with at most one of them zero.
    """
    if not (x >= 0.0 and y >= 0.0 and z >= 0.0 and p > 0.0) or (x + y) == 0.0 or (y + z) == 0.0 or (z + x) == 0.0:
        raise DomainError(f"carlson_rj requires nonnegative x, y, z (at most one zero) and p > 0: {(x, y, z, p)}")
    rd = z == p  # z and p take the same steps below, so they stay equal
    # R_J is homogeneous of degree -3/2: R_J(x, ...) = 8^-k R_J(x / 4^k, ...).
    # Scaling the largest argument near 1 keeps the squares of the R_C term from
    # overflowing, and powers of two scale exactly, so the value is unchanged.
    # R_D squares nothing and is not scaled: a tiny argument beside a huge one keeps its bits.
    k = 0 if rd else math.frexp(max(x, y, z, p))[1] // 2
    x, y, z, p = math.ldexp(x, -2 * k), math.ldexp(y, -2 * k), math.ldexp(z, -2 * k), math.ldexp(p, -2 * k)
    total = 0.0
    factor = 1.0
    try:
        for _ in range(_MAX_ITER):
            sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
            lam = sx * (sy + sz) + sy * sz
            if rd:  # alpha = beta = z (z + lam)^2, and R_C(beta, beta) = beta^(-1/2)
                total += factor / (sz * (z + lam))
            else:
                # alpha = r^2 and beta = p q^2, squared as x * x: libm's pow (x ** 2) is not correctly rounded.
                r, q = p * (sx + sy + sz) + sx * sy * sz, p + lam
                beta = p * (q * q)
                total += factor * carlson_rf(r * r, beta, beta)  # R_C(alpha, beta), DLMF 19.2.17
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
    except ZeroDivisionError:  # R_D's z (z + lam) underflowed to 0: R_D ~ z^(-3/2) is past the float range
        raise DomainError("carlson_rj's arguments are too small for the duplication") from None
    except OverflowError:  # only for arguments so small that R_J is past the float range
        raise DomainError(f"carlson_rj overflows for a largest argument near 4^{k}") from None
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
    R_D = R_J(c2, 1, d2, d2) ~ 3 / m1 would overflow for a subnormal m1; its
    arguments scaled by 4^18 divide it by exactly 2^54.
    """
    f = _legendre_f(s, c2, m1)
    d2 = c2 + m1 * s * s
    m = 1.0 - m1
    z = math.ldexp(d2, 36)
    rd = carlson_rj(math.ldexp(c2, 36), math.ldexp(1.0, 36), z, z)
    return f, m1 * f + m * s ** 3 / 3.0 * (math.ldexp(m1, 54) * rd) + m * s * math.sqrt(c2 / d2)


def _real(x: ArrayLike) -> ArrayLike:
    """x as a plain float for any real scalar (np.float32 and 0-d arrays too), else as a float64 array.

    Text and object arrays raise TypeError: np.asarray(x, dtype=float) alone would parse "1.5".
    """
    if type(x) is float:
        return x
    if np.asarray(x).dtype.kind not in "biuf" and not isinstance(x, int):  # an int past int64 is an object array
        raise TypeError(f"expected real numbers, got {type(x).__name__} {x!r:.40}")
    try:
        x = np.asarray(x, dtype=float)
    except OverflowError:
        raise DomainError("argument is too large for a float") from None
    return x if x.ndim else float(x)


def _sqrt(x: ArrayLike) -> ArrayLike:
    """math.sqrt for a float, np.sqrt for an array: both correctly rounded, so the bits agree."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def _top(x: ArrayLike) -> float:
    """max |x| of a float or an array (0 for an empty one); NaN or inf anywhere raises DomainError."""
    top = abs(x) if isinstance(x, float) else np.abs(x).max(initial=0.0)  # NaN if any x is NaN
    if not math.isfinite(top):
        raise DomainError("expected finite arguments, got NaN or inf")
    return top


def _dn2(sn2: ArrayLike, cn2: ArrayLike, m1: float) -> ArrayLike:
    """dn^2 from sn^2, cn^2 and m1 = 1 - m: cn^2 + m1 sn^2 is 1 - m sn^2 without the cancellation as m -> 1."""
    return cn2 + m1 * sn2


def _landen(m1: float) -> tuple[tuple[tuple[float, ...], float], float]:
    """The Landen chain of m = 1 - m1, m1 > 0, the AGM from (1, sqrt(m1)), as _gauss's stage table and a_N.

    The chain's moduli are k_n = c_n / a_n, and it stops at the first k_n below _GAUSS_TOL.  The table is
    ((k_n lam_n^2 for n = N-1, ..., 0), lam): stage n = N-1 runs first, lam_n is the product of the earlier
    (1 + k_j) and lam that of all.  The AGM always ends: a and b meet to within an ulp.  The step past the
    last k_n leaves a_N within k_n^2 / 2 < 2^-55 relative of the AGM, so pi / (2 a_N) is K(m) for every
    m < 1 (DLMF 19.8.5), m < 0 included.
    """
    a, b, moduli = 1.0, math.sqrt(m1), []
    while not moduli or moduli[-1] >= _GAUSS_TOL:
        moduli.append(abs(a - b) / (a + b))
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    scales, lam = [], 1.0
    for k in reversed(moduli):
        scales.append(k * lam * lam)
        lam *= 1.0 + k
    return (tuple(scales), lam), a


def _gauss(x: ArrayLike, half: float, m1: float, stages: tuple) -> tuple[ArrayLike, ArrayLike]:
    """sn(u | m) and cn(u | m) at u = 2 half x / a_N, from m1 = 1 - m > 0 and the stage table _landen(m1)[0].

    Descending Landen (Gauss) transformation, DLMF 22.7.1-22.7.3: the AGM from
    (1, sqrt(m1)) gives the moduli k_n = c_n / a_n, and each stage lifts
    sn, cn, dn of modulus k_n at u a_n to modulus k_(n-1) at u a_(n-1), from
    sin z, cos z, 1 at k_N and the base angle z = a_N u, so no argument
    reduction is needed.  Both come from one w = tan(z/2) per point rather than
    one sin and one cos (BENCH_13.json gives the timings and the host they were
    measured on), taken as tan(half x): x is scaled once, by a factor the caller
    rounds once (a_N / 2, or a_N / (4A)).  The stages carry sn / lam, lam the
    running product of the (1 + k_n), a float, so lam reaches sn in one pass at
    the end, or inside the final division at m < 0.  At m < 0 (m1 > 1) the AGM
    from (1, g), g = sqrt(m1), is g times that of mu = -m / m1, so the chain with |k_1|
    gives sn, cn of mu at v = g u, and sn(u | m) = sd(v | mu) / g, cn(u | m) = cd(v | mu)
    (DLMF 22.17.2): every sum adds terms of one sign.
    """
    w = np.tan(half * x)  # |w| < 1e19 for every double z, so w^2 stays finite
    if isinstance(x, float):  # numpy's loop pins the bits of tan; the rest then runs on floats
        w = float(w)
    # sin z = 2w / (1 + w^2), cos z = (1 - w)(1 + w) / (1 + w^2).
    # Augmented assignments work in place on arrays and rebind floats.
    t = 1.0 + w * w
    s = w + w
    s /= t
    c = (1.0 - w) * (1.0 + w)
    c /= t
    # Stage n takes sn to (1 + k) sn r and cn to cn r d, with r = 1 / (1 + k sn^2) and d = (1 - k sn^2) r,
    # the lifted dn.  As s holds sn / lam_n, each stage forms k sn^2 as (k lam_n^2) s^2, its scale.
    # dn starts at 1 and the last stage's dn is never read, so stage 0 (the last) skips d.
    scales, lam = stages
    for n, scale in enumerate(scales, 1 - len(scales)):  # -n is the stage's index in the chain
        t = s * s
        t *= scale
        r = 1.0 / (1.0 + t)
        c *= r
        s *= r
        if n:
            t = 1.0 - t
            t *= r
            c *= t
    if m1 <= 1.0:
        s *= lam
    else:  # dn(v | mu)^2 = cn^2 + sn^2 / g^2; lam and 1 / g join the division that this case makes anyway
        t = _sqrt(c * c + s * s * (lam * lam / m1))
        s, c = s / (t * (math.sqrt(m1) / lam)), c / t
    return s, c


def jacobi_sn_cn_dn(u: ArrayLike, m: float) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn for M_MIN <= m < 1 and finite u (NaN or inf raises DomainError).

    A float u gives floats, bit-identical to the same u inside an array.
    A negative m is the imaginary modulus of DLMF 22.17.
    """
    if not M_MIN <= m < 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires {M_MIN:g} <= m < 1, got m={m}")
    u, m1 = _real(u), 1.0 - m
    _top(u)
    stages, a_n = _landen(m1)
    sn, cn = _gauss(u, 0.5 * a_n, m1, stages)
    return JacobiTriple(sn, cn, _sqrt(_dn2(sn * sn, cn * cn, m1)))
