"""Tests for the elliptic integral and Jacobi function substrate.

Reference values were frozen from an independent 30-digit computation
(mpmath) and are quoted to 17 significant digits, so they are exact at
double precision.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from quintosc import elliptic as el
from quintosc.errors import ConvergenceError, DomainError, QuintoscError
from timeouts import deadline


class TestCompleteK:
    def test_zero_parameter(self):
        assert el.complete_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_frozen_values(self):
        assert el.complete_K(0.5) == pytest.approx(1.8540746773013719, rel=1e-13)
        assert el.complete_K(0.25) == pytest.approx(1.685750354812596, rel=1e-13)
        assert el.complete_K(0.9) == pytest.approx(2.5780921133481732, rel=1e-13)

    def test_monotone_in_m(self):
        assert el.complete_K(0.9) > el.complete_K(0.5)

    @pytest.mark.parametrize("m", [1.0, 1.5, math.nan, -math.inf])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            el.complete_K(m)


class TestLandenChain:
    """K(m) = pi / (2 a_N) from the chain's AGM limit (DLMF 19.8.5), the period's K, against 400-digit mpmath."""

    @pytest.mark.parametrize("m1", np.geomspace(1e-300, 1e12, 20).tolist())
    def test_complete_K_from_the_chain(self, m1):
        # Worst 3.7e-16 over these m1, as Carlson's R_F gives (3.7e-16).
        with mp.workdps(400):
            exact = mp.ellipk(1 - mp.mpf(m1))
        k = 0.5 * math.pi / el._landen(m1)[1]
        assert abs(k - exact) <= 2.0 * np.finfo(float).eps * exact

    def test_chain_stops_below_the_tolerance(self):
        # The AGM of (1, sqrt(m1)) run here: only its last modulus is below the tolerance, and _landen's
        # table is built from these moduli, last first, with lam the product of the (1 + k_n).
        for m1 in (1e-300, 0.5, 1.0, 2.0, 1e12):
            a, b, moduli = 1.0, math.sqrt(m1), []
            while not moduli or moduli[-1] >= el._GAUSS_TOL:
                moduli.append(abs(a - b) / (a + b))
                a, b = 0.5 * (a + b), math.sqrt(a * b)
            assert moduli[-1] < el._GAUSS_TOL <= min(moduli[:-1], default=1.0)
            scales, lam = [], 1.0
            for k in reversed(moduli):
                scales.append(k * lam * lam)
                lam *= 1.0 + k
            assert el._landen(m1) == ((tuple(scales), lam), a)


class TestCompleteE:
    def test_endpoints(self):
        assert el.complete_E(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert el.complete_E(1.0) == 1.0

    def test_frozen_values(self):
        assert el.complete_E(0.5) == pytest.approx(1.3506438810476755, rel=1e-13)
        assert el.complete_E(0.8) == pytest.approx(1.1784899243278385, rel=1e-13)

    @pytest.mark.parametrize("m", [-1e-9, 1.0000001])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            el.complete_E(m)

    def test_legendre_relation(self):
        # E(m) K(1-m) + E(1-m) K(m) - K(m) K(1-m) = pi/2.  The grid stays
        # strictly inside (0, 1) because the relation needs K at both m
        # and 1-m, and K(1) diverges.
        for m in np.linspace(0.99 / 50.0, 0.99, 50):
            lhs = (
                el.complete_E(m) * el.complete_K(1.0 - m)
                + el.complete_E(1.0 - m) * el.complete_K(m)
                - el.complete_K(m) * el.complete_K(1.0 - m)
            )
            assert abs(lhs - math.pi / 2.0) < 1e-12


def complete_pi(n: float, m: float) -> float:
    """Pi(n, m) = cel(sqrt(1 - m), 1 - n, 1, 1), the kernel of exact_period's cable-mass branch."""
    return el._cel(math.sqrt(1.0 - m), 1.0 - n, 1.0, 1.0)


class TestCompletePi:
    def test_zero_characteristic_reduces_to_K(self):
        for m in (0.0, 0.3, 0.77):
            assert complete_pi(0.0, m) == pytest.approx(el.complete_K(m), rel=1e-12)

    def test_zero_parameter_closed_form(self):
        assert complete_pi(0.3, 0.0) == pytest.approx(math.pi / (2.0 * math.sqrt(0.7)), rel=1e-13)

    def test_frozen_values(self):
        assert complete_pi(-0.5, 0.25) == pytest.approx(1.3664739530045969, rel=1e-12)
        assert complete_pi(0.3, 0.5) == pytest.approx(2.2503768219439467, rel=1e-12)


class TestCel:
    def test_against_mpmath(self):
        # K, E and Pi at 40 digits, kc over [1e-8, 1e2] and p over [1e-3, 1e3]: both sides of 1.
        rng = np.random.default_rng([_ORACLE_SEED, 35])
        kcs, ps = 10.0 ** rng.uniform(-8.0, 2.0, 300), 10.0 ** rng.uniform(-3.0, 3.0, 300)
        got, ref = [], []
        with mp.workdps(40):
            for kc, p in zip(kcs.tolist(), ps.tolist()):
                m = 1 - mp.mpf(kc) ** 2
                ref += [mp.ellipk(m), mp.ellipe(m), mp.ellippi(1 - mp.mpf(p), m)]
                got += [el._cel(kc, 1.0, 1.0, 1.0), el._cel(kc, 1.0, 1.0, kc * kc), el._cel(kc, p, 1.0, 1.0)]
            ref = [float(r) for r in ref]
        np.testing.assert_allclose(got, ref, rtol=8 * 2.0 ** -52, atol=0.0)

    @pytest.mark.parametrize("kc, p", [(0.3, 0.2), (0.3, 7.0), (4.0, 0.5), (1e-6, 1e3)])
    def test_reciprocal_form(self, kc, p):
        # cel(kc, p, a, b) = cel(1/kc, 1/p, b, a) / (p kc): phi -> pi/2 - phi.
        assert el._cel(kc, p, 0.7, 1.9) == pytest.approx(el._cel(1.0 / kc, 1.0 / p, 1.9, 0.7) / (p * kc), rel=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("position", [0, 1])
    def test_bad_kc_or_p_raises(self, bad, position):
        args = [0.5, 2.0, 1.0, 1.0]
        args[position] = bad
        with deadline(1.0), pytest.raises(QuintoscError):
            el._cel(*args)

    def test_overflowing_loop_raises(self):
        # At kc = 1e300 the scaled means overflow to inf, whose difference is NaN: it never converges.
        with deadline(1.0), pytest.raises(ConvergenceError):
            el._cel(1e300, 1.0, 1.0, 1.0)

    def test_non_convergence_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(el, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            el._cel(0.5, 2.0, 1.0, 1.0)


def legendre_F(phi, m):
    """F(phi | m) for |phi| <= pi/2, by the kernel of complete_K and the relativistic Psi."""
    return el._legendre_f(math.sin(phi), math.cos(phi) ** 2, 1.0 - m)


def legendre_E(phi, m):
    """E(phi | m) for |phi| <= pi/2, by the kernel of complete_E and the relativistic Psi."""
    return el._legendre_fe(math.sin(phi), math.cos(phi) ** 2, 1.0 - m)[1]


def amplitude(u, m):
    """am(u | m) = atan2(sn, cn), the branch in (-pi, pi]."""
    return math.atan2(*el.jacobi_sn_cn_dn(u, m)[:2])


class TestIncomplete:
    def test_F_at_zero(self):
        assert legendre_F(0.0, 0.6) == 0.0

    def test_F_at_quarter_turn_equals_K(self):
        for m in (0.1, 0.5, 0.93):
            assert legendre_F(math.pi / 2.0, m) == pytest.approx(el.complete_K(m), rel=1e-13)

    def test_F_trigonometric_limit(self):
        assert legendre_F(math.pi / 4.0, 0.0) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_F_frozen_values(self):
        assert legendre_F(0.7, 0.3) == pytest.approx(0.71651771598539318, rel=1e-13)
        assert legendre_F(-1.1, 0.82) == pytest.approx(-1.3243535733114105, rel=1e-13)

    def test_F_odd(self):
        assert legendre_F(-0.9, 0.4) == pytest.approx(-legendre_F(0.9, 0.4), rel=1e-14)

    def test_E_at_zero(self):
        assert legendre_E(0.0, 0.6) == 0.0

    def test_E_completes(self):
        for m in (0.2, 0.8):
            assert legendre_E(math.pi / 2.0, m) == pytest.approx(el.complete_E(m), rel=1e-13)

    def test_E_frozen_values(self):
        assert legendre_E(math.pi / 3.0, 0.4) == pytest.approx(0.98240033979859737, rel=1e-13)
        assert legendre_E(1.2, 0.77) == pytest.approx(1.0079575201536281, rel=1e-13)


class TestCarlson:
    def test_frozen_values(self):
        assert el.carlson_rf(1.0, 2.0, 4.0) == pytest.approx(0.68508581663343597, rel=1e-14)
        assert el.carlson_rf(2.0, 3.0, 3.0) == pytest.approx(0.61547970867038734, rel=1e-14)
        assert el.carlson_rj(0.0, 2.0, 1.0, 1.0) == pytest.approx(1.7972103521033883, rel=1e-14)  # R_D(0, 2, 1)
        assert el.carlson_rj(0.0, 1.0, 2.0, 3.0) == pytest.approx(0.77688623778582332, rel=1e-14)
        assert el.carlson_rj(2.0, 3.0, 4.0, 0.5) == pytest.approx(0.49561461055199769, rel=1e-14)

    def test_normalisation(self):
        # R_F(x, x, x) = x^{-1/2}, R_J(x, x, x, x) = x^{-3/2}
        assert el.carlson_rf(4.0, 4.0, 4.0) == pytest.approx(0.5, rel=1e-14)
        assert el.carlson_rj(4.0, 4.0, 4.0, 4.0) == pytest.approx(0.125, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            el.carlson_rf(-1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            el.carlson_rf(0.0, 0.0, 3.0)
        with pytest.raises(DomainError):
            el.carlson_rj(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            el.carlson_rj(1.0, 2.0, 3.0, 0.0)

    @pytest.mark.parametrize("func, args", [(el.carlson_rf, (0.0, 5e-324, 5e-324)),
                                            (el.carlson_rj, (0.0, 1e-310, 1e-310, 1e-310)),
                                            (el.carlson_rj, (0.0, 5e-324, 5e-324, 5e-324)),
                                            (el.carlson_rj, (1e-300, 1e-300, 1e-300, 1e-300))])
    def test_underflowing_duplication_raises_domain_error(self, func, args):
        # The duplication step underflows to 0 (R_F, and R_D = R_J(x, y, z, z)) or the value 8^-k R_J
        # overflows (R_J ~ 1e450 at 1e-300).
        with pytest.raises(DomainError):
            func(*args)

    def test_rj_against_mpmath(self):
        # Seeded arguments spread over [1e-8, 1e8], a third with one of x, y, z zero, so that
        # the R_C term R_F(alpha, beta, beta) meets both alpha > beta and alpha < beta.
        rng = np.random.default_rng([_ORACLE_SEED, 19])
        args = 10.0 ** rng.uniform(-8.0, 8.0, (500, 4))
        zero = rng.random(500) < 0.3
        args[zero, rng.integers(0, 3, zero.sum())] = 0.0
        with mp.workdps(40):
            ref = [float(mp.elliprj(*map(mp.mpf, a))) for a in args.tolist()]
        got = [el.carlson_rj(*a) for a in args.tolist()]
        np.testing.assert_allclose(got, ref, rtol=2e-15, atol=0.0)

    def test_rd_against_mpmath(self):
        # R_D(x, y, z) = R_J(x, y, z, z) at seeded arguments over [1e-8, 1e8], a third with x or y zero,
        # at arguments spread too far for R_J's rescaling to keep the smallest, and at the
        # 4^18-scaled arguments (c2, 1, c2 + m1 s^2) that _legendre_fe passes for small m1.
        rng = np.random.default_rng([_ORACLE_SEED, 16])
        args = 10.0 ** rng.uniform(-8.0, 8.0, (500, 3))
        zero = rng.random(500) < 1.0 / 3.0
        args[zero, rng.integers(0, 2, zero.sum())] = 0.0
        args = args.tolist() + [[1e73, 1e293, 1e-171], [0.0, 1e200, 1e-200], [1e-250, 1e150, 1e100]]
        for m1 in (2.0 ** -53, 1e-300, 1.1e-308, 5e-324):
            for c2 in (0.0, 0.5):
                d2 = c2 + m1 * (1.0 - c2)
                args.append([math.ldexp(c2, 36), math.ldexp(1.0, 36), math.ldexp(d2, 36)])
        with mp.workdps(40):
            ref = [float(mp.elliprd(*map(mp.mpf, a))) for a in args]
        got = [el.carlson_rj(x, y, z, z) for x, y, z in args]
        np.testing.assert_allclose(got, ref, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("k", [100, 250, -250])
    def test_rj_homogeneity_is_exact(self, k):
        # R_J(4^k x, ...) = 8^-k R_J(x, ...); at k = 250 the squares of the
        # duplication step would overflow without rescaling.
        s = 4.0 ** k
        assert el.carlson_rj(0.0, s, 2.0 * s, 3.0 * s) == math.ldexp(el.carlson_rj(0.0, 1.0, 2.0, 3.0), -3 * k)

    @pytest.mark.parametrize("func, args", [(el.carlson_rf, (1.0, 2.0, 4.0)),
                                            (el.carlson_rj, (2.0, 3.0, 4.0, 0.5)),
                                            (el.carlson_rf, (2.0, 3.0, 3.0)),
                                            (el.carlson_rj, (0.0, 2.0, 1.0, 1.0))])
    def test_non_convergence_raises_convergence_error(self, func, args, monkeypatch):
        # One duplication step does not reach the series cutoff for these
        # arguments, so a cap of one step must raise.  R_F(x, y, y) is the
        # R_C term that carlson_rj sums.
        monkeypatch.setattr(el, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            func(*args)

    @pytest.mark.parametrize("func, args", [(el.carlson_rf, (1.0, 2.0, 4.0)),
                                            (el.carlson_rf, (2.0, 3.0, 3.0)),
                                            (el.carlson_rj, (0.0, 2.0, 1.0, 1.0)),
                                            (el.carlson_rj, (2.0, 3.0, 4.0, 0.5))])
    def test_nan_raises_domain_error(self, func, args):
        # Every position, because min() skips a NaN that is not its first argument.
        for i in range(len(args)):
            bad = args[:i] + (math.nan,) + args[i + 1:]
            with pytest.raises(DomainError):
                func(*bad)


class TestAmplitude:
    def test_at_zero(self):
        assert amplitude(0.0, 0.55) == 0.0

    def test_at_K(self):
        for m in (0.1, 0.6, 0.9):
            assert amplitude(el.complete_K(m), m) == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_frozen_values(self):
        assert amplitude(0.7, 0.3) == pytest.approx(0.68452459366129396, rel=1e-13)
        assert amplitude(2.5, 0.6) == pytest.approx(1.9292991034477884, rel=1e-13)
        # am(-4 | 0.35) lies below -pi, so atan2 gives it plus 2 pi.
        assert amplitude(-4.0, 0.35) == pytest.approx(-3.6455185180819532 + 2.0 * math.pi, rel=1e-13)

    def test_round_trip_through_F(self):
        m = 0.44
        for phi in np.linspace(-math.pi / 2.0 + 1e-3, math.pi / 2.0 - 1e-3, 31):
            assert amplitude(legendre_F(phi, m), m) == pytest.approx(phi, abs=1e-11)


class TestJacobiSnCnDn:
    def test_trigonometric_limit(self):
        sn, cn, dn = el.jacobi_sn_cn_dn(1.2, 0.0)
        assert sn == pytest.approx(math.sin(1.2), rel=1e-14)
        assert cn == pytest.approx(math.cos(1.2), rel=1e-14)
        assert dn == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("u,m,expected", [
        (0.9, 0.6, (0.74374030325062257, 0.66846866891476072, 0.81738009322004117)),
        (-1.3, 0.82, (-0.88454596430941956, 0.46645303839070344, 0.59867714033493347)),
        (3.7, 0.15, (-0.41466989224179987, -0.90997191191166669, 0.98701941828427373)),
    ])
    def test_frozen_values(self, u, m, expected):
        got = el.jacobi_sn_cn_dn(u, m)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-14)

    @pytest.mark.parametrize("m", [round(0.1 * i, 1) for i in range(10)])
    def test_identities_on_grid(self, m):
        K = el.complete_K(m) if m else math.pi / 2.0
        u = np.linspace(-4.0 * K, 4.0 * K, 201)
        sn, cn, dn = el.jacobi_sn_cn_dn(u, m)
        assert np.max(np.abs(sn * sn + cn * cn - 1.0)) < 1e-12
        assert np.max(np.abs(dn * dn + m * sn * sn - 1.0)) < 1e-12

    def test_half_period_shift(self):
        # am(u + 2K) = am(u) + pi: sn and cn change sign, dn does not.
        m = 0.72
        K = el.complete_K(m)
        u = np.linspace(-6.0 * K, 6.0 * K, 97)
        shifted, base = el.jacobi_sn_cn_dn(u + 2.0 * K, m), el.jacobi_sn_cn_dn(u, m)
        np.testing.assert_allclose(shifted.sn, -base.sn, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(shifted.cn, -base.cn, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(shifted.dn, base.dn, rtol=0.0, atol=1e-12)

    @given(st.floats(-25.0, 25.0), st.sampled_from([0.07, 0.43, 0.88]))
    def test_identities_anywhere(self, u, m):
        sn, cn, dn = el.jacobi_sn_cn_dn(u, m)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) < 1e-12

    def test_domain(self):
        for m in (1.0, 1.2):
            with pytest.raises(DomainError):
                el.jacobi_sn_cn_dn(0.3, m)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_raises(self, u):
        for arg in (u, np.array([0.3, u, 1.0])):
            with pytest.raises(DomainError):
                el.jacobi_sn_cn_dn(arg, 0.5)

    @given(st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=20),
           st.sampled_from([0.0, 1e-9, 2.5e-8, 0.07, 0.88, 1.0 - 1e-12]))
    def test_scalar_is_a_batch_of_one(self, u, m):
        batch = el.jacobi_sn_cn_dn(np.array(u), m)
        for i, x in enumerate(u):
            scalar = el.jacobi_sn_cn_dn(x, m)
            assert all(type(f) is float for f in scalar)
            # Bit patterns, so that -0.0 and 0.0 differ.
            assert [f.hex() for f in scalar] == [float(f[i]).hex() for f in batch]


# Seeded random parameters plus m = 1 - 10^-k, where K grows like log(1/(1-m)).
_ORACLE_SEED = 20221101
_RANDOM_M = [float(m) for m in np.random.default_rng(_ORACLE_SEED).uniform(0.0, 0.999, 12)]
_NEAR_ONE_M = [1.0 - 10.0 ** -k for k in range(1, 13)]
# Below m ~ 3e-8 the first Gauss stage is also the last: it neither starts from dn nor forms one.
_ONE_STAGE_M = [1e-9, 2.5e-8]
_ORACLE_CASES = ([pytest.param(m, id=f"random{i}") for i, m in enumerate(_RANDOM_M)]
                 + [pytest.param(m, id=f"one_minus_1e-{k}") for k, m in enumerate(_NEAR_ONE_M, start=1)]
                 + [pytest.param(m, id=f"one_stage_{m:g}") for m in _ONE_STAGE_M])


def _oracle_points(m):
    """Eight seeded u in [-50K, 50K] and the 30-digit mpmath (sn, cn, dn) at each."""
    K = el.complete_K(m)
    u = np.random.default_rng([_ORACLE_SEED, int(m * 2 ** 52)]).uniform(-50.0 * K, 50.0 * K, 8)
    with mp.workdps(30):
        ref = [[float(mp.ellipfun(kind, mp.mpf(x), m=mp.mpf(m))) for kind in ("sn", "cn", "dn")] for x in u]
    return u, np.array(ref).T


def _reduction_tolerance(u):
    # Folding u into [0, K] rounds u - 2K*wind once, which moves sn, cn and dn by
    # up to about eps*|u| (their u-derivatives are at most 1); 1e-13 covers the rest.
    return 1e-13 + 4.0 * np.finfo(float).eps * np.abs(u)


class TestJacobiMpmathOracle:
    """jacobi_sn_cn_dn against 30-digit mpmath.ellipfun."""

    @pytest.mark.parametrize("m", _ORACLE_CASES)
    def test_sn_cn(self, m):
        u, (sn, cn, _) = _oracle_points(m)
        got_sn, got_cn, _ = el.jacobi_sn_cn_dn(u, m)
        tol = _reduction_tolerance(u)
        assert np.all(np.abs(got_sn - sn) <= tol)
        assert np.all(np.abs(got_cn - cn) <= tol)

    @pytest.mark.parametrize("m", _ORACLE_CASES[:len(_RANDOM_M)])
    def test_dn(self, m):
        u, (_, _, dn) = _oracle_points(m)
        assert np.all(np.abs(el.jacobi_sn_cn_dn(u, m).dn - dn) <= _reduction_tolerance(u))

    @pytest.mark.parametrize("m", [
        pytest.param(1.0 - 1e-6, id="one_minus_1e-6"),
        pytest.param(1.0 - 1e-12, id="one_minus_1e-12"),
    ])
    def test_dn_relative_precision_near_one(self, m):
        u = 0.999 * el.complete_K(m)
        with mp.workdps(30):
            ref = float(mp.ellipfun("dn", mp.mpf(u), m=mp.mpf(m)))
        assert el.jacobi_sn_cn_dn(u, m).dn == pytest.approx(ref, rel=1e-13, abs=0.0)


    @pytest.mark.parametrize("m", _ORACLE_CASES[:len(_RANDOM_M)])
    def test_sn_cn_at_the_zeros_of_cn(self, m):
        # cn vanishes at odd multiples of K, where the base angle sits at odd multiples of pi/2.
        K = el.complete_K(m)
        odd = 2 * np.random.default_rng([_ORACLE_SEED, int(m * 2 ** 52), 1]).integers(-50, 50, 8) + 1
        u = np.concatenate([odd * K - 1e-12, odd * K + 1e-12])
        with mp.workdps(30):
            ref = np.array([[float(mp.ellipfun(kind, mp.mpf(x), m=mp.mpf(m))) for x in u] for kind in ("sn", "cn")])
        sn, cn, _ = el.jacobi_sn_cn_dn(u, m)
        tol = _reduction_tolerance(u)
        assert np.all(np.abs(sn - ref[0]) <= tol)
        assert np.all(np.abs(cn - ref[1]) <= tol)


def _base_angles():
    """Seeded z near 0, at and beside odd multiples of pi (|tan(z/2)| large) and up to the clip edge 2 pi 2^52."""
    rng = np.random.default_rng([_ORACLE_SEED, 2])
    odd = (2 * rng.integers(-10 ** 6, 10 ** 6, 300) + 1) * math.pi
    edge = math.ldexp(2.0 * math.pi, 52)
    return np.concatenate([
        rng.uniform(-1e-3, 1e-3, 300), [0.0, -0.0, 5e-324],
        odd, odd + rng.uniform(-1e-9, 1e-9, 300),
        rng.uniform(-edge, edge, 300), edge - rng.uniform(0.0, 1e3, 300), [edge, -edge],
        [math.ldexp(6381956970095103, 798)],  # the double z/2 closest to an odd multiple of pi/2: |tan| ~ 2e18
    ])


class TestGaussBase:
    """The Gauss chain starts from w = tan(z/2); at m = 0 it is one exact stage, so sn and cn are the base."""

    @pytest.mark.parametrize("m", _ONE_STAGE_M)
    def test_one_stage_chain(self, m):
        b = math.sqrt(1.0 - m)
        assert (1.0 - b) / (1.0 + b) < el._GAUSS_TOL

    def test_base_stays_on_the_unit_circle(self):
        z = _base_angles()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sn, cn, _ = el.jacobi_sn_cn_dn(z, 0.0)
        assert np.all(np.abs(sn * sn + cn * cn - 1.0) <= 4.0 * np.finfo(float).eps)

    def test_scalar_is_a_batch_of_one(self):
        z = _base_angles()
        for m in (0.0, 0.5):
            batch = el.jacobi_sn_cn_dn(z, m)
            for i, x in enumerate(z.tolist()):
                assert [f.hex() for f in el.jacobi_sn_cn_dn(x, m)] == [float(f[i]).hex() for f in batch]


_NEGATIVE_M = [-0.25, -5.0, -1e6, el.M_MIN]


class TestNegativeParameter:
    """m < 0, the imaginary modulus (DLMF 19.7.5, 22.17), against 40-digit mpmath, whose values there are real."""

    @pytest.mark.parametrize("m", _NEGATIVE_M)
    def test_complete_K(self, m):
        with mp.workdps(40):
            K = float(mp.re(mp.ellipk(mp.mpf(m))))
        assert el.complete_K(m) == pytest.approx(K, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("m", _NEGATIVE_M)
    def test_sn_cn_dn(self, m):
        # Rounding u moves sn and cn by eps |u| times their u-derivatives, which reach sqrt(1 - m)
        # here, and dn by as much relative to itself; 1e-13 covers the rest.
        K = el.complete_K(m)
        rng = np.random.default_rng([_ORACLE_SEED, 3])
        u = np.concatenate([rng.uniform(-K, K, 12), rng.uniform(-50.0 * K, 50.0 * K, 12), [12.0, -0.3]])
        with mp.workdps(40):
            ref = np.array([[float(mp.re(mp.ellipfun(kind, mp.mpf(x), m=mp.mpf(m)))) for x in u]
                            for kind in ("sn", "cn", "dn")])
        got = el.jacobi_sn_cn_dn(u, m)
        tol = 1e-13 + 4.0 * np.finfo(float).eps * np.abs(u) * math.sqrt(1.0 - m)
        assert np.all(np.abs(got.sn - ref[0]) <= tol)
        assert np.all(np.abs(got.cn - ref[1]) <= tol)
        assert np.all(np.abs(got.dn / ref[2] - 1.0) <= tol)
        for i, x in enumerate(u.tolist()):
            assert [f.hex() for f in el.jacobi_sn_cn_dn(x, m)] == [float(f[i]).hex() for f in got]

    def test_domain(self):
        for m in (math.nan, -math.inf, 10.0 * el.M_MIN, -1e300):
            with pytest.raises(DomainError):
                el.jacobi_sn_cn_dn(0.3, m)


# The integrals reach further towards m = 1 than the Jacobi functions above.
_INTEGRAL_CASES = ([pytest.param(m, id=f"random{i}") for i, m in enumerate(_RANDOM_M)]
                   + [pytest.param(1.0 - 10.0 ** -k, id=f"one_minus_1e-{k}") for k in range(1, 16)])


class TestIntegralsMpmathOracle:
    """complete_K/E and the incomplete F/E kernel against 30-digit mpmath.ellipk/ellipe/ellipf."""

    @pytest.mark.parametrize("m", _INTEGRAL_CASES)
    def test_complete(self, m):
        with mp.workdps(30):
            K, E = float(mp.ellipk(mp.mpf(m))), float(mp.ellipe(mp.mpf(m)))
        assert el.complete_K(m) == pytest.approx(K, rel=1e-14, abs=0.0)
        assert el.complete_E(m) == pytest.approx(E, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("m", _INTEGRAL_CASES)
    def test_incomplete(self, m):
        # Six seeded phi, then phi -> pi/2, where 1 - m sin^2(phi) used to cancel as m -> 1.
        seeded = np.random.default_rng([_ORACLE_SEED, int(m * 2 ** 52)]).uniform(-math.pi / 2.0, math.pi / 2.0, 6)
        for phi in [*map(float, seeded), math.pi / 2.0 - 1e-4, math.pi / 2.0 - 1e-8, math.pi / 2.0]:
            with mp.workdps(30):
                F, E = float(mp.ellipf(mp.mpf(phi), mp.mpf(m))), float(mp.ellipe(mp.mpf(phi), mp.mpf(m)))
            assert legendre_F(phi, m) == pytest.approx(F, rel=1e-14, abs=0.0)
            # E is a sum of positive terms in 1 - m (DLMF 19.25.10), so nothing cancels as m -> 1.
            assert legendre_E(phi, m) == pytest.approx(E, rel=2e-15, abs=0.0)
