"""Tests for the elliptic integral and Jacobi function substrate.

Reference values were frozen from an independent 30-digit computation
(mpmath) and are quoted to 17 significant digits, so they are exact at
double precision.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from quintosc import elliptic as el
from quintosc.errors import ConvergenceError, DomainError


class TestCompleteK:
    def test_zero_parameter(self):
        assert el.complete_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_frozen_values(self):
        assert el.complete_K(0.5) == pytest.approx(1.8540746773013719, rel=1e-13)
        assert el.complete_K(0.25) == pytest.approx(1.685750354812596, rel=1e-13)
        assert el.complete_K(0.9) == pytest.approx(2.5780921133481732, rel=1e-13)

    def test_monotone_in_m(self):
        assert el.complete_K(0.9) > el.complete_K(0.5)

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            el.complete_K(m)


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
    """Pi(n, m) = R_F(0, 1 - m, 1) + n/3 R_J(0, 1 - m, 1, 1 - n), as exact_period's cable-mass branch builds it."""
    return el.carlson_rf(0.0, 1.0 - m, 1.0) + n / 3.0 * el.carlson_rj(0.0, 1.0 - m, 1.0, 1.0 - n)


class TestCompletePi:
    def test_zero_characteristic_reduces_to_K(self):
        for m in (0.0, 0.3, 0.77):
            assert complete_pi(0.0, m) == pytest.approx(el.complete_K(m), rel=1e-12)

    def test_zero_parameter_closed_form(self):
        assert complete_pi(0.3, 0.0) == pytest.approx(math.pi / (2.0 * math.sqrt(0.7)), rel=1e-13)

    def test_frozen_values(self):
        assert complete_pi(-0.5, 0.25) == pytest.approx(1.3664739530045969, rel=1e-12)
        assert complete_pi(0.3, 0.5) == pytest.approx(2.2503768219439467, rel=1e-12)


class TestIncomplete:
    def test_F_at_zero(self):
        assert el.incomplete_F(0.0, 0.6) == 0.0

    def test_F_at_quarter_turn_equals_K(self):
        for m in (0.1, 0.5, 0.93):
            assert el.incomplete_F(math.pi / 2.0, m) == pytest.approx(el.complete_K(m), rel=1e-13)

    def test_F_trigonometric_limit(self):
        assert el.incomplete_F(math.pi / 4.0, 0.0) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_F_frozen_values(self):
        assert el.incomplete_F(0.7, 0.3) == pytest.approx(0.71651771598539318, rel=1e-13)
        assert el.incomplete_F(-1.1, 0.82) == pytest.approx(-1.3243535733114105, rel=1e-13)

    def test_F_odd(self):
        assert el.incomplete_F(-0.9, 0.4) == pytest.approx(-el.incomplete_F(0.9, 0.4), rel=1e-14)

    def test_E_at_zero(self):
        assert el.incomplete_E(0.0, 0.6) == 0.0

    def test_E_completes(self):
        for m in (0.2, 0.8):
            assert el.incomplete_E(math.pi / 2.0, m) == pytest.approx(el.complete_E(m), rel=1e-13)

    def test_E_frozen_values(self):
        assert el.incomplete_E(math.pi / 3.0, 0.4) == pytest.approx(0.98240033979859737, rel=1e-13)
        assert el.incomplete_E(1.2, 0.77) == pytest.approx(1.0079575201536281, rel=1e-13)

    @pytest.mark.parametrize("func", [el.incomplete_F, el.incomplete_E])
    def test_domain(self, func):
        with pytest.raises(DomainError):
            func(2.0, 0.5)
        with pytest.raises(DomainError):
            func(0.5, 1.0)


class TestCarlson:
    def test_frozen_values(self):
        assert el.carlson_rf(1.0, 2.0, 4.0) == pytest.approx(0.68508581663343597, rel=1e-14)
        assert el.carlson_rc(2.0, 3.0) == pytest.approx(0.61547970867038734, rel=1e-14)
        assert el.carlson_rd(0.0, 2.0, 1.0) == pytest.approx(1.7972103521033883, rel=1e-14)
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
            el.carlson_rc(1.0, 0.0)
        with pytest.raises(DomainError):
            el.carlson_rd(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            el.carlson_rj(1.0, 2.0, 3.0, 0.0)

    @pytest.mark.parametrize("k", [100, 250, -250])
    def test_rj_homogeneity_is_exact(self, k):
        # R_J(4^k x, ...) = 8^-k R_J(x, ...); at k = 250 the squares of the
        # duplication step would overflow without rescaling.
        s = 4.0 ** k
        assert el.carlson_rj(0.0, s, 2.0 * s, 3.0 * s) == math.ldexp(el.carlson_rj(0.0, 1.0, 2.0, 3.0), -3 * k)

    @pytest.mark.parametrize("func, args", [(el.carlson_rf, (1.0, 2.0, 4.0)),
                                            (el.carlson_rj, (2.0, 3.0, 4.0, 0.5)),
                                            (el.carlson_rc, (2.0, 3.0)),
                                            (el.carlson_rd, (0.0, 2.0, 1.0))])
    def test_non_convergence_raises_convergence_error(self, func, args, monkeypatch):
        # One duplication step does not reach the series cutoff for these
        # arguments, so a cap of one step must raise.
        monkeypatch.setattr(el, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            func(*args)

    @pytest.mark.parametrize("func, args", [(el.carlson_rf, (1.0, 2.0, 4.0)),
                                            (el.carlson_rc, (2.0, 3.0)),
                                            (el.carlson_rd, (0.0, 2.0, 1.0)),
                                            (el.carlson_rj, (2.0, 3.0, 4.0, 0.5))])
    def test_nan_raises_domain_error(self, func, args):
        # Every position, because min() skips a NaN that is not its first argument.
        for i in range(len(args)):
            bad = args[:i] + (math.nan,) + args[i + 1:]
            with pytest.raises(DomainError):
                func(*bad)


class TestJacobiAm:
    def test_at_zero(self):
        assert el.jacobi_am(0.0, 0.55) == 0.0

    def test_at_K(self):
        for m in (0.1, 0.6, 0.9):
            assert el.jacobi_am(el.complete_K(m), m) == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_frozen_values(self):
        assert el.jacobi_am(0.7, 0.3) == pytest.approx(0.68452459366129396, rel=1e-13)
        assert el.jacobi_am(2.5, 0.6) == pytest.approx(1.9292991034477884, rel=1e-13)
        assert el.jacobi_am(-4.0, 0.35) == pytest.approx(-3.6455185180819532, rel=1e-13)

    def test_quasi_periodicity(self):
        m = 0.72
        K = el.complete_K(m)
        u = np.linspace(-6.0 * K, 6.0 * K, 97)
        np.testing.assert_allclose(el.jacobi_am(u + 2.0 * K, m), el.jacobi_am(u, m) + math.pi,
                                   rtol=0.0, atol=1e-12)

    def test_round_trip_through_F(self):
        m = 0.44
        for phi in np.linspace(-math.pi / 2.0 + 1e-3, math.pi / 2.0 - 1e-3, 31):
            assert el.jacobi_am(el.incomplete_F(phi, m), m) == pytest.approx(phi, abs=1e-11)

    def test_vectorised_matches_scalar(self):
        u = np.array([-3.3, -0.2, 0.0, 1.7, 9.4])
        out = el.jacobi_am(u, 0.5)
        assert out.shape == u.shape
        for ui, oi in zip(u, out):
            assert el.jacobi_am(float(ui), 0.5) == pytest.approx(oi, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            el.jacobi_am(1.0, 1.0)
        with pytest.raises(DomainError):
            el.jacobi_am(1.0, -0.2)


class TestJacobiSnCnDn:
    def test_trigonometric_limit(self):
        sn, cn, dn = el.jacobi_sn_cn_dn(1.2, 0.0)
        assert sn == pytest.approx(math.sin(1.2), rel=1e-14)
        assert cn == pytest.approx(math.cos(1.2), rel=1e-14)
        assert dn == pytest.approx(1.0, rel=1e-14)

    def test_hyperbolic_limit(self):
        sn, cn, dn = el.jacobi_sn_cn_dn(1.2, 1.0)
        assert sn == pytest.approx(math.tanh(1.2), rel=1e-14)
        assert cn == pytest.approx(1.0 / math.cosh(1.2), rel=1e-14)
        assert dn == pytest.approx(cn, rel=1e-14)

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

    @given(st.floats(-25.0, 25.0), st.sampled_from([0.07, 0.43, 0.88]))
    def test_identities_anywhere(self, u, m):
        sn, cn, dn = el.jacobi_sn_cn_dn(u, m)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            el.jacobi_sn_cn_dn(0.3, 1.2)

    @given(st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=20),
           st.sampled_from([0.0, 0.07, 0.88, 1.0 - 1e-12, 1.0]))
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
_ORACLE_CASES = ([pytest.param(m, id=f"random{i}") for i, m in enumerate(_RANDOM_M)]
                 + [pytest.param(m, id=f"one_minus_1e-{k}") for k, m in enumerate(_NEAR_ONE_M, start=1)])


def _oracle_points(m):
    """Eight seeded u in [-50K, 50K] and the 30-digit mpmath (am, sn, cn, dn) at each."""
    K = el.complete_K(m)
    u = np.random.default_rng([_ORACLE_SEED, int(m * 2 ** 52)]).uniform(-50.0 * K, 50.0 * K, 8)
    ref = []
    with mp.workdps(30):
        mm = mp.mpf(m)
        quarter = mp.ellipk(mm)
        for x in u:
            ux = mp.mpf(x)
            sn, cn, dn = (mp.ellipfun(kind, ux, m=mm) for kind in ("sn", "cn", "dn"))
            # am is continuous and stays within pi/2 of pi u / (2K), which fixes its branch.
            principal = mp.atan2(sn, cn)
            am = principal + 2 * mp.pi * mp.nint((mp.pi * ux / (2 * quarter) - principal) / (2 * mp.pi))
            ref.append([float(v) for v in (am, sn, cn, dn)])
    return u, np.array(ref).T


def _reduction_tolerance(u):
    # Folding u into [0, K] rounds u - 2K*wind once, which moves sn, cn and dn by
    # up to about eps*|u| (their u-derivatives are at most 1); 1e-13 covers the rest.
    return 1e-13 + 4.0 * np.finfo(float).eps * np.abs(u)


class TestJacobiMpmathOracle:
    """jacobi_am and jacobi_sn_cn_dn against 30-digit mpmath.ellipfun."""

    @pytest.mark.parametrize("m", _ORACLE_CASES)
    def test_am_sn_cn(self, m):
        u, (am, sn, cn, _) = _oracle_points(m)
        got_sn, got_cn, _ = el.jacobi_sn_cn_dn(u, m)
        tol = _reduction_tolerance(u)
        assert np.all(np.abs(got_sn - sn) <= tol)
        assert np.all(np.abs(got_cn - cn) <= tol)
        np.testing.assert_allclose(el.jacobi_am(u, m), am, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("m", _ORACLE_CASES[:len(_RANDOM_M)])
    def test_dn(self, m):
        u, (_, _, _, dn) = _oracle_points(m)
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


# The integrals reach further towards m = 1 than the Jacobi functions above.
_INTEGRAL_CASES = ([pytest.param(m, id=f"random{i}") for i, m in enumerate(_RANDOM_M)]
                   + [pytest.param(1.0 - 10.0 ** -k, id=f"one_minus_1e-{k}") for k in range(1, 16)])


class TestIntegralsMpmathOracle:
    """complete_K/E and incomplete_F/E against 30-digit mpmath.ellipk/ellipe/ellipf."""

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
            assert el.incomplete_F(phi, m) == pytest.approx(F, rel=1e-14, abs=0.0)
            # E is a sum of positive terms in 1 - m (DLMF 19.25.10), so nothing cancels as m -> 1.
            assert el.incomplete_E(phi, m) == pytest.approx(E, rel=2e-15, abs=0.0)
