"""Tests for the closed-form quintic oscillator solutions."""

import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quintosc import cli, elliptic, models, quintic as q
from quintosc.chebyshev import QuinticCoefficients, model_coefficients
from quintosc.elliptic import M_MIN, jacobi_sn_cn_dn
from quintosc.errors import DomainError, UnsupportedCaseError

# Frozen from an independent 30-digit quadrature of the time integral.
T_123 = 3.0725998166282099
T_CASE2 = 5.8396105268253568
CASE2 = (-1.0 / 3.0, 4.0 / 3.0, 1.0)  # h2 roots exactly (-2, -1)


def case1_triple(p: float, s: float, c5: float) -> tuple:
    """Triple whose h2 has complex roots p +- i*s (Case I for c5 > 0, s != 0)."""
    c3 = -(2.0 * c5 / 3.0) * (2.0 * p + 1.0)
    c1 = (c5 / 3.0) * (p * p + s * s + 2.0 * p)
    return (c1, c3, c5)


def case2_triple(s1: float, s2: float, c5: float) -> tuple:
    """Triple whose h2 has real roots s1 < s2 < 0 (Case II for c5 > 0)."""
    c3 = -(2.0 * c5 / 3.0) * (s1 + s2 + 1.0)
    c1 = (c5 / 3.0) * (s1 * s2 + s1 + s2)
    return (c1, c3, c5)


def exact_least_h2(c: tuple) -> Fraction:
    """The exact minimum of h2 over [0, 1] on the float triple c."""
    x1, x3, x5 = map(Fraction, c)
    h0, h1, h2 = 6 * x1 + 3 * x3 + 2 * x5, 3 * x3 + 2 * x5, 2 * x5
    ends = [h0, h0 + h1 + h2]
    return min(ends + [h0 - h1 * h1 / (4 * h2)] if h2 > 0 and 0 < -h1 < 2 * h2 else ends)


def assert_exact_rule(c: tuple) -> bool:
    """solve accepts c iff its exact min h2 on [0, 1] is > 0 and its exact m >= M_MIN, and labels it by
    the exact sign of delta; returns whether c was accepted."""
    x1, x3, x5 = map(Fraction, c)
    P, Q, k_tilde = x1 + x3 + x5, 6 * x1 + 3 * x3 + 2 * x5, 4 * x1 + 3 * x3 + 2 * x5
    # m = 1/2 - (sqrt(6)/8) k~ / sqrt(PQ) < M_MIN, squared
    below = k_tilde > 0 and 6 * k_tilde ** 2 > 64 * (Fraction(1, 2) - Fraction(M_MIN)) ** 2 * P * Q
    if exact_least_h2(c) <= 0 or below:
        assert q.classify(c) == q.UNSUPPORTED
        with pytest.raises(UnsupportedCaseError):
            q.solve(c)
        return False
    delta = 3 * x3 * x3 - 4 * x5 * (4 * x1 + x3 + x5)
    sol = q.solve(c)
    assert sol.case == (q.DEGENERATE if delta == 0 else q.CASE_I if delta < 0 else q.CASE_II) == q.classify(c)
    # m rounds to 1.0 once m1 < 2^-54; m1 carries the parameter there.
    assert sol.params.m <= 1.0 and sol.params.m1 > 0.0 and math.isfinite(sol.period) and sol.period > 0.0
    return True


# Case I triples with a near-double root of h2 at s = p in (0, 1), and a separatrix triple whose float is periodic.
BESIDE_CASE_ONE_SEPARATRIX = ([pytest.param(case1_triple(p, s, 1.0), id=f"p={p}-s={s:g}") for p in (0.2, 0.5, 0.8)
                               for s in (1e-4, 1e-5, 3e-6, 1e-6, 1e-7, 1e-8, 0.0)]
                              + [pytest.param((5.0 / 12.0, -4.0 / 3.0, 1.0), id="5/12,-4/3,1")])

# Three Case I and three Case II triples with differing m and amplitude profile.
SIX_TRIPLES = [
    (1.0, 2.0, 3.0),
    case1_triple(-1.2, 0.8, 0.9),
    case1_triple(2.0, 2.5, 0.4),
    CASE2,
    case2_triple(-4.0, -0.3, 1.7),
    case2_triple(-1.5, -1.0, 0.25),
]

# A Case I triple with m = 1 - 4e-8 and a Case II triple with m = -2.5e5:
# h2 nearly vanishes inside [0, 1] or at u = 0, close to a separatrix.
NEAR_SEPARATRIX = [case1_triple(0.5, 1e-4, 1.0), case2_triple(-1.0, -5e-13, 1.0)]


def stage_count_triples():
    """Seeded solvable triples with every Gauss stage count from 1 to 7 at each sign of m (and 8 at m > 0)."""
    rng = np.random.default_rng(32)
    out = []
    for _ in range(30):
        # Case I beside its separatrix, h2 = 2 ((s - p)^2 + sigma^2): 1 - m ~ sigma^2 / (6PQ) runs down to ~1e-17.
        p, sigma = rng.uniform(0.2, 0.8), 10.0 ** rng.uniform(-8.0, 0.5)
        c3 = (-4.0 * p - 2.0) / 3.0
        out.append(((2.0 * (p * p + sigma * sigma) - 3.0 * c3 - 2.0) / 6.0, c3, 1.0))
        out.append((1.0, -1.0, 10.0 ** rng.uniform(-24.0, 0.0)))  # Case II with P = c5: m ~ -1 / sqrt(c5) to -1e12
        out.append((1.0, *(rng.choice([-1.0, 1.0], size=2) * 10.0 ** rng.uniform(-12.0, -1.0, size=2))))  # m near 0
    return out


def bits(x):
    """Bit patterns of a float or of every entry of an array, so that -0.0 and 0.0 differ."""
    return x.hex() if isinstance(x, float) else [v.hex() for v in x.tolist()]


def cold(func, c, t):
    """func on a fresh solution of c: a new object, so no earlier call can serve it from the slot."""
    return func(q.solve(c), t)


@pytest.fixture()
def stage_tables(monkeypatch):
    """The Gauss stage tables solve builds (through models._reading), one entry per elliptic._landen call."""
    calls = []
    build = elliptic._landen
    monkeypatch.setattr(elliptic, "_landen", lambda m1: calls.append(m1) or build(m1))
    return calls


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The Gauss-kernel calls quintic makes, cold() calls included: clear it before counting.

    _jacobi forms the squares right after each kernel call, so this counts them too."""
    calls = []
    gauss = q._gauss
    monkeypatch.setattr(q, "_gauss", lambda *args: calls.append(args) or gauss(*args))
    return calls


class TestDiscriminantAndClassify:
    def test_discriminant_examples(self):
        assert q.discriminant((1.0, 2.0, 3.0)) == -96.0
        assert q.discriminant((1.0, 0.0, 0.0)) == 0.0
        assert q.discriminant((0.0, 1.0, 0.0)) == 3.0

    @pytest.mark.parametrize("c, case", [((1e200, 1e200, 1e200), q.CASE_I), ((1.0, 1e300, 1.0), q.CASE_II),
                                         ((math.nan, 2.0, 3.0), q.UNSUPPORTED), ((1.0, 2.0, math.inf), q.UNSUPPORTED)])
    def test_non_finite_discriminant_raises(self, c, case):
        # classify works on the unit-scaled triple, so it still sorts the triples that overflow.
        with pytest.raises(DomainError, match="not finite"):
            q.discriminant(c)
        assert q.classify(c) == case

    def test_classify_examples(self):
        assert q.classify((1.0, 2.0, 3.0)) == q.CASE_I
        assert q.classify(CASE2) == q.CASE_II
        assert q.classify((1.0, 1.0, -1.0)) == q.CASE_II  # h2 = 7 + s - 2 s^2, roots -1.64 and 2.14
        assert q.classify((0.0, 2.0, 1.0)) == q.DEGENERATE

    @pytest.mark.parametrize("c", [(-1.0, 0.0, 1.0), (1.0, -1.5, 0.25), (0.36, -3.8 / 3.0, 1.0)])
    def test_classify_rejects_h2_not_positive_on_the_interval(self, c):
        # h2(0) = -4 < 0; h2(1) = -1.5 < 0; h2 = 2 (s - 0.3)(s - 0.6) with both roots inside (0, 1).
        assert q.classify(c) == q.UNSUPPORTED
        with pytest.raises(UnsupportedCaseError):
            q.solve(c)

    def test_roots_above_one_are_periodic(self):
        # delta > 0, h2(0) > 0 and 3c3 + 2c5 < 0 put both roots of h2 on the positive axis,
        # at 3.19 and 70.8 here: beyond s = 1, so h2 > 0 on [0, 1] and the triple solves at m < 0.
        sol = assert_against_mpmath((1.0, -0.5, 0.01))
        assert sol.case == q.CASE_II and sol.params.m < 0.0

    @pytest.mark.parametrize("spec", [(-1.0, 0.1), (-0.3, 0.02), (-1.0, 0.5)])
    def test_softening_generic_models_solve(self, spec):
        # Softening Duffing forces -(c1 u + c3 u^3) with c3 < 0 and c5 = 0: h2 is linear and positive on [0, 1].
        c = model_coefficients(models.OscillatorModel("generic", force_spec=spec))
        assert c.c3 < 0.0 and c.c5 == 0.0
        assert assert_against_mpmath(c.as_tuple()).case == q.CASE_II

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @example(1.0, -0.3, 0.0)
    @example(0.0, 1.0, 0.0)
    @example(1.0, 1.0, -1.0)
    @example(0.36, -3.8 / 3.0, 1.0)
    @example(1.0, -1.5, 0.25)
    def test_solves_exactly_when_h2_is_positive_on_the_interval(self, c1, c3, c5):
        # The exact minimum of h2 over [0, 1] on the float triple, c5 of either sign, however near 0.
        assert_exact_rule((c1, c3, c5))

    def test_exact_rule_on_seeded_triples(self):
        # Half uniform in [-1, 1]^3, half beside delta = 0: h2 = 2 c5 ((s - s0)^2 + 3 step) with the double
        # root s0 anywhere around [0, 1], c5 of either sign and a step of either sign down to 1e-17, or none.
        rng = np.random.default_rng(26)
        triples = [tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(1000)]
        for _ in range(1000):
            s0, c5 = rng.uniform(-1.5, 2.5), rng.uniform(-1.0, 1.0)
            step = rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -3.0)
            triples.append(((c5 / 3.0) * (s0 * s0 + 2.0 * s0) + c5 * step, -(2.0 * c5 / 3.0) * (2.0 * s0 + 1.0), c5))
        accepted = [assert_exact_rule(c) for c in triples]
        assert 200 < sum(accepted[:1000]) < 800 and 200 < sum(accepted[1000:]) < 800

    def test_validate_params_is_the_exact_rule(self):
        # A generic force of degree <= 5 is its own quintic c = -p, and validate_params accepts it exactly when
        # h2 > 0 on [0, 1].  Beside delta = 0 with the double root s0 inside (0, 1), the rounded G at s0 takes
        # either sign: a float search of the rounded G disagrees with the exact minimum on 158 of them.
        rng = np.random.default_rng(37)
        verdicts = []
        for _ in range(2000):
            s0, c5 = rng.uniform(0.02, 0.98), 10.0 ** rng.uniform(-2.0, 2.0)
            step = rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-18.0, -12.0)
            c = ((c5 / 3.0) * (s0 * s0 + 2.0 * s0) + c5 * step, -(2.0 * c5 / 3.0) * (2.0 * s0 + 1.0), c5)
            verdicts.append(not models.validate_params(models.OscillatorModel("generic", force_spec=[-x for x in c])))
            assert verdicts[-1] == (exact_least_h2(c) > 0), c
        assert 200 < sum(verdicts) < 1800

    def test_classification_is_total(self):
        for c in [(0.0, 0.0, 0.0), (1e300, -1e300, 1e-300), (-5.0, 2.0, 0.1)]:
            assert q.classify(c) in (q.CASE_I, q.CASE_II, q.DEGENERATE, q.UNSUPPORTED)


class TestSolveCase1:
    def test_reference_parameters(self):
        sol = q.solve((1.0, 2.0, 3.0))
        assert sol.case == q.CASE_I
        params = sol.params
        assert params.B == pytest.approx(0.5, rel=1e-15)
        assert params.A == pytest.approx(6.0 ** 0.25 / (2.0 * 108.0 ** 0.25), rel=1e-15)
        assert params.m == pytest.approx(0.5 - math.sqrt(2.0) / 3.0, rel=1e-14)
        assert params.period == pytest.approx(T_123, rel=1e-13)

    def test_parameter_ranges_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = case1_triple(rng.uniform(-3, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 5))
            sol = q.solve(c)
            assert sol.case == q.CASE_I
            params = sol.params
            assert 0.0 <= params.m < 1.0
            assert params.A > 0.0 and params.B > 0.0
            assert params.period > 0.0


class TestSolveCase2:
    def test_reference_parameters(self):
        # Roots (-2, -1) and c5 = 1: P = 2, Q = 4, delta = 4/3, so m (1 - m) = -1/192.
        sol = q.solve(CASE2)
        assert sol.case == q.CASE_II
        params = sol.params
        assert params.m < 0.0
        assert params.m == pytest.approx((1.0 - 7.0 / (4.0 * math.sqrt(3.0))) / 2.0, rel=1e-14)
        assert params.B == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert params.period == pytest.approx(T_CASE2, rel=1e-13)

    @given(st.floats(-6.0, -0.4), st.floats(0.05, 0.95), st.floats(0.1, 5.0))
    def test_negative_parameter(self, s1, frac, c5):
        # m (1 - m) = -delta / (32 P Q) = -(s1 - s2)^2 / (16 s1 s2 (1 - s1)(1 - s2)) in terms of the roots.
        s2 = s1 * frac  # strictly between s1 and 0
        sol = q.solve(case2_triple(s1, s2, c5))
        assert sol.case == q.CASE_II
        m = sol.params.m
        assert m < 0.0 and math.isfinite(sol.period)
        assert m * (1.0 - m) == pytest.approx(-(s1 - s2) ** 2 / (16.0 * s1 * s2 * (1.0 - s1) * (1.0 - s2)), rel=1e-9)


class TestPeriod:
    def test_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c1 = case1_triple(rng.uniform(-3, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 5))
            c2 = case2_triple(rng.uniform(-6, -0.4), rng.uniform(-0.35, -0.05), rng.uniform(0.1, 5))
            for c in (c1, c2):
                sol = q.solve(c)
                assert sol.period == pytest.approx(q.period_by_quadrature(c), rel=1e-9)

    def test_quadrature_matches_frozen_periods(self):
        assert q.period_by_quadrature((1.0, 2.0, 3.0)) == pytest.approx(T_123, rel=1e-14, abs=0.0)
        assert q.period_by_quadrature(CASE2) == pytest.approx(T_CASE2, rel=1e-14, abs=0.0)

    def test_quadrature_rejects_non_positive_potential(self):
        # h2(s) = -6 < 0: the energy relation has no real velocity.  The
        # integrand's first grid is NaN, which raises without a warning.
        with pytest.raises(DomainError):
            q.period_by_quadrature((-1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            q.period_by_quadrature((-5e-324, 0.0, 1e-323))

    def test_quadrature_of_subnormal_triples(self):
        # The rule runs on the triple scaled to unit size by a power of four,
        # so nothing overflows in 1/sqrt(h2) or underflows in h2.
        tiny = (0.0, 0.0, 5e-324)
        assert q.period_by_quadrature(tiny) == pytest.approx(q.solve(tiny).period, rel=1e-15, abs=0.0)
        # 5e-324 is 4^-537, so the period is exactly 2^537 times that of the unit cubic.
        assert q.period_by_quadrature((0.0, 5e-324, 0.0)) == math.ldexp(q.period_by_quadrature((0.0, 1.0, 0.0)), 537)
        assert q.period_by_quadrature((1e-320, 1e-320, 0.0)) == pytest.approx(
            q.period_by_quadrature((1.0, 1.0, 0.0)) / math.sqrt(1e-320), rel=1e-12, abs=0.0)

    def test_quadrature_scaling_keeps_normal_range_bits(self):
        # Scaling by 4^-k is exact away from the subnormal range, so every
        # sum and square root of the rule scales exactly and the bits stay.
        rng = np.random.default_rng(374)
        for _ in range(100):
            lam = 10.0 ** rng.uniform(-100.0, 100.0)
            for c in (case1_triple(rng.uniform(-3, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 5)),
                      case2_triple(rng.uniform(-6, -0.4), rng.uniform(-0.35, -0.05), rng.uniform(0.1, 5))):
                c = tuple(lam * x for x in c)
                unscaled = models.OscillatorModel("generic", force_spec=(-c[0], -c[1], -c[2]))
                expected = 4.0 * models._quarter_period_integral(models._theta_integrand(unscaled))
                assert q.period_by_quadrature(c).hex() == expected.hex()

    @given(st.sampled_from([(1.0, 2.0, 3.0), CASE2, (0.0, 2.0, 1.0), (0.3, 0.0, 0.0)]),
           st.floats(-300.0, 300.0))
    @example((1.0, 2.0, 3.0), math.log10(4.0))
    @example((5e-324, 5e-324, 5e-324), 300.0)
    def test_time_rescaling(self, c, log_lam):
        # u(sqrt(lam) t) solves lam*c whenever u(t) solves c, so
        # period(lam*c) = period(c) / sqrt(lam); the case is scale-free,
        # and the closed forms neither overflow nor underflow at any scale.
        lam = 10.0 ** log_lam
        base = q.solve(c).period
        scaled = q.solve(tuple(lam * x for x in c)).period
        assert scaled * math.sqrt(lam) == pytest.approx(base, rel=1e-12)

    def test_pure_cubic_limit_continuity(self):
        # (0, 1, eps) approaches the pure-cubic oscillator as eps -> 0+.
        reference = q.period_by_quadrature((0.0, 1.0, 0.0))
        coarse = q.solve((0.0, 1.0, 1e-3)).period
        fine = q.solve((0.0, 1.0, 1e-6)).period
        assert abs(fine - reference) < abs(coarse - reference)
        assert fine == pytest.approx(reference, abs=1e-5)


class TestEvaluate:
    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_anchor_points(self, c):
        sol = q.solve(c)
        T = sol.period
        assert q.evaluate(sol, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(q.evaluate(sol, T / 4.0)) < 1e-9
        assert q.evaluate(sol, T / 2.0) == pytest.approx(-1.0, abs=1e-12)
        assert q.evaluate(sol, T) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_trajectory_points(self):
        sol = q.solve((1.0, 2.0, 3.0))
        assert q.evaluate(sol, 0.3 * sol.period) == pytest.approx(-0.2650030366509913, abs=1e-13)
        assert q.evaluate(sol, 0.11 * sol.period) == pytest.approx(0.7123823650784179, abs=1e-13)
        sol2 = q.solve(CASE2)
        assert q.evaluate(sol2, 0.2 * sol2.period) == pytest.approx(0.23945268830004717, abs=1e-13)

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_symmetries(self, c):
        sol = q.solve(c)
        T = sol.period
        t = np.linspace(0.0, T / 2.0, 301)
        u = q.evaluate(sol, t)
        np.testing.assert_allclose(q.evaluate(sol, T - t), u, rtol=0.0, atol=1e-10)
        # u is even about T/2 (time reversal) and antiperiodic by T/2.
        np.testing.assert_allclose(q.evaluate(sol, T / 2.0 + t), q.evaluate(sol, T / 2.0 - t),
                                   rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(q.evaluate(sol, t + T / 2.0), -u, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_periodic_extension_and_range(self, c):
        sol = q.solve(c)
        t = np.linspace(-2.0 * sol.period, 3.0 * sol.period, 1501)
        u = q.evaluate(sol, t)
        assert np.max(np.abs(u)) <= 1.0 + 1e-12
        np.testing.assert_allclose(q.evaluate(sol, t + 7.0 * sol.period), u, rtol=0.0, atol=1e-9)

    def test_initial_velocity_vanishes(self):
        sol = q.solve((1.0, 2.0, 3.0))
        h = 1e-6 * sol.period
        fd = (q.evaluate(sol, h) - q.evaluate(sol, -h)) / (2.0 * h)
        assert abs(fd) < 1e-7

    @pytest.mark.parametrize("c", SIX_TRIPLES)
    def test_ode_residual_by_finite_differences(self, c):
        # 5-point central second derivative of the closed form must satisfy
        # the quintic ODE; this guards the Jacobi-function plumbing.
        sol = q.solve(c)
        T = sol.period
        h = T * 1e-4
        t = np.linspace(0.0, T, 1001)
        u = q.evaluate(sol, t)
        udd = (-q.evaluate(sol, t + 2 * h) + 16 * q.evaluate(sol, t + h) - 30 * u
               + 16 * q.evaluate(sol, t - h) - q.evaluate(sol, t - 2 * h)) / (12.0 * h * h)
        rhs = -(c[0] * u + c[1] * u ** 3 + c[2] * u ** 5)
        assert np.max(np.abs(udd - rhs)) < 1e-6

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_derivative_matches_finite_differences(self, c):
        sol = q.solve(c)
        T = sol.period
        h = T * 1e-6
        t = np.linspace(0.05 * T, 0.95 * T, 401)
        fd = (q.evaluate(sol, t + h) - q.evaluate(sol, t - h)) / (2.0 * h)
        np.testing.assert_allclose(q.derivative(sol, t), fd, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("c", SIX_TRIPLES)
    def test_zero_crossings_keep_relative_precision(self, c):
        # u crosses zero at T/4 with u' = -v and at 3T/4 with u' = +v, where
        # v^2 = Phi(0) = c1 + c3/2 + c5/3; u'' = 0 there, so u = u'*dt + O(dt^3).
        sol = q.solve(c)
        T = sol.period
        v = math.sqrt(c[0] + c[1] / 2.0 + c[2] / 3.0)
        for crossing, slope in ((0.25 * T, -v), (0.75 * T, v)):
            for dt in (1e-9 * T, -1e-9 * T):
                assert q.evaluate(sol, crossing + dt) == pytest.approx(slope * dt, rel=1e-6)

    @pytest.mark.parametrize("c", SIX_TRIPLES)
    def test_turning_point_velocity_keeps_relative_precision(self, c):
        # u'(t) = -(c1 + c3 + c5) t + O(t^3) after the turning point u(0) = 1.
        sol = q.solve(c)
        slope = -(c[0] + c[1] + c[2])
        for t in (1e-7 * sol.period, 1e-9 * sol.period):
            assert q.derivative(sol, t) == pytest.approx(slope * t, rel=1e-6)
        # Nothing of the size of t is squared on the way, so the slope survives
        # at 1e-300 and at the smallest subnormal, up to its rounding grid.
        assert q.derivative(sol, 1e-300) == pytest.approx(slope * 1e-300, rel=1e-14)
        assert q.derivative(sol, 5e-324) == pytest.approx(slope * 5e-324, rel=0.0, abs=3 * 5e-324)

    @given(st.sampled_from(SIX_TRIPLES + NEAR_SEPARATRIX), st.lists(st.one_of(
        st.floats(-1e6, 1e6).map(lambda k: ("periods", k)),
        st.integers(-4_000_000, 4_000_000).map(lambda n: ("quarters", n)),
        st.sampled_from([("time", 0.0), ("time", -0.0)]),
        st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308).map(lambda x: ("time", x)),
    ), min_size=1, max_size=12))
    def test_scalar_is_a_batch_of_one(self, c, draws):
        sol = q.solve(c)
        scale = {"periods": sol.period, "quarters": sol.period / 4.0, "time": 1.0}
        t = np.array([scale[kind] * x for kind, x in draws])
        for func in (q.evaluate, q.derivative):
            scalars = [func(sol, float(x)) for x in t]
            assert all(type(x) is float for x in scalars)
            # Bit patterns, so that -0.0 and 0.0 differ.
            assert [x.hex() for x in scalars] == [x.hex() for x in func(sol, t).tolist()]

    def test_scalar_is_the_batch_at_every_stage_count(self, stage_tables):
        # The scalar path reads the solution's stage table and constants as the batch does: the same bits,
        # at every chain length and both signs of m.  solve builds the table once; evaluations build none.
        seen = set()
        rng = np.random.default_rng(320)
        for c in stage_count_triples():
            stage_tables.clear()
            sol = q.solve(c)
            assert len(stage_tables) == 1
            seen.add((len(sol.params.stages[0]), sol.params.m < 0.0))
            t = np.concatenate([[0.0, -0.0, 5e-324, 1e300], rng.uniform(-60.0, 60.0, 12) * sol.period])
            for func in (q.evaluate, q.derivative):
                assert [bits(func(sol, x)) for x in t.tolist()] == bits(func(sol, t))
            assert len(stage_tables) == 1
        assert {(n, negative) for n in range(1, 8) for negative in (False, True)} <= seen

    def test_constants_are_the_expressions_they_replace(self):
        # Each constant is the float the evaluation formed from A, B, the chain and the period before it was kept.
        for c in stage_count_triples()[:30] + SIX_TRIPLES:
            p = q.solve(c).params
            stages, a_n = elliptic._landen(p.m1)
            assert p.stages == stages
            assert p.half.hex() == (0.5 * a_n / (2.0 * p.A)).hex()
            assert (p.sb.hex(), p.sqrt_sb.hex()) == (math.sqrt(p.B).hex(), math.sqrt(math.sqrt(p.B)).hex())
            assert p.du_scale.hex() == (-math.sqrt(math.sqrt(p.B)) / (2.0 * p.A)).hex()
            assert p.span.hex() == math.ldexp(p.period, 52).hex()

    @pytest.mark.parametrize("c", SIX_TRIPLES + NEAR_SEPARATRIX)
    def test_evaluate_and_derivative_are_the_printed_pair(self, c, kernel_calls):
        # `quintosc solve` prints evaluate then derivative on one grid: one kernel call, and the second
        # call, served from the slot, gives the bits of a cold call, in either order.
        sol = q.solve(c)
        t = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.25 * sol.period, 1e6 * sol.period],
                            np.random.default_rng(13).uniform(-50.0, 50.0, 40) * sol.period])
        for times in (t, *t.tolist()):
            for first, second in ((q.evaluate, q.derivative), (q.derivative, q.evaluate)):
                expected = [bits(cold(f, c, times)) for f in (first, second)]
                kernel_calls.clear()
                pair = (first(sol, times), second(sol, times))
                assert len(kernel_calls) == 1 and q._last is None
                assert [bits(x) for x in pair] == expected

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_time_edited_in_place_misses(self, c, kernel_calls):
        sol = q.solve(c)
        t = np.linspace(0.0, 3.0, 50) * sol.period
        q.evaluate(sol, t)
        t[7] += 0.1 * sol.period
        kernel_calls.clear()
        du = q.derivative(sol, t)
        assert len(kernel_calls) == 1
        assert bits(du) == bits(cold(q.derivative, c, t))

    @pytest.mark.parametrize("zero, other", [(0.0, -0.0), (-0.0, 0.0)])
    @pytest.mark.parametrize("wrap", [float, lambda x: np.array([x, 1.0])])
    def test_signed_zeros_are_different_times(self, zero, other, wrap, kernel_calls):
        sol = q.solve((1.0, 2.0, 3.0))
        q.evaluate(sol, wrap(zero))
        kernel_calls.clear()
        du = q.derivative(sol, wrap(other))
        assert len(kernel_calls) == 1
        assert bits(du) == bits(cold(q.derivative, (1.0, 2.0, 3.0), wrap(other)))

    def test_an_equal_solution_misses(self, kernel_calls):
        sol, twin = q.solve(CASE2), q.solve(CASE2)
        assert sol == twin and sol is not twin
        t = np.linspace(-1.0, 1.0, 9) * sol.period
        q.evaluate(sol, t)
        q.derivative(twin, t)
        assert len(kernel_calls) == 2

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_non_contiguous_view(self, c, kernel_calls):
        sol = q.solve(c)
        base = np.linspace(-5.0, 5.0, 40) * sol.period
        view = base[::3]
        expected = (bits(cold(q.evaluate, c, view)), bits(cold(q.derivative, c, view)))
        kernel_calls.clear()
        u, du = q.evaluate(sol, view), q.derivative(sol, view.copy())  # the same bits in another layout
        assert len(kernel_calls) == 1 and (bits(u), bits(du)) == expected
        q.evaluate(sol, view)
        base[3] = 0.0  # edits view[1] through its base array
        du = q.derivative(sol, view)
        assert len(kernel_calls) == 3
        assert bits(du) == bits(cold(q.derivative, c, view))

    def test_zero_dimensional_array_is_the_float(self, kernel_calls):
        c = (1.0, 2.0, 3.0)
        sol = q.solve(c)
        x = 0.3 * sol.period
        expected = (cold(q.evaluate, c, x).hex(), cold(q.derivative, c, x).hex())
        kernel_calls.clear()
        u, du = q.evaluate(sol, np.array(x)), q.derivative(sol, x)
        assert type(u) is float and type(du) is float and len(kernel_calls) == 1
        assert (u.hex(), du.hex()) == expected
        # A one-element batch differs in type and shape: a miss, which returns an array.
        q.evaluate(sol, x)
        assert bits(q.derivative(sol, np.array([x]))) == [du.hex()]
        assert len(kernel_calls) == 3

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_the_same_bits_in_another_shape_miss(self, c, kernel_calls):
        # A (3, 4) grid and its (12,) ravel have the same bytes: the key holds the shape, so the second call misses.
        sol = q.solve(c)
        t = np.linspace(-3.0, 3.0, 12) * sol.period
        expected = bits(cold(q.derivative, c, t))
        kernel_calls.clear()
        u, du = q.evaluate(sol, t.reshape(3, 4)), q.derivative(sol, t)
        assert len(kernel_calls) == 2 and u.shape == (3, 4) and du.shape == (12,)
        assert bits(du) == expected

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_times_past_the_clip(self, c, kernel_calls):
        # The key is t before the clip: 1e300 and the span clip to the same time but are different keys.
        sol = q.solve(c)
        span = math.ldexp(sol.period, 52)
        t = np.array([1e300, -1e300, 0.5 * sol.period, span])
        expected = (bits(cold(q.evaluate, c, t)), bits(cold(q.derivative, c, t)))
        kernel_calls.clear()
        u, du = q.evaluate(sol, t), q.derivative(sol, t)
        assert len(kernel_calls) == 1 and (bits(u), bits(du)) == expected
        q.evaluate(sol, 1e300)
        assert q.derivative(sol, span).hex() == du[3].hex()
        assert len(kernel_calls) == 3

    def test_the_slot_is_read_only_and_skips_bad_times(self):
        sol = q.solve((1.0, 2.0, 3.0))
        t = np.linspace(0.0, 1.0, 5) * sol.period
        q.evaluate(sol, t)
        held, key, (sn, cn, sn2, cn2, dn2, e) = q._last
        assert held is sol and key == (t.shape, t.tobytes()) and type(key[1]) is bytes  # immutable bits of t
        assert not any(x.flags.writeable for x in (sn, cn, sn2, cn2, dn2, e))
        t[2] = math.nan
        with pytest.raises(DomainError):
            q.derivative(sol, t)
        assert q._last is None

    def test_threads_sharing_the_slot_get_their_own_values(self):
        # More threads than cores, switching often: a race may lose a hit, never hand over another grid.
        cases = [(c, np.linspace(-2.0, 2.0, 64) * q.solve(c).period) for c in SIX_TRIPLES]
        expected = [(bits(cold(q.evaluate, c, t)), bits(cold(q.derivative, c, t))) for c, t in cases]
        wrong = []

        def work(i):
            c, t = cases[i]
            for k in range(100):
                sol = q.solve(c)
                pair = (q.evaluate, q.derivative) if k % 2 else (q.derivative, q.evaluate)
                got = {f: bits(f(sol, t)) for f in pair}
                if (got[q.evaluate], got[q.derivative]) != expected[i]:
                    wrong.append(c)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not wrong

    @pytest.mark.parametrize("func", [q.evaluate, q.derivative])
    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_empty_and_two_dimensional_batches(self, c, func):
        sol = q.solve(c)
        empty = func(sol, np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64
        t = np.linspace(-3.0, 3.0, 12).reshape(3, 4) * sol.period
        got = func(sol, t)
        assert got.shape == (3, 4)
        assert got.tobytes() == func(sol, t.ravel()).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 5000, 9999])
    @pytest.mark.parametrize("func", [q.evaluate, q.derivative])
    def test_one_non_finite_time_in_a_batch_raises(self, func, where, bad):
        sol = q.solve((1.0, 2.0, 3.0))
        t = np.linspace(-64.0, 64.0, 10_000) * sol.period
        t[where] = bad
        with pytest.raises(DomainError):
            func(sol, t)

    @pytest.mark.parametrize("func", [q.evaluate, q.derivative])
    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_a_time_past_the_span_clips_only_itself(self, c, func):
        # One t beyond 2^52 periods sends the whole batch through the clip; every other entry keeps its bits.
        sol = q.solve(c)
        t = np.concatenate([np.random.default_rng(14).uniform(-50.0, 50.0, 20) * sol.period, [1e300, -1e300, 0.0]])
        batch = func(sol, t).tolist()
        assert [func(sol, x).hex() for x in t.tolist()] == [x.hex() for x in batch]

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_float32_times_run_in_double(self, c):
        sol = q.solve(c)
        t32 = np.array([1.5, 7.25, -0.1], np.float32)
        t64 = t32.astype(float)
        for func in (q.evaluate, q.derivative):
            assert func(sol, t32).tobytes() == func(sol, t64).tobytes()
            for x32, x64 in zip(t32, t64):
                got = func(sol, x32)
                assert type(got) is float and got.hex() == func(sol, float(x64)).hex()

    @pytest.mark.parametrize("t", ["1.5", b"1.5", ["1.5", "2"], np.array(["1.5"]), np.array([1.5], dtype=object)],
                             ids=["str", "bytes", "str_list", "str_array", "object_array"])
    @pytest.mark.parametrize("func", [
        lambda t: q.evaluate(q.solve((1.0, 2.0, 3.0)), t),
        lambda t: q.derivative(q.solve(CASE2), t),
        lambda t: jacobi_sn_cn_dn(t, 0.5),
    ], ids=["evaluate", "derivative", "jacobi_sn_cn_dn"])
    def test_non_numeric_times_are_refused(self, func, t):
        # np.asarray(t, dtype=float) would parse the text as a number.
        with pytest.raises(TypeError, match="expected real numbers"):
            func(t)

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_scalar_path_runs_on_python_floats(self, c, monkeypatch):
        # No timing gate: a scalar query must not reach numpy's sqrt, isfinite, clip, sin or cos at all.
        sol = q.solve(c)

        def banned(*args, **kwargs):
            raise AssertionError("numpy called on the scalar path")

        for name in ("sqrt", "isfinite", "minimum", "maximum", "sin", "cos"):
            monkeypatch.setattr(np, name, banned)
        # The one numpy call left is the Gauss kernel's tan, once per query, on a Python float.
        tan, calls = np.tan, []
        monkeypatch.setattr(np, "tan", lambda x: calls.append(x) or tan(x))
        assert type(q.evaluate(sol, 1.3)) is float
        assert type(q.derivative(sol, np.float64(-2.7))) is float
        assert all(type(x) is float for x in jacobi_sn_cn_dn(0.9, sol.params.m))
        assert [type(x) for x in calls] == [float] * 3
        with pytest.raises(AssertionError, match="numpy called"):
            q.evaluate(sol, np.array([1.3]))


def mp_trajectory(p, t: float) -> tuple[float, float]:
    """u(t) and u'(t) at 30 digits from mpmath.ellipfun and parameters p with fields A, B and m.

    The half amplitude psi = am(t/A)/2 is taken itself, with the branch of am fixed as
    in the elliptic oracle.  At m < 0 mpmath returns complex values with a zero
    imaginary part, so the real parts are taken.
    """
    with mp.workdps(30):
        m, A = mp.mpf(p.m), mp.mpf(p.A)
        x = mp.mpf(t) / A
        sn, cn, dn = (mp.re(mp.ellipfun(kind, x, m=m)) for kind in ("sn", "cn", "dn"))
        principal = mp.atan2(sn, cn)
        am = principal + 2 * mp.pi * mp.nint((mp.pi * x / (2 * mp.re(mp.ellipk(m))) - principal) / (2 * mp.pi))
        sb = mp.sqrt(mp.mpf(p.B))
        d = mp.sqrt(sb * mp.cos(am / 2) ** 2 + mp.sin(am / 2) ** 2)
        return (float(mp.sqrt(sb) * mp.cos(am / 2) / d),
                float(-mp.sqrt(sb) * mp.sin(am / 2) * dn / (2 * A * d ** 3)))


def mp_params(c: tuple) -> q.InversionParameters:
    """A, B, m, m1 = 1 - m and the period 8 A K(m) at 40 digits from the float triple's exact h2, as mpf fields.

    The constants built from the float Landen chain have no mpf counterpart, and the oracle reads none of
    them: they are None.
    """
    with mp.workdps(40):
        c1, c3, c5 = map(mp.mpf, c)
        P, Q, k_tilde = c1 + c3 + c5, 6 * c1 + 3 * c3 + 2 * c5, 4 * c1 + 3 * c3 + 2 * c5
        A = (6 / (P * Q)) ** mp.mpf(0.25) / 2
        m = mp.mpf(0.5) - mp.sqrt(6) / 8 * k_tilde / mp.sqrt(P * Q)
        return q.InversionParameters(A, Q / (6 * P), m, 1 - m, 8 * A * mp.re(mp.ellipk(m)), *(None,) * 6)


def mp_period(c: tuple) -> float:
    """4 * integral_0^{pi/2} d theta / sqrt(h2(sin^2 theta) / 6) at 30 digits on the float triple's exact h2.

    The interval is split ever closer to the theta where h2 is least, so tanh-sinh
    resolves a near-double root at any depth; for c5 <= 0 that is an end of [0, 1].
    """
    with mp.workdps(30):
        c1, c3, c5 = map(mp.mpf, c)
        h0, h1, h2 = 6 * c1 + 3 * c3 + 2 * c5, 3 * c3 + 2 * c5, 2 * c5
        least = mp.asin(mp.sqrt(min(max(-h1 / (2 * h2), 0), 1) if h2 > 0 else int(h1 + h2 < 0)))
        cuts = {mp.mpf(0), mp.pi / 2, least} | {least + sign * mp.mpf(10) ** -k for k in range(1, 16) for sign in (-1, 1)}
        points = sorted(x for x in cuts if 0 <= x <= mp.pi / 2)
        return float(4 * mp.quad(lambda th: 1 / mp.sqrt((h0 + h1 * mp.sin(th) ** 2 + h2 * mp.sin(th) ** 4) / 6), points))


class TestTrajectoryMpmathOracle:
    """evaluate and derivative against 30-digit mpmath, from the float triple's exact h2 (mp_params)."""

    def test_near_separatrix_triples(self):
        (one, two) = (q.solve(c) for c in NEAR_SEPARATRIX)
        assert one.case == q.CASE_I and one.nudge == 0.0 and one.params.m1 == pytest.approx(4e-8, rel=1e-3)
        assert two.case == q.CASE_II and two.params.m == pytest.approx(-2.5e5, rel=1e-3)

    @pytest.mark.parametrize("c", SIX_TRIPLES + NEAR_SEPARATRIX)
    def test_against_ellipfun(self, c):
        sol = q.solve(c)
        t = np.random.default_rng([20221101, *map(int, np.abs(c) * 1e6)]).uniform(-50.0, 50.0, 8) * sol.period
        ref = np.array([mp_trajectory(mp_params(c), x) for x in t]).T
        # Scaling t rounds it once, which moves u by up to eps |t| max|u'| and u'
        # by eps |t| max|u''|; 1e-13 of each scale covers the rest (as for sn, cn, dn).
        # u'^2 = c1 (1 - u^2) + c3 (1 - u^4) / 2 + c5 (1 - u^6) / 3 bounds the first.
        vmax = math.sqrt(abs(c[0]) + abs(c[1]) / 2.0 + abs(c[2]) / 3.0)
        amax = abs(c[0]) + abs(c[1]) + abs(c[2])
        slack = 4.0 * np.finfo(float).eps * np.abs(t)
        assert np.all(np.abs(q.evaluate(sol, t) - ref[0]) <= 1e-13 + slack * vmax)
        assert np.all(np.abs(q.derivative(sol, t) - ref[1]) <= (1e-13 + slack) * max(vmax, amax))

    @pytest.mark.parametrize("c", BESIDE_CASE_ONE_SEPARATRIX)
    def test_case_one_beside_the_separatrix(self, c):
        # h2 has roots p +- i s, so 1 - m ~ s^2 / (6PQ) runs down to ~1e-16; s = 0 is the separatrix before
        # rounding, as is (5/12, -4/3, 1), whose float has delta = -1.2e-15 exactly.  Rounding the triple moves
        # h2 by ~1e-16, which can put the double root on [0, 1]: then the float triple is refused, by its exact h2.
        # Worst errors measured over the 20 solved triples: period 4.4e-16 relative; u 6.2e-14, u' 3.2e-14 absolute.
        if exact_least_h2(c) <= 0:
            with pytest.raises(UnsupportedCaseError):
                q.solve(c)
            return
        sol, exact = q.solve(c), mp_params(c)
        assert sol.case == q.CASE_I and sol.params.m1 == pytest.approx(float(exact.m1), rel=1e-13, abs=0.0)
        assert sol.period == pytest.approx(float(exact.period), rel=1e-13, abs=0.0)
        t = np.random.default_rng([26, *map(int, np.abs(c) * 1e9)]).uniform(-3.0, 3.0, 8) * sol.period
        ref = np.array([mp_trajectory(exact, x) for x in t]).T
        vmax = math.sqrt(abs(c[0]) + abs(c[1]) / 2.0 + abs(c[2]) / 3.0)
        amax = abs(c[0]) + abs(c[1]) + abs(c[2])
        slack = 4.0 * np.finfo(float).eps * np.abs(t)
        assert np.all(np.abs(q.evaluate(sol, t) - ref[0]) <= 1e-13 + slack * vmax)
        assert np.all(np.abs(q.derivative(sol, t) - ref[1]) <= (1e-13 + slack) * max(vmax, amax))

    @pytest.mark.parametrize("gap", [5e-10, 5e-13, 5e-15])
    def test_case_two_beside_the_separatrix(self, gap):
        # h2 has roots -1 and -gap, so h2(0) = 2 gap and m runs to -2e6.  The oracle starts from the
        # float triple's exact h2, not from the solution's m, so it sees every rounding of P, Q and k~.
        c = case2_triple(-1.0, -gap, 1.0)
        sol, exact = q.solve(c), mp_params(c)
        assert sol.case == q.CASE_II and sol.params.m < 0.0
        assert sol.period == pytest.approx(float(exact.period), rel=1e-13, abs=0.0)
        assert sol.period == pytest.approx(mp_period(c), rel=1e-13, abs=0.0)
        t = np.random.default_rng([20221101, int(-math.log10(gap))]).uniform(-2.0, 2.0, 8) * sol.period
        ref = np.array([mp_trajectory(exact, x) for x in t]).T
        vmax = math.sqrt(abs(c[0]) + abs(c[1]) / 2.0 + abs(c[2]) / 3.0)
        assert np.all(np.abs(q.evaluate(sol, t) - ref[0]) <= 1e-13 + 4.0 * np.finfo(float).eps * np.abs(t) * vmax)


class TestSolveDispatch:
    def test_case_tags(self):
        assert q.solve((1.0, 2.0, 3.0)).case == q.CASE_I
        assert q.solve(CASE2).case == q.CASE_II

    def test_unsupported(self):
        with pytest.raises(UnsupportedCaseError, match="h2 > 0 on"):
            q.solve((1.0, -1.5, 0.25))

    @pytest.mark.parametrize("c", [(1.0, 1.0, -1.0), (1.0, -0.3, 0.0)])
    def test_quintic_term_of_either_sign(self, c):
        # c5 < 0 and c5 = 0: h2 is concave or linear, positive on [0, 1], and solves as it is at m < 0.
        sol = assert_against_mpmath(c)
        assert sol.case == q.CASE_II and sol.params.m < 0.0 and sol.nudge == 0.0

    def test_pure_cubic(self):
        # (0, 1, 0) is solved as it is: the period 4 K(1/2) of u'' = -u^3.
        with mp.workdps(40):
            exact = float(4 * mp.ellipk(mp.mpf(1) / 2))
        assert q.solve((0.0, 1.0, 0.0)).period == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_most_negative_parameter(self):
        # h2(1) = 6 c5 puts m near -0.18 / sqrt(c5): -1.8e11 is inside elliptic.M_MIN, -1.8e12 is not.
        c = (1.0, -1.0, 1e-24)
        sol = q.solve(c)
        assert M_MIN < sol.params.m < -1e11
        assert sol.period == pytest.approx(float(mp_params(c).period), rel=1e-13, abs=0.0)
        # As in test_against_ellipfun, rounding t moves u by up to eps |t| max|u'|, and 1e-13 covers the rest.
        vmax = math.sqrt(abs(c[0]) + abs(c[1]) / 2.0 + abs(c[2]) / 3.0)
        for u in (0.0, 1e-9, 0.3, 0.7, 1.0 - 1e-12):
            t = q._time_to(sol, u)
            assert q.evaluate(sol, t) == pytest.approx(u, rel=0.0, abs=1e-13 + 4.0 * np.finfo(float).eps * t * vmax)
        for c5 in (1e-26, 1e-200):
            assert q.classify((1.0, -1.0, c5)) == q.UNSUPPORTED
            with pytest.raises(UnsupportedCaseError):
                q.solve((1.0, -1.0, c5))

    def test_small_scale_triple(self):
        # (1e-6, 2e-6, 3e-6) = 1e-6 * (1, 2, 3): Case I with period T_123 * 1e3.
        sol = q.solve((1e-6, 2e-6, 3e-6))
        assert sol.case == q.CASE_I and sol.nudge == 0.0
        assert sol.period == pytest.approx(T_123 * 1e3, rel=1e-13)

    def test_harmonic_generic_model(self):
        # (0.3, 0, 0) has delta = 0 and m = 0: the harmonic period 2 pi / sqrt(0.3), solved as it is.
        sol = q.solve(model_coefficients(models.OscillatorModel("generic", force_spec=(-0.3,))))
        assert sol.case == q.DEGENERATE and sol.nudge == 0.0
        assert sol.period == pytest.approx(2.0 * math.pi / math.sqrt(0.3), rel=1e-15)

    def test_accepts_dataclass_input(self):
        sol = q.solve(QuinticCoefficients(1.0, 2.0, 3.0, "manual"))
        assert sol.period == pytest.approx(T_123, rel=1e-13)

    def test_degenerate_triple_needs_no_nudge(self):
        # delta(0, 2, 1) = 0 exactly: P = 3, Q = k~ = 8 give m = 0, A = 1 / (2 sqrt(2)) and
        # the period 8 A K(0) = pi sqrt(2) of the triple itself.
        sol = q.solve((0.0, 2.0, 1.0))
        assert sol.case == q.DEGENERATE and sol.nudge == 0.0
        assert abs(sol.params.m) < 1e-15
        assert sol.period == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15, abs=0.0)

    def test_degenerate_trajectory_against_oracle(self):
        from quintosc.validation import compare_trajectories, rk_oracle

        sol = q.solve((0.0, 2.0, 1.0))
        oracle = rk_oracle(lambda u: -(2.0 * u ** 3 + u ** 5), sol.period, tol=1e-10)
        assert compare_trajectories(sol, oracle) < 1e-5

    def test_triple_beside_zero_delta_with_small_quintic_term(self):
        # delta = -9.1e-19 exactly on this float triple with c5 = 1e-3: Case I, with m near 0, solved as it is.
        c = (1.0, 0.0737085115989458, 0.001)
        assert q.classify(c) == q.CASE_I
        sol = assert_against_mpmath(c)
        assert sol.case == q.CASE_I and sol.nudge == 0.0

    @given(st.floats(1e-9, 1.0), st.floats(-1.0, 1.0))
    @example(1e-9, 1.0)
    @example(0.001, 0.0737085115989458)
    @example(1.0, -4.0 / 3.0)
    @example(1.0, -1.0)
    def test_rounded_degenerate_triples_follow_the_exact_rule(self, c5, c3):
        # delta = 0 fixes c1; the triple is then brought to max|c| = 1 and rounded.  Its exact delta
        # labels it (DEGENERATE only at delta = 0), and it solves iff h2 > 0 on [0, 1]: at delta = 0,
        # P, Q or k~ <= 0 puts the double root of h2 in [0, 1], a separatrix.
        c1 = (3.0 * c3 * c3 / (4.0 * c5) - c3 - c5) / 4.0
        scale = max(abs(c1), abs(c3), c5)
        c = (c1 / scale, c3 / scale, c5 / scale)
        assert max(map(abs, c)) == 1.0
        assert_exact_rule(c)

    @pytest.mark.parametrize("c", [(0.1875, -1.0, 1.0), (1.25, -4.0, 3.0), (2.0625, -5.0, 3.0)])
    def test_degenerate_separatrix_is_unsupported(self, c):
        # delta = 0 exactly with the double root of h2 at s = 1/4, 1/2 and 3/4, where k~ < 0: u never reaches 0.
        assert q.discriminant(c) == 0.0
        assert q.classify(c) == q.UNSUPPORTED
        with pytest.raises(UnsupportedCaseError):
            q.solve(c)

    def test_triple_beside_the_separatrix(self):
        # delta = -1.3e-22 exactly: h2 has complex roots near s = -4.0e-4 and h2(0) = 2.6e-10, so 1 - m = 5.7e-11;
        # a c5 step of 7.9e-12 moved this period by 1.1e-2.
        c = (-2.143313846476229e-07, -0.0005293236906331185, 0.0007946286602300748)
        sol = q.solve(c)
        assert sol.case == q.CASE_I and sol.nudge == 0.0
        assert sol.period == pytest.approx(mp_period(c), rel=1e-13, abs=0.0)
        assert sol.period == pytest.approx(float(mp_params(c).period), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("base", [(0.0, 1.0, 0.5), (-0.4375, -1.0, 3.0)])
    @pytest.mark.parametrize("step", [1.5e-9, 1e-15, -1e-15, -1.5e-9])
    def test_triples_beside_an_exact_zero_delta(self, base, step):
        # Both bases have delta = 0 exactly and k~ > 0 (double roots at s = -2 and -1/4); c1 + h moves delta
        # by -16 c5 h, so the label follows the sign of the step, however small.
        assert q.classify(base) == q.DEGENERATE
        c1, c3, c5 = base
        c = (c1 + step / c5, c3, c5)
        sol = q.solve(c)
        assert sol.case == (q.CASE_I if step > 0 else q.CASE_II) and sol.nudge == 0.0
        assert (0.0 < sol.params.m < 1.0) if step > 0 else sol.params.m < 0.0
        assert sol.period == pytest.approx(q.period_by_quadrature(c), rel=1e-12)


def mp_psi(c: QuinticCoefficients, u: float) -> float:
    """Psi(u) of the quintic at 30 digits: tanh-sinh on 1/sqrt(G(sin theta)) over [asin u, pi/2].

    G = Phi / (1 - u^2) = c1 + c3 (1 + u^2) / 2 + c5 (1 + u^2 + u^4) / 3.
    """
    with mp.workdps(30):
        c1, c3, c5 = (mp.mpf(x) for x in c.as_tuple())

        def big_g(x):
            return c1 + c3 * (1 + x ** 2) / 2 + c5 * (1 + x ** 2 + x ** 4) / 3

        return float(mp.quad(lambda theta: 1 / mp.sqrt(big_g(mp.sin(theta))), [mp.asin(mp.mpf(u)), mp.pi / 2]))


def assert_against_mpmath(c: tuple) -> q.ClosedFormSolution:
    """solve(c) against mpmath at 1e-13: the period by mp_params and mp_period, u at mp_psi's times."""
    sol = q.solve(c)
    assert sol.period == pytest.approx(float(mp_params(c).period), rel=1e-13, abs=0.0)
    assert sol.period == pytest.approx(mp_period(c), rel=1e-13, abs=0.0)
    for u in (0.0, 1e-9, 0.3, 0.7, 1.0 - 1e-12):
        assert q.evaluate(sol, mp_psi(QuinticCoefficients(*c), u)) == pytest.approx(u, rel=0.0, abs=1e-13)
    return sol


_SPEC_RNG = np.random.default_rng(20221101)
TIME_TO_MODELS = [
    *(models.OscillatorModel("relativistic", a=a) for a, _, _ in cli.TABLE_REFERENCE[1][1]),
    *(models.OscillatorModel("duffing-relativistic", a=a, b=b)
      for a, b, _ in cli.TABLE_REFERENCE[2][1] + cli.TABLE_REFERENCE[3][1]),
    models.OscillatorModel("duffing-relativistic", a=30.0, b=1.0),
    models.OscillatorModel("cable-mass", a=3.0, b=0.25),
    *(models.OscillatorModel("generic", force_spec=tuple(-_SPEC_RNG.uniform(0.1, 2.0, 4))) for _ in range(4)),
]
TIME_TO_SOLUTIONS = ([pytest.param(q.solve(model_coefficients(m)), id=f"{m.kind}-{m.a:g}-{m.b:g}-{i}")
                      for i, m in enumerate(TIME_TO_MODELS)]
                     + [pytest.param(q.solve(c), id=f"raw{c}") for c in [(1.0, 2.0, 3.0), CASE2]])
TIME_TO_AMPLITUDES = [0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-12, 1.0]


class TestTimeTo:
    """_time_to inverts the trajectory over the first quarter period."""

    @pytest.mark.parametrize("sol", TIME_TO_SOLUTIONS)
    def test_against_mpmath_time_integral(self, sol):
        for u in TIME_TO_AMPLITUDES:
            assert q._time_to(sol, u) == pytest.approx(mp_psi(sol.coefficients, u), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("sol", TIME_TO_SOLUTIONS)
    def test_end_points(self, sol):
        assert q._time_to(sol, 1.0) == 0.0
        assert q._time_to(sol, 0.0) == pytest.approx(sol.period / 4.0, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("sol", TIME_TO_SOLUTIONS)
    def test_round_trip_through_evaluate(self, sol):
        for u in [*TIME_TO_AMPLITUDES, *np.linspace(0.0, 1.0, 33)]:
            assert q.evaluate(sol, q._time_to(sol, float(u))) == pytest.approx(u, rel=0.0, abs=1e-13)

    @given(st.sampled_from([(1.0, 2.0, 3.0), CASE2, case1_triple(2.0, 2.5, 0.4), case2_triple(-4.0, -0.3, 1.7)]),
           st.floats(-300.0, 300.0), st.floats(0.0, 1.0))
    @example((1.0, 2.0, 3.0), 300.0, 0.5)
    @example(CASE2, -300.0, 1e-9)
    def test_time_rescaling(self, c, log_lam, u):
        # u(sqrt(lam) t) solves lam*c whenever u(t) solves c, as for the period.
        lam = 10.0 ** log_lam
        scaled = q._time_to(q.solve(tuple(lam * x for x in c)), u)
        assert scaled * math.sqrt(lam) == pytest.approx(q._time_to(q.solve(c), u), rel=1e-12, abs=0.0)
