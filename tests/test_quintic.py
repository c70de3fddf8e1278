"""Tests for the closed-form quintic oscillator solutions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quintosc import cli, models, quintic as q
from quintosc.chebyshev import QuinticCoefficients, model_coefficients
from quintosc.elliptic import jacobi_sn_cn_dn
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


# Three Case I and three Case II triples with differing m and amplitude profile.
SIX_TRIPLES = [
    (1.0, 2.0, 3.0),
    case1_triple(-1.2, 0.8, 0.9),
    case1_triple(2.0, 2.5, 0.4),
    CASE2,
    case2_triple(-4.0, -0.3, 1.7),
    case2_triple(-1.5, -1.0, 0.25),
]

# A Case I triple with m = 1 - 4e-8 and a Case II triple with m = 1 - 1e-12:
# h2 nearly vanishes inside [0, 1] or at u = 0, close to a separatrix.
NEAR_SEPARATRIX = [case1_triple(0.5, 1e-4, 1.0), case2_triple(-1.0, -5e-13, 1.0)]


class TestDiscriminantAndClassify:
    def test_discriminant_examples(self):
        assert q.discriminant((1.0, 2.0, 3.0)) == -96.0
        assert q.discriminant((1.0, 0.0, 0.0)) == 0.0
        assert q.discriminant((0.0, 1.0, 0.0)) == 3.0

    def test_classify_examples(self):
        assert q.classify((1.0, 2.0, 3.0)) == q.CASE_I
        assert q.classify(CASE2) == q.CASE_II
        assert q.classify((1.0, 1.0, -1.0)) == q.UNSUPPORTED
        assert q.classify((0.0, 2.0, 1.0)) == q.DEGENERATE

    def test_classify_rejects_negative_h2_at_zero(self):
        # delta > 0 but 6c1 + 3c3 + 2c5 < 0: no bounded oscillation.
        assert q.classify((-1.0, 0.0, 1.0)) == q.UNSUPPORTED

    def test_classify_rejects_roots_above_one(self):
        # delta > 0 and h2(0) > 0, but 3c3 + 2c5 < 0 puts both roots of h2
        # on the positive axis (3.19 and 70.8 here), outside Case II.
        assert q.classify((1.0, -0.5, 0.01)) == q.UNSUPPORTED
        with pytest.raises(UnsupportedCaseError):
            q.solve((1.0, -0.5, 0.01))

    @pytest.mark.parametrize("spec", [(-1.0, 0.1), (-0.3, 0.02), (-1.0, 0.5)])
    def test_softening_generic_models_are_unsupported(self, spec):
        with pytest.raises(UnsupportedCaseError):
            q.solve(model_coefficients(models.OscillatorModel("generic", force_spec=spec)))

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
    def test_reference_roots(self):
        sol = q.solve(CASE2)
        assert sol.case == q.CASE_II
        params = sol.params
        assert params.s1 == pytest.approx(-2.0, rel=1e-14)
        assert params.s2 == pytest.approx(-1.0, rel=1e-14)
        assert params.m == pytest.approx(0.25, rel=1e-14)
        assert params.rate == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-14)
        assert params.period == pytest.approx(T_CASE2, rel=1e-13)

    @given(st.floats(-6.0, -0.4), st.floats(0.05, 0.95), st.floats(0.1, 5.0))
    def test_modulus_in_unit_interval(self, s1, frac, c5):
        s2 = s1 * frac  # strictly between s1 and 0
        sol = q.solve(case2_triple(s1, s2, c5))
        assert sol.case == q.CASE_II
        params = sol.params
        assert 0.0 < params.m < 1.0
        assert params.s1 == pytest.approx(s1, rel=1e-9)
        assert params.s2 == pytest.approx(s2, rel=1e-9)


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

    @pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
    def test_quadrature_rejects_non_positive_potential(self):
        # h2(s) = -6 < 0: the energy relation has no real velocity.
        with pytest.raises(DomainError):
            q.period_by_quadrature((-1.0, 0.0, 0.0))

    @given(st.sampled_from([(1.0, 2.0, 3.0), CASE2, (0.0, 2.0, 1.0), (0.3, 0.0, 0.0)]),
           st.floats(-300.0, 300.0))
    @example((1.0, 2.0, 3.0), math.log10(4.0))
    @example((5e-324, 5e-324, 5e-324), 300.0)
    def test_time_rescaling(self, c, log_lam):
        # u(sqrt(lam) t) solves lam*c whenever u(t) solves c, so
        # period(lam*c) = period(c) / sqrt(lam); the case, the c5 floor of the
        # harmonic triple and the nudge of the degenerate one are scale-free,
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

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0), CASE2])
    def test_scalar_path_runs_on_python_floats(self, c, monkeypatch):
        # No timing gate: a scalar query must not reach numpy's sqrt, isfinite or clip at all.
        sol = q.solve(c)

        def banned(*args, **kwargs):
            raise AssertionError("numpy called on the scalar path")

        for name in ("sqrt", "isfinite", "minimum", "maximum"):
            monkeypatch.setattr(np, name, banned)
        assert type(q.evaluate(sol, 1.3)) is float
        assert type(q.derivative(sol, np.float64(-2.7))) is float
        assert all(type(x) is float for x in jacobi_sn_cn_dn(0.9, sol.params.m))
        with pytest.raises(AssertionError, match="numpy called"):
            q.evaluate(sol, np.array([1.3]))


def mp_trajectory(sol: q.ClosedFormSolution, t: float) -> tuple[float, float]:
    """u(t) and u'(t) at 30 digits from mpmath.ellipfun and the solution's own parameters.

    Case I takes the half amplitude psi = am(t/A)/2 itself, with the branch of
    am fixed as in the elliptic oracle; Case II takes sn, cn, dn at rate * t.
    """
    p = sol.params
    with mp.workdps(30):
        m = mp.mpf(p.m)
        if sol.case == q.CASE_I:
            x = mp.mpf(t) / mp.mpf(p.A)
            sn, cn, dn = (mp.ellipfun(kind, x, m=m) for kind in ("sn", "cn", "dn"))
            principal = mp.atan2(sn, cn)
            am = principal + 2 * mp.pi * mp.nint((mp.pi * x / (2 * mp.ellipk(m)) - principal) / (2 * mp.pi))
            sb = mp.sqrt(mp.mpf(p.B))
            d = mp.sqrt(sb * mp.cos(am / 2) ** 2 + mp.sin(am / 2) ** 2)
            return (float(mp.sqrt(sb) * mp.cos(am / 2) / d),
                    float(-mp.sqrt(sb) * mp.sin(am / 2) * dn / (2 * mp.mpf(p.A) * d ** 3)))
        x = mp.mpf(p.rate) * mp.mpf(t)
        sn, cn, dn = (mp.ellipfun(kind, x, m=m) for kind in ("sn", "cn", "dn"))
        s1 = mp.mpf(p.s1)
        qq = sn ** 2 - s1
        return (float(cn * mp.sqrt(-s1 / qq)),
                float(-mp.mpf(p.rate) * mp.sqrt(-s1) * (1 - s1) * sn * dn / qq ** 1.5))


class TestTrajectoryMpmathOracle:
    """evaluate and derivative against 30-digit mpmath at seeded times within +-50 periods."""

    def test_near_separatrix_triples(self):
        (one, two) = (q.solve(c) for c in NEAR_SEPARATRIX)
        assert one.case == q.CASE_I and one.nudge == 0.0 and 1.0 - one.params.m == pytest.approx(4e-8, rel=1e-3)
        assert two.case == q.CASE_II and 1.0 - two.params.m == pytest.approx(1e-12, rel=1e-3)

    @pytest.mark.parametrize("c", SIX_TRIPLES + NEAR_SEPARATRIX)
    def test_against_ellipfun(self, c):
        sol = q.solve(c)
        t = np.random.default_rng([20221101, *map(int, np.abs(c) * 1e6)]).uniform(-50.0, 50.0, 8) * sol.period
        ref = np.array([mp_trajectory(sol, x) for x in t]).T
        # Scaling t rounds it once, which moves u by up to eps |t| max|u'| and u'
        # by eps |t| max|u''|; 1e-13 of each scale covers the rest (as for sn, cn, dn).
        # u'^2 = c1 (1 - u^2) + c3 (1 - u^4) / 2 + c5 (1 - u^6) / 3 bounds the first.
        vmax = math.sqrt(abs(c[0]) + abs(c[1]) / 2.0 + abs(c[2]) / 3.0)
        amax = abs(c[0]) + abs(c[1]) + abs(c[2])
        slack = 4.0 * np.finfo(float).eps * np.abs(t)
        assert np.all(np.abs(q.evaluate(sol, t) - ref[0]) <= 1e-13 + slack * vmax)
        assert np.all(np.abs(q.derivative(sol, t) - ref[1]) <= (1e-13 + slack) * max(vmax, amax))


class TestSolveDispatch:
    def test_case_tags(self):
        assert q.solve((1.0, 2.0, 3.0)).case == q.CASE_I
        assert q.solve(CASE2).case == q.CASE_II

    def test_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            q.solve((1.0, 1.0, -1.0))

    def test_small_scale_triple(self):
        # (1e-6, 2e-6, 3e-6) = 1e-6 * (1, 2, 3): Case I with period T_123 * 1e3.
        sol = q.solve((1e-6, 2e-6, 3e-6))
        assert sol.case == q.CASE_I and sol.nudge == 0.0
        assert sol.period == pytest.approx(T_123 * 1e3, rel=1e-13)

    def test_harmonic_generic_model(self):
        # c5 is lifted to C5_FLOOR * c1 and the lifted triple is Case I.
        sol = q.solve(model_coefficients(models.OscillatorModel("generic", force_spec=(-0.3,))))
        assert sol.case == q.CASE_I and sol.nudge > 0.0
        assert sol.period == pytest.approx(2.0 * math.pi / math.sqrt(0.3), rel=1e-9)

    def test_accepts_dataclass_input(self):
        sol = q.solve(QuinticCoefficients(1.0, 2.0, 3.0, "manual"))
        assert sol.period == pytest.approx(T_123, rel=1e-13)

    def test_degenerate_nudge(self):
        # delta(0, 2, 1) = 0 exactly; the solution must come from a tiny
        # c5 perturbation and stay close to the unperturbed dynamics.
        sol = q.solve((0.0, 2.0, 1.0))
        assert sol.nudge != 0.0
        assert abs(sol.nudge) == pytest.approx(q.NUDGE)
        assert sol.coefficients.c5 == 1.0
        assert sol.solved.c5 != 1.0
        assert sol.period == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-7)

    def test_degenerate_trajectory_against_oracle(self):
        from quintosc.validation import compare_trajectories, rk_oracle

        sol = q.solve((0.0, 2.0, 1.0))
        oracle = rk_oracle(lambda u: -(2.0 * u ** 3 + u ** 5), sol.period, tol=1e-10)
        assert compare_trajectories(sol, oracle) < 1e-5


def mp_psi(c: QuinticCoefficients, u: float) -> float:
    """Psi(u) of the quintic at 30 digits: tanh-sinh on 1/sqrt(G(sin theta)) over [asin u, pi/2].

    G = Phi / (1 - u^2) = c1 + c3 (1 + u^2) / 2 + c5 (1 + u^2 + u^4) / 3.
    """
    with mp.workdps(30):
        c1, c3, c5 = (mp.mpf(x) for x in c.as_tuple())

        def big_g(x):
            return c1 + c3 * (1 + x ** 2) / 2 + c5 * (1 + x ** 2 + x ** 4) / 3

        return float(mp.quad(lambda theta: 1 / mp.sqrt(big_g(mp.sin(theta))), [mp.asin(mp.mpf(u)), mp.pi / 2]))


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
            assert q._time_to(sol, u) == pytest.approx(mp_psi(sol.solved, u), rel=1e-14, abs=0.0)

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
