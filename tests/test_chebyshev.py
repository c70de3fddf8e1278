"""Tests for the Chebyshev projection and coefficient pipeline."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quintosc import chebyshev as ch
from quintosc import models
from quintosc.errors import DomainError, EvaluationError, QuintoscError

RELATIVISTIC_A1 = models.OscillatorModel("relativistic", a=1.0)


def mp_moments(a):
    """30-digit J_n(a) = 2 * integral_0^{pi/2} sin^n / sqrt(1 + a^2 sin^2) for n = 2, 4, 6."""
    with mp.workdps(30):
        # Split where the integrand turns, at theta ~ 10^k / a, when a > 1.
        A = mp.mpf(a)
        nodes = [0] + [mp.mpf(10) ** k / A for k in range(int(math.log10(a)) + 1) if a > 1] + [mp.pi / 2]
        return [2 * mp.quad(lambda th: mp.sin(th) ** n / mp.sqrt(1 + (A * mp.sin(th)) ** 2), nodes) for n in (2, 4, 6)]


class TestProjection:
    def test_linear_force(self):
        alphas = ch.project_odd_quintic(lambda u: -u)
        assert alphas.alpha1 == pytest.approx(-1.0, abs=1e-15)
        assert alphas.alpha3 == pytest.approx(0.0, abs=1e-15)
        assert alphas.alpha5 == pytest.approx(0.0, abs=1e-15)

    def test_cubic_force(self):
        # u^3 = (3 T1 + T3) / 4
        alphas = ch.project_odd_quintic(lambda u: -u ** 3)
        assert alphas.alpha1 == pytest.approx(-0.75, abs=1e-15)
        assert alphas.alpha3 == pytest.approx(-0.25, abs=1e-15)
        assert alphas.alpha5 == pytest.approx(0.0, abs=1e-15)

    def test_matches_closed_form_route(self):
        quadrature = ch.to_monomial(ch.project_odd_quintic(lambda u: models.restoring_force(RELATIVISTIC_A1, u)))
        closed = ch.model_coefficients(RELATIVISTIC_A1)
        for got, want in zip(quadrature.as_tuple(), closed.as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)

    def test_scalar_only_callable(self):
        alphas = ch.project_odd_quintic(lambda u: -math.sin(u))
        vectorised = ch.project_odd_quintic(lambda u: -np.sin(u))
        assert alphas == vectorised

    @pytest.mark.parametrize("nodes", [None, 64, 100])
    def test_force_may_write_into_its_argument(self, nodes):
        def in_place(u):
            u *= u * u
            return np.negative(u, out=u)

        want = ch.project_odd_quintic(lambda u: -(u * u * u), nodes=nodes)
        assert ch.project_odd_quintic(in_place, nodes=nodes) == want
        # The cached nodes are untouched: the same projection again is unchanged.
        assert ch.project_odd_quintic(lambda u: -(u * u * u), nodes=nodes) == want

    def test_node_floor(self):
        with pytest.raises(DomainError):
            ch.project_odd_quintic(lambda u: -u, nodes=8)

    def test_non_finite_force_reports_abscissa(self):
        first_node = math.cos(math.pi / 128.0)  # largest abscissa at 64 nodes

        def broken(u):
            return np.where(np.abs(u) > 0.999, np.nan, -u)

        with pytest.raises(EvaluationError) as excinfo:
            ch.project_odd_quintic(broken)
        assert excinfo.value.abscissa == pytest.approx(first_node, abs=1e-12)

    def test_linearity(self):
        f = lambda u: -u / np.sqrt(1.0 + u * u)
        g = lambda u: -0.7 * u ** 3
        combined = ch.project_odd_quintic(lambda u: f(u) + g(u))
        pf = ch.project_odd_quintic(f)
        pg = ch.project_odd_quintic(g)
        assert combined.alpha1 == pytest.approx(pf.alpha1 + pg.alpha1, abs=1e-13)
        assert combined.alpha3 == pytest.approx(pf.alpha3 + pg.alpha3, abs=1e-13)
        assert combined.alpha5 == pytest.approx(pf.alpha5 + pg.alpha5, abs=1e-13)

    @pytest.mark.parametrize("model", [
        RELATIVISTIC_A1,
        models.OscillatorModel("cable-mass", a=1.0, b=0.5),
        models.OscillatorModel("duffing-relativistic", a=1.0, b=0.5),
    ])
    def test_node_doubling_stability(self, model):
        force = lambda u: models.restoring_force(model, u)
        a64 = ch.project_odd_quintic(force, nodes=64)
        a128 = ch.project_odd_quintic(force, nodes=128)
        assert abs(a64.alpha1 - a128.alpha1) < 1e-12
        assert abs(a64.alpha3 - a128.alpha3) < 1e-12
        assert abs(a64.alpha5 - a128.alpha5) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=61))
    @example([-1.0, -0.25])
    @example([2.0, -3.0, 0.5])
    @example([0.3, 1.7, -2.2, 0.9, -0.4])
    def test_default_equals_64_nodes_for_odd_polynomials(self, spec):
        # 64 nodes integrate T5 * f exactly up to degree 121 (61 coefficients),
        # so the adaptive default stops at the first tripling and returns the
        # 64-node level unchanged: the rule model_coefficients takes directly.
        model = models.OscillatorModel("generic", force_spec=spec)
        force = lambda u: models.restoring_force(model, u)
        default = ch.project_odd_quintic(force)
        assert default == ch.project_odd_quintic(force, nodes=64)
        assert ch.model_coefficients(model) == ch.to_monomial(default)

    def test_long_generic_spec_projects_exactly(self):
        # Degree 139 is past the 64-node rule; model_coefficients takes 73
        # nodes, exact for T5 * f.  The gap to numpy's basis change is
        # 5.0e-17 * sum|p| here.
        spec = np.random.default_rng(70).uniform(-1.0, 1.0, 70)
        model = models.OscillatorModel("generic", force_spec=spec)
        alphas = ch.project_odd_quintic(lambda u: models.restoring_force(model, u), nodes=73)
        assert ch.model_coefficients(model) == ch.to_monomial(alphas)
        odd = np.zeros(2 * len(spec))
        odd[1::2] = spec
        want = np.polynomial.chebyshev.poly2cheb(odd)[[1, 3, 5]]
        got = np.array([alphas.alpha1, alphas.alpha3, alphas.alpha5])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(spec))

    def test_adaptive_cap_raises_but_explicit_nodes_return(self):
        # Branch points at +-i/a this close to [-1, 1] leave the default
        # unconverged at 46 656 nodes; a fixed rule is the caller's choice.
        model = models.OscillatorModel("relativistic", a=1e4)
        force = lambda u: models.restoring_force(model, u)
        with pytest.raises(QuintoscError, match="did not converge"):
            ch.project_odd_quintic(force)
        alphas = ch.project_odd_quintic(force, nodes=64)
        assert all(math.isfinite(x) for x in (alphas.alpha1, alphas.alpha3, alphas.alpha5))

    def test_subnormal_force_converges(self):
        # Subnormal values carry no relative precision, so the stop rule
        # needs an absolute floor to accept their rounding-level changes.
        c = 2.62034914e-316
        alphas = ch.project_odd_quintic(lambda u: c * u ** 3)
        assert abs(alphas.alpha1 - 0.75 * c) <= 1e-3 * c
        assert abs(alphas.alpha3 - 0.25 * c) <= 1e-3 * c

    @pytest.mark.parametrize("force,nodes,level", [
        (lambda u: 1e307 * u - 2e307 * u ** 3 - 1e307 * u ** 5, 64, 64),
        (lambda u: 1e307 * u - 2e307 * u ** 3 - 1e307 * u ** 5, None, 64),
        (lambda u: 4e306 * u, None, 192),
    ])
    def test_overflowing_sums_raise_at_their_level(self, force, nodes, level):
        # Every force value is finite, but the node sums of that level overflow.
        with pytest.raises(DomainError, match=f"overflow on {level} nodes"):
            ch.project_odd_quintic(force, nodes)


class TestMonomialMap:
    @pytest.mark.parametrize("alphas,expected", [
        ((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((-0.75, -0.25, 0.0), (0.0, 1.0, 0.0)),
        ((0.0, 0.0, -1.0 / 16.0), (5.0 / 16.0, -5.0 / 4.0, 1.0)),
    ])
    def test_examples(self, alphas, expected):
        got = ch.to_monomial(ch.ChebyshevOddCoefficients(*alphas))
        assert got.as_tuple() == pytest.approx(expected, abs=1e-15)

    def test_provenance_default(self):
        c = ch.to_monomial(ch.ChebyshevOddCoefficients(-1.0, 0.0, 0.0))
        assert c.provenance == "quadrature"

    @pytest.mark.parametrize("alphas", [(1e308, -1e308, 1e308), (0.0, 0.0, 1.5e307), (math.nan, 0.0, 0.0),
                                        (0.0, -math.inf, 0.0)])
    def test_non_finite_triple_raises(self, alphas):
        # The first two overflow in the monomial sums; the last two carry a non-finite alpha.
        with pytest.raises(DomainError, match="overflow"):
            ch.to_monomial(ch.ChebyshevOddCoefficients(*alphas))

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_polynomial_round_trip(self, c1, c3, c5):
        force = lambda u: -(c1 * u + c3 * u ** 3 + c5 * u ** 5)
        got = ch.to_monomial(ch.project_odd_quintic(force))
        scale = max(1.0, abs(c1), abs(c3), abs(c5))
        assert abs(got.c1 - c1) <= 1e-14 * scale
        assert abs(got.c3 - c3) <= 1e-14 * scale
        assert abs(got.c5 - c5) <= 1e-14 * scale


class TestMoments:
    def test_small_amplitude_limit(self):
        j2, j4, j6 = ch.closed_form_moments(1e-4)
        assert j2 == pytest.approx(ch.PI_MOMENTS[0], abs=1e-7)
        assert j4 == pytest.approx(ch.PI_MOMENTS[1], abs=1e-7)
        assert j6 == pytest.approx(ch.PI_MOMENTS[2], abs=1e-7)

    def test_frozen_values(self):
        j2, j4, j6 = ch.closed_form_moments(1.0)
        assert j2 == pytest.approx(1.1981402347355922, rel=1e-13)
        assert j4 == pytest.approx(0.87401918476403994, rel=1e-13)
        assert j6 == pytest.approx(0.71888414084135532, rel=1e-13)
        j2, j4, j6 = ch.closed_form_moments(8.0)
        assert j2 == pytest.approx(0.24423456106878077, rel=1e-13)
        assert j4 == pytest.approx(0.16477916798295162, rel=1e-13)
        assert j6 == pytest.approx(0.13205329379659422, rel=1e-13)

    @pytest.mark.parametrize("a", [1e8, 1e9, 1e12])
    def test_large_amplitude_against_quadrature(self, a):
        # m = a^2 / (1 + a^2) rounds to 1 here; the moments take 1 - m = 1 / (1 + a^2).
        for got, ref in zip(ch.closed_form_moments(a), mp_moments(a)):
            assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a", [5e-324, 1e-3, 0.05, 0.25, 0.26, 0.3, 0.5, 0.7, 1.0, math.nextafter(1.0, 2.0),
                                   1.5, 2.0, 8.0, 30.0])
    def test_moments_and_triples_against_mpmath(self, a):
        # Both sides of the switch from the 64-node rule to the K/E brackets at a = 1.
        ref = mp_moments(a)
        for got, want in zip(ch.closed_form_moments(a), ref):
            assert abs(got - want) <= 2e-15 * abs(want)
        b = 0.7
        with mp.workdps(30):
            A = mp.mpf(a)
            w2, w4, w6, w8 = mp.pi / 2, 3 * mp.pi / 8, 5 * mp.pi / 16, 35 * mp.pi / 128
            C = -2 / mp.pi
            moments = {
                "relativistic": ref,
                "cable-mass": [w + b * j for w, j in zip((w2, w4, w6), ref)],
                "duffing-relativistic": [w + A ** 2 * v + b * j for w, v, j in zip((w2, w4, w6), (w4, w6, w8), ref)],
            }
            for kind, (m2, m4, m6) in moments.items():
                a1, a3, a5 = C * m2, C * (4 * m4 - 3 * m2), C * (16 * m6 - 20 * m4 + 5 * m2)
                want = (-(a1 - 3 * a3 + 5 * a5), -4 * (a3 - 5 * a5), -16 * a5)
                got = ch.model_coefficients(models.OscillatorModel(kind, a=a, b=b)).as_tuple()
                scale = max(map(abs, got))
                assert max(abs(g - w) for g, w in zip(got, want)) <= 2e-13 * scale, kind

    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0, 30.0])
    def test_ordering(self, a):
        j2, j4, j6 = ch.closed_form_moments(a)
        assert j2 > j4 > j6 > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ch.closed_form_moments(0.0)
        with pytest.raises(DomainError):
            ch.closed_form_moments(-1.0)

    def test_pi_moments_constants(self):
        assert ch.PI_MOMENTS == (math.pi / 2.0, 3.0 * math.pi / 8.0, 5.0 * math.pi / 16.0, 35.0 * math.pi / 128.0)


class TestModelCoefficients:
    def test_relativistic_frozen(self):
        c = ch.model_coefficients(RELATIVISTIC_A1)
        assert c.provenance == "closed_form"
        assert c.c1 == pytest.approx(0.9902561923196967, abs=1e-12)
        assert c.c3 == pytest.approx(-0.40912401360824551, abs=1e-12)
        assert c.c5 == pytest.approx(0.12695453022128099, abs=1e-12)

    def test_cable_mass_frozen(self):
        c = ch.model_coefficients(models.OscillatorModel("cable-mass", a=1.0, b=0.5))
        assert c.c1 == pytest.approx(1.4951280961598484, abs=1e-12)
        assert c.c3 == pytest.approx(-0.20456200680412275, abs=1e-12)
        assert c.c5 == pytest.approx(0.063477265110640496, abs=1e-12)

    def test_duffing_adds_pure_cubic(self):
        # The cubic a^2 u^3 projects exactly, so the Duffing triple is the
        # cable-mass triple shifted by a^2 in c3 alone.
        cable = ch.model_coefficients(models.OscillatorModel("cable-mass", a=1.3, b=0.6))
        duffing = ch.model_coefficients(models.OscillatorModel("duffing-relativistic", a=1.3, b=0.6))
        assert duffing.c1 == pytest.approx(cable.c1, rel=1e-14)
        assert duffing.c3 == pytest.approx(cable.c3 + 1.3 ** 2, rel=1e-14)
        assert duffing.c5 == pytest.approx(cable.c5, rel=1e-14)

    def test_case_signs(self):
        from quintosc.quintic import classify, discriminant

        assert discriminant(ch.model_coefficients(RELATIVISTIC_A1)) < 0.0
        cable = ch.model_coefficients(models.OscillatorModel("cable-mass", a=1.0, b=0.5))
        assert cable.c5 > 0.0 and discriminant(cable) <= 0.0
        duffing = ch.model_coefficients(models.OscillatorModel("duffing-relativistic", a=1.0, b=0.5))
        assert discriminant(duffing) > 0.0
        assert classify(duffing) == "II"

    @pytest.mark.parametrize("a", [1e8, 1e10, 1e12])
    @pytest.mark.parametrize("kind", ["relativistic", "cable-mass", "duffing-relativistic"])
    def test_large_amplitude_triples_are_finite(self, kind, a):
        c = ch.model_coefficients(models.OscillatorModel(kind, a=a, b=0.5))
        assert all(map(math.isfinite, c.as_tuple()))

    def test_generic_falls_back_to_projection(self):
        model = models.OscillatorModel("generic", force_spec=(-1.0, -0.25))
        c = ch.model_coefficients(model)
        assert c.provenance == "quadrature"
        assert c.c1 == pytest.approx(1.0, abs=1e-13)
        assert c.c3 == pytest.approx(0.25, abs=1e-13)
        assert c.c5 == pytest.approx(0.0, abs=1e-13)

    def test_generic_overflow_raises(self):
        # The node sums of this force overflow, silently: no warning and no inf or NaN triple comes back.
        with pytest.raises(DomainError, match="overflow"):
            ch.model_coefficients(models.OscillatorModel("generic", force_spec=(1e307, -2e307, -1e307)))

    @pytest.mark.parametrize("model", [
        models.OscillatorModel("relativistic", a=0.5),
        models.OscillatorModel("relativistic", a=2.0),
        models.OscillatorModel("cable-mass", a=0.5, b=0.3),
        models.OscillatorModel("cable-mass", a=2.0, b=1.0),
        models.OscillatorModel("duffing-relativistic", a=0.5, b=0.3),
        models.OscillatorModel("duffing-relativistic", a=2.0, b=1.0),
    ])
    def test_route_agreement_default_nodes(self, model):
        # The default adaptive rule resolves the catalogue forces fully at
        # moderate a, where 64 nodes already suffice; the next test pins
        # the node counts a fixed rule needs at larger amplitudes.
        closed = ch.model_coefficients(model)
        quadrature = ch.to_monomial(ch.project_odd_quintic(lambda u: models.restoring_force(model, u)))
        for got, want in zip(quadrature.as_tuple(), closed.as_tuple()):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("a,nodes", [(8.0, 256), (20.0, 512)])
    def test_route_agreement_large_amplitude(self, a, nodes):
        # The integrand has branch points at +-i/a, so the Chebyshev
        # coefficients decay like rho^-n with rho ~ 1 + 2/a and the node
        # count must grow with a to keep aliasing below 1e-10.
        for model in (models.OscillatorModel("relativistic", a=a),
                      models.OscillatorModel("duffing-relativistic", a=a, b=0.7)):
            closed = ch.model_coefficients(model)
            quadrature = ch.to_monomial(
                ch.project_odd_quintic(lambda u: models.restoring_force(model, u), nodes=nodes))
            for got, want in zip(quadrature.as_tuple(), closed.as_tuple()):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestMomentTable:
    def test_closed_form_is_the_per_kind_moment_sums(self):
        # The moment sums each kind had before the force became one (p, beta) table.
        rng = np.random.default_rng(20)
        w2, w4, w6, w8 = ch.PI_MOMENTS
        C = -2.0 / math.pi
        for i in range(300):
            kind = ("relativistic", "cable-mass", "duffing-relativistic")[i % 3]
            a, b = math.exp(rng.uniform(math.log(0.05), math.log(30.0))), rng.uniform(0.05, 2.0)
            j2, j4, j6 = ch.closed_form_moments(a)
            if kind == "relativistic":
                m2, m4, m6 = j2, j4, j6
            elif kind == "cable-mass":
                m2, m4, m6 = w2 + b * j2, w4 + b * j4, w6 + b * j6
            else:
                a2 = a * a
                m2, m4, m6 = w2 + a2 * w4 + b * j2, w4 + a2 * w6 + b * j4, w6 + a2 * w8 + b * j6
            alphas = ch.ChebyshevOddCoefficients(C * m2, C * (4.0 * m4 - 3.0 * m2),
                                                 C * (16.0 * m6 - 20.0 * m4 + 5.0 * m2))
            want = ch.to_monomial(alphas, "closed_form")
            got = ch.model_coefficients(models.OscillatorModel(kind, a=a, b=b))
            assert got.provenance == want.provenance
            assert [x.hex() for x in got.as_tuple()] == [x.hex() for x in want.as_tuple()], (kind, a, b)


def best_odd_quintic(f, grid):
    """Remez exchange for the best approximation p* to f from span{u, u^3, u^5} on ``grid`` in (0, 1].

    Returns the reference indices, |E| = ||f - p*|| on them and the error f - p* on the grid.
    """
    basis = np.stack([grid, grid ** 3, grid ** 5], axis=1)
    fx = f(grid)
    sign = (-1.0) ** np.arange(4)
    ref = np.searchsorted(grid, np.cos(np.arange(4) * math.pi / 7)[::-1])  # T7's extrema in (0, 1]
    for _ in range(50):
        *c, level = np.linalg.solve(np.column_stack([basis[ref], sign]), fx[ref])
        e = fx - basis @ c
        # The extremum of each run of one sign; the next reference is the 4 consecutive ones
        # around the largest.
        runs = np.split(np.arange(grid.size), np.flatnonzero(np.diff(np.sign(e))) + 1)
        peaks = np.array([run[np.argmax(np.abs(e[run]))] for run in runs])
        k = int(np.argmax(np.abs(e[peaks])))
        start = min(max(k - 3, 0), len(peaks) - 4)
        if np.array_equal(peaks[start:start + 4], ref):
            return ref, abs(level), e
        ref = peaks[start:start + 4]
    raise AssertionError("Remez exchange did not settle")


class TestNearMinimax:
    """The Chebyshev quintic is near-best: within ATAP Thm 16.1's 4 + (4/pi^2) log 6 of the minimax one."""

    GRID = np.linspace(0.0, 1.0, 200001)[1:]

    @pytest.mark.parametrize("kind,a,b,ratio", [
        ("relativistic", 1.0, 0.0, 1.129), ("relativistic", 2.0, 0.0, 1.265),
        ("relativistic", 3.0, 0.0, 1.332), ("relativistic", 8.0, 0.0, 1.357),
        ("relativistic", 20.0, 0.0, 1.265), ("relativistic", 30.0, 0.0, 1.219),
        ("duffing-relativistic", 1.7, 1.0, 1.233),
    ])
    def test_within_the_near_best_bound(self, kind, a, b, ratio):
        model = models.OscillatorModel(kind, a=a, b=b)
        f = lambda u: models.restoring_force(model, u)
        ref, best, e = best_odd_quintic(f, self.GRID)
        # Equioscillation: 4 alternating extrema of one height, which no grid point exceeds.
        assert np.all(np.sign(e[ref][1:]) == -np.sign(e[ref][:-1]))
        assert np.max(np.abs(np.abs(e[ref]) - best)) <= 1e-10 * best
        assert np.max(np.abs(e)) <= (1.0 + 1e-10) * best
        c = ch.model_coefficients(model)
        u = self.GRID
        cheb = np.max(np.abs(f(u) + (c.c1 * u + c.c3 * u ** 3 + c.c5 * u ** 5)))
        assert 1.0 <= cheb / best <= 4.0 + 4.0 / math.pi ** 2 * math.log(6.0)
        assert cheb / best == pytest.approx(ratio, abs=5e-4)
