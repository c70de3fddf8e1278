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
        m = ch.closed_form_moments(1e-4)
        assert m.j2 == pytest.approx(ch.PI_MOMENTS[0], abs=1e-7)
        assert m.j4 == pytest.approx(ch.PI_MOMENTS[1], abs=1e-7)
        assert m.j6 == pytest.approx(ch.PI_MOMENTS[2], abs=1e-7)

    def test_frozen_values(self):
        m = ch.closed_form_moments(1.0)
        assert m.j2 == pytest.approx(1.1981402347355922, rel=1e-13)
        assert m.j4 == pytest.approx(0.87401918476403994, rel=1e-13)
        assert m.j6 == pytest.approx(0.71888414084135532, rel=1e-13)
        m8 = ch.closed_form_moments(8.0)
        assert m8.j2 == pytest.approx(0.24423456106878077, rel=1e-13)
        assert m8.j4 == pytest.approx(0.16477916798295162, rel=1e-13)
        assert m8.j6 == pytest.approx(0.13205329379659422, rel=1e-13)

    @pytest.mark.parametrize("a", [1e8, 1e9, 1e12])
    def test_large_amplitude_against_quadrature(self, a):
        # m = a^2 / (1 + a^2) rounds to 1 here; the moments take 1 - m = 1 / (1 + a^2).
        m = ch.closed_form_moments(a)
        for n, got in ((2, m.j2), (4, m.j4), (6, m.j6)):
            with mp.workdps(30):
                # J_n = 2 * integral_0^{pi/2} sin^n / sqrt(1 + a^2 sin^2); split where
                # the integrand turns, at theta ~ 10^k / a.
                A = mp.mpf(a)
                nodes = [0] + [mp.mpf(10) ** k / A for k in range(int(math.log10(a)) + 1)] + [mp.pi / 2]
                ref = 2 * mp.quad(lambda th: mp.sin(th) ** n / mp.sqrt(1 + (A * mp.sin(th)) ** 2), nodes)
            assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0, 30.0])
    def test_ordering(self, a):
        m = ch.closed_form_moments(a)
        assert m.j2 > m.j4 > m.j6 > 0.0

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_generic_overflow_raises(self):
        # The node sums of this force overflow: no inf or NaN triple comes back.
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
