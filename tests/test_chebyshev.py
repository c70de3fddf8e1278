"""Tests for the Chebyshev projection and coefficient pipeline."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quintosc import chebyshev as ch
from quintosc import models
from quintosc.errors import DomainError, EvaluationError, QuintoscError

RELATIVISTIC_A1 = models.OscillatorModel("relativistic", a=1.0)


def mp_moments(a):
    """40-digit J_n(a) = 2 * integral_0^{pi/2} sin^n / sqrt(1 + a^2 sin^2) for n = 2, 4, 6."""
    with mp.workdps(40):
        # Split where the integrand turns, at theta ~ 10^k / a, when a > 1.
        A = mp.mpf(a)
        nodes = [0] + [mp.mpf(10) ** k / A for k in range(int(math.log10(a)) + 1) if a > 1] + [mp.pi / 2]
        return [2 * mp.quad(lambda th: mp.sin(th) ** n / mp.sqrt(1 + (A * mp.sin(th)) ** 2), nodes) for n in (2, 4, 6)]


def exact_power_triples(n):
    """Exact monomial triples of the T1/T3/T5 parts of u, u^3, ..., u^(2n-1).

    Built from u*T0 = T1 and u*T_j = (T_(j+1) + T_(j-1)) / 2 in Fractions, independently of the
    binomial table model_coefficients uses.
    """
    cheb, triples = [Fraction(1)] + [Fraction(0)] * 5, []
    for m in range(1, 2 * n):
        nxt = [Fraction(0)] * (len(cheb) + 1)
        for j, cj in enumerate(cheb):
            nxt[j + 1] += cj if j == 0 else cj / 2
            if j:
                nxt[j - 1] += cj / 2
        cheb = nxt
        if m % 2:
            a1, a3, a5 = cheb[1], cheb[3], cheb[5]
            triples.append((a1 - 3 * a3 + 5 * a5, 4 * (a3 - 5 * a5), 16 * a5))
    return triples


class TestProjection:
    def test_linear_force(self):
        a1, a3, a5 = ch._alphas(lambda u: -u, None)
        assert a1 == pytest.approx(-1.0, abs=1e-15)
        assert a3 == pytest.approx(0.0, abs=1e-15)
        assert a5 == pytest.approx(0.0, abs=1e-15)

    def test_cubic_force(self):
        # u^3 = (3 T1 + T3) / 4
        a1, a3, a5 = ch._alphas(lambda u: -u ** 3, None)
        assert a1 == pytest.approx(-0.75, abs=1e-15)
        assert a3 == pytest.approx(-0.25, abs=1e-15)
        assert a5 == pytest.approx(0.0, abs=1e-15)

    def test_matches_closed_form_route(self):
        quadrature = ch.project_odd_quintic(lambda u: models.restoring_force(RELATIVISTIC_A1, u))
        closed = ch.model_coefficients(RELATIVISTIC_A1)
        for got, want in zip(quadrature.as_tuple(), closed.as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)

    def test_scalar_only_callable(self):
        alphas = ch._alphas(lambda u: -math.sin(u), None)
        vectorised = ch._alphas(lambda u: -np.sin(u), None)
        assert alphas == vectorised

    @pytest.mark.parametrize("nodes", [None, 64, 100])
    def test_force_may_write_into_its_argument(self, nodes):
        def in_place(u):
            u *= u * u
            return np.negative(u, out=u)

        want = ch._alphas(lambda u: -(u * u * u), nodes)
        assert ch._alphas(in_place, nodes) == want
        # Nothing the force wrote persists: the same projection again is unchanged.
        assert ch._alphas(lambda u: -(u * u * u), nodes) == want

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
        combined = ch._alphas(lambda u: f(u) + g(u), None)
        pf = ch._alphas(f, None)
        pg = ch._alphas(g, None)
        for c, x, y in zip(combined, pf, pg):
            assert c == pytest.approx(x + y, abs=1e-13)

    @pytest.mark.parametrize("model", [
        RELATIVISTIC_A1,
        models.OscillatorModel("cable-mass", a=1.0, b=0.5),
        models.OscillatorModel("duffing-relativistic", a=1.0, b=0.5),
    ])
    def test_node_doubling_stability(self, model):
        force = lambda u: models.restoring_force(model, u)
        a64 = ch._alphas(force, 64)
        a128 = ch._alphas(force, 128)
        for x, y in zip(a64, a128):
            assert abs(x - y) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=61))
    @example([-1.0, -0.25])
    @example([2.0, -3.0, 0.5])
    @example([0.3, 1.7, -2.2, 0.9, -0.4])
    def test_default_equals_64_nodes_for_odd_polynomials(self, spec):
        # 64 nodes integrate T5 * f exactly up to degree 121 (61 coefficients),
        # so the adaptive default stops at the first tripling and returns the
        # 64-node level unchanged.
        force = lambda u: u * np.polynomial.polynomial.polyval(u * u, spec)
        assert ch._alphas(force, None) == ch._alphas(force, 64)

    @pytest.mark.parametrize("model,level", [
        (models.OscillatorModel("relativistic", a=1.0), 64),
        (models.OscillatorModel("relativistic", a=8.0), 192),
        (models.OscillatorModel("relativistic", a=30.0), 576),
        (models.OscillatorModel("duffing-relativistic", a=20.0, b=0.5), 192),
        (models.OscillatorModel("cable-mass", a=30.0, b=1.0), 576),
    ], ids=lambda p: f"{p.kind}-{p.a:g}" if isinstance(p, models.OscillatorModel) else str(p))
    def test_default_is_the_fixed_rule_at_its_level(self, model, level):
        # Every adaptive level is the fixed rule on 64 * 3^k nodes, so the
        # default returns one of them bit for bit.
        force = lambda u: models.restoring_force(model, u)
        got = ch._alphas(force, None)
        levels = [n for n in (64 * 3 ** k for k in range(6)) if ch._alphas(force, n) == got]
        assert levels[:1] == [level]

    def test_long_generic_spec_projects_exactly(self):
        # Degree 139 is past the 64-node rule; 73 nodes are exact for T5 * f.
        # The gap to numpy's basis change is 5.0e-17 * sum|p| here.
        spec = np.random.default_rng(70).uniform(-1.0, 1.0, 70)
        model = models.OscillatorModel("generic", force_spec=spec)
        got = np.array(ch._alphas(lambda u: models.restoring_force(model, u), 73))
        odd = np.zeros(2 * len(spec))
        odd[1::2] = spec
        want = np.polynomial.chebyshev.poly2cheb(odd)[[1, 3, 5]]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(spec))

    @pytest.mark.parametrize("nodes", [None, 64])
    def test_force_that_collapses_arrays_runs_node_by_node(self, nodes):
        # On an array this force returns one number, not one per node; the
        # projection then calls it on each node alone, where it is sin.
        calls = []

        def collapsing(u):
            calls.append(np.ndim(u))
            return float(np.sum(np.sin(u)))

        got = ch._alphas(collapsing, nodes)
        want = ch._alphas(np.sin, nodes)
        # A scalar sin may round differently from the array loop, by an ulp of each value.
        for x, y in zip(got, want):
            assert x == pytest.approx(y, abs=1e-15)
        assert calls[0] == 1 and set(calls) == {0, 1}  # each level tries the array once

    def test_adaptive_cap_raises_but_explicit_nodes_return(self):
        # Branch points at +-i/a this close to [-1, 1] leave the default
        # unconverged at 46 656 nodes; a fixed rule is the caller's choice.
        model = models.OscillatorModel("relativistic", a=1e4)
        force = lambda u: models.restoring_force(model, u)
        with pytest.raises(QuintoscError, match="did not converge"):
            ch._alphas(force, None)
        assert all(math.isfinite(x) for x in ch._alphas(force, 64))

    def test_subnormal_force_converges(self):
        # Subnormal values carry no relative precision, so the stop rule
        # needs an absolute floor to accept their rounding-level changes.
        c = 2.62034914e-316
        a1, a3, _ = ch._alphas(lambda u: c * u ** 3, None)
        assert abs(a1 - 0.75 * c) <= 1e-3 * c
        assert abs(a3 - 0.25 * c) <= 1e-3 * c

    @pytest.mark.parametrize("force,nodes,level", [
        (lambda u: 1e307 * u - 2e307 * u ** 3 - 1e307 * u ** 5, 64, 64),
        (lambda u: 1e307 * u - 2e307 * u ** 3 - 1e307 * u ** 5, None, 64),
        (lambda u: 4e306 * u, None, 192),
    ])
    def test_overflowing_sums_raise_at_their_level(self, force, nodes, level):
        # Every force value is finite, but the node sums of that level overflow.
        with pytest.raises(DomainError, match=f"overflow on {level} nodes"):
            ch.project_odd_quintic(force, nodes)


# -u, -u^3 and -T5/16, with their exact alphas and quintic triples.
EXAMPLES = [
    (lambda u: -u, (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    (lambda u: -u ** 3, (-0.75, -0.25, 0.0), (0.0, 1.0, 0.0)),
    (lambda u: -(16.0 * u ** 5 - 20.0 * u ** 3 + 5.0 * u) / 16.0, (0.0, 0.0, -1.0 / 16.0), (5.0 / 16.0, -5.0 / 4.0, 1.0)),
]


class TestMonomialMap:
    @pytest.mark.parametrize("force,alphas,expected", EXAMPLES)
    def test_examples(self, force, alphas, expected):
        # The monomial map is exact on these alphas; the projection adds only its quadrature rounding.
        assert tuple(-c for c in ch._monomial(*alphas)) == expected
        assert ch.project_odd_quintic(force).as_tuple() == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("force", [force for force, _, _ in EXAMPLES])
    def test_provenance_default(self, force):
        assert ch.project_odd_quintic(force).provenance == "quadrature"

    @pytest.mark.parametrize("nodes", [None, 16, 64, 73, 200])
    def test_triple_is_the_alphas_in_monomials(self, nodes):
        # The alpha-level tests above speak for the public triple: it is -_monomial of the same alphas.
        force = lambda u: -np.sin(u)
        want = tuple(-c for c in ch._monomial(*ch._alphas(force, nodes)))
        assert ch.project_odd_quintic(force, nodes).as_tuple() == want

    @pytest.mark.parametrize("nodes,message", [(16, r"quintic coefficients .* overflow: \(\S+, -inf, "),
                                               (32, r"quintic coefficients .* overflow: \(\S+, -inf, "),
                                               (64, "sums overflow on 64 nodes")])
    def test_non_finite_triple_raises(self, nodes, message):
        # 1e307 * (T3 - T5) has finite force values and, below 64 nodes, finite node sums whose
        # alphas are near 1e307; c3 = -4 * (alpha3 - 5 * alpha5) then overflows to -inf.  On 64
        # nodes the sums themselves overflow first.
        force = lambda u: 1e307 * ((4.0 * u ** 3 - 3.0 * u) - (16.0 * u ** 5 - 20.0 * u ** 3 + 5.0 * u))
        with pytest.raises(DomainError, match=message):
            ch.project_odd_quintic(force, nodes)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_polynomial_round_trip(self, c1, c3, c5):
        force = lambda u: -(c1 * u + c3 * u ** 3 + c5 * u ** 5)
        got = ch.project_odd_quintic(force)
        scale = max(1.0, abs(c1), abs(c3), abs(c5))
        assert abs(got.c1 - c1) <= 1e-14 * scale
        assert abs(got.c3 - c3) <= 1e-14 * scale
        assert abs(got.c5 - c5) <= 1e-14 * scale


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
        # A valid force whose c5 = 1.75 * 1.5e308 overflows, silently: no warning and no inf or NaN
        # triple comes back.  A quintic force as large as 2e307 still comes back as its own triple.
        big = models.OscillatorModel("generic", force_spec=(1e307, -2e307, -1e307))
        assert ch.model_coefficients(big).as_tuple() == (-1e307, 2e307, 1e307)
        model = models.OscillatorModel("generic", force_spec=(-1.0, 0.0, 0.0, -1.5e308))
        assert models.validate_params(model) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                ch.model_coefficients(model)

    def test_domain(self):
        # The relativistic term needs a > 0, and m1 = 1/(1 + a^2) > 0 for its K and E.
        for a in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="a > 0"):
                ch.model_coefficients(models.OscillatorModel("relativistic", a=a))
        with pytest.raises(DomainError, match="underflows"):
            ch.model_coefficients(models.OscillatorModel("cable-mass", a=1e200, b=0.5))

    @pytest.mark.parametrize("a", [5e-324, 1e-3, 0.05, 0.25, 1.0, math.nextafter(1.0, 2.0), 1.01, 2.0, 3.5,
                                   math.nextafter(3.5, 4.0), 5.0, 8.0, 30.0, 1e3, 1e8, 1e12])
    def test_relativistic_alphas_against_mpmath(self, a):
        # Both sides of the switch from the 64-node rule to the K/E form at a = 3.5, in units of
        # 2^-52 * max|alpha|.  The worst over 240 random a in [1e-3, 1e4] was 0.80 on the rule and 2.9 on K/E.
        j2, j4, j6 = mp_moments(a)
        with mp.workdps(40):
            C = -2 / mp.pi
            want = (C * j2, C * (4 * j4 - 3 * j2), C * (16 * j6 - 20 * j4 + 5 * j2))
            err = max(abs(g - w) for g, w in zip(ch._relativistic_alphas(a), want))
        assert err <= 8 * 2.0 ** -52 * max(abs(float(w)) for w in want)

    def test_generic_against_exact_rationals(self):
        # The table entries are dyadic rationals rounded once; only the sum over p rounds further.
        # The worst over 3000 such specs was 3.1 * 2^-52 * sum|p|.
        rng = np.random.default_rng(21)
        triples = exact_power_triples(61)
        for _ in range(300):
            spec = rng.uniform(-1.0, 1.0, int(rng.integers(1, 62))) * 10.0 ** rng.uniform(-3.0, 3.0)
            got = ch.model_coefficients(models.OscillatorModel("generic", force_spec=spec)).as_tuple()
            bound = 4 * 2.0 ** -52 * float(np.sum(np.abs(spec)))
            for i, g in enumerate(got):
                want = -sum(Fraction(float(p)) * t[i] for p, t in zip(spec, triples))
                assert abs(Fraction(g) - want) <= bound, (spec.tolist(), i)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3))
    @example([-1.0, -0.25])
    def test_short_generic_specs_come_back_exactly(self, spec):
        # A force of degree <= 5 is its own projection: the table rows for u, u^3, u^5 are unit vectors.
        c = ch.model_coefficients(models.OscillatorModel("generic", force_spec=spec))
        assert c.as_tuple() == tuple(-p for p in spec) + (0.0,) * (3 - len(spec))

    @pytest.mark.parametrize("a", [5e-324, 1e-3, 0.05, 0.25, 0.26, 0.3, 0.5, 0.7, 1.0, math.nextafter(1.0, 2.0),
                                   1.5, 2.0, 3.5, math.nextafter(3.5, 4.0), 8.0, 30.0])
    def test_moments_and_triples_against_mpmath(self, a):
        # Both sides of the switch from the 64-node rule to the K/E form at a = 3.5.
        ref = mp_moments(a)
        b = 0.7
        with mp.workdps(40):
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
        quadrature = ch.project_odd_quintic(lambda u: models.restoring_force(model, u))
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
            quadrature = ch.project_odd_quintic(lambda u: models.restoring_force(model, u), nodes=nodes)
            for got, want in zip(quadrature.as_tuple(), closed.as_tuple()):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


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
