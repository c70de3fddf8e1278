"""Tests for the oscillator model catalogue."""

import copy
import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import polynomial as poly
from scipy.integrate import quad

from quintosc import chebyshev, models, quintic, validation
from quintosc.errors import ConvergenceError, DomainError

REL1 = models.OscillatorModel("relativistic", a=1.0)
CABLE11 = models.OscillatorModel("cable-mass", a=1.0, b=1.0)
DUFF171 = models.OscillatorModel("duffing-relativistic", a=1.7, b=1.0)
CUBIC = models.OscillatorModel("generic", force_spec=(-1.0, -0.5))

ALL_VALID = [REL1, CABLE11, DUFF171, CUBIC,
             models.OscillatorModel("relativistic", a=8.0),
             models.OscillatorModel("cable-mass", a=2.0, b=0.5)]

# Frozen 30-digit quadrature/closed-form values.
T_REL1 = 7.2026592504239071
T_CABLE11 = 4.7334569588632203
T_DUFF171 = 3.2650156088200956
PSI_REL2_HALF = 1.512469234873075
PSI_REL1_ZERO = 1.8006648126059768


def quarter_period_quadrature(model, lower_u=0.0):
    """Independent period route: integrate 1/sqrt(Phi) with u = sin(theta)."""
    integrand = lambda theta: (1.0 - math.sin(theta) ** 2) ** 0.5 / math.sqrt(
        models.potential_phi(model, math.sin(theta)))
    return quad(integrand, math.asin(lower_u), math.pi / 2.0, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


def mp_time_integral(model, u=0.0):
    """Psi(u) at 30 digits: mpmath tanh-sinh on 1/sqrt(G(sin theta)), split at theta = 0.

    For every kind; the relativistic one has b = 0.  G is
    written out from the force definitions in mpmath arithmetic, so only
    the quadrature rule differs from the code under test.
    """
    with mp.workdps(30):
        a, b = mp.mpf(model.a), mp.mpf(model.b)

        def big_g(x):
            if model.kind == "generic":
                # G = Phi / (1 - x^2), Phi = -sum_k p_k (1 - x^(2k+2)) / (k+1).
                return -sum(mp.mpf(p) * sum(x ** (2 * j) for j in range(k + 1)) / (k + 1)
                            for k, p in enumerate(model.force_spec))
            g_rel = 2 / (mp.sqrt(1 + a * a) + mp.sqrt(1 + a * a * x * x))
            if model.kind == "relativistic":
                return g_rel
            if model.kind == "cable-mass":
                return 1 + b * g_rel
            return (2 + a * a + a * a * x * x) / 2 + b * g_rel

        lower = mp.asin(mp.mpf(u))
        nodes = [lower, mp.pi / 2] if lower >= 0 else [lower, 0, mp.pi / 2]
        return float(mp.quad(lambda theta: 1 / mp.sqrt(big_g(mp.sin(theta))), nodes))


def mp_generic_period(spec, quad=False, dps=40):
    """The period of a generic force of degree <= 5 at dps digits, on the exact float coefficients.

    G is written out in mpmath from the spec.  alpha + beta t^2 + gamma t^4 = G(sin^2 theta) (1 + t^2)^2 with
    t = tan(theta) gives 2 pi / AGM(sqrt(beta + 2 sqrt(alpha gamma)) / 2, (alpha gamma)^(1/4)); with quad=True,
    four times tanh-sinh on 1/sqrt(G(sin^2 theta)), split at 10^-k from both ends, where a near-zero G peaks.
    """
    with mp.workdps(dps):
        p = [mp.mpf(x) for x in spec] + [mp.mpf(0)] * (3 - len(spec))
        g = [-sum(p[k] / (k + 1) for k in range(j, 3)) for j in range(3)]
        if quad:
            ends = [mp.mpf(10) ** -k for k in range(8, 0, -1)]
            nodes = [0] + ends + [mp.pi / 2 - e for e in ends[::-1]] + [mp.pi / 2]
            return mp.mpf(4) * mp.quad(lambda th: 1 / mp.sqrt(g[0] + g[1] * mp.sin(th) ** 2 + g[2] * mp.sin(th) ** 4),
                                       nodes)
        alpha, beta, gamma = g[0], 2 * g[0] + g[1], g[0] + g[1] + g[2]
        return 2 * mp.pi / mp.agm(mp.sqrt(beta + 2 * mp.sqrt(alpha * gamma)) / 2, mp.sqrt(mp.sqrt(alpha * gamma)))


def generic_specs(rng, count):
    """Seeded valid degree-<=5 specs: hardening (every p_k < 0), softening (some p_k > 0) and, from
    G(s) = c (s - s0)^2 + eps c, ones whose G nearly has a double root s0 inside (0, 1)."""
    def valid(spec):
        return not models.validate_params(models.OscillatorModel("generic", force_spec=spec))
    out = {"hardening": [], "softening": [], "near_double_root": []}
    while len(out["hardening"]) < count:
        out["hardening"].append(tuple((-10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(1, 4)))).tolist()))
    while len(out["softening"]) < count:
        spec = (-rng.uniform(0.1, 2.0),) + tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 3))).tolist())
        if max(spec[1:]) > 0.0 and valid(spec):
            out["softening"].append(spec)
    while len(out["near_double_root"]) < count:
        c, s0, eps = 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-12.0, -1.0)
        g0, g1, g2 = c * s0 * s0 + eps * c, -2.0 * c * s0, c
        spec = (g1 - g0, 2.0 * (g2 - g1), -3.0 * g2)  # p from g_j = -sum_{k>=j} p_k / (k+1)
        if valid(spec):
            out["near_double_root"].append(spec)
    return out


def mp_relativistic_psi(a, u):
    """Psi(u) = sqrt(2) (sqrt(J+1) E(phi | m) - F(phi | m) / sqrt(J+1)) from mpmath at 700 digits.

    m = ((J - 1) / a)^2 and sin^2(phi) = (J - sqrt(1 + a^2 u^2)) / (J - 1),
    J = sqrt(1 + a^2), as written before any rearrangement; 700 digits
    resolve 1 - m ~ 2 / a for every a up to 1e300.
    """
    with mp.workdps(700):
        a, u = mp.mpf(a), mp.mpf(u)
        J = mp.sqrt(1 + a * a)
        m = ((J - 1) / a) ** 2
        phi = mp.asin(mp.sqrt((J - mp.sqrt(1 + a * a * u * u)) / (J - 1)))
        amp = mp.sqrt(J + 1)
        return float(mp.sqrt(2) * (amp * mp.ellipe(phi, m) - mp.ellipf(phi, m) / amp))


class TestRestoringForce:
    def test_pointwise_examples(self):
        assert models.restoring_force(REL1, 1.0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
        duff = models.OscillatorModel("duffing-relativistic", a=1.0, b=1.0)
        assert models.restoring_force(duff, 1.0) == pytest.approx(-2.0 - 1.0 / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_odd_and_zero_at_origin(self, model):
        assert models.restoring_force(model, 0.0) == 0.0
        u = np.linspace(-1.0, 1.0, 41)
        f = models.restoring_force(model, u)
        np.testing.assert_allclose(models.restoring_force(model, -u), -f, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_negative_at_amplitude(self, model):
        assert models.restoring_force(model, 1.0) < 0.0

    def test_generic_polynomial(self):
        assert models.restoring_force(CUBIC, 0.5) == pytest.approx(-0.5 - 0.5 * 0.125, rel=1e-15)

    def test_generic_needs_spec(self):
        with pytest.raises(DomainError):
            models.restoring_force(models.OscillatorModel("generic"), 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            models.OscillatorModel("pendulum", a=1.0)

    @pytest.mark.parametrize("func", [models.restoring_force, models.potential_phi])
    def test_amplitudes_are_real_numbers(self, func):
        # u is taken as evaluate takes t: text is refused, an int past the float range raises DomainError.
        for text in ("0.5", np.array(["0.5"]), ["0.5", "1"]):
            with pytest.raises(TypeError):
                func(REL1, text)
        with pytest.raises(DomainError):
            func(REL1, 10 ** 400)

    @pytest.mark.parametrize("func", [models.restoring_force, models.potential_phi])
    @pytest.mark.parametrize("model", [REL1, CABLE11, CUBIC])
    def test_non_finite_amplitudes_raise(self, func, model):
        # As evaluate refuses NaN or inf times: no silent NaN (and no RuntimeWarning) comes back.
        for bad in (math.nan, math.inf, -math.inf):
            for u in (bad, np.array(bad), np.array([0.5, bad]), [[0.0, 1.0], [bad, -0.5]]):
                with pytest.raises(DomainError, match="finite"):
                    func(model, u)

    @pytest.mark.parametrize("func", [models.restoring_force, models.potential_phi])
    @pytest.mark.parametrize("model", [REL1, CABLE11, DUFF171, CUBIC])
    def test_every_real_amplitude_type_gives_the_float_bits(self, func, model):
        for u in (0.5, np.float32(0.5), np.float64(-0.3), 1, np.int64(-1), True, np.array(0.7)):
            assert type(func(model, u)) is float and func(model, u).hex() == func(model, float(u)).hex()
        u = [0.25, -1, np.float32(0.5)]
        want = func(model, np.array([float(x) for x in u]))
        assert func(model, u).tobytes() == want.tobytes() == func(model, np.array(u)).tobytes()


def catalogue_parameters(seed, count=50):
    """Seeded (a, b) over the catalogue's ranges: a log-uniform in [0.05, 30], b uniform in [0.05, 2]."""
    rng = np.random.default_rng(seed)
    return [(math.exp(rng.uniform(math.log(0.05), math.log(30.0))), rng.uniform(0.05, 2.0)) for _ in range(count)]


class TestForceTable:
    """Each kind's (p, beta) gives the paper's force for that kind."""

    U = np.linspace(-1.0, 1.0, 4001)

    def test_parts(self):
        assert models._parts(models.OscillatorModel("relativistic", a=2.0, b=0.5)) == ((), 1.0)
        assert models._parts(models.OscillatorModel("cable-mass", a=2.0, b=0.5)) == ((-1.0,), 0.5)
        assert models._parts(models.OscillatorModel("duffing-relativistic", a=2.0, b=0.5)) == ((-1.0, -4.0), 0.5)
        assert models._parts(CUBIC) == ((-1.0, -0.5), 0.0)
        with pytest.raises(DomainError, match="non-empty force_spec"):
            models._parts(models.OscillatorModel("generic", force_spec=()))

    def test_relativistic_bit_for_bit(self):
        u = self.U
        for a, b in catalogue_parameters(1):
            got = models.restoring_force(models.OscillatorModel("relativistic", a=a, b=b), u)
            assert got.tobytes() == (-u / np.sqrt(1.0 + (a * u) ** 2)).tobytes(), a

    def test_cable_mass_bit_for_bit(self):
        u = self.U
        for a, b in catalogue_parameters(2):
            got = models.restoring_force(models.OscillatorModel("cable-mass", a=a, b=b), u)
            assert got.tobytes() == (-u - b * u / np.sqrt(1.0 + (a * u) ** 2)).tobytes(), (a, b)

    def test_duffing_relativistic_to_rounding(self):
        u = self.U
        for a, b in catalogue_parameters(3):
            got = models.restoring_force(models.OscillatorModel("duffing-relativistic", a=a, b=b), u)
            want = -u - a * a * u ** 3 - b * u / np.sqrt(1.0 + (a * u) ** 2)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (a, b)


class TestPotential:
    def test_relativistic_center_value(self):
        assert models.potential_phi(REL1, 0.0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-14)

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_boundary_zeros(self, model):
        assert abs(models.potential_phi(model, 1.0)) <= 1e-14
        assert abs(models.potential_phi(model, -1.0)) <= 1e-14

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_even_and_positive_inside(self, model):
        u = np.linspace(-0.999, 0.999, 201)
        phi = models.potential_phi(model, u)
        assert np.all(phi > 0.0)
        np.testing.assert_allclose(models.potential_phi(model, -u), phi, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("model", [REL1, CABLE11, DUFF171, CUBIC])
    def test_matches_force_integral(self, model):
        for u in (-0.7, 0.0, 0.4, 0.9):
            reference = -2.0 * quad(lambda s: models.restoring_force(model, s), u, 1.0,
                                    epsabs=1e-14, epsrel=1e-13)[0]
            assert models.potential_phi(model, u) == pytest.approx(reference, abs=1e-12)


class TestExactPeriod:
    def test_small_amplitude_limit(self):
        period = models.exact_period(models.OscillatorModel("relativistic", a=1e-4))
        assert period.value == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_relativistic_frozen(self):
        period = models.exact_period(REL1)
        assert period.method == models.CLOSED_FORM_KE
        assert period.value == pytest.approx(T_REL1, rel=1e-13)

    def test_cable_mass_frozen(self):
        period = models.exact_period(CABLE11)
        assert period.method == models.CLOSED_FORM_PI
        assert period.value == pytest.approx(T_CABLE11, rel=1e-13)

    def test_duffing_frozen(self):
        period = models.exact_period(DUFF171)
        assert period.method == models.QUADRATURE
        assert period.value == pytest.approx(T_DUFF171, rel=1e-11)

    def test_harmonic_generic(self):
        period = models.exact_period(models.OscillatorModel("generic", force_spec=(-1.0,)))
        assert period.value == pytest.approx(2.0 * math.pi, rel=1e-10)

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_agrees_with_independent_quadrature(self, model):
        exact = models.exact_period(model).value
        assert exact == pytest.approx(4.0 * quarter_period_quadrature(model), rel=1e-9)

    def test_invalid_model_rejected(self):
        with pytest.raises(DomainError):
            models.exact_period(models.OscillatorModel("cable-mass", a=1.0, b=0.0))

    @pytest.mark.parametrize("a", [10.0 ** k for k in range(20, 301, 20)] + [1e155, 1.7e308])
    def test_cable_mass_huge_amplitude(self, a):
        # The force tends to -u, so the period tends to 2 pi, within O(b / a).  The cel form
        # adds two positive terms and nothing in it overflows or underflows.
        period = models.exact_period(models.OscillatorModel("cable-mass", a=a, b=0.5))
        assert period.value == pytest.approx(2.0 * math.pi, rel=8 * 2.0 ** -52, abs=0.0)

    def test_cable_mass_against_mpmath(self):
        # 4 / sqrt(A) ((1 + J) Pi(n, m) - K(m)) at 40 digits, as written before any rearrangement,
        # over seeded log-uniform a in [0.05, 1e6] and b in [0.05, 2].
        rng = np.random.default_rng(35)
        params = np.column_stack([10.0 ** rng.uniform(math.log10(0.05), 6.0, 200),
                                  10.0 ** rng.uniform(math.log10(0.05), math.log10(2.0), 200)]).tolist()
        got = [models.exact_period(models.OscillatorModel("cable-mass", a=a, b=b)).value for a, b in params]
        with mp.workdps(40):
            ref = []
            for a, b in params:
                a, b = mp.mpf(a), mp.mpf(b)
                J = mp.sqrt(1 + a * a)
                n = (1 - J) / 2
                m = n * (b - n) / (J + b)
                ref.append(float(4 / mp.sqrt(J + b) * ((1 + J) * mp.ellippi(n, m) - mp.ellipk(m))))
        np.testing.assert_allclose(got, ref, rtol=8 * 2.0 ** -52, atol=0.0)

    # Generic forces of degree <= 5 share one closed-form quarter period too, trailing zeros dropped;
    # degree 7 shares the trapezoid.
    @pytest.mark.parametrize("model, method", [
        pytest.param(models.OscillatorModel("relativistic", a=a), models.CLOSED_FORM_KE, id=str(a))
        for a in (0.3, 2.0, 1e7, 1e300)] + [
        pytest.param(models.OscillatorModel("generic", force_spec=s), method, id=f"generic{s}")
        for s, method in [((-1.0,), models.CLOSED_FORM_K), ((-1.0, -0.5), models.CLOSED_FORM_K),
                          ((-0.3, 1.2, -2.0), models.CLOSED_FORM_K), ((-1.0, 0.9, 0.0, 0.0), models.CLOSED_FORM_K),
                          ((-1e-300, -3e300), models.CLOSED_FORM_K), ((-1.0, -0.5, -0.3, -0.2), models.QUADRATURE)]])
    def test_relativistic_period_is_four_psi_zero(self, model, method):
        assert models.exact_period(model) == models.ExactPeriod(4.0 * models.time_integral_psi(model, 0.0), method)

    def test_generic_closed_form_against_mpmath(self):
        # Worst seen over 12 900 specs of these families (three seeds): 2.4 ulp.  The trapezoid raised
        # ConvergenceError on two thirds of the near-double-root specs and missed by up to 2032 ulp on the rest.
        for family, specs in generic_specs(np.random.default_rng(3601), 200).items():
            got = []
            for spec in specs:
                period = models.exact_period(models.OscillatorModel("generic", force_spec=spec))
                assert period.method == models.CLOSED_FORM_K
                got.append(period.value)
            ref = [float(mp_generic_period(spec)) for spec in specs]
            np.testing.assert_allclose(got, ref, rtol=4 * 2.0 ** -52, atol=0.0, err_msg=family)

    def test_generic_period_scales_exactly(self):
        # 4^k p has the period of p over 2^k, bit for bit: the closed form runs on the spec scaled to unit size.
        rng = np.random.default_rng(3602)
        for family, specs in generic_specs(rng, 30).items():
            for spec in specs:
                value = models.exact_period(models.OscillatorModel("generic", force_spec=spec)).value
                for k in rng.integers(-250, 250, 8).tolist():
                    scaled = models.OscillatorModel("generic", force_spec=[math.ldexp(p, 2 * k) for p in spec])
                    assert models.exact_period(scaled).value == math.ldexp(value, -k), (family, spec, k)

    def test_generic_quartic_not_positive_raises(self):
        # The exact G of these floats is -2.5e-17 at its critical point s0 ~ 0.2246, where the rounded G is
        # positive: validate_params decides by the exact rule and names where it failed, with no positive Phi.
        spec = (-7.812749092217277, 45.317448131646096, -46.90451373583281)
        model = models.OscillatorModel("generic", force_spec=spec)
        assert models.validate_params(model) == [
            "potential must be positive on (-1, 1): Phi <= 0 in exact arithmetic near u=0.473944"]
        assert models._reading([-p for p in spec]) is None
        with pytest.raises(DomainError, match="exact arithmetic"):
            models.exact_period(model)

    # h2 > 0 exactly, though G(1) = -f(1) or G(0) is 1e-30 or less and rounds to 0 in the float search: the exact
    # rule accepts them, and the period is solve's 8 A K(m), whose m is below M_MIN.  At P = 5e-324, 6 / P
    # overflows and _reading takes 6^(1/4) / P^(1/4).  beta + 2 sqrt(alpha gamma) in mp_generic_period cancels
    # to sqrt(gamma), so 40 digits miss by a few hundred ulp at 1e-30; 400 digits hold every P down to 5e-324.
    @pytest.mark.parametrize("spec", [(-1.0, 1.0, -1e-30), (-1e-30, -1.0, 1.0), (-1.0, 1.0, -1e-200),
                                      (-1.0, 1.0, -5e-324)])
    def test_generic_tiny_least_g_accepted(self, spec):
        model = models.OscillatorModel("generic", force_spec=spec)
        assert models.validate_params(model) == []
        period = models.exact_period(model)
        assert period.method == models.CLOSED_FORM_K and math.isfinite(period.value)
        assert period.value == pytest.approx(float(mp_generic_period(spec, dps=400)), rel=4 * 2.0 ** -52, abs=0.0)
        assert quintic.classify([-p for p in spec]) == quintic.UNSUPPORTED

    def test_relativistic_modulus_below_one(self):
        for a in np.logspace(-2.0, 2.0, 40):
            k = (math.hypot(1.0, a) - 1.0) / a
            assert 0.0 < k < 1.0


class TestQuadratureOracle:
    """The numpy quadratures against 30-digit mpmath."""

    @pytest.mark.parametrize("a", [0.05, 1.3, 4.03, 20.3, 22.95, 30.0])
    @pytest.mark.parametrize("b", [0.05, 0.7, 2.0])
    def test_duffing_period(self, a, b):
        model = models.OscillatorModel("duffing-relativistic", a=a, b=b)
        assert models.exact_period(model).value == pytest.approx(4.0 * mp_time_integral(model), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", [(-1.0, -0.5), (-0.3, 1.2, -2.0)])
    def test_generic_period(self, spec):
        model = models.OscillatorModel("generic", force_spec=spec)
        assert models.exact_period(model).value == pytest.approx(4.0 * mp_time_integral(model), rel=1e-14, abs=0.0)

    # u = 0 and u = 1 are the two points time_integral_psi serves for these kinds.
    @pytest.mark.parametrize("kind", ["duffing-relativistic", "cable-mass"])
    @pytest.mark.parametrize("a", [0.05, 1.3, 8.0, 30.0])
    def test_time_integral(self, kind, a):
        model = models.OscillatorModel(kind, a=a, b=0.7)
        assert models.time_integral_psi(model, 0.0) == pytest.approx(mp_time_integral(model, 0.0), rel=1e-12, abs=0.0)
        assert models.time_integral_psi(model, 1.0) == 0.0

    # min G = eps, at u = +-1 for the first spec (G(1) = -(p0 + p1)) and at
    # u = 0 for the second (G(0) = -(p0 + p1/2)).
    @pytest.mark.parametrize("spec", [lambda eps: (-1.0 - eps, 1.0), lambda eps: (0.5 - eps, -1.0)],
                             ids=["min_at_amplitude", "min_at_centre"])
    def test_nearly_singular_generic(self, spec):
        # The trapezoid is period_by_quadrature on c = -p (unit-sized already, so unscaled).  At min G = 1e-6
        # it converges; the period is only defined to ~1e-11 by the rounded coefficients, and node abscissae
        # rounded near pi/2 cost ~5e-15, so 1e-13 is the meaningful tolerance.
        model = models.OscillatorModel("generic", force_spec=spec(1e-6))
        reference = 4.0 * mp_time_integral(model)
        triple = lambda eps: (-spec(eps)[0], -spec(eps)[1], 0.0)
        assert quintic.period_by_quadrature(triple(1e-6)) == pytest.approx(reference, rel=1e-13, abs=0.0)
        assert models.exact_period(model).value == pytest.approx(reference, rel=1e-13, abs=0.0)
        # At 1e-10 the integrand's peak is ~1e-5 wide, beyond 2^16 panels: the trapezoid's known limit.
        with pytest.raises(ConvergenceError):
            quintic.period_by_quadrature(triple(1e-10))
        # exact_period takes this degree-3 force in closed form, on the exact float coefficients.
        period = models.exact_period(models.OscillatorModel("generic", force_spec=spec(1e-10)))
        assert period.method == models.CLOSED_FORM_K
        assert period.value == pytest.approx(float(mp_generic_period(spec(1e-10), quad=True)), rel=4 * 2.0 ** -52,
                                             abs=0.0)

    def test_overflowing_integrand_raises(self):
        # a^2 overflows, so G would be infinite and the integrand vanish: a period
        # of 0 would be silently wrong.  validate_params rejects the model.
        with pytest.raises(DomainError):
            models.exact_period(models.OscillatorModel("duffing-relativistic", a=1e200, b=0.5))


def fresh_nodes(theta):
    """(theta, sin theta, sin^2 theta, cos^2 theta) formed from theta, as models._nodes holds them."""
    u = np.sin(theta)
    return theta, u, np.square(u), np.square(np.cos(theta))


def trapezoid_by_levels(g):
    """The nested trapezoid with one g call per level on freshly formed nodes, as it was before the
    64-panel first grid and the node cache.

    Returns the converged value and its panel count.
    """
    n, cap = 8, 2 ** 16
    h = 0.5 * math.pi / n
    values = g(fresh_nodes(h * np.arange(n + 1)))
    total = np.sum(values) - 0.5 * (values[0] + values[-1])
    estimate = h * total
    while n < cap:
        total += np.sum(g(fresh_nodes(h * (np.arange(n) + 0.5))))
        n, h, previous = 2 * n, 0.5 * h, estimate
        estimate = h * total
        if abs(estimate - previous) <= 1e-15 * estimate:
            return float(estimate), n
    raise AssertionError("no convergence")


def trapezoid_models():
    """Seeded duffing and generic models, with some that need 64 to 512 panels."""
    rng = np.random.default_rng(2718)
    out = [models.OscillatorModel("duffing-relativistic", a=30.0, b=1.0)]
    for _ in range(40):
        a = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
        out.append(models.OscillatorModel("duffing-relativistic", a=a, b=rng.uniform(0.05, 2.0)))
        out.append(models.OscillatorModel("generic", force_spec=-rng.uniform(0.05, 2.0, size=rng.integers(1, 5))))
    # min G = eps near u = +-1 or u = 0 narrows the integrand's peak.
    for eps in (0.3, 0.1, 0.03, 1e-2, 3e-3, 1e-3):
        out += [models.OscillatorModel("generic", force_spec=(-1.0 - eps, 1.0)),
                models.OscillatorModel("generic", force_spec=(0.5 - eps, -1.0))]
    return out


class TestTrapezoid:
    def test_bits_match_one_call_per_level(self):
        levels = {"duffing-relativistic": set(), "generic": set()}
        for model in trapezoid_models():
            g = models._theta_integrand(model)
            expected, n = trapezoid_by_levels(g)
            assert models._quarter_period_integral(g).hex() == expected.hex(), model
            levels[model.kind].add(n)
        assert {16, 32, 64, 128, 256} <= levels["duffing-relativistic"]
        assert {16, 32, 64, 128, 256} <= levels["generic"]

    def test_one_integrand_call_up_to_64_panels(self):
        for model in trapezoid_models():
            g = models._theta_integrand(model)
            calls = []
            models._quarter_period_integral(lambda nodes: calls.append(nodes[0].size) or g(nodes))
            n = trapezoid_by_levels(g)[1]
            # The 65-node grid, then the n/2 midpoints of each level past 64 panels.
            assert calls == [65] + [2 ** k for k in range(6, n.bit_length() - 1)]

    def test_overflowing_midpoints_stay_silent(self):
        # (a u)^2 overflows for u > 1.34e-6 on this model, so the midpoints of the levels past
        # 64 panels overflow too; the trapezoid still converges, with no RuntimeWarning.
        model = models.OscillatorModel("cable-mass", a=1e160, b=1e148)
        g = models._theta_integrand(model)
        calls = []
        value = models._quarter_period_integral(lambda nodes: calls.append(nodes[0].size) or g(nodes))
        assert len(calls) > 1 and 0.0 < value < math.inf
        assert models.time_integral_psi(model, 0.0) == value

    def test_overflow_everywhere_raises_without_warning(self):
        # Past u ~ 1e-154 the relativistic term of G rounds to 0, although b g_rel is ~2 here, so
        # every node but theta = 0 sees G = 1: the levels never agree, and no RuntimeWarning escapes.
        with pytest.raises(ConvergenceError):
            models.time_integral_psi(models.OscillatorModel("cable-mass", a=1e308, b=1e308), 0.0)

    def test_cached_nodes_are_read_only_and_freshly_formed(self):
        # The first grid's k pi/128, then each level's midpoints (2k + 1) pi/(4n), with their sines and cosines.
        levels = [(0, np.arange(65) * math.pi / 128)]
        levels += [(n, (2 * np.arange(n) + 1) * math.pi / (4 * n)) for n in (2 ** k for k in range(6, 16))]
        for n, theta in levels:
            nodes = models._nodes(n)
            assert not any(x.flags.writeable for x in nodes)
            assert [x.tobytes() for x in nodes] == [x.tobytes() for x in fresh_nodes(theta)]
        assert models._nodes.cache_info().currsize <= 11

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_value_on_first_grid_raises(self, bad):
        # The node pi/128 lies only on the 64-panel level, which the one-call-per-level
        # loop never reached for this constant integrand: it returned pi/2.
        def g(nodes):
            theta = nodes[0]
            return np.where(theta == theta[1], bad, 1.0) if theta.size == 65 else np.ones_like(theta)
        with pytest.raises(DomainError, match="first grid"):
            models._quarter_period_integral(g)


class TestTimeIntegral:
    def test_zero_at_amplitude(self):
        for model in ALL_VALID:
            assert models.time_integral_psi(model, 1.0) == 0.0

    def test_relativistic_frozen(self):
        rel2 = models.OscillatorModel("relativistic", a=2.0)
        assert models.time_integral_psi(rel2, 0.5) == pytest.approx(PSI_REL2_HALF, rel=1e-13)
        assert models.time_integral_psi(REL1, 0.0) == pytest.approx(PSI_REL1_ZERO, rel=1e-13)

    def test_relativistic_closed_form_vs_quadrature(self):
        for a in (0.5, 1.0, 2.0, 8.0):
            model = models.OscillatorModel("relativistic", a=a)
            for u in (-0.6, -0.2, 0.0, 0.3, 0.8):
                reference = quarter_period_quadrature(model, lower_u=u)
                assert models.time_integral_psi(model, u) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("a", [5e-324, 1e-9, 1e-3, 0.3])
    def test_relativistic_small_amplitude(self, a):
        # J - 1 = a^2 / (J + 1) cancels as a -> 0 and is 0 for a below ~1e-8,
        # where the force is -u to double precision and Psi(u) = acos(u).
        model = models.OscillatorModel("relativistic", a=a)
        for u in (-0.6, 0.0, 0.3, 0.8, 0.999999):
            assert models.time_integral_psi(model, u) == pytest.approx(mp_time_integral(model, u), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", [1e16, 1e50, 1e150, 1e300])
    def test_relativistic_huge_amplitude(self, a):
        # m = ((J - 1) / a)^2 rounds to 1 from a ~ 1e16 on, but 1 - m ~ 2 / a
        # does not; the reference resolves it at 700 digits.
        model = models.OscillatorModel("relativistic", a=a)
        for u in (0.0, 1e-9, 0.5, 1.0 - 1e-12):
            assert models.time_integral_psi(model, u) == pytest.approx(mp_relativistic_psi(a, u), rel=2e-15, abs=0.0)
        assert models.exact_period(model).value == pytest.approx(4.0 * mp_relativistic_psi(a, 0.0), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_quarter_period_identity(self, model):
        psi0 = models.time_integral_psi(model, 0.0)
        if model.kind == "cable-mass":  # a closed form against the trapezoid
            assert models.exact_period(model).value == pytest.approx(4.0 * psi0, rel=1e-10)
        else:  # the same rule on both sides
            assert models.exact_period(model).value == 4.0 * psi0

    def test_decreasing_in_u(self):
        grid = [-0.9, -0.5, 0.0, 0.5, 0.9, 1.0]
        values = [models.time_integral_psi(REL1, u) for u in grid]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    def test_derivative_identity(self):
        # dPsi/du = -1 / sqrt(Phi(u)) away from the endpoints.
        h = 1e-5
        for u in (-0.6, -0.1, 0.2, 0.7):
            fd = (models.time_integral_psi(REL1, u + h) - models.time_integral_psi(REL1, u - h)) / (2.0 * h)
            assert fd == pytest.approx(-1.0 / math.sqrt(models.potential_phi(REL1, u)), abs=1e-6)

    # Only the relativistic model has a closed form between u = 0 and u = 1.
    @pytest.mark.parametrize("model, u", [(REL1, -1.0), (REL1, -1.5), (REL1, 1.0000001)]
                             + [(m, u) for m in (CABLE11, DUFF171, CUBIC) for u in (0.3, -0.3, 0.999999)],
                             ids=lambda v: getattr(v, "kind", str(v)))
    def test_domain(self, model, u, monkeypatch):
        # u is checked before any quadrature runs: a call to the patched-out rule would raise TypeError.
        monkeypatch.setattr(models, "_quarter_period_integral", None)
        with pytest.raises(DomainError):
            models.time_integral_psi(model, u)


class TestValidateParams:
    def test_valid_models_pass(self):
        assert models.validate_params(models.OscillatorModel("relativistic", a=30.0)) == []
        assert models.validate_params(models.OscillatorModel("cable-mass", a=1.0, b=0.5)) == []
        assert models.validate_params(CUBIC) == []

    def test_cable_mass_requires_positive_b(self):
        problems = models.validate_params(models.OscillatorModel("cable-mass", a=1.0, b=0.0))
        assert len(problems) == 1 and "b must be positive" in problems[0]

    def test_negative_amplitude(self):
        problems = models.validate_params(models.OscillatorModel("relativistic", a=-1.0))
        assert problems and "a must be positive" in problems[0]

    def test_duffing_cubic_coefficient_must_be_finite(self):
        # a^2 overflows from a ~ 1.34e154; the force would be inf * 0 = NaN at u = 0.
        assert models.validate_params(models.OscillatorModel("duffing-relativistic", a=1.3e154, b=0.5)) == []
        problems = models.validate_params(models.OscillatorModel("duffing-relativistic", a=1.35e154, b=0.5))
        assert len(problems) == 1 and "a^2" in problems[0] and "overflows" in problems[0]
        # A numpy a squares as Python floats, so it names the problem rather than raise its overflow warning.
        problems = models.validate_params(models.OscillatorModel("duffing-relativistic", a=np.float64(1e155), b=0.5))
        assert len(problems) == 1 and "a^2" in problems[0] and "overflows" in problems[0]

    @pytest.mark.parametrize("kind, field", [("relativistic", "a"), ("cable-mass", "a"), ("cable-mass", "b"),
                                             ("duffing-relativistic", "a"), ("duffing-relativistic", "b")])
    def test_int_past_the_float_range(self, kind, field):
        # 10**400 is below inf but has no float: it is a problem, and quintify raises DomainError, not OverflowError.
        model = models.OscillatorModel(kind, **{"a": 1.0, "b": 0.5, field: 10 ** 400})
        problems = models.validate_params(model)
        assert len(problems) == 1 and f"{field} must be positive and finite" in problems[0]
        with pytest.raises(DomainError):
            validation.quintify(model)

    def test_generic_without_spec(self):
        assert models.validate_params(models.OscillatorModel("generic")) != []

    @pytest.mark.parametrize("spec", [(math.nan, -1.0), (-1.0, math.inf), (-math.inf, 1.0), (-1.0, 0.0, math.nan)])
    def test_generic_non_finite_coefficients(self, spec):
        assert models.validate_params(models.OscillatorModel("generic", force_spec=spec)) == \
            ["force_spec contains non-finite coefficients"]

    @pytest.mark.parametrize("spec", [(-1e308, -1e308), (1e308, 1e308, -1.0)])
    def test_generic_overflowing_force_at_amplitude(self, spec):
        # Finite coefficients whose sum f(1) overflows: the problem is the sum, not a coefficient.
        problems = models.validate_params(models.OscillatorModel("generic", force_spec=spec))
        assert problems == [f"restoring force at u=1 overflows: f(1) = sum(force_spec) = {sum(spec)}"]
        assert "non-finite coefficients" not in problems[0]

    def test_generic_force_positive_at_amplitude(self):
        problems = models.validate_params(models.OscillatorModel("generic", force_spec=(1.0, -0.5)))
        assert problems and "negative at u=1" in problems[0]

    def test_generic_potential_dips_negative(self):
        # f(1) = -0.2 < 0 yet Phi(0.5) = -0.075: the sampled potential
        # check must catch it and name an offending abscissa.
        bad = models.OscillatorModel("generic", force_spec=(-1.0, 4.0, -3.2))
        problems = models.validate_params(bad)
        assert len(problems) == 1
        assert "Phi(" in problems[0]

    def test_generic_potential_dip_between_samples(self):
        # Phi(sqrt(0.30001)) = -7e-13: the dip is narrower than any fixed
        # sampling grid resolves, the exact minimum of G still finds it.
        bad = models.OscillatorModel("generic", force_spec=(-0.690026000099, 3.20004, -3.0))
        problems = models.validate_params(bad)
        assert len(problems) == 1 and "Phi(0.547" in problems[0]
        with pytest.raises(DomainError):
            models.exact_period(bad)
        with pytest.raises(DomainError):
            models.time_integral_psi(bad, 0.5)

    @pytest.mark.parametrize("model", [
        models.OscillatorModel("relativistic", a=math.inf),
        models.OscillatorModel("cable-mass", a=1.0, b=math.inf),
    ])
    def test_infinite_parameters_rejected(self, model):
        problems = models.validate_params(model)
        assert len(problems) == 1 and "must be positive and finite" in problems[0]

    def test_generic_chain_finds_roots_once(self, monkeypatch):
        # The chain of one cli sweep row checks positivity once per model:
        # one root finding, not one per entry point.
        calls = []
        roots = models._roots
        monkeypatch.setattr(models, "_roots", lambda d: calls.append(d) or roots(d))
        model = models.OscillatorModel("generic", force_spec=(-1.0, -0.5, -0.5, 0.5, -0.2))
        assert models.validate_params(model) == []
        solution = quintic.solve(chebyshev.model_coefficients(model))
        models.exact_period(model)
        validation.residual_sup_norm(model, solution)
        assert len(calls) == 1

    def test_invalid_generic_still_rejected_after_validate_params(self):
        bad = models.OscillatorModel("generic", force_spec=(-1.0, 4.0, -3.2))
        problems = models.validate_params(bad)
        assert len(problems) == 1 and "Phi(" in problems[0]
        problems.append("changed by the caller")
        assert models.validate_params(bad) == problems[:1]
        solution = quintic.solve((1.0, 2.0, 3.0))
        for call in (models.exact_period, lambda m: models.time_integral_psi(m, 0.5),
                     lambda m: validation.residual_sup_norm(m, solution)):
            with pytest.raises(DomainError, match=r"Phi\("):
                call(bad)

    @pytest.mark.parametrize("checked", [False, True])
    def test_copies_compare_equal(self, checked):
        model = models.OscillatorModel("generic", force_spec=(-1.0, 4.0, -3.2))
        if checked:
            models.validate_params(model)
        for twin in (copy.copy(model), pickle.loads(pickle.dumps(model))):
            assert twin == model and hash(twin) == hash(model)
            assert models.validate_params(twin) == models.validate_params(model)


def generic_problems_by_polyder(spec):
    """The generic positivity check as it was, through polyder, polyval, concatenate and clip."""
    if sum(spec) >= 0.0:
        return [f"restoring force must be negative at u=1, got f(1)={sum(spec)}"]
    g = models._generic_g_coeffs(spec)
    s = np.concatenate(([0.0, 1.0], np.clip(poly.polyroots(poly.polyder(g)).real, 0.0, 1.0)))
    gs = poly.polyval(s, g)
    i = np.argmin(gs)
    if not gs[i] > 0.0:
        return [f"potential must be positive on (-1, 1): Phi({math.sqrt(s[i]):.6g}) = {(1.0 - s[i]) * gs[i]:.6g}"]
    return []


_coefficient = st.floats(allow_nan=False, allow_infinity=True, width=64)
# _horner's domain, a square or s in [0, 1]: finite x >= +0.0 (min_value=0.0 never draws -0.0).  At -0.0 or
# an infinite x, which no caller passes, polyval's first step c[-1] + x * 0 differs in the sign of zero or is NaN.
_amplitude = st.floats(min_value=0.0, allow_infinity=False, width=64)


class TestGenericPolynomial:
    @given(st.lists(_coefficient, min_size=1, max_size=61),
           st.one_of(st.just(0.0), _amplitude, st.builds(np.array, _amplitude),
                     st.lists(_amplitude, max_size=8).map(np.array)))
    def test_horner_is_polyval(self, coeffs, x):
        with np.errstate(all="ignore"):
            expected = poly.polyval(x, coeffs)
            for c in (coeffs, np.array(coeffs)):
                got = models._horner(x, c)
                assert np.shape(got) == np.shape(expected)
                # repr tells -0.0 from 0.0; NaN payloads are not compared.
                assert repr(np.asarray(got).tolist()) == repr(np.asarray(expected).tolist())

    def test_g_coeffs_match_the_array_loop(self):
        # The subtractions of the numpy slice loop, in its order: the Python-float version is bit-identical.
        rng = np.random.default_rng(61)
        for _ in range(2000):
            spec = tuple(rng.normal(size=int(rng.integers(1, 62))).tolist())
            want = np.zeros(len(spec))
            for k, p in enumerate(spec):
                want[: k + 1] -= p / (k + 1)
            assert np.array(models._generic_g_coeffs(spec)).tobytes() == want.tobytes(), spec

    def test_positivity_check_matches_polyder_route(self):
        # Small integers make exact zeros: G' with a zero or vanishing leading
        # coefficient, linear G' and roots at s = +-0 and s = 1.
        rng = np.random.default_rng(4)
        failing = 0
        for i in range(3000):
            size = int(rng.integers(1, 7))
            spec = tuple(rng.integers(-3, 4, size).astype(float)) if i % 2 else tuple(rng.normal(size=size))
            expected = generic_problems_by_polyder(spec)
            assert models._find_problems(models.OscillatorModel("generic", force_spec=spec)) == expected, spec
            failing += bool(expected) and "Phi(" in expected[0]
        assert failing > 100
        # 4-coefficient specs, whose quadratic G' takes the stable quadratic formula, not LAPACK.  Small integers
        # make G' with a zero leading coefficient (a line or a constant) and with exact double roots.
        rng = np.random.default_rng(3603)
        failing = double = line = 0
        for i in range(3000):
            spec = tuple(rng.integers(-3, 4, 4).astype(float)) if i % 2 else tuple(rng.normal(size=4))
            expected = generic_problems_by_polyder(spec)
            assert models._find_problems(models.OscillatorModel("generic", force_spec=spec)) == expected, spec
            failing += bool(expected) and "Phi(" in expected[0]
            d = [k * g for k, g in enumerate(models._generic_g_coeffs(spec))][1:]
            line += d[2] == 0.0
            double += d[2] != 0.0 and d[1] * d[1] == 4.0 * d[0] * d[2]
        assert failing > 100 and double > 10 and line > 100

    def test_cubic_g_needs_no_eigenvalues(self, monkeypatch):
        def forbidden(d):
            raise AssertionError(f"_roots called on {d}")
        monkeypatch.setattr(models, "_roots", forbidden)
        for spec in ((-1.0, -0.5, -0.3, -0.2), (-1.0, 4.0, -3.2, 0.0), (-2.0, 0.0, 3.0, 2.0), (-1.0, 0.0, 0.0, 0.0)):
            assert models._find_problems(models.OscillatorModel("generic", force_spec=spec)) == \
                generic_problems_by_polyder(spec), spec
        with pytest.raises(AssertionError, match="_roots called"):
            models._find_problems(models.OscillatorModel("generic", force_spec=(-1.0, -0.5, -0.3, -0.2, -0.1)))

    def test_roots_are_polyroots(self):
        # Small integers make trailing zeros, lines and constants; the bits are numpy's, ordering included.
        rng = np.random.default_rng(31)
        for i in range(3000):
            size = int(rng.integers(1, 8))  # degree 0-6
            d = (rng.integers(-3, 4, size).astype(float) if i % 2 else rng.normal(size=size)).tolist()
            assert repr(models._roots(d)) == repr(poly.polyroots(d).real.tolist()), d

    def test_trailing_zero_coefficient_is_the_shorter_spec(self):
        spec = (-1.0, 4.0, -3.2)
        for s in (spec, (-1.0, 1.0, -0.5), (-1.0, -0.5, -0.5, 0.5, -0.2)):
            assert models._find_problems(models.OscillatorModel("generic", force_spec=s + (0.0,))) == \
                models._find_problems(models.OscillatorModel("generic", force_spec=s)) == generic_problems_by_polyder(s)
        # Up to degree 5 the period is the closed form of the shorter spec, bit for bit.
        for s in ((-1.0,), (-1.0, -0.5), (-1.0, 1.0, -0.5), (-0.3, 1.2, -2.0)):
            periods = {models.exact_period(models.OscillatorModel("generic", force_spec=s + zeros))
                       for zeros in ((), (0.0,), (0.0, 0.0), (-0.0, 0.0, 0.0, 0.0))}
            assert len(periods) == 1 and periods.pop().method == models.CLOSED_FORM_K, s
