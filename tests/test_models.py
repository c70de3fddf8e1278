"""Tests for the oscillator model catalogue."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from quintosc import models
from quintosc.errors import DomainError

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

    def test_relativistic_modulus_below_one(self):
        for a in np.logspace(-2.0, 2.0, 40):
            k = (math.hypot(1.0, a) - 1.0) / a
            assert 0.0 < k < 1.0


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

    @pytest.mark.parametrize("model", ALL_VALID)
    def test_quarter_period_identity(self, model):
        psi0 = models.time_integral_psi(model, 0.0)
        assert models.exact_period(model).value == pytest.approx(4.0 * psi0, rel=1e-10)

    @pytest.mark.parametrize("model", [REL1, CABLE11, DUFF171])
    def test_decreasing_in_u(self, model):
        grid = [-0.9, -0.5, 0.0, 0.5, 0.9, 1.0]
        values = [models.time_integral_psi(model, u) for u in grid]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))

    @pytest.mark.parametrize("model", [REL1, CUBIC])
    def test_derivative_identity(self, model):
        # dPsi/du = -1 / sqrt(Phi(u)) away from the endpoints.
        h = 1e-5
        for u in (-0.6, -0.1, 0.2, 0.7):
            fd = (models.time_integral_psi(model, u + h) - models.time_integral_psi(model, u - h)) / (2.0 * h)
            assert fd == pytest.approx(-1.0 / math.sqrt(models.potential_phi(model, u)), abs=1e-6)

    @pytest.mark.parametrize("u", [-1.0, -1.5, 1.0000001])
    def test_domain(self, u):
        with pytest.raises(DomainError):
            models.time_integral_psi(REL1, u)


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

    def test_generic_without_spec(self):
        assert models.validate_params(models.OscillatorModel("generic")) != []

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
