"""Tests for the residual/period/oracle validation harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quintosc import cli, models, quintic, validation
from quintosc.chebyshev import model_coefficients
from quintosc.errors import DomainError, EvaluationError
from test_quintic import mp_psi
from timeouts import deadline

REL1 = models.OscillatorModel("relativistic", a=1.0)


def solved(model):
    return quintic.solve(model_coefficients(model))


def abs_residual(model, solution, u):
    """|u'' - f(u)| at amplitudes u, written out apart from validation."""
    c = solution.coefficients
    return np.abs(-(c.c1 * u + c.c3 * u ** 3 + c.c5 * u ** 5) - models.restoring_force(model, u))


class TestResidualSupNorm:
    def test_relativistic_reference_values(self):
        report = validation.residual_sup_norm(REL1, solved(REL1))
        assert report.sup_norm == pytest.approx(0.0013005, abs=1e-5)
        rel8 = models.OscillatorModel("relativistic", a=8.0)
        report8 = validation.residual_sup_norm(rel8, solved(rel8))
        assert report8.sup_norm == pytest.approx(0.0375439, abs=1e-5)

    def test_report_structure(self):
        solution = solved(REL1)
        report = validation.residual_sup_norm(REL1, solution, grid=501)
        assert report.grid == 501
        assert report.sup_norm >= 0.0
        assert 0.0 <= report.argmax_t <= solution.period / 4.0

    @pytest.mark.parametrize("kind, a, b", [
        *(("relativistic", a, 0.0) for a, _, _ in cli.TABLE_REFERENCE[1][1]),
        *(("duffing-relativistic", a, b) for a, b, _ in cli.TABLE_REFERENCE[2][1] + cli.TABLE_REFERENCE[3][1]),
        ("relativistic", 30.0, 0.0), ("duffing-relativistic", 30.0, 1.0),
    ])
    def test_sup_matches_fine_amplitude_grid(self, kind, a, b):
        model = models.OscillatorModel(kind, a=a, b=b)
        solution = solved(model)
        fine = np.max(abs_residual(model, solution, np.linspace(0.0, 1.0, 2_000_001)))
        assert validation.residual_sup_norm(model, solution).sup_norm == pytest.approx(fine, rel=1e-5)

    @pytest.mark.parametrize("model", [
        REL1, models.OscillatorModel("relativistic", a=30.0),
        models.OscillatorModel("cable-mass", a=3.0, b=0.25),
        models.OscillatorModel("duffing-relativistic", a=1.3, b=0.7),
        models.OscillatorModel("generic", force_spec=(-1.0, -0.5, -0.2, -0.1)),
    ])
    def test_argmax_t_reaches_maximising_amplitude(self, model):
        solution = solved(model)
        report = validation.residual_sup_norm(model, solution)
        u = np.linspace(0.0, 1.0, report.grid)
        u_max = u[np.argmax(abs_residual(model, solution, u))]
        assert quintic.evaluate(solution, report.argmax_t) == pytest.approx(u_max, abs=1e-12)

    @pytest.mark.parametrize("kind, a, b", [
        *(("relativistic", a, 0.0) for a, _, _ in cli.TABLE_REFERENCE[1][1]),
        *(("duffing-relativistic", a, b) for a, b, _ in cli.TABLE_REFERENCE[2][1] + cli.TABLE_REFERENCE[3][1]),
    ])
    def test_argmax_t_matches_time_integral_of_solved_quintic(self, kind, a, b):
        # The closed-form inverse against the quintic's Psi at 30 digits.
        model = models.OscillatorModel(kind, a=a, b=b)
        solution = solved(model)
        report = validation.residual_sup_norm(model, solution)
        u = np.linspace(0.0, 1.0, report.grid)
        u_max = float(u[np.argmax(abs_residual(model, solution, u))])
        assert report.argmax_t == pytest.approx(mp_psi(solution.coefficients, u_max), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("model", [
        REL1, models.OscillatorModel("cable-mass", a=3.0, b=0.25),
        models.OscillatorModel("duffing-relativistic", a=1.3, b=0.7),
        models.OscillatorModel("generic", force_spec=(-1.0, -0.5, -0.5, 0.5, -0.2)),
    ])
    def test_no_quadrature(self, model, monkeypatch):
        # argmax_t comes from the closed form, never from a time quadrature.
        solution = solved(model)

        def forbidden(*args):
            raise AssertionError("residual_sup_norm ran a quadrature")

        monkeypatch.setattr(models, "_quarter_period_integral", forbidden)
        # Each model's residual peaks inside (0, 1), where the old route needed a quadrature.
        assert 0.0 < validation.residual_sup_norm(model, solution).argmax_t < solution.period / 4.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_residual_raises(self):
        # a*a overflows, so the cubic term of the duffing force is inf*0 = NaN at u = 0.
        with pytest.raises(EvaluationError) as info:
            validation.residual_sup_norm(models.OscillatorModel("duffing-relativistic", a=1e200, b=0.5),
                                         quintic.solve((1.0, 2.0, 3.0)))
        assert info.value.abscissa == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 30.0), st.floats(0.05, 2.0))
    def test_duffing_sup_is_b_times_relativistic_sup(self, a, b):
        # The polynomial part of the duffing force projects exactly, so the
        # residual functions differ by the factor b at every amplitude.
        duffing = models.OscillatorModel("duffing-relativistic", a=a, b=b)
        relativistic = models.OscillatorModel("relativistic", a=a)
        sup = validation.residual_sup_norm(duffing, solved(duffing)).sup_norm
        sup_rel = validation.residual_sup_norm(relativistic, solved(relativistic)).sup_norm
        assert abs(sup - b * sup_rel) <= 1e-13 * (1.0 + a * a + b)

    @pytest.mark.parametrize("model", [
        *(models.OscillatorModel(kind, a=math.nan, b=1.0) for kind in models.KINDS[:3]),
        models.OscillatorModel("generic", force_spec=(math.nan,)),
        models.OscillatorModel("relativistic", a=-2.0),
    ])
    def test_invalid_model_rejected(self, model):
        with pytest.raises(DomainError):
            validation.residual_sup_norm(model, solved(REL1))

    def test_grid_refinement_stability(self):
        for model in (REL1, models.OscillatorModel("duffing-relativistic", a=1.3, b=0.7)):
            solution = solved(model)
            coarse = validation.residual_sup_norm(model, solution, 4001).sup_norm
            fine = validation.residual_sup_norm(model, solution, 16001).sup_norm
            assert abs(coarse - fine) <= 1e-6

    def test_monotone_decrease_at_large_amplitude(self):
        sups = []
        for a in (8.0, 20.0, 30.0):
            model = models.OscillatorModel("relativistic", a=a)
            sups.append(validation.residual_sup_norm(model, solved(model)).sup_norm)
        assert sups[0] > sups[1] > sups[2]

    def test_analytic_udd_matches_finite_differences(self):
        # The report computes u'' through the quintic ODE identity; check
        # it against a 5-point stencil on the trajectory itself.
        model = models.OscillatorModel("cable-mass", a=1.0, b=1.0)
        solution = solved(model)
        c = solution.coefficients
        T = solution.period
        h = T * 1e-4
        t = np.linspace(0.0, T / 4.0, 1001)
        u = quintic.evaluate(solution, t)
        stencil = (-quintic.evaluate(solution, t + 2 * h) + 16 * quintic.evaluate(solution, t + h)
                   - 30 * u + 16 * quintic.evaluate(solution, t - h)
                   - quintic.evaluate(solution, t - 2 * h)) / (12.0 * h * h)
        analytic = -(c.c1 * u + c.c3 * u ** 3 + c.c5 * u ** 5)
        assert np.max(np.abs(stencil - analytic)) < 1e-6

    def test_shared_grid_is_read_only(self):
        # One cached grid per size; switching sizes rebuilds it, bit for bit.
        solution = solved(REL1)
        first = validation.residual_sup_norm(REL1, solution, 4001)
        assert not validation._amplitudes(4001).flags.writeable
        validation.residual_sup_norm(REL1, solution, 1001)
        again = validation.residual_sup_norm(REL1, solution, 4001)
        assert (again.sup_norm.hex(), again.argmax_t.hex()) == (first.sup_norm.hex(), first.argmax_t.hex())

    def test_tiny_grid_rejected(self):
        with pytest.raises(DomainError):
            validation.residual_sup_norm(REL1, solved(REL1), grid=1)


class TestPeriodRatio:
    def test_small_amplitude_tends_to_one(self):
        comparison = validation.period_ratio(models.OscillatorModel("relativistic", a=1e-4))
        assert comparison.ratio == pytest.approx(1.0, abs=1e-8)

    def test_ratio_fields(self):
        comparison = validation.period_ratio(models.OscillatorModel("relativistic", a=2.0))
        assert comparison.ratio == comparison.exact / comparison.approximate
        assert comparison.ratio > 0.0
        assert 0.999 <= comparison.ratio <= 1.0006

    def test_cable_mass_band(self):
        for a in (0.5, 3.0, 10.0, 30.0):
            for b in (0.25, 1.0):
                comparison = validation.period_ratio(models.OscillatorModel("cable-mass", a=a, b=b))
                assert 0.999 <= comparison.ratio <= 1.001


class TestRkOracle:
    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            validation.rk_oracle(lambda u: -u, 1.0, tol=1e-14)
        with pytest.raises(DomainError):
            validation.rk_oracle(lambda u: -u, 1.0, tol=1e-5)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_horizon_domain(self, t_end):
        # NaN fails every comparison and an infinite horizon never ends, so
        # both must be rejected before the integrator starts.
        with deadline(10.0), pytest.raises(DomainError):
            validation.rk_oracle(lambda u: -u, t_end)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_domain(self, samples):
        with pytest.raises(DomainError):
            validation.rk_oracle(lambda u: -u, 1.0, samples=samples)

    def test_single_sample(self):
        oracle = validation.rk_oracle(lambda u: -u, 1.0, samples=1)
        assert oracle.times.tolist() == [0.0] and oracle.values.tolist() == [1.0]

    def test_harmonic_oscillator(self):
        oracle = validation.rk_oracle(lambda u: -u, 2.0 * math.pi, tol=1e-10)
        assert oracle.values[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(oracle.times) > 0.0)

    def test_quintic_returns_home(self):
        solution = quintic.solve((1.0, 2.0, 3.0))
        oracle = validation.rk_oracle(lambda u: -(u + 2.0 * u ** 3 + 3.0 * u ** 5),
                                      solution.period, tol=1e-10)
        assert oracle.values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_model_rhs_and_energy_drift(self):
        t_end = models.exact_period(REL1).value
        oracle = validation.rk_oracle(REL1, t_end, tol=1e-10)
        assert oracle.values[-1] == pytest.approx(1.0, abs=1e-8)
        # V(u) = sqrt(1 + u^2) - 1 for the a = 1 relativistic force.
        energy = 0.5 * oracle.derivatives ** 2 + np.sqrt(1.0 + oracle.values ** 2) - 1.0
        assert np.max(np.abs(energy - energy[0])) <= 10.0 * oracle.tolerance * t_end


class TestCompareTrajectories:
    def test_identical_is_zero(self):
        solution = quintic.solve((1.0, 2.0, 3.0))
        times = np.linspace(0.0, solution.period, 257)
        fake = validation.OracleTrajectory(times, quintic.evaluate(solution, times),
                                           quintic.derivative(solution, times), 1e-10)
        assert validation.compare_trajectories(solution, fake) == 0.0

    def test_same_ode_agrees(self):
        solution = quintic.solve((1.0, 2.0, 3.0))
        oracle = validation.rk_oracle(lambda u: -(u + 2.0 * u ** 3 + 3.0 * u ** 5),
                                      solution.period, tol=1e-10)
        assert validation.compare_trajectories(solution, oracle) <= 1e-7

    def test_original_model_stays_close(self):
        # Against the original relativistic ODE the gap reflects the
        # projection error, on the scale of the residual tables.
        solution = solved(REL1)
        oracle = validation.rk_oracle(REL1, solution.period, tol=1e-10)
        assert validation.compare_trajectories(solution, oracle) <= 5e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_oracle_values_raise(self, bad):
        solution = quintic.solve((1.0, 2.0, 3.0))
        times = np.linspace(0.0, solution.period, 5)
        values = quintic.evaluate(solution, times)
        values[2] = bad
        with pytest.raises(DomainError):
            validation.compare_trajectories(solution, validation.OracleTrajectory(times, values, values, 1e-10))

    def test_bad_time_span_rejected(self):
        # Non-finite times raise before np.diff, which would warn on inf - inf.
        solution = quintic.solve((1.0, 2.0, 3.0))
        for times in ([0.0, 1.0, 0.5], [math.inf, math.inf], [0.0, math.nan]):
            n = len(times)
            broken = validation.OracleTrajectory(np.array(times), np.zeros(n), np.zeros(n), 1e-10)
            with pytest.raises(DomainError):
                validation.compare_trajectories(solution, broken)
