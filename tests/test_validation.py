"""Tests for the residual/period/oracle validation harness."""

import importlib.util
import itertools
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quintosc import cli, elliptic, models, quintic, validation
from quintosc.chebyshev import model_coefficients
from quintosc.errors import ConvergenceError, DomainError, EvaluationError, UnsupportedCaseError
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_residual_raises(self):
        # A valid model against a solution whose u'' = -(c1 u + c3 u^3 + c5 u^5) overflows from u ~ 0.72 on.
        with pytest.raises(EvaluationError) as info:
            validation.residual_sup_norm(models.OscillatorModel("relativistic", a=1.0),
                                         quintic.solve((1e308, 1e308, 1e308)))
        assert info.value.abscissa == 0.72375

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
        # One cached grid and its squares per size; switching sizes rebuilds them, bit for bit.
        solution = solved(REL1)
        first = validation.residual_sup_norm(REL1, solution, 4001)
        u, u2 = validation._amplitudes(4001)
        assert not (u.flags.writeable or u2.flags.writeable)
        fresh = np.linspace(0.0, 1.0, 4001)
        assert (u.tobytes(), u2.tobytes()) == (fresh.tobytes(), np.square(fresh).tobytes())
        validation.residual_sup_norm(REL1, solution, 1001)
        again = validation.residual_sup_norm(REL1, solution, 4001)
        assert (again.sup_norm.hex(), again.argmax_t.hex()) == (first.sup_norm.hex(), first.argmax_t.hex())

    def test_tiny_grid_rejected(self):
        with pytest.raises(DomainError):
            validation.residual_sup_norm(REL1, solved(REL1), grid=1)


def seeded_models(count, seed=30):
    """count models cycling through the four kinds: a log-uniform in [0.05, 30], b uniform in [0.05, 2],
    and generic forces of degree 7 or 9 (4 or 5 negative coefficients), so that every residual is nonzero."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = models.KINDS[i % len(models.KINDS)]
        a, b = math.exp(rng.uniform(math.log(0.05), math.log(30.0))), rng.uniform(0.05, 2.0)
        spec = tuple(-rng.uniform(0.05, 2.0, size=int(rng.integers(4, 6)))) if kind == models.GENERIC else None
        out.append(models.OscillatorModel(kind, a=a, b=b, force_spec=spec))
    return out


def mp_residual(model, c, u):
    """u'' - f(u) at 50 digits from the float coefficients, a, b and u, each term written out."""
    with mp.workdps(50):
        u, (c1, c3, c5) = mp.mpf(u), map(mp.mpf, c.as_tuple())
        p, beta = models._parts(model)
        force = (u * sum(mp.mpf(pk) * u ** (2 * k) for k, pk in enumerate(p))
                 - mp.mpf(beta) * u / mp.sqrt(1 + (mp.mpf(model.a) * u) ** 2))
        return -(c1 * u + c3 * u ** 3 + c5 * u ** 5) - force


class TestResidualMpmathOracle:
    """_residual against 50-digit mpmath at every 100th amplitude of the 4001-point grid and two near 1."""

    U = np.concatenate([np.linspace(0.0, 1.0, 4001)[::100], [0.9995, 0.99995]])

    def test_error_within_an_eps_of_the_combined_terms(self):
        # The formula on q_k = -(c_k + p_k) rounds like its own terms: each point is within
        # 2 eps of sum_k |q_k| u^(2k+1) + |beta| u / sqrt(1 + (a u)^2) (0.95 eps seen).  The quintic
        # and the force subtracted point by point were off by up to 3.4e3 eps of that sum.
        eps = np.finfo(float).eps
        ratios = []
        for model in seeded_models(120):
            c = model_coefficients(model)
            got = validation._residual(model, c, self.U)
            exact = [mp_residual(model, c, x) for x in self.U]
            p, beta = models._parts(model)
            q = [-(ck + pk) for ck, pk in itertools.zip_longest(c.as_tuple(), p, fillvalue=0.0)]
            for x, g, e in zip(self.U.tolist(), got.tolist(), exact):
                terms = (sum(abs(qk) * x ** (2 * k + 1) for k, qk in enumerate(q))
                         + abs(beta) * x / math.sqrt(1.0 + (model.a * x) ** 2))
                assert abs(g - e) <= 2.0 * eps * terms, (model, x)
            ratios.append(float(max(abs(g - e) for g, e in zip(got.tolist(), exact)) / max(map(abs, exact))))
        # Error over sup: median 8.8e-15, worst 4.6e-7 (a ~ 0.05, where the sup is ~1e-9); the
        # point-by-point subtraction gave 8.1e-14 and 7.4e-7 on the same models and points.
        assert np.median(ratios) <= 2e-14
        assert max(ratios) <= 1e-6

    @pytest.mark.parametrize("spec", [(-1.0,), (-1.0, -0.5), (-0.7, 0.3, -0.2)])
    def test_quintic_force_has_zero_residual(self, spec):
        model = models.OscillatorModel("generic", force_spec=spec)
        assert not np.any(validation._residual(model, model_coefficients(model), self.U))


class TestPeriodRatio:
    def test_small_amplitude_tends_to_one(self):
        r = validation.quintify(models.OscillatorModel("relativistic", a=1e-4))
        assert r.exact.value / r.solution.period == pytest.approx(1.0, abs=1e-8)

    def test_ratio_fields(self):
        model = models.OscillatorModel("relativistic", a=2.0)
        r = validation.quintify(model)
        assert r.exact == models.exact_period(model) and r.solution.period == solved(model).period
        assert r.exact.value / r.solution.period > 0.0
        assert 0.999 <= r.exact.value / r.solution.period <= 1.0006

    def test_cable_mass_band(self):
        for a in (0.5, 3.0, 10.0, 30.0):
            for b in (0.25, 1.0):
                r = validation.quintify(models.OscillatorModel("cable-mass", a=a, b=b))
                assert 0.999 <= r.exact.value / r.solution.period <= 1.001


_WORKLOADS = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(workloads)


def hand_chain(model):
    """The layers one at a time, in the order the sweep row called them before quintify."""
    problems = models.validate_params(model)
    if problems:
        raise DomainError("; ".join(problems))
    c = model_coefficients(model)
    delta = quintic.discriminant(c)
    exact = models.exact_period(model)
    solution = quintic.solve(c)
    return validation.Quintication(c, delta, exact, solution, validation.residual_sup_norm(model, solution))


def outcome(pipeline, model):
    """repr of the record, whose floats round-trip with their sign, or the type and text of what was raised."""
    try:
        return repr(pipeline(model))
    except Exception as exc:  # a RuntimeWarning too, which pyproject turns into an error
        return type(exc), str(exc)


class TestQuintify:
    def test_record_is_the_hand_chain_on_the_catalogue(self):
        # Items 0 .. 799 of perfbench's catalogue draw: 200 models of each of the four kinds.
        drawn = [workloads.catalogue_input(1, i)["model"] for i in range(200 * len(models.KINDS))]
        assert {kind: sum(m.kind == kind for m in drawn) for kind in models.KINDS} == dict.fromkeys(models.KINDS, 200)
        for model in drawn:
            record = validation.quintify(model)
            assert repr(record) == repr(hand_chain(model)), model
            assert record.residual.grid == 4001 and record.solution.coefficients is record.coefficients

    def test_first_failing_step_raises_its_error(self):
        grid = [(models.CABLE_MASS, 1.0, 0.0), (models.DUFFING_RELATIVISTIC, 1.0, 0.0)] + [
            (kind, a, b) for kind in (models.RELATIVISTIC, models.CABLE_MASS, models.DUFFING_RELATIVISTIC)
            for a in (1e150, 1.34e154, 1e155, 1e160, 1e162, 1e200, 1e300) for b in (1e-300, 1.0, 1e300)]
        drawn = [models.OscillatorModel(kind, a=a, b=b) for kind, a, b in grid] + [
            # exact_period does not converge; at b = 1e200 the discriminant, which runs first, overflows too.
            models.OscillatorModel(models.DUFFING_RELATIVISTIC, a=1e6, b=1e20),
            models.OscillatorModel(models.DUFFING_RELATIVISTIC, a=1e20, b=1e200),
            # A valid generic force whose triple has no periodic solution.
            models.OscillatorModel(models.GENERIC, force_spec=(
                -0.5512946916149005, 0.10360135493198784, -4.22798850256005, 276.81758961761466, -336.8187969665996))]
        seen = set()
        for model in drawn:
            got = outcome(validation.quintify, model)
            assert got == outcome(hand_chain, model), model
            seen.add(got[0] if isinstance(got, tuple) else "ok")
        # Valid records, each step's failure and the a*u overflow of the residual at a ~ 1e155 all occur.
        assert seen == {"ok", DomainError, ConvergenceError, UnsupportedCaseError, RuntimeWarning}

    @pytest.mark.parametrize("kind, b", [(models.RELATIVISTIC, 0.0), (models.CABLE_MASS, 0.7)])
    @pytest.mark.parametrize("a", [2.0, 5.0])
    def test_complete_integrals_call_no_carlson_kernel(self, kind, a, b, monkeypatch):
        # Complete integrals come from elliptic._cel on both sides of the alphas' a = 3.5 cutoff;
        # the one Carlson call left is _time_to's R_F for the residual's argmax_t.
        calls = []
        for name in ("carlson_rf", "carlson_rj"):
            kernel = getattr(elliptic, name)
            monkeypatch.setattr(elliptic, name, lambda *args, _name=name, _kernel=kernel: calls.append(_name) or
                                _kernel(*args))
        validation.quintify(models.OscillatorModel(kind, a=a, b=b))
        assert calls == ["carlson_rf"]

    @pytest.mark.parametrize("spec, closed", [((-1.0,), True), ((-1.0, -0.5), True), ((-0.7, 0.3, -0.2), True),
                                              ((-1.0, -0.5, 0.0, 0.0), True), ((-1.0, -0.5, -0.3, -0.2), False)])
    def test_quintic_force_runs_no_trapezoid_and_no_residual_pass(self, spec, closed, monkeypatch):
        # A generic force of degree <= 5 is its own quintic: its period is the closed form and its residual
        # is zero at every amplitude.  A degree-7 force still runs the trapezoid and the 4001-point pass.
        integrals, forces = [], []
        integral, force = models._quarter_period_integral, models._force
        monkeypatch.setattr(models, "_quarter_period_integral", lambda g: integrals.append(g) or integral(g))
        monkeypatch.setattr(models, "_force", lambda *args: forces.append(np.size(args[3])) or force(*args))
        model = models.OscillatorModel("generic", force_spec=spec)
        record = validation.quintify(model)
        assert (len(integrals), forces) == ((0, []) if closed else (1, [4001]))
        if closed:
            # The report the 4001-point pass gave: all zeros, whose first maximum is at u = 0.
            assert not np.any(validation._residual(model, record.coefficients, np.linspace(0.0, 1.0, 4001)))
            assert (record.residual.sup_norm, record.residual.argmax_t) == (0.0, quintic._time_to(record.solution, 0.0))
            # No model (a raw triple) has the same exact-zero residual.
            report = validation.residual_sup_norm(None, record.solution)
            assert (report.grid, report.sup_norm, report.argmax_t) == (4001, 0.0, record.residual.argmax_t)

    def test_invalid_model_message_is_its_problems(self):
        model = models.OscillatorModel("generic", force_spec=(1.0, math.inf))
        with pytest.raises(DomainError) as info:
            validation.quintify(model)
        assert str(info.value) == "; ".join(models.validate_params(model))


def test_benchmark_fault_injection_fails_its_item():
    # perfbench/selftest.py corrupts the third solve of a catalogue run with dataclasses.replace(sol, period=...)
    # and expects that item to fail its check: a ClosedFormSolution that stops supporting this fails here.
    code = "import sys; sys.path.insert(0, 'perfbench'); import selftest; print(selftest.check_corrupted_item())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent.parent,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


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
        # The order is checked without subtracting, which would warn on inf - inf or 1e308 - (-1e308).
        solution = quintic.solve((1.0, 2.0, 3.0))
        for times in ([0.0, 1.0, 0.5], [math.inf, math.inf], [0.0, math.nan], [1e308, -1e308]):
            n = len(times)
            broken = validation.OracleTrajectory(np.array(times), np.zeros(n), np.zeros(n), 1e-10)
            with pytest.raises(DomainError):
                validation.compare_trajectories(solution, broken)
