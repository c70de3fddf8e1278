"""Every public callable fails only with a QuintoscError (or a TypeError).

Each callable of ``quintosc.__all__`` is fed NaN, +-inf, +-0, subnormal
and +-1e308 arguments, mixed with ordinary ones.  Returning a value,
non-finite or not, is allowed; a bare ValueError, ZeroDivisionError,
OverflowError or a hang is not.  restoring_force and potential_phi are held
to more: finite values on [-1, 1] for a valid model, DomainError otherwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quintosc
from quintosc import chebyshev, elliptic, models
from quintosc.errors import DomainError, QuintoscError
from timeouts import deadline

EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308]
VALUES = st.sampled_from(EXTREMES + [1.0, -1.0, 0.5, 3.0])
SOLUTION = quintosc.solve((1.0, 2.0, 3.0))


def model(kind, x, y):
    return quintosc.OscillatorModel(kind, a=x, b=y, force_spec=(x, y) if kind == models.GENERIC else None)


def cubic(x, y):
    """The probe's own force x*u + y*u^3; its overflow on extreme x, y is not the library's warning."""
    def force(u):
        with np.errstate(all="ignore"):
            return x * u + y * u ** 3
    return force


def horizon(x):
    """x itself when it is non-positive or not finite, else -x."""
    return x if not 0.0 < x < math.inf else -x


CALLS = {
    "ClosedFormSolution": lambda k, x, y, z: quintosc.ClosedFormSolution(
        quintosc.QuinticCoefficients(x, y, z), quintosc.quintic.CASE_I, SOLUTION.params, x),
    "ConvergenceError": lambda k, x, y, z: quintosc.ConvergenceError(x),
    "DomainError": lambda k, x, y, z: quintosc.DomainError(x),
    "EvaluationError": lambda k, x, y, z: quintosc.EvaluationError("message", x),
    "ExactPeriod": lambda k, x, y, z: quintosc.ExactPeriod(x, k),
    "OracleTrajectory": lambda k, x, y, z: quintosc.OracleTrajectory(np.array([x]), np.array([y]), np.array([z]), x),
    "OscillatorModel": lambda k, x, y, z: model(k, x, y),
    "QuinticCoefficients": lambda k, x, y, z: quintosc.QuinticCoefficients(x, y, z),
    "Quintication": lambda k, x, y, z: quintosc.Quintication(
        SOLUTION.coefficients, x, quintosc.ExactPeriod(y, k), SOLUTION, quintosc.ResidualReport(2, z, x)),
    "QuintoscError": lambda k, x, y, z: quintosc.QuintoscError(x),
    "ResidualReport": lambda k, x, y, z: quintosc.ResidualReport(2, x, y),
    "UnsupportedCaseError": lambda k, x, y, z: quintosc.UnsupportedCaseError(x),
    "classify": lambda k, x, y, z: quintosc.classify((x, y, z)),
    "compare_trajectories": lambda k, x, y, z: quintosc.compare_trajectories(
        SOLUTION, quintosc.OracleTrajectory(np.array([x, y]), np.array([z, x]), np.array([y, z]), 1e-10)),
    "derivative": lambda k, x, y, z: quintosc.derivative(SOLUTION, np.array([x, y, z])),
    "discriminant": lambda k, x, y, z: quintosc.discriminant((x, y, z)),
    "evaluate": lambda k, x, y, z: quintosc.evaluate(SOLUTION, x),
    "exact_period": lambda k, x, y, z: quintosc.exact_period(model(k, x, y)),
    "model_coefficients": lambda k, x, y, z: quintosc.model_coefficients(model(k, x, y)),
    "period_by_quadrature": lambda k, x, y, z: quintosc.period_by_quadrature((x, y, z)),
    "potential_phi": lambda k, x, y, z: quintosc.potential_phi(model(k, x, y), z),
    "project_odd_quintic": lambda k, x, y, z: quintosc.project_odd_quintic(cubic(x, y)),
    "quintify": lambda k, x, y, z: quintosc.quintify(model(k, x, y)),
    "residual_sup_norm": lambda k, x, y, z: quintosc.residual_sup_norm(model(k, x, y), SOLUTION),
    "restoring_force": lambda k, x, y, z: quintosc.restoring_force(model(k, x, y), z),
    "rk_oracle": lambda k, x, y, z: quintosc.rk_oracle(lambda u: -u, horizon(x)),
    "solve": lambda k, x, y, z: quintosc.solve((x, y, z)),
    "time_integral_psi": lambda k, x, y, z: quintosc.time_integral_psi(model(k, x, y), z),
    "validate_params": lambda k, x, y, z: quintosc.validate_params(model(k, x, y)),
}


# The public kernels of quintosc.elliptic, which the package does not re-export.
ELLIPTIC_CALLS = {
    "elliptic.carlson_rf": lambda k, x, y, z: elliptic.carlson_rf(x, y, z),
    "elliptic.carlson_rj": lambda k, x, y, z: (elliptic.carlson_rj(x, y, z, y), elliptic.carlson_rj(x, y, z, z)),
    "elliptic.complete_E": lambda k, x, y, z: elliptic.complete_E(x),
    "elliptic.complete_K": lambda k, x, y, z: elliptic.complete_K(x),
    "elliptic.jacobi_sn_cn_dn": lambda k, x, y, z: (elliptic.jacobi_sn_cn_dn(x, z),
                                                    elliptic.jacobi_sn_cn_dn(np.array([x, y]), z)),
}


def test_every_public_callable_is_probed():
    public = {name for name in quintosc.__all__ if callable(getattr(quintosc, name))}
    assert public == set(CALLS)
    kernels = {f"elliptic.{name}" for name in dir(elliptic)
               if not name.startswith("_") and callable(getattr(elliptic, name))
               and getattr(getattr(elliptic, name), "__module__", None) == elliptic.__name__}
    assert kernels - {"elliptic.JacobiTriple"} == set(ELLIPTIC_CALLS)


# These square a*u, which overflows for |a| >~ 1.34e154 (ROADMAP Direction 8); every other
# probe runs under pyproject's error::RuntimeWarning.
SQUARES_A = {"restoring_force", "potential_phi", "residual_sup_norm"}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")) if name in SQUARES_A else name
    for name in sorted(CALLS.keys() | ELLIPTIC_CALLS.keys())])
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(models.KINDS), VALUES, VALUES, VALUES)
def test_raises_only_package_errors(name, kind, x, y, z):
    with deadline(5.0):
        try:
            {**CALLS, **ELLIPTIC_CALLS}[name](kind, x, y, z)
        except (QuintoscError, TypeError):
            pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([quintosc.evaluate, quintosc.derivative]),
       st.sampled_from([SOLUTION, quintosc.solve((-1.0 / 3.0, 4.0 / 3.0, 1.0)), quintosc.solve((1e300, 2e300, 3e300)),
                        quintosc.solve((1.0, 1.0, -1.0)), quintosc.solve((1.0, -0.3, 0.0))]),
       st.one_of(VALUES, st.floats()))
def test_trajectory_is_finite_or_raises_domain_error(func, solution, t):
    """A finite time gives a finite u or u', scalar or in an array; NaN or +-inf raises DomainError."""
    if math.isfinite(t):
        assert math.isfinite(func(solution, t))
        assert np.all(np.isfinite(func(solution, np.array([t, 1.0]))))
    else:
        for bad in (t, np.array([1.0, t])):
            with pytest.raises(DomainError):
                func(solution, bad)


def test_time_beyond_the_float_range_raises():
    for func in (quintosc.evaluate, quintosc.derivative):
        with pytest.raises((QuintoscError, TypeError)):
            func(SOLUTION, 10 ** 400)


# Every power of ten a double holds, and the largest round amplitude below the top.
AMPLITUDES = [10.0 ** k for k in range(-300, 309)] + [1.7e308]


def test_amplitude_sweep_is_finite_or_raises():
    """Catalogue coefficients and relativistic times: finite values or a QuintoscError."""
    bad = []
    for a in AMPLITUDES:
        rel = models.OscillatorModel(models.RELATIVISTIC, a=a)
        calls = {
            "exact_period": lambda: [models.exact_period(rel).value],
            "time_integral_psi": lambda: [models.time_integral_psi(rel, u) for u in (0.0, 1e-9, 0.5, -0.5, 1.0 - 1e-12)],
            **{kind: lambda kind=kind: chebyshev.model_coefficients(models.OscillatorModel(kind, a=a, b=0.5)).as_tuple()
               for kind in (models.RELATIVISTIC, models.CABLE_MASS, models.DUFFING_RELATIVISTIC)},
        }
        for name, call in calls.items():
            try:
                values = call()
            except QuintoscError:
                continue
            if not all(map(math.isfinite, values)):
                bad.append(f"{name} at a={a!r}: {values}")
    assert not bad, "\n".join(bad)


EXTREME_MODELS = [model(kind, x, y) for kind in models.KINDS for x in EXTREMES for y in EXTREMES]


def squares_overflow(m):
    """A catalogue model whose a*a overflows: validate_params accepts it, but its force squares a*u."""
    return m.kind != models.GENERIC and not quintosc.validate_params(m) and not math.isfinite(m.a * m.a)


@pytest.mark.parametrize("func", [quintosc.restoring_force, quintosc.potential_phi])
def test_force_and_potential_are_finite_or_raise(func):
    """On each EXTREMES model over [-1, 1]: finite values, and a DomainError for a model validate_params rejects."""
    bad = []
    for m in EXTREME_MODELS:
        if squares_overflow(m):
            continue  # test_force_and_potential_overflow_for_huge_a
        for u in (0.0, -1.0, 0.5, np.linspace(-1.0, 1.0, 9)):
            try:
                values = func(m, u)
            except QuintoscError:
                assert quintosc.validate_params(m)
                continue
            if quintosc.validate_params(m) or not np.all(np.isfinite(values)):
                bad.append(f"{m} at u={u}: {values}")
    assert not bad, "\n".join(bad)


@pytest.mark.xfail(raises=RuntimeWarning, strict=True,
                   reason="models._sqrt_term squares a*u, which overflows for a > ~1.34e154 (CHANGES.md FOUND)")
@pytest.mark.parametrize("func", [quintosc.restoring_force, quintosc.potential_phi])
def test_force_and_potential_overflow_for_huge_a(func):
    for m in filter(squares_overflow, EXTREME_MODELS):
        assert np.all(np.isfinite(func(m, np.linspace(-1.0, 1.0, 9))))



# A generic spec spread over 10^-135 to 10^282: dividing its G' by the leading coefficient overflows.  Every call
# that takes a model returns or raises a QuintoscError, with no RuntimeWarning, with or without a 0.0 appended.
SPREAD = (-1.5090182632991618e+232, 3.029848768182759e-28, -3.534007795185732e+23, -1.9655825344578086e+282,
          -3.889393285879125e-135)
MODEL_CALLS = {
    "exact_period": quintosc.exact_period,
    "model_coefficients": quintosc.model_coefficients,
    "potential_phi": lambda m: quintosc.potential_phi(m, np.linspace(-1.0, 1.0, 9)),
    "quintify": quintosc.quintify,
    "residual_sup_norm": lambda m: quintosc.residual_sup_norm(m, SOLUTION),
    "restoring_force": lambda m: quintosc.restoring_force(m, np.linspace(-1.0, 1.0, 9)),
    "time_integral_psi": lambda m: quintosc.time_integral_psi(m, 0.0),
    "validate_params": quintosc.validate_params,
}


@pytest.mark.parametrize("spec", [SPREAD, SPREAD + (0.0,)], ids=["spread", "spread+0"])
@pytest.mark.parametrize("name", sorted(MODEL_CALLS))
def test_spread_generic_spec_raises_only_package_errors(name, spec):
    generic = quintosc.OscillatorModel(models.GENERIC, force_spec=spec)
    assert quintosc.validate_params(generic) == []
    with deadline(5.0):
        try:
            MODEL_CALLS[name](generic)
        except QuintoscError:
            pass
