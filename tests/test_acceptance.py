"""Acceptance checks for the full quintication pipeline.

Each test covers one headline requirement and prints a single PASS/FAIL
line so a run of this module reads as a checklist.  Reference numbers are
published table values or frozen outputs of independent oracles; the
comparisons here are end to end, from model definition down to elliptic
kernels.
"""

import math
import time

import numpy as np

from quintosc import elliptic, models, quintic, validation
from quintosc.chebyshev import model_coefficients, project_odd_quintic

TABLE_1 = [(1.0, 0.0013005), (2.0, 0.0109030), (3.0, 0.0219219),
           (8.0, 0.0375439), (20.0, 0.0278857), (30.0, 0.0216839)]
TABLE_2 = [(0.95, 0.5, 0.000487249), (1.3, 0.7, 0.00229373), (1.69, 1.0, 0.00724625)]
TABLE_3 = [(1.0, 0.5, 0.00064411), (1.4, 0.7, 0.00298016), (1.7, 1.0, 0.00737777)]
TABLE_TOLERANCE = 1e-5


def _report(name: str, failures: list, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"{name}: {status}{tail}")
    assert not failures, "\n".join(failures)


def _sup_norm(kind: str, a: float, b: float = 0.0) -> float:
    model = models.OscillatorModel(kind, a=a, b=b)
    solution = quintic.solve(model_coefficients(model))
    return validation.residual_sup_norm(model, solution).sup_norm


def _table_failures(kind: str, cells) -> list:
    failures = []
    for cell in cells:
        a, b, reference = cell if len(cell) == 3 else (cell[0], 0.0, cell[1])
        computed = _sup_norm(kind, a, b)
        difference = abs(computed - reference)
        if difference > TABLE_TOLERANCE:
            failures.append(f"a={a} b={b}: computed {computed:.9f}, "
                            f"reference {reference:.9f}, difference {difference:.2e}")
    return failures


def test_criterion_1_relativistic_residual_table():
    start = time.perf_counter()
    failures = _table_failures("relativistic", TABLE_1)
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report("criterion 1 (relativistic residual table)", failures, f"{elapsed:.2f}s")


def test_criterion_2_duffing_residual_table():
    failures = _table_failures("duffing-relativistic", TABLE_2)
    _report("criterion 2 (first duffing residual table)", failures)


def test_criterion_3_duffing_residual_table_alternate():
    failures = _table_failures("duffing-relativistic", TABLE_3)
    _report("criterion 3 (second duffing residual table)", failures)


def test_criterion_4_period_ratio_band():
    start = time.perf_counter()
    amplitudes = np.linspace(30.0 / 300.0, 30.0, 300)
    records = [validation.quintify(models.OscillatorModel("relativistic", a=float(a))) for a in amplitudes]
    ratios = np.array([r.exact.value / r.solution.period for r in records])
    elapsed = time.perf_counter() - start
    failures = []
    if not np.all(ratios >= 0.999):
        failures.append(f"min ratio {ratios.min():.12f} below 0.999")
    if not np.all(ratios <= 1.0006):
        failures.append(f"max ratio {ratios.max():.12f} above 1.0006")
    if amplitudes[int(np.argmax(ratios))] <= 10.0:
        failures.append("worst ratio not in the large-amplitude regime")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _report("criterion 4 (period ratio band)", failures,
            f"max {ratios.max():.9f} at a={amplitudes[int(np.argmax(ratios))]:.1f}, {elapsed:.2f}s")


def _case1_triple(p: float, s: float, c5: float) -> tuple:
    c3 = -(2.0 * c5 / 3.0) * (2.0 * p + 1.0)
    c1 = (c5 / 3.0) * (p * p + s * s + 2.0 * p)
    return (c1, c3, c5)


def _case2_triple(s1: float, s2: float, c5: float) -> tuple:
    c3 = -(2.0 * c5 / 3.0) * (s1 + s2 + 1.0)
    c1 = (c5 / 3.0) * (s1 * s2 + s1 + s2)
    return (c1, c3, c5)


def test_criterion_5_closed_form_against_oracles():
    rng = np.random.default_rng(20260815)
    triples = []
    for _ in range(100):
        triples.append(_case1_triple(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0),
                                     rng.uniform(0.2, 5.0)))
    for _ in range(100):
        s1 = rng.uniform(-6.0, -0.4)
        triples.append(_case2_triple(s1, s1 * rng.uniform(0.05, 0.95),
                                     rng.uniform(0.2, 5.0)))
    failures = []
    for c in triples:
        solution = quintic.solve(c)
        quad = quintic.period_by_quadrature(c)
        period_err = abs(solution.period - quad) / quad
        if period_err > 1e-9:
            failures.append(f"{c}: period off by {period_err:.2e}")
            continue
        c1, c3, c5 = c
        oracle = validation.rk_oracle(lambda u: -(c1 * u + c3 * u ** 3 + c5 * u ** 5),
                                      solution.period, tol=1e-10)
        gap = validation.compare_trajectories(solution, oracle)
        if gap > 1e-7:
            failures.append(f"{c}: trajectory off by {gap:.2e}")
    _report("criterion 5 (closed form vs oracles, 200 random triples)", failures)


def test_criterion_6_elliptic_substrate():
    failures = []
    for m in np.linspace(0.99 / 50.0, 0.99, 50):
        legendre = (elliptic.complete_E(m) * elliptic.complete_K(1.0 - m)
                    + elliptic.complete_E(1.0 - m) * elliptic.complete_K(m)
                    - elliptic.complete_K(m) * elliptic.complete_K(1.0 - m))
        if abs(legendre - math.pi / 2.0) > 1e-12:
            failures.append(f"Legendre relation off by {abs(legendre - math.pi / 2.0):.2e} at m={m:.4f}")
    for m in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
        span = 4.0 * (elliptic.complete_K(m) if m else math.pi / 2.0)
        u = np.linspace(-span, span, 201)
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, m)
        worst = max(np.max(np.abs(sn ** 2 + cn ** 2 - 1.0)),
                    np.max(np.abs(dn ** 2 + m * sn ** 2 - 1.0)))
        if worst > 1e-12:
            failures.append(f"Jacobi identities off by {worst:.2e} at m={m}")
    for m in (0.1, 0.5, 0.9):
        for phi in np.linspace(-math.pi / 2.0, math.pi / 2.0, 41):
            # |phi| <= pi/2 keeps cn >= 0, where atan2(sn, cn) is am itself; both kernels take m1 = 1 - m.
            f = elliptic._legendre_f(math.sin(phi), math.cos(phi) ** 2, 1.0 - m)
            stages, a_n = elliptic._landen(1.0 - m)
            back = math.atan2(*elliptic._gauss(f, 0.5 * a_n, 1.0 - m, stages))
            if abs(back - phi) > 1e-11:
                failures.append(f"am/F round trip off by {abs(back - phi):.2e} at m={m}, phi={phi:.3f}")
    _report("criterion 6 (elliptic substrate)", failures)


def test_criterion_7_projection_route_agreement():
    # At a <= 3.5 the relativistic alphas are sums over the projection's own 64 nodes, so there this
    # checks only the table and the assembly; test_chebyshev's mpmath oracle checks the alphas themselves.
    configs = [("relativistic", a, 0.0) for a in (0.5, 1.0, 2.0, 8.0, 20.0)]
    for kind in ("cable-mass", "duffing-relativistic"):
        configs.extend((kind, a, b) for a in (0.5, 1.0, 2.0, 8.0, 20.0) for b in (0.3, 0.7, 1.0))
    failures = []
    for kind, a, b in configs:
        model = models.OscillatorModel(kind, a=a, b=b)
        closed = model_coefficients(model).as_tuple()
        projected = project_odd_quintic(lambda u: models.restoring_force(model, u)).as_tuple()
        worst = max(abs(x - y) for x, y in zip(closed, projected))
        if worst > 1e-10:
            failures.append(f"{kind} a={a} b={b}: routes differ by {worst:.2e}")
    _report("criterion 7 (closed form vs 64-node projection)", failures)


def _case_boundary(b: float, lo: float, hi: float) -> float:
    def delta(a: float) -> float:
        return quintic.discriminant(model_coefficients(
            models.OscillatorModel("duffing-relativistic", a=a, b=b)))
    assert delta(lo) < 0.0 < delta(hi)
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if delta(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_8_case_boundary_location():
    failures = []
    for b, lo, hi, reference in ((0.5, 0.5, 1.2, 0.95), (1.0, 1.2, 2.2, 1.7)):
        star = _case_boundary(b, lo, hi)
        if abs(star - reference) >= 0.01:
            failures.append(f"b={b}: boundary at a={star:.4f}, expected near {reference}")
        below = quintic.classify(model_coefficients(
            models.OscillatorModel("duffing-relativistic", a=star - 0.02, b=b)))
        above = quintic.classify(model_coefficients(
            models.OscillatorModel("duffing-relativistic", a=star + 0.02, b=b)))
        if (below, above) != (quintic.CASE_I, quintic.CASE_II):
            failures.append(f"b={b}: classifier gave {below}/{above} around the boundary")
    _report("criterion 8 (case boundary location)", failures)
