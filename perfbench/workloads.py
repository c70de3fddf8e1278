"""Seeded workloads of the quintosc benchmark: inputs, items and checks.

Every workload is a closed loop with one caller: the next item starts
only when the previous one has finished.  Item ``i`` of a workload is a
pure function of ``(seed, i)``, so a run can be replayed item by item and
the library receives only the generated inputs.

The benchmark calls the public functions of ``elliptic``, ``chebyshev``,
``quintic``, ``models``, ``validation`` and ``cli`` from outside the
package, through ``Runner.call``, which records a span around each call
when the run is traced.  Checks run after the item, untimed.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from quintosc import chebyshev, elliptic, models, quintic, validation

ROOT = Path(__file__).resolve().parent.parent

WHY = {
    "catalogue": (
        "one model per item through the cli sweep row chain plus 4 scalar evaluate/derivative queries; "
        "time goes to chebyshev, models, quintic.solve, validation and call overhead; all exact_period routes run"
    ),
    "trajectory": (
        "one raw triple per item, then u and u' on a 10000-point batch spanning 64 periods; time goes to "
        "elliptic.jacobi_sn_cn_dn and quintic.evaluate/derivative per point, models and chebyshev are bypassed"
    ),
    "cli": (
        "one fresh-interpreter python -m quintosc.cli call per item over the north-star commands; "
        "the only workload where import cost and CLI text formatting dominate"
    ),
}

CATALOGUE_KINDS = models.KINDS
A_RANGE = (0.05, 30.0)  # crosses the a <= 0.25 series branch, the duffing case switch and large a
B_RANGE = (0.05, 2.0)
SERIES_CUTOFF = 0.25  # closed_form_moments switches to its binomial series at or below this a
RESIDUAL_GRID = 4001
QUERY_TIMES = 4

TRAJECTORY_POINTS = 10_000
TRAJECTORY_PERIODS = 64
LAMBDA_RANGE = (1e-6, 1e6)
RK_SHARE = 0.01  # share of trajectory items also checked against the DOP853 oracle

CLI_MIX = ("coeffs", "period", "solve", "table", "sweep")
CLI_SAMPLES = 100_001
CLI_SWEEP_STEPS = (100, 10)  # a steps x b steps = 1000 rows

# Tolerances of the checks, each with the worst value a probe saw.
TOL_PERIOD_QUAD = 1e-9  # solve(c).period against period_by_quadrature(c); seen 4e-11
TOL_PSI = 1e-9  # 4 * time_integral_psi(model, 0) against exact_period; seen 1e-15
TOL_RATIO = 5e-3  # |T_exact / T_quintic - 1|, the paper's few parts in 10^3; seen 5.6e-4
TOL_SCALE = 1e-12  # period(lambda c) * sqrt(lambda) against period(c); seen 1e-15
TOL_ORACLE = 1e-8  # closed form against rk_oracle(tol=1e-12) over two periods; seen 1.4e-12
TOL_START = 1e-12  # first u printed by cli solve against 1
# evaluate returns u = +-sqrt(u^2), so where u crosses zero a rounding error
# of u^2 near 1e-16 shows as an error near 1e-8 in u; away from this band
# the same rounding costs at most about 1e-16 / (2 * ZERO_BAND) = 5e-11.
ZERO_BAND = 1e-6

_WORKLOAD_IDS = {"catalogue": 1, "trajectory": 2, "cli": 3}


class CheckFailed(Exception):
    """An item returned a result that misses the benchmark's check."""


class ZeroCrossingPrecision(CheckFailed):
    """The trajectory misses the oracle only within ZERO_BAND of a zero crossing."""


class Runner:
    """Calls into the library, recording spans when ``traced`` is set.

    A span is (name, start, end, parent, item, points); ``parent`` is the
    index of the item's own span and ``points`` the batch size of a
    per-point call.  Spans stay in memory until the run ends.  ``current``
    names the call in flight, so a failure can be charged to its layer.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple] = []
        self.item = -1
        self.parent = None
        self.current = ""

    def call(self, name, fn, *args, route=None, points=0):
        self.current = name
        if not self.traced:
            return fn(*args)
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        label = f"{name}.{route(out)}" if route else name
        self.spans.append((label, start, end, self.parent, self.item, points))
        return out

    def open_item(self, item: int) -> None:
        self.item = item
        if self.traced:
            self.parent = len(self.spans)
            self.spans.append(None)
        self._start = time.perf_counter()

    def close_item(self, workload: str) -> float:
        end = time.perf_counter()
        if self.traced:
            self.spans[self.parent] = (f"item.{workload}", self._start, end, None, self.item, 0)
        return end - self._start


def _rng(workload: str, seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_IDS[workload], i])


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- catalogue

def catalogue_input(seed: int, i: int) -> dict:
    rng = _rng("catalogue", seed, i)
    kind = CATALOGUE_KINDS[i % len(CATALOGUE_KINDS)]
    a = _log_uniform(rng, *A_RANGE)
    b = rng.uniform(*B_RANGE)
    if kind == models.GENERIC:
        # 1-4 negative odd-polynomial coefficients make a valid restoring force.
        spec = tuple(-rng.uniform(*B_RANGE, size=int(rng.integers(1, 5))))
        model = models.OscillatorModel(kind, force_spec=spec)
        tag = f"generic/{len(spec)}-coefficient"
    elif kind == models.RELATIVISTIC:
        model = models.OscillatorModel(kind, a=a)
        tag = kind
    else:
        model = models.OscillatorModel(kind, a=a, b=b)
        tag = kind
    return {"model": model, "times": rng.uniform(0.0, 20.0, QUERY_TIMES), "tag": tag}


def _coefficient_route(model: models.OscillatorModel):
    def route(c: chebyshev.QuinticCoefficients) -> str:
        if c.provenance == "closed_form" and model.a <= SERIES_CUTOFF:
            return "series"
        return c.provenance
    return route


def catalogue_item(run: Runner, inp: dict) -> dict:
    """The chain cli sweep runs for one row, then scalar trajectory queries."""
    model = inp["model"]
    problems = run.call("models.validate_params", models.validate_params, model)
    c = run.call("chebyshev.model_coefficients", chebyshev.model_coefficients, model,
                 route=_coefficient_route(model))
    sol = run.call("quintic.solve", quintic.solve, c)
    exact = run.call("models.exact_period", models.exact_period, model, route=lambda e: e.method)
    report = run.call("validation.residual_sup_norm", validation.residual_sup_norm, model, sol, RESIDUAL_GRID)
    u, du = [], []
    for t in inp["times"]:
        u.append(run.call("quintic.evaluate.scalar", quintic.evaluate, sol, float(t)))
        du.append(run.call("quintic.derivative.scalar", quintic.derivative, sol, float(t)))
    return {"problems": problems, "c": c, "sol": sol, "exact": exact, "report": report, "u": u, "du": du}


def catalogue_check(inp: dict, out: dict) -> None:
    model, sol, exact = inp["model"], out["sol"], out["exact"]
    if out["problems"]:
        raise CheckFailed(f"validate_params rejected a valid model: {out['problems']}")
    ref = quintic.period_by_quadrature(out["c"])
    if not abs(sol.period / ref - 1.0) <= TOL_PERIOD_QUAD:
        raise CheckFailed(f"solve period {sol.period!r} vs period_by_quadrature {ref!r}")
    if model.kind in (models.RELATIVISTIC, models.CABLE_MASS):
        psi = 4.0 * models.time_integral_psi(model, 0.0)
        if not abs(psi / exact.value - 1.0) <= TOL_PSI:
            raise CheckFailed(f"exact_period {exact.value!r} vs 4*time_integral_psi {psi!r}")
    if not abs(exact.value / sol.period - 1.0) <= TOL_RATIO:
        raise CheckFailed(f"period ratio {exact.value / sol.period!r} misses 1 by more than {TOL_RATIO}")
    if not math.isfinite(out["report"].sup_norm):
        raise CheckFailed("residual sup norm is not finite")
    times = np.asarray(inp["times"])
    if (quintic.evaluate(sol, times).tolist() != out["u"]
            or quintic.derivative(sol, times).tolist() != out["du"]):
        raise CheckFailed("scalar evaluate/derivative differs from the batch value at the same t")


def catalogue_replay(run: Runner, inp: dict, out: dict) -> None:
    """Time inner public calls again on the item's own arguments (traced runs only)."""
    model, sol = inp["model"], out["sol"]
    t = float(inp["times"][0])
    run.call("elliptic.jacobi_sn_cn_dn.scalar", elliptic.jacobi_sn_cn_dn, t, sol.params.m)
    grid = np.linspace(0.0, 0.25 * sol.period, RESIDUAL_GRID)
    run.call("validation.residual_sup_norm.evaluate", quintic.evaluate, sol, grid, points=RESIDUAL_GRID)
    run.call("models.restoring_force", models.restoring_force, model, np.linspace(0.0, 1.0, RESIDUAL_GRID),
             points=RESIDUAL_GRID)
    if model.kind != models.GENERIC and model.a > SERIES_CUTOFF:
        # closed_form_moments evaluates K and E at m = a^2 / (1 + a^2).
        m = model.a ** 2 / (1.0 + model.a ** 2)
        run.call("elliptic.complete_K", elliptic.complete_K, m)
        run.call("elliptic.complete_E", elliptic.complete_E, m)
    if model.kind == models.CABLE_MASS:
        # The cable-mass period is (1 + J) Pi(n, m) - K(m) with these n, m < 0,
        # evaluated through R_F(0, 1 - m, 1) and R_J(0, 1 - m, 1, 1 - n).
        J = math.hypot(1.0, model.a)
        n = 0.5 * (1.0 - J)
        m = n * (model.b - n) / (J + model.b)
        run.call("elliptic.carlson_rf", elliptic.carlson_rf, 0.0, 1.0 - m, 1.0)
        run.call("elliptic.carlson_rj", elliptic.carlson_rj, 0.0, 1.0 - m, 1.0, 1.0 - n)


# --------------------------------------------------------------- trajectory

def paper_case(c) -> str | None:
    """Case I or II of the paper for a triple, coded apart from quintic.classify.

    h2(s) = (6c1 + 3c3 + 2c5) + (3c3 + 2c5)*s + 2c5*s^2 must stay positive on
    [0, 1]: Case I when it has no real root (delta < 0), Case II when both
    roots are negative (positive constant and linear coefficients).
    """
    c1, c3, c5 = c
    if not c5 > 0.0:
        return None
    delta = 3.0 * c3 * c3 - 4.0 * c5 * (4.0 * c1 + c3 + c5)
    if delta < 0.0:
        return "I"
    if delta > 0.0 and 6.0 * c1 + 3.0 * c3 + 2.0 * c5 > 0.0 and 3.0 * c3 + 2.0 * c5 > 0.0:
        return "II"
    return None


def reference_period(c) -> float:
    """T = 2*sqrt(6) * integral_0^pi d theta / sqrt(h2(sin^2 theta)) by the periodic trapezoid rule."""
    c1, c3, c5 = c
    s = np.sin(np.linspace(0.0, math.pi, 256, endpoint=False)) ** 2
    h2 = (6.0 * c1 + 3.0 * c3 + 2.0 * c5) + (3.0 * c3 + 2.0 * c5) * s + 2.0 * c5 * s * s
    return 2.0 * math.sqrt(6.0) * math.pi * float(np.mean(1.0 / np.sqrt(h2)))


def trajectory_input(seed: int, i: int) -> dict:
    rng = _rng("trajectory", seed, i)
    while True:
        c = rng.normal(size=3)
        c[2] = abs(c[2])
        c /= np.linalg.norm(c)
        case = paper_case(c)
        if case:
            break
    lam = _log_uniform(rng, *LAMBDA_RANGE)
    phases = np.sort(rng.uniform(0.0, TRAJECTORY_PERIODS, TRAJECTORY_POINTS))
    times = phases * (reference_period(c) / math.sqrt(lam))
    return {"unit": tuple(float(x) for x in c), "lam": lam, "case": case, "times": times,
            "oracle": bool(rng.random() < RK_SHARE), "tag": "lambda<1e-3" if lam < 1e-3 else "lambda>=1e-3"}


def trajectory_item(run: Runner, inp: dict) -> dict:
    triple = tuple(inp["lam"] * x for x in inp["unit"])
    sol = run.call("quintic.solve", quintic.solve, triple)
    u = run.call("quintic.evaluate", quintic.evaluate, sol, inp["times"], points=TRAJECTORY_POINTS)
    du = run.call("quintic.derivative", quintic.derivative, sol, inp["times"], points=TRAJECTORY_POINTS)
    return {"triple": triple, "sol": sol, "u": u, "du": du}


def trajectory_check(inp: dict, out: dict) -> None:
    sol, u, du = out["sol"], out["u"], out["du"]
    if sol.case != inp["case"]:
        raise CheckFailed(f"solve gave Case {sol.case}, the paper's conditions give Case {inp['case']}")
    unit = quintic.solve(inp["unit"]).period
    scaled = sol.period * math.sqrt(inp["lam"])
    if not abs(scaled / unit - 1.0) <= TOL_SCALE:
        raise CheckFailed(f"period(lambda c) * sqrt(lambda) = {scaled!r} vs period(c) = {unit!r}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du)) and np.max(np.abs(u)) <= 1.0 + 1e-9):
        raise CheckFailed("trajectory batch is not finite or leaves [-1, 1]")
    if inp["oracle"]:
        c1, c3, c5 = out["triple"]
        oracle = validation.rk_oracle(lambda x: -(c1 * x + c3 * x ** 3 + c5 * x ** 5), 2.0 * sol.period, tol=1e-12)
        gap = validation.compare_trajectories(sol, oracle)
        if not gap <= TOL_ORACLE:
            away = np.abs(oracle.values) > ZERO_BAND
            gaps = np.abs(quintic.evaluate(sol, oracle.times) - oracle.values)
            kind = ZeroCrossingPrecision if np.max(gaps[away]) <= TOL_ORACLE else CheckFailed
            raise kind(f"closed form departs from the DOP853 oracle by {gap!r}")


def trajectory_replay(run: Runner, inp: dict, out: dict) -> None:
    m = out["sol"].params.m
    u = np.linspace(0.0, 4.0 * TRAJECTORY_PERIODS * elliptic.complete_K(m), TRAJECTORY_POINTS)
    run.call("elliptic.jacobi_sn_cn_dn", elliptic.jacobi_sn_cn_dn, u, m, points=TRAJECTORY_POINTS)


# ---------------------------------------------------------------------- cli

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_input(seed: int, i: int) -> dict:
    """One command of the fixed mix; the seed sets the model parameters.

    The model kind of each command is fixed so that every run does the
    same kind of work; the known model-level defects are counted on the
    catalogue workload, which draws every kind.
    """
    rng = _rng("cli", seed, i)
    command = CLI_MIX[i % len(CLI_MIX)]
    a = repr(_log_uniform(rng, *A_RANGE))
    b = repr(rng.uniform(*B_RANGE))
    if command == "coeffs":
        args = ["coeffs", "--model", "cable-mass", "--a", a, "--b", b]
    elif command == "period":
        args = ["period", "--model", "duffing-relativistic", "--a", a, "--b", b]
    elif command == "solve":
        args = ["solve", "--model", "relativistic", "--a", a, "--samples", str(CLI_SAMPLES)]
    elif command == "table":
        args = ["table", "1"]
    else:
        a_min = _log_uniform(rng, 0.05, 10.0)
        b_min = rng.uniform(0.05, 1.0)
        args = ["sweep", "--model", "duffing-relativistic",
                "--a-min", repr(a_min), "--a-max", repr(a_min * rng.uniform(1.5, 3.0)),
                "--a-steps", str(CLI_SWEEP_STEPS[0]),
                "--b-min", repr(b_min), "--b-max", repr(b_min + rng.uniform(0.2, 1.0)),
                "--b-steps", str(CLI_SWEEP_STEPS[1])]
    return {"command": command, "args": args, "tag": command}


def _run_cli(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, "-m", "quintosc.cli", *args], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, check=False)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def cli_item(run: Runner, inp: dict) -> dict:
    return run.call(f"cli.{inp['command']}", _run_cli, inp["args"])


def cli_check(inp: dict, out: dict) -> None:
    if out["code"] != 0:
        raise CheckFailed(f"{inp['command']} exited {out['code']}: {out['stderr'].strip()[-200:]}")
    lines = out["stdout"].splitlines()
    if inp["command"] == "solve":
        if len(lines) != CLI_SAMPLES + 1:
            raise CheckFailed(f"solve printed {len(lines) - 1} rows, asked for {CLI_SAMPLES}")
        if not abs(float(lines[1].split(",")[1]) - 1.0) <= TOL_START:
            raise CheckFailed(f"solve starts at u = {lines[1].split(',')[1]}, not 1")
    elif inp["command"] == "sweep":
        rows = lines[1:]
        expected = CLI_SWEEP_STEPS[0] * CLI_SWEEP_STEPS[1]
        if len(rows) != expected or any(row.rsplit(",", 1)[-1] != "ok" for row in rows):
            raise CheckFailed(f"sweep gave {len(rows)} rows, not {expected} rows all with status ok")
    elif inp["command"] == "period":
        ratio = float(lines[1].split(",")[2])
        if not abs(ratio - 1.0) <= TOL_RATIO:
            raise CheckFailed(f"period ratio {ratio!r} misses 1 by more than {TOL_RATIO}")


def facts(workload: str, inp: dict, out: dict | None) -> tuple[list[tuple[str, object]], float | None]:
    """Properties of one item to count, as (property, value) pairs, and its elliptic parameter m."""
    sol = out.get("sol") if out else None
    pairs: list[tuple[str, object]] = [("tag", inp["tag"])]
    if sol:
        pairs += [("case", sol.case), ("nudged", sol.nudge != 0.0)]
    if workload == "catalogue":
        model = inp["model"]
        pairs.append(("kind", model.kind))
        if model.kind != models.GENERIC:
            pairs += [("a<=0.25", model.a <= SERIES_CUTOFF), ("a>=8", model.a >= 8.0)]
        if out:
            pairs.append(("exact_period_route", out["exact"].method))
    elif workload == "trajectory":
        pairs += [("paper_case", inp["case"]), ("lambda<1e-3", inp["lam"] < 1e-3), ("oracle", inp["oracle"])]
    else:
        args = inp["args"]
        pairs.append(("command", inp["command"]))
        for k, arg in enumerate(args):
            if arg in ("--a", "--a-min", "--a-max"):
                pairs += [("a<=0.25", float(args[k + 1]) <= SERIES_CUTOFF), ("a>=8", float(args[k + 1]) >= 8.0)]
        if out and inp["command"] == "sweep":
            pairs += [("sweep_case", row.split(",")[6]) for row in out["stdout"].splitlines()[1:]]
    return pairs, sol.params.m if sol else None


WORKLOADS = {
    "catalogue": (catalogue_input, catalogue_item, catalogue_check, catalogue_replay),
    "trajectory": (trajectory_input, trajectory_item, trajectory_check, trajectory_replay),
    "cli": (cli_input, cli_item, cli_check, None),
}

# Failures the program is known to produce on these inputs (ROADMAP
# direction 4): the harmonic generic model and small-scale raw triples
# both raise ConstructionError from quintic.solve, and near a zero crossing
# evaluate loses precision (see ZERO_BAND).  They count as failed items;
# any other failure makes the run incorrect.
KNOWN_FAILURES = {("quintic.solve", "ConstructionError"), ("check", "ZeroCrossingPrecision")}


def fingerprint(workload: str, out: dict) -> str:
    """A digest of an item's outputs, to tell a repeat of the item from its first run."""
    if workload == "catalogue":
        data = repr((out["problems"], out["c"], out["sol"], out["exact"], out["report"].sup_norm,
                     out["u"], out["du"])).encode()
    elif workload == "trajectory":
        data = repr(out["sol"]).encode() + out["u"].tobytes() + out["du"].tobytes()
    else:
        data = f"{out['code']}\n{out['stdout']}".encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def run_one(workload: str, run: Runner, item: int, inp: dict,
            checked: bool = True) -> tuple[float, dict | None, tuple | None, object]:
    """Run one item; return its timed duration, its output, its failure and its outcome.

    A failure is (layer, error class, message); a missed check has layer
    "check".  The duration covers the item's library calls, not the check.
    ``checked=False`` skips the check.  The outcome is the output's
    fingerprint, or (layer, error class) when the item raised, so that a
    repeat of the item can be compared with its first run.
    """
    _, do_item, check, _ = WORKLOADS[workload]
    run.open_item(item)
    try:
        out = do_item(run, inp)
    except Exception as exc:  # the benchmark records every failure and keeps going
        failure = (run.current, type(exc).__name__, str(exc)[:200])
        return run.close_item(workload), None, failure, failure[:2]
    elapsed = run.close_item(workload)
    failure = None
    if checked:
        try:
            check(inp, out)
        except Exception as exc:  # a check that cannot run on the output is a missed check too
            failure = ("check", type(exc).__name__, str(exc)[:200])
    return elapsed, out, failure, fingerprint(workload, out)


def is_known(failure: tuple) -> bool:
    return (failure[0], failure[1]) in KNOWN_FAILURES

