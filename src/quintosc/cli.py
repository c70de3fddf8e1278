"""Command-line front end.

Commands expose the library pipeline (projection coefficients, closed-form
solving, periods, validation tables, parameter sweeps) and emit CSV or
JSON suitable for external plotting.  Output is deterministic: the same
configuration produces byte-identical text.

Exit codes: 0 on success, 1 when a requested check fails or a computation
cannot be completed, 2 for invalid arguments or parameter domains.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import __version__, models, quintic
from .chebyshev import QuinticCoefficients, model_coefficients, project_odd_quintic, to_monomial
from .errors import QuintoscError
from .validation import _residual, residual_sup_norm

TABLE_REFERENCE = {
    1: ("relativistic", [(1.0, None, 0.0013005), (2.0, None, 0.0109030), (3.0, None, 0.0219219),
                         (8.0, None, 0.0375439), (20.0, None, 0.0278857), (30.0, None, 0.0216839)]),
    2: ("duffing-relativistic", [(0.95, 0.5, 0.000487249), (1.3, 0.7, 0.00229373), (1.69, 1.0, 0.00724625)]),
    3: ("duffing-relativistic", [(1.0, 0.5, 0.00064411), (1.4, 0.7, 0.00298016), (1.7, 1.0, 0.00737777)]),
}
TABLE_TOLERANCE = 1e-5

# The one float format of the CSV output: 17 significant digits round-trip
# every double, and '%' gives the same text as format(x, ".17g").
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _case_label(case: str) -> str:
    return f"Case {case}" if case in (quintic.CASE_I, quintic.CASE_II) else case


def _versions() -> dict:
    import scipy  # imported here: only the JSON versions field needs scipy

    return {"quintosc": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_json(config: dict, results, out: str | None) -> None:
    payload = {"config": config, "results": results, "versions": _versions()}
    _emit(json.dumps(payload, indent=2) + "\n", out)


def _parse_force_spec(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"--force-spec must be comma-separated numbers, got {text!r}")


def _build_model(kind: str | None, a: float | None, b: float | None,
                 force_spec: str | None) -> models.OscillatorModel:
    if kind is None:
        raise click.UsageError("a --model is required here")
    spec = _parse_force_spec(force_spec) if force_spec is not None else None
    if kind != models.GENERIC and spec is not None:
        raise click.UsageError("--force-spec only applies to --model generic")
    model = models.OscillatorModel(kind, a=a if a is not None else 1.0,
                                   b=b if b is not None else 0.0, force_spec=spec)
    problems = models.validate_params(model)
    if problems:
        raise click.UsageError("; ".join(problems))
    return model


def _model_config(model: models.OscillatorModel) -> dict:
    config = {"model": model.kind, "a": model.a, "b": model.b}
    if model.force_spec is not None:
        config["force_spec"] = list(model.force_spec)
    return config


def model_options(f):
    for option in (
        click.option("--model", type=click.Choice(models.KINDS), default=None, help="Oscillator model."),
        click.option("--a", type=float, default=None, help="Amplitude parameter a > 0."),
        click.option("--b", type=float, default=None, help="Force parameter b (cable-mass, duffing-relativistic)."),
        click.option("--force-spec", default=None,
                     help="Odd-polynomial coefficients p0,p1,... meaning p0*u + p1*u^3 + ... (generic model)."),
    ):
        f = option(f)
    return f


def output_options(f):
    for option in (
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
        click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
                     help="Write output here instead of stdout."),
    ):
        f = option(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Quintic approximation of odd nonlinear oscillators."""


@main.command()
@model_options
@click.option("--nodes", type=click.IntRange(min=16), default=64, show_default=True, help="Gauss-Chebyshev node count.")
@output_options
def coeffs(model, a, b, force_spec, nodes, fmt, out):
    """Quintic coefficients by both routes, discriminant and case."""
    osc = _build_model(model, a, b, force_spec)
    try:
        closed = model_coefficients(osc)
        quadr = to_monomial(project_odd_quintic(lambda u: models.restoring_force(osc, u), nodes))
    except QuintoscError as exc:
        raise click.ClickException(str(exc))
    delta = quintic.discriminant(closed)
    case = _case_label(quintic.classify(closed))
    diff = tuple(x - y for x, y in zip(closed.as_tuple(), quadr.as_tuple()))
    if fmt == "json":
        config = {"command": "coeffs", **_model_config(osc), "nodes": nodes}
        results = {
            "closed_form": dict(zip(("c1", "c3", "c5"), closed.as_tuple())),
            "quadrature": dict(zip(("c1", "c3", "c5"), quadr.as_tuple())),
            "difference": dict(zip(("c1", "c3", "c5"), diff)),
            "provenance": closed.provenance,
            "discriminant": delta,
            "case": case,
        }
        _emit_json(config, results, out)
        return
    lines = ["quantity,value"]
    for name, triple in (("closed_form", closed.as_tuple()), ("quadrature", quadr.as_tuple()), ("difference", diff)):
        lines.extend(f"{name}_{label},{_fmt(value)}" for label, value in zip(("c1", "c3", "c5"), triple))
    lines.append(f"discriminant,{_fmt(delta)}")
    lines.append(f"case,{case}")
    _emit("\n".join(lines) + "\n", out)


@main.command()
@model_options
@click.option("--c1", type=float, default=None, help="Raw quintic coefficient (bypasses --model).")
@click.option("--c3", type=float, default=None)
@click.option("--c5", type=float, default=None)
@click.option("--samples", type=int, default=1000, show_default=True, help="Samples over one period.")
@output_options
def solve(model, a, b, force_spec, c1, c3, c5, samples, fmt, out):
    """Trajectory of the solved quintic over one period."""
    if samples < 2:
        raise click.UsageError("--samples must be at least 2")
    raw = [x is not None for x in (c1, c3, c5)]
    if model is None and all(raw):
        osc = None
        coefficients = QuinticCoefficients(c1, c3, c5)
        config = {"command": "solve", "c1": c1, "c3": c3, "c5": c5}
    elif model is not None and not any(raw):
        osc = _build_model(model, a, b, force_spec)
        coefficients = model_coefficients(osc)
        config = {"command": "solve", **_model_config(osc)}
    else:
        raise click.UsageError("give either --model or the full raw triple --c1 --c3 --c5")
    try:
        solution = quintic.solve(coefficients)
    except QuintoscError as exc:
        raise click.ClickException(str(exc))
    step = solution.period / (samples - 1)
    t = np.arange(samples) * step
    u, du = quintic._state(solution, t)
    table = np.column_stack([t, u, du, _residual(osc, solution.solved, u)])
    config["samples"] = samples
    if fmt == "json":
        results = {
            "case": _case_label(solution.case),
            "period": solution.period,
            "columns": ["t", "u", "u_dot", "residual"],
            "rows": table.tolist(),
        }
        _emit_json(config, results, out)
        return
    # One '%' over the flattened table leaves only the float-to-text work;
    # a format() call per cell took twice as long at 100 001 samples.
    row = ",".join([_FLOAT] * 4) + "\n"
    _emit(("t,u,u_dot,residual\n" + row * samples) % tuple(table.ravel().tolist()), out)


@main.command()
@model_options
@output_options
def period(model, a, b, force_spec, fmt, out):
    """Exact period, quintication period and their ratio."""
    osc = _build_model(model, a, b, force_spec)
    try:
        exact = models.exact_period(osc)
        approx = quintic.solve(model_coefficients(osc)).period
    except QuintoscError as exc:
        raise click.ClickException(str(exc))
    ratio = exact.value / approx
    if fmt == "json":
        config = {"command": "period", **_model_config(osc)}
        results = {"exact": exact.value, "method": exact.method, "quintic": approx, "ratio": ratio}
        _emit_json(config, results, out)
        return
    lines = ["exact,quintic,ratio", f"{_fmt(exact.value)},{_fmt(approx)},{_fmt(ratio)}"]
    _emit("\n".join(lines) + "\n", out)


@main.command()
@click.argument("which", type=click.IntRange(1, 3))
@output_options
def table(which, fmt, out):
    """Reproduce published residual table 1, 2 or 3 cell by cell."""
    kind, cells = TABLE_REFERENCE[which]
    rows = []
    for a, b, reference in cells:
        osc = models.OscillatorModel(kind, a=a, b=b if b is not None else 0.0)
        report = residual_sup_norm(osc, quintic.solve(model_coefficients(osc)))
        difference = abs(report.sup_norm - reference)
        rows.append((a, b, report.sup_norm, reference, difference, difference <= TABLE_TOLERANCE))
    all_pass = all(row[5] for row in rows)
    if fmt == "json":
        config = {"command": "table", "which": which, "model": kind}
        results = {
            "tolerance": TABLE_TOLERANCE,
            "cells": [
                {"a": a, "b": b, "computed": sup, "reference": ref, "difference": diff,
                 "status": "pass" if ok else "fail"}
                for a, b, sup, ref, diff, ok in rows
            ],
            "all_pass": all_pass,
        }
        _emit_json(config, results, out)
    else:
        lines = ["a,b,computed,reference,difference,status"]
        for a, b, sup, ref, diff, ok in rows:
            b_text = "" if b is None else _fmt(b)
            lines.append(f"{_fmt(a)},{b_text},{_fmt(sup)},{_fmt(ref)},{_fmt(diff)},{'pass' if ok else 'fail'}")
        _emit("\n".join(lines) + "\n", out)
    if not all_pass:
        sys.exit(1)


@main.command()
@click.option("--model", type=click.Choice([models.RELATIVISTIC, models.CABLE_MASS, models.DUFFING_RELATIVISTIC]),
              required=True)
@click.option("--a-min", type=float, required=True)
@click.option("--a-max", type=float, required=True)
@click.option("--a-steps", type=int, default=30, show_default=True)
@click.option("--b-min", type=float, default=None)
@click.option("--b-max", type=float, default=None)
@click.option("--b-steps", type=int, default=1, show_default=True)
@click.option("--b", type=float, default=None, help="Single b value (alternative to a b range).")
@output_options
def sweep(model, a_min, a_max, a_steps, b_min, b_max, b_steps, b, fmt, out):
    """Coefficients, case, periods and residual over a parameter grid."""
    if not 0.0 < a_min <= a_max or a_steps < 1:
        raise click.UsageError("need 0 < --a-min <= --a-max and --a-steps >= 1")
    a_values = np.linspace(a_min, a_max, a_steps)
    if model == models.RELATIVISTIC:
        b_values = [0.0]
    elif b_min is not None and b_max is not None:
        if not 0.0 < b_min <= b_max or b_steps < 1:
            raise click.UsageError("need 0 < --b-min <= --b-max and --b-steps >= 1")
        b_values = list(np.linspace(b_min, b_max, b_steps))
    elif b is not None:
        b_values = [b]
    else:
        raise click.UsageError(f"--model {model} needs --b or a --b-min/--b-max range")
    rows = []
    for av in a_values:
        for bv in b_values:
            rows.append(_sweep_row(model, float(av), float(bv)))
    if fmt == "json":
        config = {"command": "sweep", "model": model, "a_min": a_min, "a_max": a_max, "a_steps": a_steps,
                  "b_values": [float(x) for x in b_values]}
        keys = ("a", "b", "c1", "c3", "c5", "delta", "case", "T_exact", "T_quintic", "ratio",
                "residual_sup", "status")
        _emit_json(config, [dict(zip(keys, row)) for row in rows], out)
        return
    lines = ["a,b,c1,c3,c5,delta,case,T_exact,T_quintic,ratio,residual_sup,status"]
    for row in rows:
        lines.append(",".join("" if x is None else (x if isinstance(x, str) else _fmt(x)) for x in row))
    _emit("\n".join(lines) + "\n", out)


def _sweep_row(kind: str, a: float, b: float) -> tuple:
    osc = models.OscillatorModel(kind, a=a, b=b)
    problems = models.validate_params(osc)
    if problems:
        return (a, b, None, None, None, None, None, None, None, None, None, "; ".join(problems))
    try:
        c = model_coefficients(osc)
        delta = quintic.discriminant(c)
        case = _case_label(quintic.classify(c))
        exact = models.exact_period(osc).value
        solution = quintic.solve(c)
        sup = residual_sup_norm(osc, solution).sup_norm
        return (a, b, c.c1, c.c3, c.c5, delta, case, exact, solution.period,
                exact / solution.period, sup, "ok")
    except QuintoscError as exc:
        return (a, b, None, None, None, None, None, None, None, None, None, str(exc))


if __name__ == "__main__":
    main()
