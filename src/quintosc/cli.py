"""Command-line front end.

Commands expose the library pipeline (projection coefficients, closed-form
solving, periods, validation tables, parameter sweeps) and emit CSV or
JSON suitable for external plotting.  Output is deterministic: the same
configuration produces byte-identical text.

Exit codes: 0 on success, 1 when a requested check fails or a computation
cannot be completed, 2 for invalid arguments or parameter domains.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import __version__, models, quintic
from .chebyshev import QuinticCoefficients, model_coefficients, project_odd_quintic
from .errors import QuintoscError
from .validation import _residual, quintify

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


def _case_label(case: str) -> str:
    return f"Case {case}" if case in (quintic.CASE_I, quintic.CASE_II) else case


def _quote(text: str) -> str:
    """A text cell, quoted (RFC 4180) when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(columns, rows) -> str:
    """CSV text: a float array as one table, else cells as text, numbers as _FLOAT, None as empty."""
    head = ",".join(columns) + "\n"
    if isinstance(rows, np.ndarray):
        # One '%' over the flattened table leaves only the float-to-text work;
        # a format() call per cell took twice as long at 100 001 samples.
        return head + ((",".join([_FLOAT] * len(columns)) + "\n") * len(rows)) % tuple(rows.ravel().tolist())
    return head + "".join(
        ",".join("" if x is None else _quote(x) if isinstance(x, str) else _FLOAT % float(x) for x in row) + "\n"
        for row in rows)


def _build_model(kind: str | None, a: float | None, b: float | None,
                 force_spec: str | None) -> models.OscillatorModel:
    if kind is None:
        raise click.UsageError("a --model is required here")
    try:
        spec = tuple(float(part) for part in force_spec.split(",")) if force_spec is not None else None
    except ValueError:
        raise click.UsageError(f"--force-spec must be comma-separated numbers, got {force_spec!r}")
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


@click.group()
@click.version_option(__version__)
def main():
    """Quintic approximation of odd nonlinear oscillators."""


def _command(f):
    """Register f, which returns (config, results, columns, rows), as a subcommand of main.

    Adds --format/--out, writes CSV or the JSON envelope, turns a QuintoscError
    into "Error: <message>" with exit 1, and exits 1 after a table whose
    all_pass is false.
    """
    @functools.wraps(f)
    def run(fmt, out, **params):
        try:
            config, results, columns, rows = f(**params)
        except QuintoscError as exc:
            raise click.ClickException(str(exc))
        if fmt == "json":
            import scipy  # imported here: only the JSON versions field needs scipy

            versions = {"quintosc": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
            payload = {"config": {"command": f.__name__, **config}, "results": results, "versions": versions}
            text = json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
        else:
            text = _csv(columns, rows)
        with click.open_file(out or "-", "w") as fh:
            fh.write(text)
        if isinstance(results, dict) and results.get("all_pass") is False:
            sys.exit(1)

    cmd = main.command()(run)
    cmd.params += [
        click.Option(["--out"], type=click.Path(dir_okay=False, writable=True), help="Write output here instead of stdout."),
        click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="csv", show_default=True),
    ]
    return cmd


@_command
@model_options
@click.option("--nodes", type=click.IntRange(min=16), default=64, show_default=True, help="Gauss-Chebyshev node count.")
def coeffs(model, a, b, force_spec, nodes):
    """Quintic coefficients by both routes, discriminant and case."""
    osc = _build_model(model, a, b, force_spec)
    closed = model_coefficients(osc)
    quadr = project_odd_quintic(lambda u: models.restoring_force(osc, u), nodes)
    diff = tuple(x - y for x, y in zip(closed.as_tuple(), quadr.as_tuple()))
    triples = {"closed_form": closed.as_tuple(), "quadrature": quadr.as_tuple(), "difference": diff}
    results = {name: dict(zip(("c1", "c3", "c5"), triple)) for name, triple in triples.items()}
    results.update(provenance=closed.provenance, discriminant=quintic.discriminant(closed),
                   case=_case_label(quintic.classify(closed)))
    rows = [(f"{name}_{label}", value) for name in triples for label, value in results[name].items()]
    rows += [("discriminant", results["discriminant"]), ("case", results["case"])]
    return {**_model_config(osc), "nodes": nodes}, results, ("quantity", "value"), rows


@_command
@model_options
@click.option("--c1", type=float, default=None, help="Raw quintic coefficient (bypasses --model).")
@click.option("--c3", type=float, default=None)
@click.option("--c5", type=float, default=None)
@click.option("--samples", type=click.IntRange(min=2), default=1000, show_default=True, help="Samples over one period.")
def solve(model, a, b, force_spec, c1, c3, c5, samples):
    """Trajectory of the solved quintic over one period."""
    raw = [x is not None for x in (c1, c3, c5)]
    if model is None and all(raw):
        osc = None
        coefficients = QuinticCoefficients(c1, c3, c5)
        config = {"c1": c1, "c3": c3, "c5": c5}
    elif model is not None and not any(raw):
        osc = _build_model(model, a, b, force_spec)
        coefficients = model_coefficients(osc)
        config = _model_config(osc)
    else:
        raise click.UsageError("give either --model or the full raw triple --c1 --c3 --c5")
    solution = quintic.solve(coefficients)
    t = np.arange(samples) * (solution.period / (samples - 1))
    u, du = quintic.evaluate(solution, t), quintic.derivative(solution, t)
    columns = ("t", "u", "u_dot", "residual")
    table = np.column_stack([t, u, du, _residual(osc, solution.coefficients, u)])
    results = {"case": _case_label(solution.case), "period": solution.period, "columns": columns, "rows": table}
    return {**config, "samples": samples}, results, columns, table


@_command
@model_options
def period(model, a, b, force_spec):
    """Exact period, quintication period and their ratio."""
    osc = _build_model(model, a, b, force_spec)
    exact = models.exact_period(osc)
    approx = quintic.solve(model_coefficients(osc)).period
    ratio = exact.value / approx
    results = {"exact": exact.value, "method": exact.method, "quintic": approx, "ratio": ratio}
    return _model_config(osc), results, ("exact", "quintic", "ratio"), [(exact.value, approx, ratio)]


@_command
@click.argument("which", type=click.IntRange(1, 3))
def table(which):
    """Reproduce published residual table 1, 2 or 3 cell by cell."""
    kind, cells = TABLE_REFERENCE[which]
    columns = ("a", "b", "computed", "reference", "difference", "status")
    rows = []
    for a, b, reference in cells:
        sup = quintify(models.OscillatorModel(kind, a=a, b=b if b is not None else 0.0)).residual.sup_norm
        difference = abs(sup - reference)
        rows.append((a, b, sup, reference, difference, "pass" if difference <= TABLE_TOLERANCE else "fail"))
    results = {"tolerance": TABLE_TOLERANCE, "cells": [dict(zip(columns, row)) for row in rows],
               "all_pass": all(row[5] == "pass" for row in rows)}
    return {"which": which, "model": kind}, results, columns, rows


@_command
@click.option("--model", type=click.Choice([models.RELATIVISTIC, models.CABLE_MASS, models.DUFFING_RELATIVISTIC]),
              required=True)
@click.option("--a-min", type=float, required=True)
@click.option("--a-max", type=float, required=True)
@click.option("--a-steps", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--b-min", type=float, default=None)
@click.option("--b-max", type=float, default=None)
@click.option("--b-steps", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--b", type=float, default=None, help="Single b value (alternative to a b range).")
def sweep(model, a_min, a_max, a_steps, b_min, b_max, b_steps, b):
    """Coefficients, case, periods and residual over a parameter grid."""
    if not 0.0 < a_min <= a_max:
        raise click.UsageError("need 0 < --a-min <= --a-max")
    a_values = np.linspace(a_min, a_max, a_steps)
    if model == models.RELATIVISTIC:
        b_values = [0.0]
    elif b_min is not None and b_max is not None:
        if not 0.0 < b_min <= b_max:
            raise click.UsageError("need 0 < --b-min <= --b-max")
        b_values = list(np.linspace(b_min, b_max, b_steps))
    elif b is not None:
        b_values = [b]
    else:
        raise click.UsageError(f"--model {model} needs --b or a --b-min/--b-max range")
    rows = [_sweep_row(model, float(av), float(bv)) for av in a_values for bv in b_values]
    columns = ("a", "b", "c1", "c3", "c5", "delta", "case", "T_exact", "T_quintic", "ratio", "residual_sup", "status")
    config = {"model": model, "a_min": a_min, "a_max": a_max, "a_steps": a_steps,
              "b_values": [float(x) for x in b_values]}
    return config, [dict(zip(columns, row)) for row in rows], columns, rows


def _sweep_row(kind: str, a: float, b: float) -> tuple:
    try:
        r = quintify(models.OscillatorModel(kind, a=a, b=b))
    except QuintoscError as exc:
        return (a, b, *[None] * 9, str(exc))
    c, exact, period = r.coefficients, r.exact.value, r.solution.period
    return (a, b, c.c1, c.c3, c.c5, r.discriminant, _case_label(r.solution.case), exact, period,
            exact / period, r.residual.sup_norm, "ok")


if __name__ == "__main__":
    main()
