"""End-to-end tests for the command line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from quintosc import models, quintic
from quintosc.chebyshev import QuinticCoefficients, model_coefficients
from quintosc.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def csv_rows(output):
    lines = [line for line in output.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestCoeffs:
    def test_relativistic_routes_agree(self, runner):
        result = runner.invoke(main, ["coeffs", "--model", "relativistic", "--a", "1"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["quantity", "value"]
        values = {name: float(value) for name, value in rows if name != "case"}
        case = dict(rows)["case"]
        assert case == "Case I"
        for suffix in ("c1", "c3", "c5"):
            closed = values[f"closed_form_{suffix}"]
            projected = values[f"quadrature_{suffix}"]
            assert abs(closed - projected) < 1e-10
            assert abs(values[f"difference_{suffix}"]) < 1e-10

    def test_duffing_lands_in_case_two(self, runner):
        result = runner.invoke(main, ["coeffs", "--model", "duffing-relativistic",
                                      "--a", "1", "--b", "0.3"])
        assert result.exit_code == 0
        assert dict(csv_rows(result.output)[1])["case"] == "Case II"

    def test_generic_linear_force(self, runner):
        result = runner.invoke(main, ["coeffs", "--model", "generic", "--force-spec", "-1"])
        assert result.exit_code == 0
        values = dict(csv_rows(result.output)[1])
        assert float(values["quadrature_c1"]) == pytest.approx(1.0, abs=1e-12)
        assert float(values["quadrature_c3"]) == pytest.approx(0.0, abs=1e-12)
        assert float(values["quadrature_c5"]) == pytest.approx(0.0, abs=1e-12)

    def test_json_shape(self, runner):
        result = runner.invoke(main, ["coeffs", "--model", "relativistic", "--a", "2",
                                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"config", "results", "versions"}
        assert payload["config"]["model"] == "relativistic"
        assert "quintosc" in payload["versions"]

    def test_too_few_nodes_is_a_usage_error(self, runner):
        # The fixed rule needs at least 16 nodes; an invalid argument exits 2.
        result = runner.invoke(main, ["coeffs", "--model", "relativistic", "--a", "2", "--nodes", "10"])
        assert result.exit_code == 2
        assert "--nodes" in result.output

    def test_deterministic_output(self, runner):
        args = ["coeffs", "--model", "cable-mass", "--a", "1.5", "--b", "0.4"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestSolve:
    def test_raw_triple_trajectory(self, runner):
        result = runner.invoke(main, ["solve", "--c1", "1", "--c3", "2", "--c5", "3",
                                      "--samples", "101"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["t", "u", "u_dot", "residual"]
        assert len(rows) == 101
        t = [float(row[0]) for row in rows]
        u = [float(row[1]) for row in rows]
        period = t[-1]
        for i, ti in enumerate(t):
            assert ti == pytest.approx(i * period / 100.0, rel=1e-12, abs=1e-15)
        assert u[0] == pytest.approx(1.0, abs=1e-12)
        signs = [x for x in u if abs(x) > 1e-9]
        flips = sum(1 for p, q in zip(signs, signs[1:]) if p * q < 0)
        assert flips == 2

    def test_model_residual_column(self, runner):
        result = runner.invoke(main, ["solve", "--model", "relativistic", "--a", "3",
                                      "--samples", "2001"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        worst = max(abs(float(row[3])) for row in rows)
        assert worst == pytest.approx(0.0219219, abs=1e-4)

    def test_unsupported_triple_fails(self, runner):
        result = runner.invoke(main, ["solve", "--c1", "1", "--c3", "1", "--c5", "-1"])
        assert result.exit_code == 1

    def test_model_and_triple_conflict(self, runner):
        result = runner.invoke(main, ["solve", "--model", "relativistic", "--a", "1",
                                      "--c1", "1", "--c3", "2", "--c5", "3"])
        assert result.exit_code == 2

    def test_nothing_given(self, runner):
        result = runner.invoke(main, ["solve"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--model", "relativistic", "--a", "3.1", "--samples", "1001"],
        ["--model", "duffing-relativistic", "--a", "1", "--b", "0.3", "--samples", "1001"],
        ["--c1", "1", "--c3", "2", "--c5", "3", "--samples", "777"],
        ["--model", "relativistic", "--a", "3.1", "--samples", "2"],
    ], ids=["case_one_model", "case_two_model", "raw_triple", "two_samples"])
    def test_csv_matches_row_by_row_rendering(self, runner, args):
        result = runner.invoke(main, ["solve", *args])
        assert result.exit_code == 0
        assert result.output == row_by_row_solve_csv(args)

    def test_out_file_equals_stdout(self, runner, tmp_path):
        args = ["solve", "--model", "relativistic", "--a", "3.1", "--samples", "101"]
        target = tmp_path / "solve.csv"
        assert runner.invoke(main, [*args, "--out", str(target)]).exit_code == 0
        assert target.read_text() == runner.invoke(main, args).output


def row_by_row_solve_csv(args):
    """The solve CSV built cell by cell from the public evaluate/derivative."""
    opts = dict(zip(args[::2], args[1::2]))
    if "--model" in opts:
        osc = models.OscillatorModel(opts["--model"], a=float(opts["--a"]), b=float(opts.get("--b", 0.0)))
        coefficients = model_coefficients(osc)
    else:
        osc = None
        coefficients = QuinticCoefficients(*(float(opts[k]) for k in ("--c1", "--c3", "--c5")))
    samples = int(opts["--samples"])
    solution = quintic.solve(coefficients)
    t = np.arange(samples) * (solution.period / (samples - 1))
    u = quintic.evaluate(solution, t)
    du = quintic.derivative(solution, t)
    sc = solution.solved
    s = u * u
    udd = -(u * (sc.c1 + s * (sc.c3 + sc.c5 * s)))
    residual = udd - (models.restoring_force(osc, u) if osc is not None else udd)
    lines = ["t,u,u_dot,residual"]
    lines.extend(",".join(format(float(x), ".17g") for x in row) for row in zip(t, u, du, residual))
    return "\n".join(lines) + "\n"


class TestPeriod:
    def test_relativistic_ratio(self, runner):
        result = runner.invoke(main, ["period", "--model", "relativistic", "--a", "1"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        exact, approx, ratio = (float(x) for x in rows[0])
        assert ratio == pytest.approx(exact / approx, rel=1e-12)
        assert 0.999 <= ratio <= 1.0006

    def test_small_amplitude_period(self, runner):
        result = runner.invoke(main, ["period", "--model", "relativistic", "--a", "1e-4"])
        _, rows = csv_rows(result.output)
        assert float(rows[0][0]) == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_json_reports_method(self, runner):
        result = runner.invoke(main, ["period", "--model", "cable-mass", "--a", "1",
                                      "--b", "1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["results"]["method"] == "closed_form_pi"
        assert payload["results"]["exact"] == pytest.approx(4.7334569588632203, rel=1e-12)


class TestTable:
    def test_first_table_passes(self, runner):
        result = runner.invoke(main, ["table", "1"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["a", "b", "computed", "reference", "difference", "status"]
        assert len(rows) == 6
        assert all(row[-1] == "pass" for row in rows)

    def test_second_table_reports_failure(self, runner):
        # The published cells disagree with our computation by more than
        # the comparison tolerance, and the command says so honestly.
        result = runner.invoke(main, ["table", "2"])
        assert result.exit_code == 1
        _, rows = csv_rows(result.output)
        assert any(row[-1] == "fail" for row in rows)

    def test_json_all_pass_flag(self, runner):
        result = runner.invoke(main, ["table", "1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["results"]["all_pass"] is True
        assert len(payload["results"]["cells"]) == 6

    def test_out_of_range_table(self, runner):
        assert runner.invoke(main, ["table", "4"]).exit_code == 2


class TestSweep:
    def test_case_flip_is_visible(self, runner):
        result = runner.invoke(main, ["sweep", "--model", "duffing-relativistic",
                                      "--a-min", "1.6", "--a-max", "1.8", "--a-steps", "3",
                                      "--b", "1"])
        assert result.exit_code == 0
        header, rows = csv_rows(result.output)
        assert header == ["a", "b", "c1", "c3", "c5", "delta", "case", "T_exact",
                          "T_quintic", "ratio", "residual_sup", "status"]
        cases = [row[6] for row in rows]
        assert cases[0] == "Case I"
        assert cases[-1] == "Case II"

    def test_relativistic_always_case_one(self, runner):
        result = runner.invoke(main, ["sweep", "--model", "relativistic",
                                      "--a-min", "0.2", "--a-max", "20", "--a-steps", "12"])
        assert result.exit_code == 0
        _, rows = csv_rows(result.output)
        assert len(rows) == 12
        for row in rows:
            assert float(row[5]) < 0.0
            assert float(row[4]) > 0.0
            assert row[6] == "Case I"
            assert row[-1] == "ok"

    def test_deterministic(self, runner):
        args = ["sweep", "--model", "cable-mass", "--a-min", "0.5", "--a-max", "2",
                "--a-steps", "4", "--b", "0.7"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_bad_range_rejected(self, runner):
        result = runner.invoke(main, ["sweep", "--model", "relativistic",
                                      "--a-min", "2", "--a-max", "1", "--a-steps", "5"])
        assert result.exit_code == 2


class TestOutputPlumbing:
    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "table.csv"
        result = runner.invoke(main, ["table", "1", "--out", str(target)])
        assert result.exit_code == 0
        assert target.exists()
        header, rows = csv_rows(target.read_text())
        assert header[0] == "a"
        assert len(rows) == 6

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output


def fresh_python(*args):
    """Run a new interpreter on the package under src and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return proc.stdout


class TestScipyStaysOptional:
    @pytest.mark.parametrize("code", [
        "import quintosc",
        "import quintosc.cli",
        "from quintosc.cli import main; main(['period', '--model', 'duffing-relativistic', '--a', '2', "
        "'--b', '0.5'], standalone_mode=False)",
    ], ids=["import", "import_cli", "csv_period"])
    def test_runtime_path_loads_no_scipy(self, code):
        out = fresh_python("-c", code + "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "[]"

    def test_json_versions_report_scipy(self):
        out = fresh_python("-m", "quintosc.cli", "period", "--model", "relativistic", "--a", "1", "--format", "json")
        assert json.loads(out)["versions"]["scipy"] == scipy.__version__
