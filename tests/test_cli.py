"""End-to-end tests for the command line interface."""

import csv
import io
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
    header, *rows = csv.reader(io.StringIO(output))
    return header, rows


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

    @pytest.mark.parametrize("command", ["coeffs", "period", "solve"])
    def test_library_error_exits_one_with_its_message(self, runner, command):
        # model_coefficients refuses a = 1e200 (m1 underflows); every command reports it alike.
        result = runner.invoke(main, [command, "--model", "relativistic", "--a", "1e200"])
        assert result.exit_code == 1
        assert "Error: model_coefficients needs m1" in result.output
        assert isinstance(result.exception, SystemExit)

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

    def test_one_kernel_call_per_trajectory(self, runner, monkeypatch):
        calls = []
        kernel = quintic._gauss
        monkeypatch.setattr(quintic, "_gauss", lambda *args, **kwargs: calls.append(args) or kernel(*args, **kwargs))
        assert runner.invoke(main, ["solve", "--c1", "1", "--c3", "2", "--c5", "3", "--samples", "101"]).exit_code == 0
        assert len(calls) == 1

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

    def test_failing_rows_quote_their_message(self, runner):
        # a = 5e199 and 1e200 fail with a message that holds a comma (RFC 4180 quoting);
        # the ok row is written unquoted, as before.
        result = runner.invoke(main, ["sweep", "--model", "relativistic", "--a-min", "1", "--a-max", "1e200",
                                      "--a-steps", "3"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.output)))
        assert [len(row) for row in rows] == [12] * 4
        assert [row[-1] == "ok" for row in rows[1:]] == [True, False, False]
        assert "," in rows[2][-1] and result.output.splitlines()[2].endswith(f'"{rows[2][-1]}"')
        assert result.output.splitlines()[1] == ",".join(rows[1]) and '"' not in result.output.splitlines()[1]

    def test_deterministic(self, runner):
        args = ["sweep", "--model", "cable-mass", "--a-min", "0.5", "--a-max", "2",
                "--a-steps", "4", "--b", "0.7"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    @pytest.mark.parametrize("args", [
        ["sweep", "--model", "relativistic", "--a-min", "2", "--a-max", "1", "--a-steps", "5"],
        ["sweep", "--model", "relativistic", "--a-min", "1", "--a-max", "2", "--a-steps", "0"],
        ["sweep", "--model", "cable-mass", "--a-min", "1", "--a-max", "2", "--b-min", "0.1", "--b-max", "1",
         "--b-steps", "0"],
        ["solve", "--model", "relativistic", "--samples", "1"],
    ], ids=["a_order", "a_steps", "b_steps", "samples"])
    def test_bad_range_rejected(self, runner, args):
        result = runner.invoke(main, args)
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


def json_as_table(command, results):
    """The (columns, rows) that the CSV of a command shows, read off its JSON results."""
    if command == "coeffs":
        rows = [[f"{name}_{k}", v] for name in ("closed_form", "quadrature", "difference")
                for k, v in results[name].items()]
        return ["quantity", "value"], rows + [["discriminant", results["discriminant"]], ["case", results["case"]]]
    if command == "period":
        return ["exact", "quintic", "ratio"], [[results["exact"], results["quintic"], results["ratio"]]]
    if command == "solve":
        return results["columns"], results["rows"]
    records = results["cells"] if command == "table" else results
    return list(records[0]), [list(record.values()) for record in records]


class TestCsvJsonAgree:
    @pytest.mark.parametrize("args, code", [
        (["coeffs", "--model", "cable-mass", "--a", "1.5", "--b", "0.4"], 0),
        (["period", "--model", "duffing-relativistic", "--a", "2", "--b", "0.5"], 0),
        (["solve", "--model", "relativistic", "--a", "3", "--samples", "11"], 0),
        (["table", "1"], 0),
        (["table", "2"], 1),
        (["sweep", "--model", "relativistic", "--a-min", "1", "--a-max", "1e200", "--a-steps", "3"], 0),
    ], ids=["coeffs", "period", "solve", "table_1", "table_2", "sweep_with_failing_rows"])
    def test_every_csv_cell_is_the_json_value(self, runner, args, code):
        csv_result = runner.invoke(main, args)
        json_result = runner.invoke(main, [*args, "--format", "json"])
        assert csv_result.exit_code == json_result.exit_code == code
        header, rows = csv_rows(csv_result.stdout)
        columns, values = json_as_table(args[0], json.loads(json_result.stdout)["results"])
        assert header == list(columns) and len(rows) == len(values)
        for row, record in zip(rows, values):
            for text, value in zip(row, record, strict=True):
                if value is None:
                    assert text == ""
                elif isinstance(value, str):
                    assert text == value
                else:
                    assert float(text) == value
        if args[0] == "sweep":
            # a = 5e199 and 1e200 fail in model_coefficients (m1 underflows): empty in CSV, null in JSON.
            assert [record[2] is None for record in values] == [False, True, True]


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
        "from quintosc.cli import main; main(['table', '1'], standalone_mode=False)",
        "from quintosc.cli import main; main(['solve', '--model', 'relativistic', '--a', '2', '--samples', '11'], "
        "standalone_mode=False)",
    ], ids=["import", "import_cli", "csv_period", "csv_table", "csv_solve"])
    def test_runtime_path_loads_no_scipy(self, code):
        out = fresh_python("-c", code + "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "[]"

    def test_json_versions_report_scipy(self):
        out = fresh_python("-m", "quintosc.cli", "period", "--model", "relativistic", "--a", "1", "--format", "json")
        assert json.loads(out)["versions"]["scipy"] == scipy.__version__
