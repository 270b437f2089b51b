import json
from pathlib import Path

import numpy as np
import pytest

import conedsl as cd
from conedsl import examples as examples_mod
from conedsl.cli import main
from conedsl.examples import Bundle, Example


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_command(capsys):
    code, out, err = run_cli(capsys, ["list"])
    assert code == 0
    for name in ("ols", "catenary", "fmmc", "channel_capacity"):
        assert name in out
    assert "default" in out


def test_example_command_optimal(capsys):
    code, out, _ = run_cli(capsys, ["example", "ols", "--seed", "0"])
    assert code == 0
    record = json.loads(out)
    assert record["example"] == "ols"
    assert record["status"] == "optimal"
    assert record["feasibility"] is not None
    assert record["feasibility"] <= 1e-6
    assert record["iterations"] > 0


def test_example_param_override(capsys):
    code, out, _ = run_cli(capsys, ["example", "ols", "--param", "m=20",
                                    "--param", "n=3"])
    assert code == 0
    record = json.loads(out)
    assert record["config"]["m"] == 20
    assert record["config"]["n"] == 3
    beta = record["outputs"]["beta"]
    assert len(np.asarray(beta).ravel()) == 3


def test_example_unknown_name(capsys):
    code, out, err = run_cli(capsys, ["example", "no_such_example"])
    assert code == 4
    assert "error:" in err


def test_example_bad_param_syntax(capsys):
    code, _, err = run_cli(capsys, ["example", "ols", "--param", "brokenpair"])
    assert code == 4
    assert "error:" in err


def test_example_unknown_param(capsys):
    code, _, err = run_cli(capsys, ["example", "ols", "--param", "zzz=1"])
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("pair", ["eps=abc", "max_iters=1.5"])
def test_example_bad_solver_param(capsys, pair):
    code, _, err = run_cli(capsys, ["example", "ols", "--param", pair])
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["example", "ols", "--param", "m=0"],
    ["example", "isotonic", "--param", "m=1"],
    ["export", "ols", "--param", "n=0", "--out", "unused.json"],
], ids=["ols-m0", "isotonic-m1", "export-ols-n0"])
def test_shape_error_is_bad_input(tmp_path, monkeypatch, capsys, argv):
    # an impossible size is bad input (4), not an iteration limit (1)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert "error:" in err
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("argv", [
    ["example", "ols", "--out", "{missing}"],
    ["export", "ols", "--out", "{missing}"],
    ["example", "near_iso", "--csv", "{under_file}"],
], ids=["example-out", "export-out", "example-csv"])
def test_unwritable_output_is_bad_input(tmp_path, capsys, argv):
    (tmp_path / "afile").write_text("")
    paths = {"missing": str(tmp_path / "missing" / "x.json"),
             "under_file": str(tmp_path / "afile" / "csv")}
    argv = [a.format(**paths) for a in argv]
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert err.startswith("error:") and argv[-1] in err


def test_example_writes_record_file(tmp_path, capsys):
    out_file = tmp_path / "record.json"
    code, out, _ = run_cli(capsys, ["example", "ols", "--out", str(out_file)])
    assert code == 0
    on_disk = json.loads(out_file.read_text())
    assert on_disk == json.loads(out)


def test_example_csv_series(tmp_path, capsys):
    code, _, _ = run_cli(capsys, ["example", "near_iso", "--csv",
                                  str(tmp_path)])
    assert code == 0
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs, "expected at least one series CSV"
    header = csvs[0].read_text().splitlines()[0]
    assert "," in header


def test_export_then_solve_round_trip(tmp_path, capsys):
    out_file = tmp_path / "ols.json"
    code, _, _ = run_cli(capsys, ["export", "ols", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["version"] == 1

    code, out, _ = run_cli(capsys, ["solve", str(out_file), "--eps", "1e-9"])
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "optimal"
    assert set(record["anderson"]) == {"accepted", "rejected", "resets"}
    assert record["anderson"]["accepted"] > 0
    assert set(record["scale"]) == {"start", "final", "refactors"}

    ref_code, ref_out, _ = run_cli(capsys, ["example", "ols"])
    assert ref_code == 0
    ref = json.loads(ref_out)
    assert np.isclose(record["objective"], ref["objective"],
                      rtol=1e-6, atol=1e-6)


def test_export_deterministic_bytes(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    run_cli(capsys, ["export", "portfolio", "--out", str(f1)])
    run_cli(capsys, ["export", "portfolio", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()


def test_export_writes_the_library_export(tmp_path, capsys):
    out_file = tmp_path / "fmmc.json"
    code, _, _ = run_cli(capsys, ["export", "fmmc", "--out", str(out_file)])
    assert code == 0
    problem = examples_mod.build_example(
        examples_mod.ExampleConfig("fmmc")).problem
    expect = cd.export_json(*cd.canonicalize(problem)) + "\n"
    assert out_file.read_bytes() == expect.encode()


def test_solve_missing_file(capsys):
    code, _, err = run_cli(capsys, ["solve", "/nonexistent/path.json"])
    assert code == 4
    assert "error:" in err


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["solve", str(bad)])
    assert code == 4
    assert "error:" in err


def test_solve_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "n": 1}))
    code, _, err = run_cli(capsys, ["solve", str(bad)])
    assert code == 4


def test_solve_infeasible_exit_code(tmp_path, capsys):
    # x >= 1 and -x >= 0 conflict; exported by hand through the library
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(x), [x >= 1, x <= 0])
    payload, _ = cd.get_problem_data(prob)
    f = tmp_path / "infeasible.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["solve", str(f)])
    assert code == 2
    record = json.loads(out)
    assert record["status"] == "primal_infeasible"
    assert record["objective"] is None


def test_solve_unbounded_exit_code(tmp_path, capsys):
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(-x), [x >= 0])
    payload, _ = cd.get_problem_data(prob)
    f = tmp_path / "unbounded.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["solve", str(f)])
    assert code == 2
    assert json.loads(out)["status"] == "dual_infeasible"


def test_solve_iteration_cap_exit_code(tmp_path, capsys):
    code, _, _ = run_cli(capsys, ["export", "ols", "--out",
                                  str(tmp_path / "p.json")])
    assert code == 0
    code, out, _ = run_cli(capsys, ["solve", str(tmp_path / "p.json"),
                                    "--max-iters", "1"])
    assert code == 1
    assert json.loads(out)["status"] == "max_iters_reached"


def test_solve_nan_tolerance_is_bad_input(tmp_path, capsys):
    code, _, _ = run_cli(capsys, ["export", "ols", "--out",
                                  str(tmp_path / "p.json")])
    assert code == 0
    code, out, err = run_cli(capsys, ["solve", str(tmp_path / "p.json"),
                                      "--eps", "nan"])
    assert code == 4
    assert "eps_abs" in err and out == ""


def test_dcp_rejection_exit_code(capsys, monkeypatch):
    def build(params, rng):
        x = cd.Variable(name="x")
        prob = cd.Problem(cd.Minimize(cd.sqrt(x)), [x >= 1])
        return Bundle(prob, lambda r: {})

    fake = Example("sneaky", build, {}, "nonconvex on purpose", {})
    monkeypatch.setitem(examples_mod.EXAMPLES, "sneaky", fake)
    code, _, err = run_cli(capsys, ["example", "sneaky"])
    assert code == 3
    assert "error:" in err


def test_maximization_objective_reported_in_user_sense(tmp_path, capsys):
    # kelly maximizes log growth; record and solve output agree in sign
    out_file = tmp_path / "kelly.json"
    run_cli(capsys, ["export", "kelly", "--out", str(out_file)])
    code, out, _ = run_cli(capsys, ["solve", str(out_file), "--eps", "1e-8"])
    assert code == 0
    solved = json.loads(out)

    ref_code, ref_out, _ = run_cli(capsys, ["example", "kelly"])
    ref = json.loads(ref_out)
    assert np.isclose(solved["objective"], ref["objective"],
                      rtol=1e-5, atol=1e-6)


def test_solve_reports_offset_and_flip_in_user_sense(tmp_path, capsys):
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Maximize(5 - cd.square(x - 3)))
    payload, _ = cd.get_problem_data(prob)
    assert payload["offset"] == -5.0 and payload["flipped"]
    f = tmp_path / "offset.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["solve", str(f), "--eps", "1e-9"])
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["file", "status", "objective", "residuals",
                            "iterations", "anderson", "scale",
                            "refined_solves", "solve_time"]
    assert record["refined_solves"] == 0
    direct = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert np.isclose(record["objective"], 5.0, rtol=0, atol=1e-6)
    assert np.isclose(record["objective"], direct.value, rtol=0, atol=1e-9)


def test_solve_figures_have_one_list(tmp_path, capsys):
    # Solution.metrics() is Result.metrics, the tail of the conedsl solve
    # record, and what the README's res.metrics paragraph describes
    x = cd.Variable(2, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)), [x >= 1])
    res = cd.solve(prob)
    assert res.metrics == res.solution.metrics()
    f = tmp_path / "p.json"
    f.write_text(json.dumps(cd.get_problem_data(prob)[0]))
    code, out, _ = run_cli(capsys, ["solve", str(f)])
    assert code == 0
    assert list(json.loads(out)) == ["file", "status", "objective",
                                     *res.solution.metrics()]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("`res.metrics` is"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    for key in res.solution.metrics():
        assert f"`{key}`" in paragraph, key
