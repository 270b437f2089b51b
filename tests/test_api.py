import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conedsl as cd
from conedsl import canon
from conedsl.api import Result
from conedsl.errors import DCPError, InputError, ShapeError


def simple_problem():
    x = cd.Variable(2, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)), [x >= 1])
    return prob, x


def test_solve_returns_result():
    prob, x = simple_problem()
    res = cd.solve(prob)
    assert res.status == "optimal"
    assert np.isclose(res.value, 2.0, atol=1e-5)
    assert res.problem is prob
    assert res.solution is not None
    assert "iterations" in res.metrics and "residuals" in res.metrics
    assert res.metrics["anderson"] == res.solution.anderson
    assert res.metrics["scale"] == res.solution.scale
    assert set(res.metrics["scale"]) == {"start", "final", "refactors"}
    assert "optimal" in repr(res)


def test_value_of_arbitrary_expression():
    prob, x = simple_problem()
    res = cd.solve(prob)
    xv = res.value_of(x)
    assert np.allclose(xv, 1.0, atol=1e-5)
    assert np.isclose(np.asarray(res.value_of(2 * x[0] + 3)).item(), 5.0,
                      atol=1e-4)


def test_recovery_is_linear_in_variable_count():
    # every variable and constraint is looked up once by its record; a
    # scan of the map per look-up makes this quadratic (over a second at
    # V = 10000)
    V = 10000
    xs = [cd.Variable(name=f"x{i}") for i in range(V)]
    cons = [x >= 0 for x in xs]
    vmap = canon.VariableMap(
        n=V, m=V,
        vars=[canon.VarRecord(key=x.name, vid=x.vid, offset=i, rows=1,
                              cols=1, psd=False) for i, x in enumerate(xs)],
        constrs=[canon.ConstrRecord(key=f"c{i}", cid=con.cid, row=i,
                                    length=1, cone="nonneg",
                                    rows_shape=(1, 1))
                 for i, con in enumerate(cons)])
    sol = SimpleNamespace(x=np.arange(V, dtype=float),
                          y=-np.arange(V, dtype=float))
    res = Result(cd.Problem(cd.Minimize(xs[0]), cons), "optimal", 0.0, sol,
                 vmap, SimpleNamespace(flipped=False), {})
    t0 = time.perf_counter()
    assert res.value_of(xs[-1]).item() == V - 1
    duals = [res.dual_of(con).item() for con in cons]
    elapsed = time.perf_counter() - t0
    assert duals == list(-np.arange(V, dtype=float))
    assert elapsed < 0.5, f"recovery took {elapsed:.2f}s, budget 0.5s"


def test_value_of_foreign_variable_rejected():
    prob, _ = simple_problem()
    res = cd.solve(prob)
    stranger = cd.Variable(name="stranger")
    with pytest.raises(InputError):
        res.value_of(stranger)


def test_value_of_reads_each_variable_from_its_own_record():
    # the unnamed z falls back to the key "v1", which y's name holds; each
    # variable is still read from its own record
    y, z = cd.Variable(1, name="v1"), cd.Variable(1)
    res = cd.solve(cd.Problem(cd.Minimize(y + 2 * z), [y >= 1, z >= 3]))
    assert np.isclose(res.value_of(y).item(), 1.0, atol=1e-5)
    assert np.isclose(res.value_of(z).item(), 3.0, atol=1e-5)


# Run in a fresh interpreter: its first variable and constraint take
# count 0, as a local one does after the counters are reset.
CHILD = """
import pickle, sys
import conedsl as cd
x = pickle.load(sys.stdin.buffer)
a = cd.Variable(2)
b = cd.Variable()
far = b >= 1
res = cd.solve(cd.Problem(cd.Minimize(cd.sum_entries(x) + cd.sum_entries(a)),
                          [x >= 2, a >= 1]))
pickle.dump({"exp": cd.exp(a), "pair": (b, far), "result": res},
            sys.stdout.buffer)
"""


@pytest.fixture(scope="module")
def from_child():
    """The parent's x, and what a child process built around it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cd.expr, "_var_counter", itertools.count())
        x = cd.Variable(2, name="x")
    src = str(Path(cd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD], input=pickle.dumps(x),
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return x, pickle.loads(done.stdout)


def test_unpickled_variable_keeps_apart_from_local_one(from_child, monkeypatch):
    _, out = from_child
    monkeypatch.setattr(cd.expr, "_var_counter", itertools.count())
    y = cd.Variable(2)    # count 0, as the child's variable inside out["exp"]
    e = out["exp"] + y
    _, vmap = canon.canonicalize(cd.Problem(cd.Minimize(cd.sum_entries(e))))
    assert len(vmap.vars) == 2
    assert y.label() == "var v0"


def test_unpickled_constraint_keeps_apart_from_local_one(from_child,
                                                         monkeypatch):
    _, out = from_child
    b, far = out["pair"]
    monkeypatch.setattr(cd.expr, "_constr_counter", itertools.count())
    near = b <= 5         # count 0, as the child's constraint far
    assert repr(near).startswith("<constraint c0:")
    assert repr(far).startswith("<constraint c0:")
    res = cd.solve(cd.Problem(cd.Minimize(b), [far, near]))
    assert np.isclose(res.dual_of(far).item(), 1.0, atol=1e-5)
    assert np.isclose(res.dual_of(near).item(), 0.0, atol=1e-5)


def test_result_from_another_process_answers_for_parent_variables(from_child):
    x, out = from_child
    res = out["result"]
    assert res.status == "optimal"
    assert len(res.vmap.vars) == 2
    assert np.allclose(res.value_of(x), 2.0, atol=1e-5)
    assert np.allclose(res.value_of(out["exp"]), np.e, atol=1e-4)


def _new_variable():
    return cd.Variable(2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_draws_its_own_token():
    # a forked child inherits the parent's counter, so only a fresh token
    # keeps the ids of the two processes apart
    with multiprocessing.get_context("fork").Pool(1) as pool:
        y = pool.apply_async(_new_variable).get(timeout=60)
    z = _new_variable()
    assert y.vid[1] == z.vid[1]
    assert y.vid != z.vid


def test_dual_of_constraint():
    x = cd.Variable(name="x")
    con = x >= 2
    res = cd.solve(cd.Problem(cd.Minimize(x), [con]))
    lam = np.asarray(res.dual_of(con)).item()
    assert np.isclose(lam, 1.0, atol=1e-5)


def test_dual_of_foreign_constraint_rejected(monkeypatch):
    # the outside constraint's label "c0" is also the record key of the
    # problem's first constraint; a Constraint is found by its id alone, so
    # the key is not read as a fallback
    monkeypatch.setattr(cd.expr, "_constr_counter", itertools.count())
    x = cd.Variable(2, name="x")
    other = x >= 0
    cons = [x >= 1, x <= 5, cd.sum_entries(x) <= 10]
    assert [c.label() for c in [other] + cons] == ["c0", "c1", "c2", "c3"]
    res = cd.solve(cd.Problem(cd.Minimize(cd.sum_entries(x)), cons))
    assert np.allclose(res.dual_of(cons[0]), 1.0, atol=1e-5)
    # a string is a record key
    assert np.array_equal(res.dual_of("c0"), res.dual_of(cons[0]))
    with pytest.raises(InputError, match="not in this problem"):
        res.dual_of(other)
    with pytest.raises(InputError, match="not in this problem"):
        res.dual_of("c3")


def test_module_level_helpers():
    # values and duals are read through the Result; there are no module-level
    # aliases of its methods
    prob, x = simple_problem()
    res = cd.solve(prob)
    assert np.allclose(res.value_of(x), 1.0, atol=1e-5)
    assert res.dual_of(prob.constraints[0]) is not None
    assert not hasattr(cd, "value_of") and not hasattr(cd, "dual_of")


def test_solve_rejects_non_problem():
    with pytest.raises(InputError):
        cd.solve("not a problem")


def test_unknown_solver_rejected():
    # solve takes only the SolverSettings fields; there is no solver choice
    # and no settings object
    prob, _ = simple_problem()
    with pytest.raises(InputError, match="unknown solver option"):
        cd.solve(prob, solver="imaginary")
    with pytest.raises(InputError, match="unknown solver option"):
        cd.solve(prob, settings=cd.SolverSettings())


def test_dcp_rejection_raises_with_report():
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(cd.sqrt(x)))  # concave objective minimized
    assert not prob.is_dcp()
    with pytest.raises(DCPError) as exc:
        cd.solve(prob)
    assert exc.value.report is not None
    assert not exc.value.report.accepted


@pytest.mark.parametrize("lower", [cd.canonicalize, cd.get_problem_data])
def test_lowering_rejects_what_the_ruleset_rejects(lower):
    # lowered anyway, min sqrt(x) would be reported dual_infeasible, while
    # its minimum is 0 at x = 0
    x = cd.Variable(name="x")
    with pytest.raises(DCPError) as exc:
        lower(cd.Problem(cd.Minimize(cd.sqrt(x))))
    assert exc.value.report is not None
    assert not exc.value.report.accepted


def test_export_round_trip_matches_direct_solve():
    prob, _ = simple_problem()
    direct = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    payload, _ = cd.get_problem_data(prob)
    cp, _vmap = cd.import_json(json.dumps(payload))
    sol = cd.solve_cone_program(
        cp, cd.SolverSettings(eps_abs=1e-9, eps_rel=1e-9))
    value = sol.objective + cp.offset
    if cp.flipped:
        value = -value
    assert np.isclose(value, direct.value, atol=1e-6)


def test_settings_object_passthrough():
    prob, _ = simple_problem()
    res = cd.solve(prob, max_iters=2)
    assert res.status == "max_iters_reached"


def test_unconverged_solve_reports_no_value():
    prob, _ = simple_problem()
    res = cd.solve(prob, max_iters=2)
    assert res.status == "max_iters_reached"
    assert np.isnan(res.value)
    # the last residuals are still reported
    assert len(res.metrics["residuals"]) == 3
    assert res.metrics["iterations"] == 2


def test_unknown_option_rejected():
    prob, _ = simple_problem()
    with pytest.raises(InputError, match="unknown solver option"):
        cd.solve(prob, warp_factor=9)


def test_bad_option_value_names_the_option():
    prob, _ = simple_problem()
    with pytest.raises(InputError, match="max_iters"):
        cd.solve(prob, max_iters="10")
    with pytest.raises(InputError, match="eps_rel"):
        cd.solve(prob, eps_rel=float("inf"))


def test_maximize_reports_user_sense_value():
    x = cd.Variable(name="x")
    res = cd.solve(cd.Problem(cd.Maximize(-cd.square(x - 3))))
    assert res.status == "optimal"
    assert np.isclose(res.value, 0.0, atol=1e-5)
    assert np.isclose(np.asarray(res.value_of(x)).item(), 3.0, atol=1e-4)


def test_problem_validation():
    x = cd.Variable(name="x")
    with pytest.raises(InputError):
        cd.Problem(x, [])                     # bare expression, no sense
    with pytest.raises(InputError):
        cd.Problem(cd.Minimize(x), [x])       # expression is not a constraint
    with pytest.raises(ShapeError):
        cd.Minimize(cd.Variable(2, name="v"))  # vector objective


def test_problem_is_immutable_enough():
    x = cd.Variable(name="x")
    cons = [x >= 0]
    prob = cd.Problem(cd.Minimize(x), cons)
    cons.append(x >= 5)
    assert len(prob.constraints) == 1


def test_unconstrained_minimum():
    x = cd.Variable(name="x")
    res = cd.solve(cd.Problem(cd.Minimize(cd.square(x) + 1)),
                   eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "optimal"
    assert np.isclose(res.value, 1.0, atol=1e-6)


def test_nonfinite_constant_rejected_at_modelling_boundary():
    # the bad entry is named where the model is built, not by the solver
    A = np.ones((3, 2))
    A[1, 0] = np.nan
    x = cd.Variable(2, name="x")
    with pytest.raises(InputError, match=r"nan at index \(1, 0\)"):
        cd.solve(cd.Problem(cd.Minimize(cd.sum_squares(A @ x - 1))))
    with pytest.raises(InputError, match=r"inf at index \(0, 1\)"):
        cd.Constant([[1.0, np.inf]])


@pytest.mark.parametrize("build", [
    lambda x: x / float("nan"),
    lambda x: x / float("inf"),
    lambda x: cd.mul_elemwise(x, float("nan")),
    lambda x: cd.huber(x, float("nan")),
    lambda x: cd.huber(x, float("inf")),
], ids=["divide-nan", "divide-inf", "scale-nan", "huber-nan", "huber-inf"])
def test_nonfinite_scalar_parameter_rejected_when_atom_is_built(build):
    x = cd.Variable(2, name="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="non-finite"):
            build(x)
