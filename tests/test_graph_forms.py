"""End-to-end checks of atom graph implementations.

For each nonlinear atom, fix the argument by equality and minimize (or
maximize) the atom; the optimal value must equal direct evaluation at
the pinned point. For each affine atom, the lowered form applied to
sampled argument values must equal the independent reference.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import conedsl as cd
from conedsl.canon import GraphContext, Lowerer
from conedsl.expr import Curvature
from conedsl.lin import LinForm
from conedsl.rng import SplitMix64

from test_atoms import ENTRIES, build_expr, evaluator, flat, sample_values

NONLINEAR_IDS = [cid for cid, case in ENTRIES.items()
                 if case["curv"] in (Curvature.CONVEX, Curvature.CONCAVE)]
AFFINE_IDS = [cid for cid, case in ENTRIES.items()
              if case["curv"] is Curvature.AFFINE]


@pytest.mark.parametrize("cid", AFFINE_IDS)
def test_affine_lowering_matches_reference(cid):
    case = ENTRIES[cid]
    var_idx = case.get("var_idx", list(range(len(case["shapes"]))))
    e, the_vars = build_expr(cid)
    ctx = GraphContext()
    form = Lowerer(ctx).lower(e)
    coef = form.widened(ctx.ncols)
    rng = SplitMix64(31)
    for _ in range(5):
        vals = sample_values(cid, rng)
        by_vid = {v.vid: vals[i] for v, i in zip(the_vars, var_idx)}
        # the columns hold each variable's column-major entries in turn
        x = np.concatenate([by_vid[v.vid].ravel(order="F")
                            for v in ctx.user_vars])
        want = np.asarray(case["ref"](vals), dtype=float).ravel(order="F")
        assert np.allclose(coef @ x + form.const, want, atol=1e-12), cid


def test_select_takes_minus_one_as_a_zero_row():
    form = LinForm(sp.csr_matrix([[1.0, 2.0], [0.0, 3.0]]), [4.0, -0.0])
    out = form.select([1, -1, 0, -1])
    assert out.width == 2 and out.coef.nnz == 3
    assert np.array_equal(out.coef.toarray(),
                          [[0.0, 3.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(out.const, [0.0, 0.0, 4.0, 0.0])
    # a copied -0.0 stays -0.0; exports write the sign
    assert list(np.signbit(out.const)) == [True, False, False, False]


@pytest.mark.parametrize("cid", NONLINEAR_IDS)
def test_pinned_argument_recovers_value(cid):
    case = ENTRIES[cid]
    rng = SplitMix64(4242)
    for trial in range(8):
        e, the_vars = build_expr(cid)
        var_idx = case.get("var_idx", list(range(len(case["shapes"]))))
        vals = sample_values(cid, rng)
        body = e if e.is_scalar else cd.sum_entries(e)
        constraints = [v == vals[i] for v, i in zip(the_vars, var_idx)]
        if case["curv"] is Curvature.CONVEX:
            prob = cd.Problem(cd.Minimize(body), constraints)
        else:
            prob = cd.Problem(cd.Maximize(body), constraints)
        result = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
        assert result.status == "optimal", cid
        want = float(np.sum(flat(evaluator(cid, e, the_vars)(vals))))
        assert np.isclose(result.value, want, rtol=1e-6, atol=1e-6), cid
        for v, i in zip(the_vars, var_idx):
            assert np.allclose(result.value_of(v), vals[i], atol=1e-6)


def test_epigraph_tightness_square():
    # free minimization over the epigraph touches the graph from above
    x = cd.Variable(name="x")
    t = cd.Variable(name="t")
    prob = cd.Problem(cd.Minimize(t), [cd.square(x) <= t, x >= 3.0])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert np.isclose(res.value, 9.0, atol=1e-6)


def test_hypograph_tightness_sqrt():
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Maximize(cd.sqrt(x)), [x <= 16.0])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert np.isclose(res.value, 4.0, atol=1e-6)


def test_nested_composition_solves():
    # log_sum_exp of an affine map under a norm ball
    rng = SplitMix64(7)
    A = rng.normals(4, 3)
    x = cd.Variable(3, name="x")
    prob = cd.Problem(cd.Minimize(cd.log_sum_exp(A @ x)),
                      [cd.cvxr_norm(x, 2) <= 1.0])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "optimal"
    # independent check: projected gradient on the smooth objective
    from scipy.optimize import minimize

    def f(z):
        t = A @ z
        m = np.max(t)
        return m + np.log(np.sum(np.exp(t - m)))

    cons = [{"type": "ineq", "fun": lambda z: 1.0 - np.linalg.norm(z)}]
    best = min(minimize(f, z0, constraints=cons, method="SLSQP",
                        options={"maxiter": 500, "ftol": 1e-12}).fun
               for z0 in (np.zeros(3), -np.ones(3) / 2, np.ones(3) / 2))
    assert np.isclose(res.value, best, atol=1e-5)


def test_max_of_norms_solves():
    rng = SplitMix64(8)
    a = rng.normals(3).reshape(-1, 1)
    x = cd.Variable(3, name="x")
    expr = cd.max_elemwise(cd.cvxr_norm(x - a, 1), cd.cvxr_norm(x + a, 1))
    prob = cd.Problem(cd.Minimize(expr))
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "optimal"
    # symmetry makes x*=0 optimal, value = |a|_1
    assert np.isclose(res.value, np.sum(np.abs(a)), atol=1e-6)
