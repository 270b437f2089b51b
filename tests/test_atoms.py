"""Conformance suite for the atom registry.

Every registered atom, and every public function composed of them, gets
an independent numpy reference, an expected curvature/sign/monotonicity
triple, and numeric spot checks of those claims (segment tests for
curvature, bump tests for monotonicity, sample tests for sign).
"""
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import conedsl as cd
from conedsl.atoms import REGISTRY
from conedsl.atoms.base import UNSUPPORTED, get_atom
from conedsl.errors import ShapeError, UnsupportedAtomError
from conedsl.expr import AtomExpr, Curvature, Monotonicity, Sign, make_shape
from conedsl.rng import SplitMix64

from oracles import huber_value

M = Monotonicity
CVX, CCV, AFF = Curvature.CONVEX, Curvature.CONCAVE, Curvature.AFFINE
NN, NP_, UNK = Sign.NONNEG, Sign.NONPOS, Sign.UNKNOWN


def lag_diff(x, lag, differences):
    out = x.ravel()
    for _ in range(differences):
        out = out[lag:] - out[:-lag]
    return out.reshape(-1, 1)


C23 = np.array([[1.0, 2.0, 0.5], [0.25, 1.5, 3.0]])
CN = np.array([[-1.0], [-2.0], [-0.5]])
CPOS = np.array([[0.5], [1.0], [2.0]])
CMIX = np.array([[1.0], [-2.0], [0.5]])
R_PSD = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.5]])

# each case: registry atom name, descriptor arg shapes, facade builder over
# variable args, independent reference over descriptor argument values,
# expected curvature / output sign / per-argument monotonicity, and the
# indices of sampled values handed to the facade variables
CASES = {
    "abs": dict(
        shapes=[(3, 1)], facade=lambda a: cd.abs(a[0]),
        ref=lambda v: np.abs(v[0]),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "add": dict(
        shapes=[(3, 1), (3, 1)], facade=lambda a: a[0] + a[1],
        ref=lambda v: v[0] + v[1],
        curv=AFF, sign=UNK, mono=[M.INCREASING, M.INCREASING]),
    "cvxr_norm[1]": dict(
        atom="cvxr_norm",
        shapes=[(4, 1)], facade=lambda a: cd.cvxr_norm(a[0], 1),
        ref=lambda v: np.sum(np.abs(v[0])),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "cvxr_norm[2]": dict(
        atom="cvxr_norm",
        shapes=[(4, 1)], facade=lambda a: cd.cvxr_norm(a[0], 2),
        ref=lambda v: np.linalg.norm(v[0].ravel()),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "cvxr_norm[inf]": dict(
        atom="cvxr_norm",
        shapes=[(4, 1)], facade=lambda a: cd.p_norm(a[0], "inf"),
        ref=lambda v: np.max(np.abs(v[0])),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "cvxr_norm[fro]": dict(
        atom="cvxr_norm",
        shapes=[(2, 3)], facade=lambda a: cd.cvxr_norm(a[0], "fro"),
        ref=lambda v: np.linalg.norm(v[0].ravel()),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "diag[extract]": dict(
        atom="diag",
        shapes=[(3, 3)], facade=lambda a: cd.diag(a[0]),
        ref=lambda v: np.diag(v[0]).reshape(-1, 1),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "diag[build]": dict(
        atom="diag",
        shapes=[(3, 1)], facade=lambda a: cd.diag(a[0]),
        ref=lambda v: np.diag(v[0].ravel()),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "diff": dict(
        shapes=[(5, 1)], facade=lambda a: cd.diff(a[0]),
        ref=lambda v: lag_diff(v[0], 1, 1),
        curv=AFF, sign=UNK, mono=[M.NONMONOTONE]),
    "diff[second]": dict(
        atom="diff",
        shapes=[(5, 1)], facade=lambda a: cd.diff(a[0], differences=2),
        ref=lambda v: lag_diff(v[0], 1, 2),
        curv=AFF, sign=UNK, mono=[M.NONMONOTONE]),
    "entr": dict(
        shapes=[(3, 1)], facade=lambda a: cd.entr(a[0]),
        ref=lambda v: -v[0] * np.log(v[0]),
        curv=CCV, sign=UNK, mono=[M.NONMONOTONE]),
    "exp": dict(
        shapes=[(3, 1)], facade=lambda a: cd.exp(a[0]),
        ref=lambda v: np.exp(v[0]),
        curv=CVX, sign=NN, mono=[M.INCREASING]),
    "hstack": dict(
        shapes=[(2, 2), (2, 3)], facade=lambda a: cd.hstack(a[0], a[1]),
        ref=lambda v: np.hstack(v),
        curv=AFF, sign=UNK, mono=[M.INCREASING, M.INCREASING]),
    "huber": dict(
        shapes=[(3, 1)], facade=lambda a: cd.huber(a[0], 1.5),
        ref=lambda v: huber_value(v[0], 1.5),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "index": dict(
        shapes=[(4, 1)], facade=lambda a: a[0][1:3],
        ref=lambda v: v[0][1:3],
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "inv_pos": dict(
        shapes=[(3, 1)], facade=lambda a: cd.inv_pos(a[0]),
        ref=lambda v: 1.0 / v[0],
        curv=CVX, sign=NN, mono=[M.DECREASING]),
    "lambda_max": dict(
        shapes=[(3, 3)], facade=lambda a: cd.lambda_max(a[0]),
        ref=lambda v: np.linalg.eigvalsh((v[0] + v[0].T) / 2)[-1],
        curv=CVX, sign=UNK, mono=[M.NONMONOTONE]),
    "log": dict(
        shapes=[(3, 1)], facade=lambda a: cd.log(a[0]),
        ref=lambda v: np.log(v[0]),
        curv=CCV, sign=UNK, mono=[M.INCREASING]),
    "log_det": dict(
        shapes=[(3, 3)], facade=lambda a: cd.log_det(a[0]),
        ref=lambda v: np.linalg.slogdet((v[0] + v[0].T) / 2)[1],
        curv=CCV, sign=UNK, mono=[M.NONMONOTONE]),
    "log_sum_exp": dict(
        shapes=[(4, 1)], facade=lambda a: cd.log_sum_exp(a[0]),
        ref=lambda v: logsumexp(v[0].ravel()),
        curv=CVX, sign=UNK, mono=[M.INCREASING]),
    "logistic": dict(
        shapes=[(3, 1)], facade=lambda a: cd.logistic(a[0]),
        ref=lambda v: np.log1p(np.exp(v[0])),
        curv=CVX, sign=NN, mono=[M.INCREASING]),
    "matmul_left": dict(
        shapes=[(3, 1)], facade=lambda a: C23 @ a[0],
        ref=lambda v: C23 @ v[0],
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "matmul_left[neg]": dict(
        atom="matmul_left",
        shapes=[(3, 1)], facade=lambda a: -C23 @ a[0],
        ref=lambda v: -C23 @ v[0],
        curv=AFF, sign=UNK, mono=[M.DECREASING]),
    "matmul_right": dict(
        shapes=[(2, 3)], facade=lambda a: a[0] @ C23.T,
        ref=lambda v: v[0] @ C23.T,
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "max_elemwise": dict(
        shapes=[(3, 1), (3, 1)], facade=lambda a: cd.max_elemwise(a[0], a[1]),
        ref=lambda v: np.maximum(v[0], v[1]),
        curv=CVX, sign=UNK, mono=[M.INCREASING, M.INCREASING]),
    "max_entries": dict(
        shapes=[(4, 1)], facade=lambda a: cd.max_entries(a[0]),
        ref=lambda v: np.max(v[0]),
        curv=CVX, sign=UNK, mono=[M.INCREASING]),
    "mul_elemwise": dict(
        shapes=[(3, 1)], facade=lambda a: cd.mul_elemwise(np.abs(CN), a[0]),
        ref=lambda v: np.abs(CN) * v[0],
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "mul_elemwise[neg]": dict(
        atom="mul_elemwise",
        shapes=[(3, 1)], facade=lambda a: cd.mul_elemwise(CN, a[0]),
        ref=lambda v: CN * v[0],
        curv=AFF, sign=UNK, mono=[M.DECREASING]),
    "mul_elemwise[mixed]": dict(
        atom="mul_elemwise",
        shapes=[(3, 1)], facade=lambda a: cd.mul_elemwise(CMIX, a[0]),
        ref=lambda v: CMIX * v[0],
        curv=AFF, sign=UNK, mono=[M.NONMONOTONE]),
    "negate": dict(
        shapes=[(3, 1)], facade=lambda a: -a[0],
        ref=lambda v: -v[0],
        curv=AFF, sign=UNK, mono=[M.DECREASING]),
    "quad_over_lin": dict(
        shapes=[(3, 1), (1, 1)],
        facade=lambda a: cd.quad_over_lin(a[0], a[1]),
        ref=lambda v: np.sum(v[0] ** 2) / v[1],
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT, M.DECREASING]),
    "reshape": dict(
        shapes=[(3, 2)], facade=lambda a: cd.reshape_expr(a[0], 2, 3),
        ref=lambda v: v[0].reshape(2, 3, order="F"),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "scale": dict(
        atom="mul_elemwise",
        shapes=[(3, 1)], facade=lambda a: 2.5 * a[0],
        ref=lambda v: 2.5 * v[0],
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "scale[neg]": dict(
        atom="mul_elemwise",
        shapes=[(3, 1)], facade=lambda a: a[0] / -2.0,
        ref=lambda v: v[0] / -2.0,
        curv=AFF, sign=UNK, mono=[M.DECREASING]),
    "sqrt": dict(
        shapes=[(3, 1)], facade=lambda a: cd.sqrt(a[0]),
        ref=lambda v: np.sqrt(v[0]),
        curv=CCV, sign=NN, mono=[M.INCREASING]),
    "square": dict(
        shapes=[(3, 1)], facade=lambda a: cd.square(a[0]),
        ref=lambda v: v[0] ** 2,
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "square[power]": dict(
        atom="square",
        shapes=[(3, 1)], facade=lambda a: cd.power(a[0], 2),
        ref=lambda v: v[0] ** 2,
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
    "transpose": dict(
        shapes=[(2, 3)], facade=lambda a: a[0].T,
        ref=lambda v: v[0].T,
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "vstack": dict(
        shapes=[(2, 2), (3, 2)], facade=lambda a: cd.vstack(a[0], a[1]),
        ref=lambda v: np.vstack(v),
        curv=AFF, sign=UNK, mono=[M.INCREASING, M.INCREASING]),
}


def symmetric_normals(rng, n):
    A = rng.normals(n, n)
    return (A + A.T) / 2


# the names that CVXR defines as compositions of the atoms above, with the
# same fields; sample draws the variables' values. A composition has no
# descriptor of its own, so its values are read through Expression.value
# on the expression it builds and its monotonicity through DCP verdicts.
COMPOSITIONS = {
    "cumsum_axis[rows]": dict(
        shapes=[(2, 3)], facade=lambda a: cd.cumsum_axis(a[0], 1),
        ref=lambda v: np.cumsum(v[0], axis=1),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "cumsum_axis[cols]": dict(
        shapes=[(2, 3)], facade=lambda a: cd.cumsum_axis(a[0], 2),
        ref=lambda v: np.cumsum(v[0], axis=0),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "lambda_min": dict(
        shapes=[(3, 3)], facade=lambda a: cd.lambda_min(a[0]),
        ref=lambda v: np.linalg.eigvalsh((v[0] + v[0].T) / 2)[0],
        curv=CCV, sign=UNK, mono=[M.NONMONOTONE],
        sample=lambda rng: [symmetric_normals(rng, 3)]),
    "matrix_trace": dict(
        shapes=[(3, 3)], facade=lambda a: cd.matrix_trace(a[0]),
        ref=lambda v: np.trace(v[0]),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "min_elemwise": dict(
        shapes=[(3, 1), (3, 1)], facade=lambda a: cd.min_elemwise(a[0], a[1]),
        ref=lambda v: np.minimum(v[0], v[1]),
        curv=CCV, sign=UNK, mono=[M.INCREASING, M.INCREASING]),
    "min_entries": dict(
        shapes=[(4, 1)], facade=lambda a: cd.min_entries(a[0]),
        ref=lambda v: np.min(v[0]),
        curv=CCV, sign=UNK, mono=[M.INCREASING]),
    "neg": dict(
        shapes=[(3, 1)], facade=lambda a: cd.neg(a[0]),
        ref=lambda v: np.maximum(-v[0], 0.0),
        curv=CVX, sign=NN, mono=[M.DECREASING]),
    "pos": dict(
        shapes=[(3, 1)], facade=lambda a: cd.pos(a[0]),
        ref=lambda v: np.maximum(v[0], 0.0),
        curv=CVX, sign=NN, mono=[M.INCREASING]),
    "quad_form": dict(
        shapes=[(3, 1), (3, 3)], facade=lambda a: cd.quad_form(a[0], R_PSD),
        ref=lambda v: v[0].T @ v[1] @ v[0],
        curv=CVX, sign=NN, mono=[M.NONMONOTONE, M.NONMONOTONE],
        var_idx=[0], sample=lambda rng: [rng.normals(3, 1), R_PSD.copy()]),
    "quad_form[nsd]": dict(
        shapes=[(3, 1), (3, 3)], facade=lambda a: cd.quad_form(a[0], -R_PSD),
        ref=lambda v: v[0].T @ v[1] @ v[0],
        curv=CCV, sign=NP_, mono=[M.NONMONOTONE, M.NONMONOTONE],
        var_idx=[0], sample=lambda rng: [rng.normals(3, 1), -R_PSD.copy()]),
    # with a constant x, affine in P: increasing when x's entries share a
    # sign, so that every product x_i x_j is nonnegative
    "quad_form[const-x]": dict(
        shapes=[(3, 3)], facade=lambda a: cd.quad_form(CPOS, a[0]),
        ref=lambda v: CPOS.T @ v[0] @ CPOS,
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "quad_form[const-x-mixed]": dict(
        shapes=[(3, 3)], facade=lambda a: cd.quad_form(CMIX, a[0]),
        ref=lambda v: CMIX.T @ v[0] @ CMIX,
        curv=AFF, sign=UNK, mono=[M.NONMONOTONE]),
    "sum_entries": dict(
        shapes=[(2, 3)], facade=lambda a: cd.sum_entries(a[0]),
        ref=lambda v: np.sum(v[0]),
        curv=AFF, sign=UNK, mono=[M.INCREASING]),
    "sum_squares": dict(
        shapes=[(4, 1)], facade=lambda a: cd.sum_squares(a[0]),
        ref=lambda v: float(np.sum(v[0] ** 2)),
        curv=CVX, sign=NN, mono=[M.SIGN_DEPENDENT]),
}

ENTRIES = {**CASES, **COMPOSITIONS}
CASE_IDS = list(CASES)
ALL_IDS = CASE_IDS + list(COMPOSITIONS)

# arguments of known curvature and sign over a variable y
PROBES = {
    "affine": lambda y: y,
    "convex nonneg": lambda y: cd.square(y),
    "concave nonpos": lambda y: -cd.square(y),
    "convex": lambda y: cd.square(y) - 1.0,
    "concave": lambda y: 1.0 - cd.square(y),
}
# the probes a convex function accepts in an argument, by its monotonicity
# there; a concave function accepts what a convex one of the mirrored
# monotonicity does
CONVEX_ACCEPTS = {
    M.INCREASING: {"affine", "convex nonneg", "convex"},
    M.DECREASING: {"affine", "concave nonpos", "concave"},
    M.SIGN_DEPENDENT: {"affine", "convex nonneg", "concave nonpos"},
    M.NONMONOTONE: {"affine"},
}
MIRROR = {M.INCREASING: M.DECREASING, M.DECREASING: M.INCREASING,
          M.NONMONOTONE: M.NONMONOTONE}


def case_atom(cid):
    return CASES[cid].get("atom", cid)


def build_expr(cid):
    case = ENTRIES[cid]
    arg_vars = [cd.Variable(r, c, name=f"a{i}")
                for i, (r, c) in enumerate(case["shapes"])]
    var_idx = case.get("var_idx", list(range(len(arg_vars))))
    the_vars = [arg_vars[i] for i in var_idx]
    return case["facade"](the_vars), the_vars


def sample_values(cid, rng):
    if cid in COMPOSITIONS:
        case = COMPOSITIONS[cid]
        if "sample" in case:
            return case["sample"](rng)
        return [rng.normals(r, c) for r, c in case["shapes"]]
    case = CASES[cid]
    e, _ = build_expr(cid)
    shapes = [make_shape(r, c) for r, c in case["shapes"]]
    d = REGISTRY[case_atom(cid)]
    return d.sample(rng, shapes, e.params)


def evaluator(cid, e, the_vars):
    """Sampled argument values -> the value of e: its atom's evaluate,
    or Expression.value for a composition."""
    if cid in COMPOSITIONS:
        var_idx = COMPOSITIONS[cid].get("var_idx", range(len(the_vars)))
        return lambda vals: e.value({v: vals[i]
                                     for v, i in zip(the_vars, var_idx)})
    d = REGISTRY[case_atom(cid)]
    return lambda vals: d.evaluate(vals, e.params)


def check_dcp_verdicts(cid):
    """A composition's monotonicity claims, read as the DCP verdicts they
    imply: with a probe in one argument and variables in the others, the
    objective is accepted exactly when the claim accepts the probe. An
    argument the facade holds constant takes no probe."""
    case = COMPOSITIONS[cid]
    sense = cd.Minimize if case["curv"] is CVX else cd.Maximize
    var_idx = case.get("var_idx", range(len(case["shapes"])))
    for i, claim in enumerate(case["mono"]):
        if i not in var_idx:
            continue
        accepts = CONVEX_ACCEPTS[claim if case["curv"] is CVX
                                 else MIRROR[claim]]
        for probe, build in PROBES.items():
            args = [cd.Variable(r, c) for r, c in case["shapes"]]
            args[i] = build(args[i])
            e = case["facade"](args)
            body = e if e.is_scalar else cd.sum_entries(e)
            assert cd.Problem(sense(body)).is_dcp() == (probe in accepts), \
                (cid, i, probe)


def atoms_in(e):
    if not isinstance(e, AtomExpr):
        return set()
    return {e.atom}.union(*(atoms_in(a) for a in e.args))


def flat(x):
    return np.asarray(x, dtype=float).reshape(-1)


def test_every_registry_atom_is_covered():
    assert {case_atom(cid) for cid in CASES} == set(REGISTRY)
    assert not set(COMPOSITIONS) & set(REGISTRY)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_facade_builds_registered_atom(cid):
    e, _ = build_expr(cid)
    assert isinstance(e, AtomExpr)
    if cid in CASES:
        assert e.atom.name == case_atom(cid)
        return
    # a composition builds registered atoms only, and none has its name
    assert all(REGISTRY[a.name] is a for a in atoms_in(e))
    name = cid.split("[")[0]
    with pytest.raises(UnsupportedAtomError, match=f"^unknown atom '{name}'$"):
        get_atom(name)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_evaluate_matches_reference(cid):
    e, the_vars = build_expr(cid)
    value = evaluator(cid, e, the_vars)
    rng = SplitMix64(2024)
    for _ in range(25):
        vals = sample_values(cid, rng)
        got = value(vals)
        want = ENTRIES[cid]["ref"](vals)
        assert np.allclose(flat(got), flat(want), atol=1e-10), cid


@pytest.mark.parametrize("cid", ALL_IDS)
def test_shape_claim_matches_value(cid):
    e, the_vars = build_expr(cid)
    rng = SplitMix64(77)
    vals = sample_values(cid, rng)
    got = np.asarray(evaluator(cid, e, the_vars)(vals), dtype=float)
    rows, cols = e.shape
    assert got.size == rows * cols
    if got.ndim == 2:
        assert got.shape == (rows, cols)
    else:
        assert rows * cols == 1


@pytest.mark.parametrize("cid", ALL_IDS)
def test_expression_value_path(cid):
    e, the_vars = build_expr(cid)
    # a composition's value has no evaluate of its own to agree with, so
    # it is held to the reference
    want_of = (ENTRIES[cid]["ref"] if cid in COMPOSITIONS
               else evaluator(cid, e, the_vars))
    rng = SplitMix64(99)
    case = ENTRIES[cid]
    var_idx = case.get("var_idx", list(range(len(case["shapes"]))))
    for _ in range(5):
        vals = sample_values(cid, rng)
        env = {v: vals[i] for v, i in zip(the_vars, var_idx)}
        got = e.value(env)
        want = want_of(vals)
        assert np.allclose(flat(got), flat(want), atol=1e-12)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_curvature_claim(cid):
    e, the_vars = build_expr(cid)
    case = ENTRIES[cid]
    assert e.curvature is case["curv"]
    # numeric soundness via segment tests
    value = evaluator(cid, e, the_vars)
    rng = SplitMix64(314)
    for _ in range(15):
        va = sample_values(cid, rng)
        vb = sample_values(cid, rng)
        fa = flat(value(va))
        fb = flat(value(vb))
        for theta in (0.25, 0.5, 0.75):
            vm = [theta * a + (1 - theta) * b for a, b in zip(va, vb)]
            fm = flat(value(vm))
            chord = theta * fa + (1 - theta) * fb
            tol = 1e-8 * (1.0 + np.max(np.abs(chord)))
            if case["curv"] in (CVX, AFF):
                assert np.all(fm <= chord + tol), cid
            if case["curv"] in (CCV, AFF):
                assert np.all(fm >= chord - tol), cid


@pytest.mark.parametrize("cid", ALL_IDS)
def test_sign_claim(cid):
    e, the_vars = build_expr(cid)
    case = ENTRIES[cid]
    assert e.sign is case["sign"]
    value = evaluator(cid, e, the_vars)
    rng = SplitMix64(2718)
    for _ in range(20):
        vals = sample_values(cid, rng)
        got = flat(value(vals))
        if case["sign"] is NN:
            assert np.all(got >= -1e-10), cid
        elif case["sign"] is NP_:
            assert np.all(got <= 1e-10), cid


@pytest.mark.parametrize("cid", ALL_IDS)
def test_monotonicity_claim(cid):
    e, the_vars = build_expr(cid)
    case = ENTRIES[cid]
    if cid in COMPOSITIONS:
        check_dcp_verdicts(cid)
        claims = case["mono"]
    else:
        d = REGISTRY[case_atom(cid)]
        claims = d.monotonicity([a.sign for a in e.args], e.params)
        assert claims == case["mono"]
    value = evaluator(cid, e, the_vars)
    rng = SplitMix64(1618)
    for _ in range(15):
        vals = sample_values(cid, rng)
        for i, claim in enumerate(claims):
            if claim is M.NONMONOTONE:
                continue
            bump = np.abs(np.asarray(rng.normals(*np.shape(vals[i])))) * 0.25
            if claim is M.SIGN_DEPENDENT:
                # increasing over nonneg inputs, decreasing over nonpos
                base = [v.copy() for v in vals]
                base[i] = np.abs(base[i])
                up = [v.copy() for v in base]
                up[i] = up[i] + bump
                f0 = flat(value(base))
                f1 = flat(value(up))
                assert np.all(f1 >= f0 - 1e-9), cid
                base[i] = -base[i]
                dn = [v.copy() for v in base]
                dn[i] = dn[i] - bump
                f0 = flat(value(base))
                f1 = flat(value(dn))
                assert np.all(f1 >= f0 - 1e-9), cid
                continue
            up = [v.copy() for v in vals]
            up[i] = up[i] + bump
            f0 = flat(value(vals))
            f1 = flat(value(up))
            if claim is M.INCREASING:
                assert np.all(f1 >= f0 - 1e-9), cid
            else:
                assert np.all(f1 <= f0 + 1e-9), cid


def test_unsupported_atoms_raise():
    x = cd.Variable(3, name="x")
    S = cd.Variable(3, 3, name="S")
    assert len(UNSUPPORTED) == 19
    for name in UNSUPPORTED:
        fn = getattr(cd, name)
        with pytest.raises(UnsupportedAtomError, match=name):
            try:
                fn(x)
            except TypeError:
                fn(x, S)


def test_power_only_square():
    x = cd.Variable(3, name="x")
    assert isinstance(cd.power(x, 2), AtomExpr)
    for p in (0.5, 1.5, 3, -1):
        with pytest.raises(UnsupportedAtomError):
            cd.power(x, p)


def test_huber_threshold_must_be_scalar():
    x = cd.Variable(2, name="x")
    with pytest.raises(ShapeError, match="huber threshold M"):
        cd.huber(x, [1.0, 2.0])
    with pytest.raises(ShapeError, match="huber threshold M"):
        cd.huber(x, cd.Constant(np.ones((2, 2))))


@pytest.mark.parametrize("name", ["hstack", "vstack"])
def test_stack_of_nothing_raises_shape_error(name):
    with pytest.raises(ShapeError, match=f"{name} needs at least one"):
        getattr(cd, name)()


def test_p_norm_orders():
    x = cd.Variable(3, name="x")
    for p in (1, 2, "inf", np.inf, "fro"):
        cd.p_norm(x, p) if p != "fro" else cd.cvxr_norm(x, p)
    for p in (3, 0.5, -1):
        with pytest.raises(UnsupportedAtomError):
            cd.p_norm(x, p)


def test_get_atom_unknown_name():
    with pytest.raises(UnsupportedAtomError):
        get_atom("wibble")


def test_get_atom_names_an_unsupported_atom():
    with pytest.raises(UnsupportedAtomError,
                       match=r"^unsupported atom 'geo_mean'; supported atoms "
                             r"are listed by atoms_table\(\)$"):
        get_atom("geo_mean")


def test_quad_form_of_a_sign_known_convex_argument():
    # with P = diag(4, 1), R = diag(2, 1) is nonnegative, so R pos(x) is
    # convex and nonnegative and its squared norm is convex
    x = cd.Variable(2, name="x")
    e = cd.quad_form(cd.pos(x), np.diag([4.0, 1.0]))
    assert e.curvature is CVX and e.sign is NN
    result = cd.solve(cd.Problem(cd.Minimize(e - cd.sum_entries(x))),
                      eps_abs=1e-9, eps_rel=1e-9)
    assert result.status == "optimal"
    assert np.isclose(result.value, -0.3125, atol=1e-7)
    assert np.allclose(result.value_of(x).ravel(), [0.125, 0.5], atol=1e-6)


def test_atoms_table_lists_registry():
    table = cd.atoms_table()
    for name in REGISTRY:
        assert f"| {name} |" in table
    header = table.splitlines()[0]
    assert "curvature" in header and "monotonicity" in header


def test_readme_atom_table_is_current():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert cd.atoms_table() in readme
    assert f"**Atoms**: {len(REGISTRY)} functions" in readme
