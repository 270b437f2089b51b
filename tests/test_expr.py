import itertools
import re
import warnings

import numpy as np
import pytest

import conedsl as cd
from conedsl.atoms import REGISTRY
from conedsl import canon
from conedsl.atoms.structural import _normalize_sel
from conedsl.expr import (AtomExpr, Curvature, Monotonicity, Sign,
                          resolve_monotonicity, sign_of_values, violation_path)
from conedsl.errors import (DCPError, InputError, ShapeError,
                            UnsupportedAtomError)
from conedsl.rng import SplitMix64


def test_variable_basics():
    x = cd.Variable(3, name="x")
    assert x.shape == (3, 1)
    assert x.size == 3
    assert x.curvature is Curvature.AFFINE
    assert x.sign is Sign.UNKNOWN
    assert not x.is_scalar
    assert cd.Variable(name="t").is_scalar


def test_variable_attr_validation():
    with pytest.raises(ValueError):
        cd.Variable(2, name="x", attr="bogus")
    with pytest.raises(ShapeError):
        cd.Variable(2, 3, name="x", attr="psd-symmetric")
    S = cd.Semidef(3)
    assert S.attr == "psd-symmetric"
    assert S.shape == (3, 3)


@pytest.mark.parametrize("name", [3, 1.5, ("x",), b"x"])
def test_variable_name_must_be_a_string(name):
    # a name becomes an export id, which import_json reads only as a string
    with pytest.raises(InputError, match="variable name must be a string"):
        cd.Variable(2, name=name)
    with pytest.raises(InputError, match="variable name must be a string"):
        cd.Semidef(2, name=name)


def test_constant_sign_detection():
    assert cd.Constant(np.eye(2)).sign is Sign.NONNEG
    assert cd.Constant(-np.ones(3)).sign is Sign.NONPOS
    assert cd.Constant(np.zeros(2)).sign is Sign.ZERO
    assert cd.Constant(np.array([1.0, -1.0])).sign is Sign.UNKNOWN
    assert cd.Constant(5.0).curvature is Curvature.CONSTANT


def test_arithmetic_shapes_and_curvature():
    x = cd.Variable(3, name="x")
    e = 2.0 * x + 1.0
    assert e.curvature is Curvature.AFFINE
    assert e.shape == (3, 1)
    q = cd.square(x)
    assert q.curvature is Curvature.CONVEX
    assert (-q).curvature is Curvature.CONCAVE
    assert (q + q).curvature is Curvature.CONVEX
    # convex + concave has no certificate
    assert (q - q).curvature is Curvature.UNKNOWN


def test_sign_propagation_through_composition():
    x = cd.Variable(3, name="x")
    assert cd.square(x).sign is Sign.NONNEG
    assert cd.abs(x).sign is Sign.NONNEG
    assert (-cd.abs(x)).sign is Sign.NONPOS
    assert cd.exp(x).sign is Sign.NONNEG


def test_composition_rule_uses_monotonicity():
    x = cd.Variable(3, name="x")
    # sqrt is concave increasing, so sqrt(affine) is concave
    assert cd.sqrt(x).curvature is Curvature.CONCAVE
    # exp of a convex argument is convex (increasing)
    assert cd.exp(cd.square(x)).curvature is Curvature.CONVEX
    # log of a concave argument is concave (increasing)
    assert cd.log(cd.sqrt(x)).curvature is Curvature.CONCAVE
    # exp of a concave argument has no certificate
    assert cd.exp(cd.sqrt(x)).curvature is Curvature.UNKNOWN
    # square composed with a nonneg convex inner argument stays convex
    assert cd.square(cd.abs(x)).curvature is Curvature.CONVEX
    # but square of an unknown-sign convex argument does not
    assert cd.square(cd.square(x) - 1).curvature is Curvature.UNKNOWN


def test_scaling_flips_curvature():
    x = cd.Variable(2, name="x")
    q = cd.square(x)
    assert (-3.0 * q).curvature is Curvature.CONCAVE
    assert (2.0 * q).curvature is Curvature.CONVEX


def test_matmul_shapes():
    A = np.ones((4, 3))
    x = cd.Variable(3, name="x")
    e = A @ x
    assert e.shape == (4, 1)
    with pytest.raises(ShapeError):
        np.ones((4, 2)) @ x


def test_value_evaluation():
    x = cd.Variable(2, name="x")
    env = {x: np.array([[1.0], [3.0]])}
    assert np.allclose((2 * x + 1).value(env), [[3.0], [7.0]])
    assert np.allclose(cd.square(x).value(env), [[1.0], [9.0]])
    assert np.isclose(cd.sum_entries(cd.abs(x)).value(env), 4.0)


def test_constraint_kinds():
    x = cd.Variable(2, name="x")
    le = cd.sum_entries(x) <= 1
    ge = cd.sum_entries(x) >= 0
    eq = x == np.zeros((2, 1))
    assert le.kind == "ineq"
    assert ge.kind == "ineq"
    assert eq.kind == "eq"


def test_constraint_violation():
    x = cd.Variable(2, name="x")
    env = {x: np.array([[1.0], [1.0]])}
    assert np.isclose((cd.sum_entries(cd.square(x)) <= 1).violation(env), 1.0)
    assert np.isclose((cd.sum_entries(x) <= 3).violation(env), 0.0)
    assert np.isclose((x == np.array([[1.0], [2.0]])).violation(env), 1.0)
    assert np.isclose((cd.sum_entries(x) >= 5).violation(env), 3.0)


def test_psd_constraint_violation():
    S = cd.Semidef(2)
    env = {S: np.array([[1.0, 0.0], [0.0, -2.0]])}
    con = cd.psd(S)
    # violation is the magnitude of the most negative eigenvalue
    assert np.isclose(con.violation(env), 2.0)


def test_dcp_accepts_convex_problem():
    x = cd.Variable(3, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_squares(x)),
                      [cd.sum_entries(x) == 1, x >= 0])
    rep = cd.dcp_check(prob)
    assert rep.accepted
    assert rep.messages == []


def test_dcp_accepts_concave_maximization():
    x = cd.Variable(3, name="x")
    prob = cd.Problem(cd.Maximize(cd.sum_entries(cd.log(x))),
                      [cd.sum_entries(x) <= 1])
    assert cd.dcp_check(prob).accepted


def test_dcp_rejects_nonconvex_objective():
    x = cd.Variable(3, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(cd.sqrt(x))))
    rep = cd.dcp_check(prob)
    assert not rep.accepted
    assert any("convex" in m for m in rep.messages)
    assert rep.paths  # a witness path through the tree is reported


def test_dcp_rejects_log_of_affine_plus_exp():
    X = np.ones((4, 3))
    beta = cd.Variable(3, name="beta")
    bad = cd.Problem(cd.Minimize(cd.sum_entries(cd.log(1 + cd.exp(X @ beta)))))
    rep = cd.dcp_check(bad)
    assert not rep.accepted
    # the reported path walks from the failing node down to the culprit
    names = [name for name, _ in rep.paths[0]]
    assert "log" in names


def test_dcp_logistic_rewrite_accepted():
    X = np.ones((4, 3))
    beta = cd.Variable(3, name="beta")
    good = cd.Problem(cd.Minimize(cd.sum_entries(cd.logistic(X @ beta))))
    assert cd.dcp_check(good).accepted


def test_dcp_rejects_bad_constraints():
    x = cd.Variable(2, name="x")
    # concave <= affine is not allowed
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)), [cd.sqrt(x) <= 1])
    rep = cd.dcp_check(prob)
    assert not rep.accepted
    # equality needs affine sides
    prob2 = cd.Problem(cd.Minimize(cd.sum_entries(x)), [cd.square(x) == 1])
    assert not cd.dcp_check(prob2).accepted
    # convex >= affine is not allowed
    prob3 = cd.Problem(cd.Minimize(cd.sum_entries(x)), [cd.square(x) >= 1])
    assert not cd.dcp_check(prob3).accepted


def test_violation_path_structure():
    x = cd.Variable(2, name="x")
    e = cd.sum_entries(cd.log(1 + cd.exp(x)))
    path = violation_path(e, "convex")
    assert path
    for name, curv in path:
        assert isinstance(name, str)
        assert isinstance(curv, Curvature)


def test_solve_raises_dcp_error_with_report():
    x = cd.Variable(2, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(cd.sqrt(x))))
    with pytest.raises(DCPError):
        cd.solve(prob)


def test_numpy_interop_priority():
    # numpy arrays defer to Expression operators on both sides
    x = cd.Variable(3, name="x")
    lhs = np.ones((3, 1)) + x
    rhs = x + np.ones((3, 1))
    env = {x: np.zeros((3, 1))}
    assert isinstance(lhs, cd.Expression)
    assert np.allclose(lhs.value(env), rhs.value(env))
    comp = np.ones((3, 1)) * 2 >= x
    assert isinstance(comp, cd.Constraint)


def test_indexing_and_transpose():
    x = cd.Variable(4, name="x")
    assert x[1].shape == (1, 1)
    assert x[1:3].shape == (2, 1)
    M = cd.Variable(3, 4, name="M")
    assert M.T.shape == (4, 3)
    assert M[1, 2].shape == (1, 1)
    env = {M: np.arange(12, dtype=float).reshape(3, 4)}
    assert np.isclose(M[1, 2].value(env), 6.0)
    assert np.allclose(M.T.value(env), np.arange(12, dtype=float).reshape(3, 4).T)


INDEX_KEYS = [0, 4, -1, -5, np.int64(2), np.int32(-3), slice(None),
              slice(1, 4), slice(None, None, -1), slice(3, None, -2),
              slice(-2, -6, -1), slice(10, -10, -3), slice(np.int64(1), None),
              [0, 2, 4], [-1, 0, -1], np.array([3, 1]),
              np.array([True, False, True, False, True])]


@pytest.mark.parametrize("key", INDEX_KEYS, ids=repr)
def test_index_selection_matches_numbering_the_axis(key):
    expected = np.atleast_1d(np.arange(5)[key])
    sel = _normalize_sel(key, 5)
    assert sel.dtype == np.int64 and np.array_equal(sel, expected)
    x = cd.Variable(5, name="x")
    v = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
    assert np.array_equal(x[key].value({x: v}).ravel(), v[expected])
    M = cd.Variable(3, 5, name="M")
    V = np.arange(15.0).reshape(3, 5)
    assert np.array_equal(M[1:, key].value({M: V}), V[1:][:, expected])


@pytest.mark.parametrize("key", [5, -6, np.int64(7), True, np.True_,
                                 slice(3, 3), slice(4, 1), [],
                                 np.zeros(5, dtype=bool)], ids=repr)
def test_index_selection_rejects_out_of_range_and_empty(key):
    x = cd.Variable(5, name="x")
    with pytest.raises(ShapeError):
        x[key]


def test_index_out_of_range_names_the_index_and_size():
    x = cd.Variable(5, name="x")
    for key in (5, np.int64(-6)):
        with pytest.raises(ShapeError, match=re.escape(
                f"index out of range: index {key} is out of bounds for axis 0 "
                "with size 5")):
            x[key]


# -- random trees over the registered atoms -----------------------------------

SCALAR, COL, ROW, SQUARE = (1, 1), (3, 1), (1, 3), (3, 3)
SHAPES = (SCALAR, COL, ROW, SQUARE)
TRANSPOSED = {SCALAR: SCALAR, COL: ROW, ROW: COL, SQUARE: SQUARE}
ELEMENTWISE = (cd.abs, cd.entr, cd.exp, lambda e: cd.huber(e, 1.5),
               cd.inv_pos, cd.log, cd.logistic, cd.neg, cd.pos, cd.sqrt,
               cd.square)


def pick(rng, options):
    return options[rng.randint(len(options))]


def random_constant(rng, shape):
    """Positive, negative, mixed-sign or zero entries."""
    kind = rng.randint(4)
    vals = rng.uniforms(*shape) + 0.5
    if kind == 1:
        vals = -vals
    elif kind == 2:
        vals = rng.normals(*shape)
    elif kind == 3:
        vals = np.zeros(shape)
    return cd.Constant(vals)


def definite(rng, sign):
    B = rng.normals(3, 3)
    return sign * (B @ B.T)


def varying(sub, shape):
    """A subtree that is not constant, for the operands a facade would
    otherwise evaluate."""
    return sub(shape) + cd.Variable(*shape)


# rules per output shape; each takes the generator and a builder of
# subtrees of a given shape, and composes without regard to DCP
ANY_SHAPE_RULES = (
    lambda rng, sub, s: pick(rng, ELEMENTWISE)(sub(s)),
    lambda rng, sub, s: sub(s) + sub(s),
    lambda rng, sub, s: sub(s) - sub(s),
    lambda rng, sub, s: rng.normal() * sub(s),
    lambda rng, sub, s: sub(s) / -2.0,
    lambda rng, sub, s: random_constant(rng, s) * sub(s),
    lambda rng, sub, s: cd.max_elemwise(*[sub(s) for _ in range(2 + rng.randint(2))]),
    lambda rng, sub, s: cd.min_elemwise(*[sub(s) for _ in range(2 + rng.randint(2))]),
    lambda rng, sub, s: cd.cumsum_axis(sub(s), 1 + rng.randint(2)),
    lambda rng, sub, s: sub(TRANSPOSED[s]).T,
)
SHAPE_RULES = {
    SCALAR: (
        lambda rng, sub: sub(COL)[rng.randint(3)],
        lambda rng, sub: cd.diff(sub(COL), differences=2),
        lambda rng, sub: cd.sum_entries(sub(pick(rng, SHAPES))),
        lambda rng, sub: cd.matrix_trace(sub(SQUARE)),
        lambda rng, sub: cd.lambda_max(sub(SQUARE)),
        lambda rng, sub: cd.lambda_min(sub(SQUARE)),
        lambda rng, sub: cd.log_det(sub(SQUARE)),
        lambda rng, sub: cd.log_sum_exp(sub(COL)),
        lambda rng, sub: cd.max_entries(sub(pick(rng, (COL, SQUARE)))),
        lambda rng, sub: cd.min_entries(sub(pick(rng, (COL, SQUARE)))),
        lambda rng, sub: cd.p_norm(sub(COL), pick(rng, (1, 2, "inf"))),
        lambda rng, sub: cd.cvxr_norm(sub(SQUARE), "fro"),
        lambda rng, sub: cd.sum_squares(sub(COL)),
        lambda rng, sub: cd.quad_form(varying(sub, COL), definite(rng, pick(rng, (1, -1)))),
        lambda rng, sub: cd.quad_form(random_constant(rng, COL), sub(SQUARE)),
        lambda rng, sub: cd.quad_over_lin(sub(COL), sub(SCALAR)),
        lambda rng, sub: rng.normals(1, 3) @ sub(COL),
        lambda rng, sub: varying(sub, ROW) @ rng.normals(3, 1),
    ),
    COL: (
        lambda rng, sub: sub(SQUARE)[:, rng.randint(3)],
        lambda rng, sub: cd.vstack(sub(SCALAR), sub(SCALAR), sub(SCALAR)),
        lambda rng, sub: cd.diag(sub(SQUARE)),
        lambda rng, sub: rng.normals(3, 3) @ sub(COL),
        lambda rng, sub: cd.vec(sub(ROW)),
        lambda rng, sub: random_constant(rng, COL) * sub(SCALAR),
        lambda rng, sub: cd.sum_entries(sub(SQUARE), axis=1),
    ),
    ROW: (
        lambda rng, sub: sub(SQUARE)[rng.randint(3), :],
        lambda rng, sub: cd.hstack(sub(SCALAR), sub(SCALAR), sub(SCALAR)),
        lambda rng, sub: varying(sub, ROW) @ rng.normals(3, 3),
        lambda rng, sub: cd.reshape_expr(sub(COL), 1, 3),
        lambda rng, sub: cd.sum_entries(sub(SQUARE), axis=2),
    ),
    SQUARE: (
        lambda rng, sub: cd.hstack(sub(COL), sub(COL), sub(COL)),
        lambda rng, sub: cd.vstack(sub(ROW), sub(ROW), sub(ROW)),
        lambda rng, sub: cd.diag(sub(COL)),
        lambda rng, sub: rng.normals(3, 3) @ sub(SQUARE),
        lambda rng, sub: varying(sub, SQUARE) @ rng.normals(3, 3),
        lambda rng, sub: sub(SQUARE)[[2, 0, 1], :],
    ),
}


def random_tree(rng, shape, depth):
    """An expression of the given shape, DCP or not, at most depth atoms
    deep."""
    if depth == 0 or rng.randint(5) == 0:
        return cd.Variable(*shape) if rng.randint(3) else random_constant(rng, shape)

    def sub(s):
        return random_tree(rng, s, depth - 1)

    rules = SHAPE_RULES[shape]
    k = rng.randint(len(ANY_SHAPE_RULES) + len(rules))
    if k < len(ANY_SHAPE_RULES):
        return ANY_SHAPE_RULES[k](rng, sub, shape)
    return rules[k - len(ANY_SHAPE_RULES)](rng, sub)


def random_problem(seed, depth=3):
    rng = SplitMix64(seed)
    sense = pick(rng, (cd.Minimize, cd.Maximize))
    constraints = []
    for _ in range(rng.randint(4)):
        kind = rng.randint(3)
        if kind == 2:
            constraints.append(cd.psd(random_tree(rng, SQUARE, depth)))
            continue
        shape = pick(rng, SHAPES)
        lhs, rhs = random_tree(rng, shape, depth), random_tree(rng, shape, depth)
        constraints.append(lhs <= rhs if kind == 0 else lhs == rhs)
    return cd.Problem(sense(random_tree(rng, SCALAR, depth)), constraints)


def atom_nodes(e, seen=None):
    """Distinct atom nodes of a tree, by identity."""
    seen = {} if seen is None else seen
    if isinstance(e, AtomExpr) and id(e) not in seen:
        seen[id(e)] = e
        for a in e.args:
            atom_nodes(a, seen)
    return seen


def reference_curvature(e):
    """The composition rule of Grant, Boyd and Ye, read per argument:
    affine always passes; a convex argument passes where the clause's
    atom increases in it (convex clause) or decreases (concave clause);
    a concave one the other way round."""
    if not isinstance(e, AtomExpr):
        return e.curvature
    curvs = [reference_curvature(a) for a in e.args]
    if all(c is Curvature.CONSTANT for c in curvs):
        return Curvature.CONSTANT
    signs = [a.sign for a in e.args]
    base = e.atom.base_curvature(signs, e.params)
    monos = [resolve_monotonicity(m, s)
             for m, s in zip(e.atom.monotonicity(signs, e.params), signs)]
    up = {True: Monotonicity.INCREASING, False: Monotonicity.DECREASING}

    def holds(convex):
        if base not in (Curvature.AFFINE,
                        Curvature.CONVEX if convex else Curvature.CONCAVE):
            return False
        return all(c in (Curvature.CONSTANT, Curvature.AFFINE)
                   or (c is Curvature.CONVEX and m is up[convex])
                   or (c is Curvature.CONCAVE and m is up[not convex])
                   for c, m in zip(curvs, monos))

    cvx, ccv = holds(True), holds(False)
    if cvx and ccv:
        return Curvature.AFFINE
    if cvx or ccv:
        return Curvature.CONVEX if cvx else Curvature.CONCAVE
    return Curvature.UNKNOWN


MEETS = {
    "affine": {Curvature.CONSTANT, Curvature.AFFINE},
    "convex": {Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONVEX},
    "concave": {Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONCAVE},
}


def test_random_trees_reach_every_registered_atom():
    used = set()
    for seed in range(300):
        p = random_problem(seed)
        for body in [p.objective.expr] + [c.body for c in p.constraints]:
            used |= {e.atom.name for e in atom_nodes(body).values()}
    assert used == set(REGISTRY)


@pytest.mark.parametrize("block", range(4))
def test_violation_path_agrees_with_curvature(block):
    accepted = 0
    for seed in range(100 * block, 100 * block + 100):
        p = random_problem(seed)
        bodies = [p.objective.expr] + [c.body for c in p.constraints]
        for body in bodies:
            for e in [body] + list(atom_nodes(body).values()):
                assert e.curvature is reference_curvature(e)
                for need, meets in MEETS.items():
                    path = violation_path(e, need)
                    assert (path is None) == (e.curvature in meets)
                    if path is not None:
                        assert path[0] == (e.label(), e.curvature)
        obj_need = "convex" if p.objective.sense == "minimize" else "concave"
        needs = [obj_need] + [{"eq": "affine", "ineq": "convex",
                               "psd": "affine"}[c.kind] for c in p.constraints]
        all_clear = all(violation_path(b, n) is None
                        for b, n in zip(bodies, needs))
        assert cd.dcp_check(p).accepted == all_clear
        accepted += all_clear
    # the corpus holds both verdicts
    assert 0 < accepted < 100


def count_rule_calls(monkeypatch):
    calls = {"base_curvature": 0, "monotonicity": 0}

    def counted(name, fn):
        def wrapper(signs, params):
            calls[name] += 1
            return fn(signs, params)
        return wrapper

    for desc in REGISTRY.values():
        for name in calls:
            monkeypatch.setattr(desc, name, counted(name, getattr(desc, name)))
    return calls


def test_curvature_consults_each_atom_rule_once_per_node(monkeypatch):
    calls = count_rule_calls(monkeypatch)
    x = cd.Variable(3, name="x")
    e = cd.sum_entries(cd.square(x - 1)) + cd.p_norm(cd.exp(x), 2)
    assert e.curvature is Curvature.CONVEX
    n_atoms = len(atom_nodes(e))
    assert 0 < calls["base_curvature"] <= n_atoms
    assert 0 < calls["monotonicity"] <= n_atoms
    # a rejection path reads the rule inference already applied
    calls.update(base_curvature=0, monotonicity=0)
    bad = cd.sum_entries(cd.sqrt(cd.square(x - 1))) + cd.p_norm(cd.exp(x), 2)
    assert not cd.dcp_check(cd.Problem(cd.Minimize(bad))).accepted
    n_atoms = len(atom_nodes(bad))
    assert 0 < calls["base_curvature"] <= n_atoms
    assert 0 < calls["monotonicity"] <= n_atoms


@pytest.mark.parametrize("seed", range(40))
def test_random_tree_curvature_consults_rules_once_per_node(monkeypatch, seed):
    calls = count_rule_calls(monkeypatch)
    p = random_problem(seed)
    nodes = {}
    for body in [p.objective.expr] + [c.body for c in p.constraints]:
        body.curvature
        atom_nodes(body, nodes)
    assert calls["base_curvature"] <= len(nodes)
    assert calls["monotonicity"] <= len(nodes)


def test_checking_and_lowering_apply_no_atom_rule(monkeypatch):
    # sign and curvature are fixed when a node is built; the check, its
    # rejection paths and the lowering only read them
    x = cd.Variable(3, name="x")
    good = cd.Problem(cd.Minimize(cd.sum_entries(cd.square(x - 1))),
                      [cd.p_norm(cd.exp(x), 2) <= 4, x[0] == 2.0 * x[1],
                       cd.log(x) >= -1])
    bad = cd.Problem(cd.Minimize(cd.sum_entries(cd.sqrt(cd.square(x - 1)))),
                     [cd.log(x) <= 1])
    calls = {"sign_out": 0, "base_curvature": 0, "monotonicity": 0}

    def counted(name, fn):
        def wrapper(signs, params):
            calls[name] += 1
            return fn(signs, params)
        return wrapper

    for desc in REGISTRY.values():
        for name in calls:
            monkeypatch.setattr(desc, name, counted(name, getattr(desc, name)))
    assert cd.dcp_check(good).accepted
    assert violation_path(good.objective.expr, "concave") is not None
    canon.canonicalize(good)
    assert not cd.dcp_check(bad).accepted
    assert violation_path(bad.objective.expr, "convex") is not None
    with pytest.raises(DCPError):
        canon.canonicalize(bad)
    assert calls == {"sign_out": 0, "base_curvature": 0, "monotonicity": 0}


def three_pass_sign(values):
    if np.all(values == 0):
        return Sign.ZERO
    if np.all(values >= 0):
        return Sign.NONNEG
    if np.all(values <= 0):
        return Sign.NONPOS
    return Sign.UNKNOWN


def test_sign_of_values_matches_three_pass_definition():
    entries = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324)
    arrays = [np.array(c) for n in (1, 2, 3)
              for c in itertools.product(entries, repeat=n)]
    arrays += [a.reshape(2, 2) for a in map(np.array, itertools.product(
        entries, repeat=4))]
    arrays += [np.array([[-0.0]]), np.array(7.0), np.full((3, 2), -0.0)]
    for a in arrays:
        assert sign_of_values(a) is three_pass_sign(a), a


@pytest.mark.parametrize("c, curvature", [
    (np.zeros((3, 1)), Curvature.CONVEX),
    (np.array([[0.0], [-0.0], [2.0]]), Curvature.CONVEX),
    (np.array([[0.0], [-0.0], [-2.0]]), Curvature.CONCAVE),
    (np.array([[1.0], [0.0], [-1.0]]), Curvature.UNKNOWN),
], ids=["zero", "nonneg", "nonpos", "mixed"])
def test_constant_products_are_monotone_by_the_constant_sign(c, curvature):
    # a product with a constant increases where the constant is >= 0 and
    # decreases where it is <= 0, an all-zero constant included
    x = cd.Variable(3, name="x")
    assert (c * cd.square(x)).curvature is curvature
    assert (c.T @ cd.square(x)).curvature is curvature
    assert (cd.square(x).T @ c).curvature is curvature


def test_constant_products_classify_each_constant_once(monkeypatch):
    from conedsl import expr as expr_mod
    from conedsl.atoms import structural
    classified, constants = [], []
    real_sign, real_init = expr_mod.sign_of_values, expr_mod.ConstantExpr.__init__

    def counting_sign(values):
        classified.append(values.shape)
        return real_sign(values)

    def counting_init(self, values):
        constants.append(values)
        real_init(self, values)

    for mod in (expr_mod, structural):
        monkeypatch.setattr(mod, "sign_of_values", counting_sign)
    monkeypatch.setattr(expr_mod.ConstantExpr, "__init__", counting_init)
    A = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    x, t = cd.Variable(3, name="x"), cd.Variable(name="t")
    # the matrix is classified once, when it becomes a constant node, and
    # its sign is read from there by the product's sign and monotonicity
    assert (A @ x).sign is Sign.UNKNOWN
    assert classified == [(2, 3)]
    # a plain number never becomes a constant node
    constants.clear()
    e = 2.0 * t
    assert constants == [] and e.sign is Sign.UNKNOWN
    # a constant vector times a scalar expression is one node over it
    v = np.array([[1.0], [-2.0], [0.5]])
    e = v * t
    assert isinstance(e, AtomExpr) and e.args == (t,)
    assert e.atom.name == "mul_elemwise" and e.shape == (3, 1)
    assert np.array_equal(e.value({t: 4.0}), 4.0 * v)


def test_product_with_a_zero_factor_is_zero():
    # sign_mul gives ZERO when either factor is zero, a mixed-sign
    # constant matrix included
    A = np.array([[1.0, -2.0], [0.5, 3.0]])
    z = 0.0 * cd.Variable(2, name="x")
    assert z.sign is Sign.ZERO
    assert (A @ z).sign is Sign.ZERO
    assert (z.T @ A).sign is Sign.ZERO


@pytest.mark.parametrize("build", [
    lambda x: cd.Variable(2.5),
    lambda x: cd.Variable(2, 1.0),
    lambda x: cd.Variable(np.float64(3.0)),
    lambda x: cd.Variable(True),
    lambda x: cd.Variable(2, np.True_),
    lambda x: cd.reshape_expr(x, 3.7, 1),
    lambda x: cd.reshape_expr(x, 3, 1.0),
    lambda x: cd.reshape_expr(x, True, 3),
    lambda x: cd.diff(x, lag=1.5),
    lambda x: cd.diff(x, differences=2.7),
    lambda x: cd.diff(x, lag=True),
    lambda x: cd.diff(x, lag="2"),
    lambda x: cd.sum_entries(x, axis=True),
    lambda x: cd.sum_entries(x, axis=1.0),
    lambda x: cd.cumsum_axis(x, True),
    lambda x: cd.cumsum_axis(x, 2.0),
], ids=["var-2.5", "var-cols-1.0", "var-float64", "var-True", "var-np.True_",
        "reshape-3.7", "reshape-cols-1.0", "reshape-True", "diff-lag-1.5",
        "diff-differences-2.7", "diff-lag-True", "diff-lag-str",
        "sum-axis-True", "sum-axis-1.0", "cumsum-axis-True",
        "cumsum-axis-2.0"])
def test_non_integral_dimensions_rejected(build):
    # a float or bool dimension is refused, not truncated
    x = cd.Variable(3, name="x")
    with pytest.raises(ShapeError, match="must be integers"):
        build(x)


def test_numpy_integer_dimensions_accepted():
    assert cd.Variable(np.int64(2), np.int32(3)).shape == (2, 3)
    x = cd.Variable(6, name="x")
    assert cd.reshape_expr(x, np.int64(2), np.int8(3)).shape == (2, 3)
    assert cd.diff(x, lag=np.int64(2), differences=np.int32(2)).shape == (2, 1)
    assert cd.sum_entries(x, axis=None).shape == (1, 1)
    assert cd.sum_entries(x, axis=np.int64(1)).shape == (6, 1)
    assert cd.cumsum_axis(x, np.int8(2)).shape == (6, 1)


def test_violation_path_follows_first_clause_then_first_argument():
    x = cd.Variable(2, name="x")
    y = cd.Variable(2, name="y")
    e = cd.square(x) + cd.sqrt(y) + cd.log(x)
    U, CVX, CCV = Curvature.UNKNOWN, Curvature.CONVEX, Curvature.CONCAVE
    # the convex clause comes first, and its first breaking argument is the
    # inner sum, whose own convex clause breaks first at sqrt
    assert violation_path(e, "affine") == [("+", U), ("+", U), ("sqrt", CCV)]
    assert violation_path(e, "convex") == [("+", U), ("+", U), ("sqrt", CCV)]
    assert violation_path(e, "concave") == [("+", U), ("+", U),
                                            ("square", CVX)]


def test_nonfinite_constant_names_its_first_bad_entry():
    # row-major order: (0, 2) comes before (1, 0)
    bad = np.array([[1.0, 2.0, -np.inf], [np.nan, 3.0, np.inf]])
    with pytest.raises(InputError, match=re.escape(
            "constant has non-finite entry -inf at index (0, 2)")):
        cd.Constant(bad)


@pytest.mark.parametrize("build, error, message", [
    (lambda x, X: x ** 3, UnsupportedAtomError,
     "power exponent 3 is not supported; only p = 2 is available"),
    (lambda x, X: x != 1, DCPError, "!= comparisons are not valid constraints"),
    (lambda x, X: x * x, DCPError,
     "cannot multiply two non-constant expressions"),
    (lambda x, X: x / 0, InputError, "division of an expression by zero"),
    (lambda x, X: cd.quad_form(x, X), DCPError,
     "quad_form requires x or P to be constant"),
    (lambda x, X: cd.quad_form(x, np.array([[1.0, 2.0], [0.0, 1.0]])),
     DCPError, "quad_form matrix must be symmetric"),
    (lambda x, X: cd.quad_form(x, np.array([[1.0, 0.0], [0.0, -1.0]])),
     DCPError, "quad_form with an indefinite matrix is not DCP"),
    (lambda x, X: cd.hstack(x, cd.Variable(3)), ShapeError,
     "hstack arguments must share a row count"),
    (lambda x, X: cd.vstack(x.T, cd.Variable(1, 3)), ShapeError,
     "vstack arguments must share a column count"),
    (lambda x, X: cd.diag(cd.Variable(2, 3)), ShapeError,
     "diag needs a vector or a square matrix"),
    (lambda x, X: X[0, 0, 0], ShapeError,
     "matrix indexing takes at most two subscripts"),
    (lambda x, X: cd.quad_over_lin(x, x), ShapeError,
     "quad_over_lin denominator must be scalar"),
    (lambda x, X: cd.cumsum_axis(X, None), ShapeError,
     "cumsum_axis axis must be 1 or 2; got None"),
    (lambda x, X: cd.cumsum_axis(X, 3), ShapeError,
     "cumsum_axis axis must be 1 or 2; got 3"),
    # the boundary checks that the lowering and lin.py rely on
    (lambda x, X: x + cd.Variable(3), ShapeError,
     "argument shapes (2, 1) and (3, 1) disagree"),
    (lambda x, X: X <= cd.Variable(3, 3), ShapeError,
     "constraint sides have incompatible shapes (2, 2) and (3, 3)"),
    (lambda x, X: cd.sum_entries(X, 3), ShapeError,
     "axis must be None, 1, or 2; got 3"),
    (lambda x, X: cd.diff(x, lag=0), ShapeError,
     "diff lag and differences must be >= 1"),
    (lambda x, X: np.ones((2, 3)) @ x, ShapeError,
     "matrix product inner dimensions 3 and 2 disagree"),
    (lambda x, X: X @ X, DCPError,
     "cannot multiply two non-constant expressions"),
    (lambda x, X: x / X[0, 0], DCPError, "expression is not constant"),
    (lambda x, X: cd.divide(x, np.ones(2)), ShapeError,
     "division requires a scalar constant divisor"),
    (lambda x, X: cd.psd(cd.Variable(2, 3)), ShapeError,
     "psd constraints require a square expression"),
    (lambda x, X: cd.quad_form(cd.Variable(3), np.eye(2)), ShapeError,
     "quad_form expects a column vector matching the matrix"),
    (lambda x, X: cd.quad_form(x, np.ones((2, 3))), ShapeError,
     "quad_form matrix must be square"),
    (lambda x, X: cd.huber(x, -1.0), DCPError,
     "huber threshold M must be a positive constant"),
    (lambda x, X: cd.reshape_expr(X, 3, 1), ShapeError,
     "cannot reshape (2, 2) (4 entries) to (3, 1)"),
    (lambda x, X: x + "a", TypeError, "cannot interpret str as an expression"),
], ids=["power-3", "not-equal", "product-of-variables", "divide-by-zero",
        "quad_form-no-constant", "quad_form-nonsymmetric",
        "quad_form-indefinite", "hstack-rows", "vstack-cols",
        "diag-nonsquare", "index-three-subscripts",
        "quad_over_lin-vector-denominator", "cumsum-axis-None",
        "cumsum-axis-3", "add-shapes", "constraint-shapes", "sum-axis-3",
        "diff-lag-0", "matmul-inner", "matmul-of-variables",
        "divide-by-variable", "divide-by-vector", "psd-nonsquare",
        "quad_form-vector-length", "quad_form-nonsquare",
        "huber-negative-M", "reshape-size", "not-an-expression"])
def test_modeling_error_names_its_cause(build, error, message):
    x = cd.Variable(2, name="x")
    X = cd.Variable(2, 2, name="X")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(x, X)


def test_value_outside_an_atoms_domain_is_nonfinite_without_a_warning():
    x = cd.Variable(name="x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cd.log(x).value({x: 0.0})[0, 0] == -np.inf
        assert cd.inv_pos(x).value({x: 0.0})[0, 0] == np.inf
        assert cd.exp(x + 1000.0).value({x: 0.0})[0, 0] == np.inf


@pytest.mark.parametrize("seed, message", [
    (257, "log_det has non-finite entry -inf at index (0, 0)"),
    (387, "inv_pos has non-finite entry inf at index (0, 0)"),
], ids=["257", "387"])
def test_random_tree_folding_an_out_of_domain_constant_names_its_atom(
        seed, message):
    # 257 takes log_det of a constant that is not positive definite; 387
    # takes inv_pos of 0 under a negation. The rules accept both, and the
    # fold refuses them without a numpy warning.
    p = random_problem(seed)
    assert cd.dcp_check(p).accepted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            canon.canonicalize(p)
