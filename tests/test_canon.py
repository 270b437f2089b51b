import json
import re
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import conedsl as cd
from conedsl import canon, cones, linalg
from conedsl.errors import InputError, SchemaError, ShapeError
from conedsl.examples import ExampleConfig, build_example
from conedsl.rng import SplitMix64

from oracles import spec_blocks


def small_lp():
    x = cd.Variable(2, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)),
                      [x >= 1, cd.sum_entries(x) <= 5])
    return prob, x


def test_standard_form_row_structure():
    prob, _ = small_lp()
    cp, vmap = canon.canonicalize(prob)
    assert cp.cones.zero == 0
    assert cp.cones.nonneg == 3
    assert vmap.n == 2 and vmap.m == 3
    # rows encode Ax + s = b with s >= 0: x >= 1 becomes -x + s = -1
    assert np.allclose(cp.A.toarray(), [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    assert np.allclose(cp.b, [-1.0, -1.0, 5.0])
    assert np.allclose(cp.c, [1.0, 1.0])


def test_cone_row_ordering():
    # zero rows first, then nonneg, soc, psd, exp
    x = cd.Variable(3, name="x")
    S = cd.Semidef(2)
    prob = cd.Problem(
        cd.Minimize(cd.sum_entries(x) + cd.matrix_trace(S) + cd.log_sum_exp(x)),
        [cd.sum_entries(x) == 1, x >= 0, cd.cvxr_norm(x, 2) <= 2.0])
    cp, _ = canon.canonicalize(prob)
    spec = cp.cones
    assert spec.zero >= 1 and spec.nonneg >= 3 and spec.soc and spec.psd == [2]
    assert spec.ep >= 1
    # the kinds in K's row order, each spanning the rows of its blocks
    layout = cones.layout(spec)
    assert [k[0] for k in layout.kinds] == list(cones.KINDS)
    assert [k[1:3] for k in layout.kinds] == [
        (min(b[1] for b in ref), max(b[2] for b in ref))
        for ref in ([b for b in spec_blocks(spec) if b[0] == kind]
                    for kind in cones.KINDS)]
    assert layout.total_dim == vdim(spec) == cp.m


def vdim(spec):
    return spec.zero + spec.nonneg + sum(spec.soc) \
        + sum(n * (n + 1) // 2 for n in spec.psd) + 3 * spec.ep


KIND_ORDER = ["zero", "nonneg", "soc", "psd", "exp"]


def random_spec(rng):
    """A ConeSpec whose kinds are each empty with probability 1/3."""
    def count(hi):
        return 0 if rng.uniform() < 1 / 3 else int(rng.randint(hi)) + 1

    return canon.ConeSpec(
        zero=count(4), nonneg=count(4),
        soc=[int(rng.randint(5)) + 1 for _ in range(count(3))],
        psd=[int(rng.randint(4)) + 1 for _ in range(count(3))],
        ep=count(3))


@pytest.mark.parametrize("seed", range(20))
def test_cone_layout_views_tile_the_same_rows(seed):
    spec = random_spec(SplitMix64(600 + seed))
    m = vdim(spec)
    assert spec.total_dim == m
    ref = spec_blocks(spec)
    layout = cones.layout(spec)
    assert layout.total_dim == m
    # the kinds tile 0..m in the one kind order, each present kind once
    views = layout.kinds
    assert [v[1] for v in views] == [0] + [v[2] for v in views[:-1]]
    assert (views[-1][2] if views else 0) == m
    assert [v[0] for v in views] == [k for k in KIND_ORDER
                                      if any(b[0] == k for b in ref)]
    # each kind's Blocks are exactly its reference blocks
    for kind, start, stop, blk in views:
        mine = [b for b in ref if b[0] == kind]
        assert (mine[0][1], mine[-1][2]) == (start, stop) == (
            start, start + blk.dim)
        assert (start + blk.starts).tolist() == [b[1] for b in mine]
        assert blk.sizes.tolist() == [
            b[2] - b[1] if b[3] is None else b[3] for b in mine]


def test_empty_cone_layout():
    spec = canon.ConeSpec()
    assert spec.total_dim == 0
    assert cones.layout(spec) == cones.Layout(0, ())


def test_constraint_records_address_their_rows():
    # affine eq / ineq / psd constraints interleaved with atoms that add
    # rows of those kinds: abs and huber (nonneg), lambda_max (psd),
    # log_sum_exp (nonneg, exp), so each record's first row depends on the
    # rows registered before it
    rng = SplitMix64(71)
    x = cd.Variable(4, name="x")
    S = cd.Variable(3, 3, name="S")
    M1, M2 = rng.normals(2, 4), rng.normals(3, 3)
    atoms = {}

    def atom_le(atom, rhs):
        con = atom <= rhs
        atoms[con.cid] = atom
        return con

    cons = [
        M1 @ x == rng.normals(2, 1),
        atom_le(cd.abs(x), 2.0 + x),
        x >= -1.0,
        cd.psd(S + M2),
        atom_le(cd.lambda_max(S), 3.0 + cd.sum_entries(x)),
        cd.matrix_trace(S) == 2.0,
        atom_le(cd.huber(x), 5.0 - x),
        cd.psd(S.T + 2.0 * M2),
        atom_le(cd.log_sum_exp(x), 4.0 + x[0]),
        x[1] + x[2] == 0.5,
    ]
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)), cons)
    cp, vmap = canon.canonicalize(prob)
    assert [r.cid for r in vmap.constrs] == [c.cid for c in cons]

    # a random user point; auxiliary columns are 0, and each atom above
    # returns a form over auxiliary columns only, so an atom's rows read
    # as if the atom were 0
    env, point = {}, np.zeros(cp.n)
    for var in (x, S):
        rec = vmap.var_by_vid(var.vid)
        env[var.vid] = rng.normals(rec.rows, rec.cols)
        point[rec.offset:rec.offset + rec.size] = env[var.vid].ravel(order="F")
    slack = cp.b - cp.A @ point
    for rec, con in zip(vmap.constrs, cons):
        body = np.asarray(con.body.value(env), dtype=float)
        if con.cid in atoms:
            body = body - atoms[con.cid].value(env)
        if rec.cone == "zero":
            expect = body.ravel(order="F")
        elif rec.cone == "nonneg":
            expect = -body.ravel(order="F")
        else:
            expect = linalg.svec(0.5 * (body + body.T))
        assert rec.length == expect.size
        assert np.allclose(slack[rec.row:rec.row + rec.length], expect,
                           rtol=0, atol=1e-12), con


def test_maximize_flips():
    x = cd.Variable(2, name="x")
    pmin = cd.Problem(cd.Minimize(cd.sum_entries(x)), [x >= 1])
    pmax = cd.Problem(cd.Maximize(-cd.sum_entries(x)), [x >= 1])
    cmin, _ = canon.canonicalize(pmin)
    cmax, _ = canon.canonicalize(pmax)
    assert not cmin.flipped and cmax.flipped
    assert np.allclose(cmin.c, cmax.c)


def test_constant_offset_folded():
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(x + 7.5), [x >= 0])
    cp, _ = canon.canonicalize(prob)
    assert np.isclose(cp.offset, 7.5)
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert np.isclose(res.value, 7.5, atol=1e-7)


def test_canonicalize_deterministic():
    texts = []
    for _ in range(3):
        prob, _ = small_lp()
        cp, vmap = canon.canonicalize(prob)
        texts.append(canon.export_json(cp, vmap))
    # same structure modulo fresh variable ids
    docs = [json.loads(t) for t in texts]
    for d in docs:
        for v in d["vars"]:
            v["id"] = "_"
        for c in d["constrs"]:
            c["id"] = "_"
    assert docs[0] == docs[1] == docs[2]


def test_export_schema_keys_and_round_trip():
    prob, _ = small_lp()
    cp, vmap = canon.canonicalize(prob)
    text = canon.export_json(cp, vmap)
    doc = json.loads(text)
    assert set(doc) == {"version", "n", "m", "c", "b", "offset", "flipped",
                        "A", "cones", "vars", "constrs"}
    assert doc["version"] == 1
    assert set(doc["A"]) == {"colptr", "rowidx", "vals"}
    assert set(doc["cones"]) == {"z", "l", "q", "s", "ep"}
    for v in doc["vars"]:
        assert set(v) == {"id", "offset", "rows", "cols", "psd"}
    for c in doc["constrs"]:
        assert set(c) == {"id", "row", "len", "cone"}
    cp2, vmap2 = canon.import_json(text)
    assert np.allclose(cp2.c, cp.c)
    assert np.allclose(cp2.b, cp.b)
    assert np.allclose(cp2.A.toarray(), cp.A.toarray())
    assert cp2.cones == cp.cones
    assert cp2.offset == cp.offset and cp2.flipped == cp.flipped
    # second export of the imported program is byte-identical
    assert canon.export_json(cp2, vmap2) == text


def test_cone_program_matrix_is_canonical_csc():
    x = cd.Variable(3, name="x")
    # x[0] cancels in the second constraint; x appears twice in the first
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x) + cd.p_norm(x - 1, 2)),
                      [x + 2 * x >= 1, x[0] - x[0] + x[1] <= 3])
    cp, vmap = canon.canonicalize(prob)
    cp2, _ = canon.import_json(canon.export_json(cp, vmap))
    for A in (cp.A, cp2.A):
        assert isinstance(A, sp.csc_matrix)
        assert A.vals is A.data
        assert A.rowidx is A.indices
        assert A.colptr is A.indptr
        assert A.has_canonical_format
        assert not np.any(A.data == 0.0)


def test_export_byte_stability():
    prob, _ = small_lp()
    cp, vmap = canon.canonicalize(prob)
    assert canon.export_json(cp, vmap) == canon.export_json(cp, vmap)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("version"), "version"),
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.pop("cones"), "cones"),
    (lambda d: d["A"].pop("vals"), "vals"),
    (lambda d: d["A"]["rowidx"].append(99), None),
    (lambda d: d.update(n=-1), None),
    (lambda d: d["cones"].update(q="bad"), None),
    (lambda d: d["constrs"][0].update(cone="psd"), "constrs[0].len"),
    # column 0 holds rows (0, 2): reversed, then repeated
    (lambda d: d["A"].update(rowidx=[2, 0] + d["A"]["rowidx"][2:]),
     "A.rowidx"),
    (lambda d: d["A"].update(rowidx=[0, 0] + d["A"]["rowidx"][2:]),
     "A.rowidx"),
    (lambda d: d["A"]["vals"].__setitem__(0, 0.0), "A.vals"),
    # fractional indices, not truncated to the integer below
    (lambda d: d["A"]["rowidx"].__setitem__(0, 0.5), "A.rowidx"),
    (lambda d: d["A"]["colptr"].__setitem__(1, d["A"]["colptr"][1] + 0.5),
     "A.colptr"),
    (lambda d: d["cones"].update(q=5), "cones.q"),
    (lambda d: d["cones"].update(s=None), "cones.s"),
    # integers too large for a double, or for an index
    (lambda d: d["c"].__setitem__(0, 10**400), "c"),
    (lambda d: d["A"]["rowidx"].__setitem__(0, 2**70), "A.rowidx"),
    (lambda d: d.update(offset=10**400), "offset"),
    (lambda d: d.update(offset=float("nan")), "offset"),
    # ids are strings, unique within their list
    (lambda d: d["vars"].append(dict(d["vars"][0])),
     "vars[1].id': duplicate id 'x'"),
    (lambda d: d["constrs"].append(dict(d["constrs"][1])),
     "constrs[2].id': duplicate id 'c1'"),
    (lambda d: d["constrs"][0].update(id=7), "constrs[0].id': expected string"),
    (lambda d: d.update(n=1.5), "field 'n': expected integer"),
    (lambda d: d["c"].__setitem__(0, float("nan")),
     "field 'c[0]': must be finite"),
    (lambda d: d["cones"].update(l=d["cones"]["l"] + 1),
     "field 'cones': cone dimensions sum to"),
])
def test_import_rejects_malformed(mutate, message):
    prob, _ = small_lp()
    cp, vmap = canon.canonicalize(prob)
    doc = json.loads(canon.export_json(cp, vmap))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        canon.import_json(json.dumps(doc))
    if message:
        assert message in str(exc.value)


def test_variable_keys_are_unique():
    # a name is the key unless an earlier key holds it; the fallback v<i>
    # is suffixed while an earlier key holds that too
    named_v1, unnamed = cd.Variable(name="v1"), cd.Variable()
    named_v1_1, again_v1 = cd.Variable(name="v1_1"), cd.Variable(name="v1")
    prob = cd.Problem(cd.Minimize(named_v1 + unnamed + named_v1_1 + again_v1))
    _, vmap = canon.canonicalize(prob)
    assert [r.key for r in vmap.vars] == ["v1", "v1_1", "v2", "v3"]


def test_import_rejects_invalid_json():
    with pytest.raises(SchemaError):
        canon.import_json("{not json")


def lp_duals_against_scipy(seed):
    """Random feasible LP; compare optimum and duals with scipy linprog."""
    rng = SplitMix64(seed)
    m, n = 6, 4
    A = rng.normals(m, n)
    x0 = rng.uniforms(n) + 0.5
    b = A @ x0 + rng.uniforms(m) * 0.5 + 0.1
    c = rng.uniforms(n) + 0.2

    x = cd.Variable(n, name="x")
    cons = [A @ x <= b.reshape(-1, 1), x >= 0]
    prob = cd.Problem(cd.Minimize(c.reshape(1, -1) @ x), cons)
    res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
    assert res.status == "optimal"

    ref = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * n, method="highs")
    assert ref.status == 0
    assert np.isclose(res.value, ref.fun, rtol=1e-6, atol=1e-7)
    # inequality multipliers match the HiGHS marginals (sign convention:
    # nonnegative multipliers for <=)
    lam = np.asarray(res.dual_of(cons[0])).ravel()
    assert np.allclose(lam, -np.asarray(ref.ineqlin.marginals), atol=1e-5)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lp_duals_match_scipy(seed):
    lp_duals_against_scipy(seed)


def test_equality_dual_sign_convention():
    # min x s.t. x == 3 has dual nu with c + nu = 0 in the Lagrangian
    # L = x + nu (x - 3); optimality gives nu = -1
    x = cd.Variable(name="x")
    con = x == 3.0
    prob = cd.Problem(cd.Minimize(x), [con])
    res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
    assert np.isclose(res.value, 3.0, atol=1e-8)
    assert np.isclose(np.asarray(res.dual_of(con)).item(), -1.0, atol=1e-6)


def test_inequality_dual_sign_convention():
    # min x s.t. x >= 2: L = x - lam (x - 2), lam = 1 at the optimum
    x = cd.Variable(name="x")
    con = x >= 2.0
    prob = cd.Problem(cd.Minimize(x), [con])
    res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
    assert np.isclose(np.asarray(res.dual_of(con)).item(), 1.0, atol=1e-6)


def test_maximize_dual_negation():
    # max -x s.t. x >= 2 reports the shadow price of the same constraint
    x = cd.Variable(name="x")
    con = x >= 2.0
    prob = cd.Problem(cd.Maximize(-x), [con])
    res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
    assert np.isclose(res.value, -2.0, atol=1e-8)
    assert np.isclose(np.asarray(res.dual_of(con)).item(), -1.0, atol=1e-6)


@pytest.mark.parametrize("maximize", [False, True], ids=["min", "max"])
def test_psd_constraint_dual(maximize):
    # min t s.t. t I - A >= 0: L = t - <Z, t I - A> gives tr Z = 1, and Z
    # is the outer product of A's top eigenvector; max -t reports -Z. The
    # imported map finds the constraint by its record key.
    rng = SplitMix64(29)
    A = rng.normals(3, 3)
    A = A + A.T
    t = cd.Variable(name="t")
    con = cd.psd(t * np.eye(3) - A)
    prob = cd.Problem(cd.Maximize(-t) if maximize else cd.Minimize(t), [con])
    _, V = np.linalg.eigh(A)
    Z = (-1.0 if maximize else 1.0) * np.outer(V[:, -1], V[:, -1])
    res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
    assert res.status == "optimal"
    assert np.allclose(res.dual_of(con), Z, atol=1e-6)

    cp, vmap = canon.canonicalize(prob)
    cp2, vmap2 = canon.import_json(canon.export_json(cp, vmap))
    assert [r.cone for r in vmap2.constrs] == ["psd"]
    sol = cd.solve_cone_program(cp2, cd.SolverSettings(eps_abs=1e-10,
                                                       eps_rel=1e-10))
    assert np.allclose(cd.recover_dual(sol, vmap2, "c0", flipped=cp2.flipped),
                       Z, atol=1e-6)


def test_psd_variable_lowering():
    # Semidef variable contributes svec columns and one psd block
    S = cd.Semidef(3)
    prob = cd.Problem(cd.Minimize(cd.matrix_trace(S)), [S[0, 0] >= 1.0])
    cp, vmap = canon.canonicalize(prob)
    assert 3 in cp.cones.psd
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "optimal"
    assert np.isclose(res.value, 1.0, atol=1e-6)
    Sval = res.value_of(S)
    assert Sval.shape == (3, 3)
    assert np.allclose(Sval, Sval.T, atol=1e-8)
    assert np.linalg.eigvalsh(Sval)[0] >= -1e-7


def test_get_problem_data_shapes():
    prob, _ = small_lp()
    data, vmap = canon.get_problem_data(prob)
    assert set(data) == {"version", "n", "m", "c", "b", "offset", "flipped",
                         "A", "cones", "vars", "constrs"}
    assert data["version"] == 1
    assert data["n"] == 2 and data["m"] == 3
    assert np.allclose(data["c"], [1.0, 1.0])
    assert np.allclose(data["b"], [-1.0, -1.0, 5.0])
    assert data["cones"]["l"] == 3
    assert vmap.n == 2 and vmap.m == 3


def test_recover_reads_solution_vector():
    prob, x = small_lp()
    cp, vmap = canon.canonicalize(prob)
    sol = cd.solve_cone_program(cp)
    vx = canon.recover(sol, vmap, x)
    assert vx.shape == (2, 1)
    assert np.allclose(vx, 1.0, atol=1e-6)
    # by the variable's export key, as a reader of the JSON names it
    assert np.array_equal(canon.recover(sol, vmap, "x"), vx)


@pytest.mark.parametrize("field", ["c", "b", "A.vals"])
def test_cone_program_rejects_nonfinite_data(field):
    prob, _ = small_lp()
    cp, _ = canon.canonicalize(prob)
    data = {"c": cp.c.copy(), "b": cp.b.copy(), "A.vals": cp.A.vals.copy()}
    data[field][1] = np.inf
    A = linalg.SparseMatrix((data["A.vals"], cp.A.rowidx, cp.A.colptr),
                            shape=(cp.m, cp.n))
    with pytest.raises(InputError, match=re.escape(f"{field}[1] is inf")):
        canon.ConeProgram(c=data["c"], A=A, b=data["b"], cones=cp.cones)


def test_cone_program_keeps_a_canonical_matrix():
    prob, _ = small_lp()
    cp, _ = canon.canonicalize(prob)
    again = canon.ConeProgram(c=cp.c, A=cp.A, b=cp.b, cones=cp.cones)
    assert again.A is cp.A


def test_cone_program_accepts_any_scipy_sparse_matrix():
    prob, _ = small_lp()
    cp, vmap = canon.canonicalize(prob)
    want = canon.export_json(cp, vmap)
    for A in (sp.csc_matrix(cp.A.toarray()), sp.coo_array(cp.A.toarray()),
              sp.csr_matrix(cp.A.toarray().astype(int))):
        plain = canon.ConeProgram(c=cp.c, A=A, b=cp.b, cones=cp.cones)
        assert isinstance(plain.A, linalg.SparseMatrix)
        assert canon.export_json(plain, vmap) == want


def test_cone_program_canonicalizes_its_matrix():
    # a stored zero, and the rows of the one column out of order
    A = linalg.SparseMatrix(([0.0, 1.0], [1, 0], [0, 2]), shape=(2, 1))
    cp = canon.ConeProgram(c=[1.0], A=A, b=[1.0, 0.0],
                           cones=canon.ConeSpec(nonneg=2))
    assert list(cp.A.rowidx) == [0] and list(cp.A.vals) == [1.0]
    assert list(A.rowidx) == [1, 0]          # the input is left as it was
    text = canon.export_json(cp, canon.VariableMap(n=1, m=2, vars=[],
                                                   constrs=[]))
    back, _ = canon.import_json(text)
    assert np.array_equal(back.A.toarray(), [[1.0], [0.0]])


@pytest.mark.parametrize("A", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]], None])
def test_cone_program_rejects_a_non_sparse_matrix(A):
    with pytest.raises(InputError, match="A must be a SciPy sparse matrix"):
        canon.ConeProgram(c=np.zeros(2), A=A, b=np.zeros(2),
                          cones=canon.ConeSpec(nonneg=2))


@pytest.mark.parametrize("spec", [
    canon.ConeSpec(soc=[1.5, 1.5]), canon.ConeSpec(zero=2.5, nonneg=0.5),
    canon.ConeSpec(nonneg=3.0), canon.ConeSpec(ep=0.5),
    canon.ConeSpec(zero=True, nonneg=2), canon.ConeSpec(soc=[True, 2]),
    canon.ConeSpec(psd=[np.float64(2.0)]), canon.ConeSpec(soc=(3,)),
    canon.ConeSpec(psd=2), canon.ConeSpec(nonneg=None)],
    ids=["soc-float", "zero-float", "nonneg-float", "ep-float", "zero-bool",
         "soc-bool", "psd-numpy-float", "soc-tuple", "psd-int",
         "nonneg-none"])
def test_cone_counts_must_be_integers(spec):
    # a count is refused, not truncated: soc=[1.5, 1.5] on 3 rows would
    # otherwise lower, fail to broadcast in the solver and export "q":[1,1]
    with pytest.raises(ShapeError, match="must be"):
        canon.ConeProgram(c=np.zeros(1), A=sp.csc_matrix((3, 1)),
                          b=np.zeros(3), cones=spec)


def test_cone_spec_accepts_numpy_integers():
    spec = canon.ConeSpec(zero=np.int64(1), nonneg=np.int32(1),
                          soc=[np.int64(3)], psd=[np.int64(1)], ep=np.int64(1))
    cp = canon.ConeProgram(c=np.zeros(1), A=sp.csc_matrix((9, 1)),
                           b=np.zeros(9), cones=spec)
    assert cp.cones.total_dim == 9


@pytest.mark.parametrize("cones", [{"z": 1}, None, (0, 1, [], [], 0)],
                         ids=["dict", "none", "tuple"])
def test_cone_program_rejects_cones_that_are_not_a_cone_spec(cones):
    with pytest.raises(InputError, match="cones must be a ConeSpec"):
        canon.ConeProgram(c=np.zeros(1), A=sp.csc_matrix((1, 1)),
                          b=np.zeros(1), cones=cones)


def test_lowering_is_linear_in_size():
    # catenary adds one second-order block per link; lowering it must not
    # cost per-block work that grows with the model (O(k^2) in total)
    prob = build_example(ExampleConfig("catenary", params={"m": "400"})).problem
    t0 = time.perf_counter()
    cp, _ = canon.canonicalize(prob)
    elapsed = time.perf_counter() - t0
    assert len(cp.cones.soc) == 399
    assert elapsed < 3.0, f"lowering took {elapsed:.2f}s, budget 3s"


def one_row_constraints(k):
    xs = [cd.Variable(name=f"x{i}") for i in range(k)]
    return cd.Problem(cd.Minimize(xs[0]), [x >= 0 for x in xs])


def test_lowering_one_row_constraints_within_budget():
    # each constraint is a few form operations on one row, so a fixed cost
    # per operation shows here; the budget is 5x a first call on a 2-core
    # machine (about 0.3 s, the ruleset check included)
    prob = one_row_constraints(4000)
    t0 = time.perf_counter()
    cp, _ = canon.canonicalize(prob)
    elapsed = time.perf_counter() - t0
    assert cp.cones.nonneg == 4000 and cp.A.nnz == 4000
    assert elapsed < 1.5, f"lowering took {elapsed:.2f}s, budget 1.5s"


def test_building_checking_and_lowering_one_row_constraints_within_budget():
    # each row builds six atom nodes, and each node infers its sign and
    # curvature once, when it is built; the budget is 5x building, checking
    # and lowering on a 2-core machine (about 0.6 s)
    k = 4000
    t0 = time.perf_counter()
    x = cd.Variable(k + 1, name="x")
    prob = cd.Problem(cd.Minimize(cd.sum_entries(x)),
                      [x[i] + 2.0 * x[i + 1] <= 1.0 for i in range(k)])
    assert cd.dcp_check(prob).accepted
    cp, _ = canon.canonicalize(prob)
    elapsed = time.perf_counter() - t0
    assert cp.cones.nonneg == k and cp.A.nnz == 2 * k
    assert elapsed < 3.0, f"build, check and lowering took {elapsed:.2f}s, " \
        "budget 3s"


def count_sparse_constructions(monkeypatch, fn):
    """Run fn, counting the scipy sparse matrices built: all kinds, and
    compressed (CSR/CSC) ones."""
    from scipy.sparse import _base, _compressed
    # the base class of every sparse matrix: _spbase from scipy 1.11 on,
    # spmatrix before
    base = getattr(_base, "_spbase", None) or _base.spmatrix
    counts = {"all": 0, "compressed": 0}
    for cls, key in ((base, "all"), (_compressed._cs_matrix, "compressed")):
        def counted(self, *args, _init=cls.__init__, _key=key, **kw):
            counts[_key] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counted)
    fn()
    monkeypatch.undo()
    return counts


def test_lowering_builds_sparse_matrices_independent_of_size(monkeypatch):
    # the forms are numpy arrays; scipy builds A once, whatever the size
    def counts(prob):
        return count_sparse_constructions(
            monkeypatch, lambda: canon.canonicalize(prob))

    def catenary(m):
        return build_example(ExampleConfig(
            "catenary", params={"m": str(m)})).problem

    small, large = counts(catenary(51)), counts(catenary(401))
    assert small == large and small["compressed"] == 1
    small = counts(one_row_constraints(100))
    large = counts(one_row_constraints(2000))
    assert small == large and small["compressed"] == 1


@pytest.mark.parametrize("build, message", [
    (lambda x: cd.Minimize(x + cd.inv_pos(0.0)),
     "inv_pos has non-finite entry inf at index (0, 0)"),
    (lambda x: cd.Minimize(x + cd.log(0.0)),
     "log has non-finite entry -inf at index (0, 0)"),
    (lambda x: cd.Minimize(x + cd.log(-1.0)),
     "log has non-finite entry nan at index (0, 0)"),
    (lambda x: cd.Minimize(x + cd.sqrt(-1.0)),
     "sqrt has non-finite entry nan at index (0, 0)"),
    (lambda x: [cd.Minimize(x), x >= cd.log(0.0)],
     "log has non-finite entry -inf at index (0, 0)"),
], ids=["inv_pos-0", "log-0", "log-minus-1", "sqrt-minus-1",
        "constraint-log-0"])
def test_out_of_domain_constant_names_its_atom(build, message):
    # the rules accept an atom of a constant outside its domain; folding
    # it refuses the non-finite value, so no solve ends optimal at an
    # infinite or NaN objective, and no numpy warning escapes
    x = cd.Variable(name="x")
    built = build(x)
    objective, extra = (built[0], built[1:]) if isinstance(built, list) \
        else (built, [])
    prob = cd.Problem(objective, [x >= 0] + extra)
    assert prob.is_dcp()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cd.solve(prob)


@pytest.mark.parametrize("field", ["c", "b", "A.vals"])
def test_cone_program_names_the_first_nonfinite_entry(field):
    prob, _ = small_lp()
    cp, _ = canon.canonicalize(prob)
    data = {"c": cp.c.copy(), "b": cp.b.copy(), "A.vals": cp.A.vals.copy()}
    data[field][0] = np.nan
    data[field][-1] = np.inf
    A = linalg.SparseMatrix((data["A.vals"], cp.A.rowidx, cp.A.colptr),
                            shape=(cp.m, cp.n))
    with pytest.raises(InputError, match=re.escape(
            f"{field}[0] is nan; cone program data must be finite")):
        canon.ConeProgram(c=data["c"], A=A, b=data["b"], cones=cp.cones)
