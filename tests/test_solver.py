import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import conedsl as cd
from conedsl import api
from conedsl import cones as cone_ops
from conedsl import linalg
from conedsl import solver as solver_mod
from conedsl.canon import ConeProgram, ConeSpec
from conedsl.errors import InputError
from conedsl.examples import (ExampleConfig, build_example, example_names,
                              run_example)
from conedsl.linalg import from_dense
from conedsl.rng import SplitMix64
from conedsl.solver import (_ACCEL_MEMORY, SolverSettings, _AndersonMemory,
                            diagnostics, solve_cone_program)

from oracles import make_cone_blocks, spec_blocks

EPS = 1e-8
SETTINGS = SolverSettings(eps_abs=EPS, eps_rel=EPS)


def blocks_to_spec(blocks):
    zero = nonneg = ep = 0
    soc, psd = [], []
    for kind, size in blocks:
        if kind == "zero":
            zero += size
        elif kind == "nonneg":
            nonneg += size
        elif kind == "soc":
            soc.append(size)
        elif kind == "psd":
            side = int(round((np.sqrt(8 * size + 1) - 1) / 2))
            psd.append(side)
        elif kind == "exp":
            ep += 1
    return ConeSpec(zero=zero, nonneg=nonneg, soc=soc, psd=psd, ep=ep)


def constructed_program(seed, mix):
    """Random cone program with a known primal-dual optimal pair."""
    rng = SplitMix64(seed)
    blocks = make_cone_blocks(rng, mix)
    spec = blocks_to_spec(blocks)
    m = spec.zero + spec.nonneg + sum(spec.soc) \
        + sum(k * (k + 1) // 2 for k in spec.psd) + 3 * spec.ep
    n = int(rng.randint(min(m, 30)) + 4)
    n = min(n, 40)
    A = rng.normals(m, n)
    x_star = rng.normals(n)
    v = rng.normals(m) * 2.0
    s_star = cone_ops.project(spec, v)
    y_star = s_star - v                      # lies in K* and s.y = 0
    b = A @ x_star + s_star
    c = -A.T @ y_star
    cp = ConeProgram(c=c, A=from_dense(A), b=b, cones=spec,
                     offset=0.0, flipped=False)
    return cp, x_star, s_star, y_star


MIXES = [
    ("zero", "nonneg"),
    ("nonneg", "soc"),
    ("zero", "soc", "psd"),
    ("nonneg", "exp"),
    ("zero", "nonneg", "soc", "psd", "exp"),
]


@pytest.mark.parametrize("batch", range(5), ids=[f"mix{i}" for i in range(5)])
def test_constructed_optimum_recovery(batch):
    mix = MIXES[batch]
    solved = 0
    for seed in range(batch * 20, batch * 20 + 20):
        cp, x_star, s_star, y_star = constructed_program(seed + 1000, mix)
        opt = float(cp.c @ x_star)
        sol = solve_cone_program(cp, SETTINGS)
        assert sol.status == "optimal", (mix, seed)
        assert abs(sol.objective - opt) <= 1e-4 * (1.0 + abs(opt))
        # KKT residuals at the reported point
        A = cp.A.toarray()
        pres = np.linalg.norm(A @ sol.x + sol.s - cp.b)
        dres = np.linalg.norm(A.T @ sol.y + cp.c)
        gap = abs(cp.c @ sol.x + cp.b @ sol.y)
        assert pres <= 2 * EPS * (1.0 + np.linalg.norm(cp.b))
        assert dres <= 2 * EPS * (1.0 + np.linalg.norm(cp.c))
        assert gap <= 2 * EPS * (1.0 + abs(cp.c @ sol.x) + abs(cp.b @ sol.y))
        # cone memberships
        assert cone_ops.in_cone(cp.cones, sol.s, tol=1e-6)
        dual_dist = np.linalg.norm(
            cone_ops.project_dual(cp.cones, sol.y) - sol.y)
        assert dual_dist <= 1e-6 * (1.0 + np.linalg.norm(sol.y))
        solved += 1
    assert solved == 20


def test_hand_lp():
    # min x subject to x >= 1
    cp = ConeProgram(c=np.array([1.0]), A=from_dense(np.array([[-1.0]])),
                     b=np.array([-1.0]),
                     cones=ConeSpec(zero=0, nonneg=1, soc=[], psd=[], ep=0),
                     offset=0.0, flipped=False)
    sol = solve_cone_program(cp, SETTINGS)
    assert sol.status == "optimal"
    assert np.isclose(sol.objective, 1.0, atol=1e-7)
    assert np.isclose(sol.x[0], 1.0, atol=1e-7)
    assert np.isclose(sol.y[0], 1.0, atol=1e-7)


def test_unconstrained_soc_distance():
    # min t subject to ||x - a|| <= t at a = (3, 4): optimum 0 at x = a
    a = np.array([3.0, 4.0])
    A = np.zeros((3, 3))
    A[0, 0] = -1.0
    A[1, 1] = -1.0
    A[2, 2] = -1.0
    b = np.array([0.0, -a[0], -a[1]])
    c = np.array([1.0, 0.0, 0.0])
    cp = ConeProgram(c=c, A=from_dense(A), b=b,
                     cones=ConeSpec(zero=0, nonneg=0, soc=[3], psd=[], ep=0),
                     offset=0.0, flipped=False)
    sol = solve_cone_program(cp, SETTINGS)
    assert sol.status == "optimal"
    assert abs(sol.objective) <= 1e-6
    assert np.allclose(sol.x[1:], a, atol=1e-5)


def test_primal_infeasible_certificate():
    # x >= 1 and x <= 0 cannot both hold
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(x), [x >= 1, x <= 0])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "primal_infeasible"
    sol = res.solution
    assert sol.certificate is not None
    assert sol.certificate["kind"] == "primal"
    # Farkas direction: A'y ~ 0 and b'y = -1 after normalization
    assert sol.certificate["residual"] <= 1e-6
    assert np.isclose(sol.certificate["b_dot_y"], -1.0)


def test_primal_infeasible_constructed():
    cp = farkas_program()
    sol = solve_cone_program(cp, SETTINGS)
    assert sol.status == "primal_infeasible"
    y = sol.y
    assert cp.b @ y < 0
    assert np.linalg.norm(cp.A.T @ y) <= 1e-6 * (-(cp.b @ y))
    # certificate direction lies in the dual cone
    assert np.min(y) >= -1e-8 * np.linalg.norm(y)


def test_dual_infeasible_lp():
    # min -x subject to x >= 1 is unbounded below
    x = cd.Variable(name="x")
    prob = cd.Problem(cd.Minimize(-x), [x >= 1])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "dual_infeasible"
    sol = res.solution
    assert sol.certificate is not None and sol.certificate["kind"] == "dual"
    assert sol.certificate["residual"] <= 1e-6


def test_dual_infeasible_soc():
    # min -t with ||x|| <= t: objective unbounded along the cone axis
    t = cd.Variable(name="t")
    x = cd.Variable(2, name="x")
    prob = cd.Problem(cd.Minimize(-t), [cd.cvxr_norm(x, 2) <= t])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "dual_infeasible"


def farkas_program():
    """An 8 x 5 nonnegative-orthant program with a known Farkas ray y0:
    A'y0 = 0 and b'y0 = -1."""
    rng = SplitMix64(77)
    m, n = 8, 5
    y0 = np.abs(rng.normals(m)) + 0.1          # interior of the orthant
    G = rng.normals(m, n)
    # columns orthogonal to y0 so that A'y0 = 0
    A = G - np.outer(y0, y0 @ G) / (y0 @ y0)
    b = rng.normals(m)
    b = b - (b @ y0 + 1.0) / (y0 @ y0) * y0    # forces b'y0 = -1 < 0
    return ConeProgram(c=np.zeros(n), A=from_dense(A), b=b,
                       cones=ConeSpec(zero=0, nonneg=m, soc=[], psd=[], ep=0),
                       offset=0.0, flipped=False)


def unbounded_soc_program():
    """min -t subject to ||x|| <= t: unbounded along the cone's axis."""
    return ConeProgram(c=np.array([-1.0, 0.0, 0.0]), A=from_dense(-np.eye(3)),
                       b=np.zeros(3),
                       cones=ConeSpec(zero=0, nonneg=0, soc=[3], psd=[], ep=0),
                       offset=0.0, flipped=False)


# one program for each way a solve ends, with the settings that end it so
ENDS = {
    "optimal": lambda: (constructed_program(5, ("nonneg", "soc", "exp"))[0],
                        SETTINGS),
    "primal_infeasible": lambda: (farkas_program(), SETTINGS),
    "dual_infeasible": lambda: (unbounded_soc_program(), SETTINGS),
    "max_iters_reached": lambda: (
        constructed_program(11, ("nonneg", "soc", "psd"))[0],
        SolverSettings(eps_abs=EPS, eps_rel=EPS, max_iters=60)),
}


def assert_same_solution(a, b):
    """Everything but the solve time equal, with NaN equal to NaN."""
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert (a.certificate, a.anderson) == (b.certificate, b.anderson)
    for va, vb in ((a.x, b.x), (a.y, b.y), (a.s, b.s),
                   (a.residuals, b.residuals), (a.objective, b.objective)):
        assert np.array_equal(va, vb, equal_nan=True)
    assert [list(h) for h in a.history] == [list(h) for h in b.history]
    for ha, hb in zip(a.history, b.history):
        assert np.array_equal(list(ha.values()), list(hb.values()),
                              equal_nan=True)


@pytest.mark.parametrize("end", list(ENDS))
def test_determinism(end):
    cp, settings = ENDS[end]()
    a = solve_cone_program(cp, settings)
    b = solve_cone_program(cp, settings)
    assert a.status == end
    assert_same_solution(a, b)


# the four ends, plus an optimal solve that refactors twice
TRACED = {**ENDS, "refactoring": lambda: (
    constructed_program(2, MIXES[3])[0], SETTINGS)}


@pytest.mark.parametrize("end", list(TRACED))
def test_solve_calls_the_traced_names(end, monkeypatch):
    # perfbench/tracing.py times these module attributes by replacing
    # them; a solve must look each one up when it calls it
    calls = {"factor": 0, "kkt_solve": 0, "project_dual": 0,
             "project_block": 0, "project_exp_many": 0}

    class CountingQuasidefSolver(solver_mod.QuasidefSolver):
        def __init__(self, M):
            calls["factor"] += 1
            super().__init__(M)

        def solve(self, rhs):
            calls["kkt_solve"] += 1
            return super().solve(rhs)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cp, settings = TRACED[end]()
    monkeypatch.setattr(solver_mod, "QuasidefSolver", CountingQuasidefSolver)
    for name in ("project_dual", "project_block", "project_exp_many"):
        monkeypatch.setattr(cone_ops, name,
                            counting(name, getattr(cone_ops, name)))
    kinds = {kind for kind, *_ in spec_blocks(cp.cones)}
    sol = solve_cone_program(cp, settings)
    assert sol.status == end if end in ENDS else sol.scale["refactors"] > 0
    k, r = sol.iterations, sol.scale["refactors"]
    # each factorization also solves for the embedding's rank-one direction
    assert calls == {"factor": 1 + r, "kkt_solve": k + 1 + r,
                     "project_dual": k,
                     "project_block": k * sum(kd != "exp" for kd in kinds),
                     "project_exp_many": k * ("exp" in kinds)}


@pytest.mark.parametrize("end", list(TRACED))
def test_solve_builds_its_layout_once(end, monkeypatch):
    # K's Layout is built from the ConeSpec once per solve, whatever the
    # iteration and refactor counts; equilibration and every projection
    # read that one Layout
    built = []
    layout = cone_ops.layout

    def spy(cones):
        if not isinstance(cones, cone_ops.Layout):
            built.append(cones)
        return layout(cones)

    cp, settings = TRACED[end]()
    monkeypatch.setattr(cone_ops, "layout", spy)
    sol = solve_cone_program(cp, settings)
    assert sol.iterations >= 3 and built == [cp.cones]


@pytest.mark.parametrize("seed, mix, most",
                         [(1031, MIXES[1], 100), (2, MIXES[3], 300)],
                         ids=["1031-nonneg-soc", "2-nonneg-exp"])
def test_collapsed_extrapolation_is_dropped(seed, mix, most, monkeypatch):
    # an Anderson point that collapses toward w = 0 (norm below
    # _ACCEL_NORM_FLOOR times that of the first iterate, which is the
    # first one pushed) is dropped with a reset, and later points are
    # still taken; left to the plain iteration after their first
    # collapse, these solves need over 10,000 iterations
    first_norm, cand_norms = [], []
    push, extrapolate = _AndersonMemory.push, _AndersonMemory.extrapolate

    def recording_push(self, w, g):
        if not first_norm:
            first_norm.append(np.linalg.norm(w))
        push(self, w, g)

    def recording_extrapolate(self, w_plain, g):
        cand = extrapolate(self, w_plain, g)
        cand_norms.append(np.inf if cand is None else np.linalg.norm(cand))
        return cand

    monkeypatch.setattr(_AndersonMemory, "push", recording_push)
    monkeypatch.setattr(_AndersonMemory, "extrapolate", recording_extrapolate)
    cp, _, _, _ = constructed_program(seed, mix)
    sol = solve_cone_program(cp, SETTINGS)
    assert sol.status == "optimal"
    assert sol.iterations <= most
    floor = solver_mod._ACCEL_NORM_FLOOR * first_norm[0]
    collapsed = [i for i, norm in enumerate(cand_norms) if norm < floor]
    assert collapsed
    assert sol.anderson["resets"] >= len(collapsed)
    assert any(floor <= norm < np.inf
               for norm in cand_norms[collapsed[0] + 1:])


def test_determinism_across_a_refactor():
    # catenary's scale moves during its solve; the rule reads only the
    # iterate, so a second solve repeats the first bit for bit
    prob = build_example(ExampleConfig("catenary")).problem
    cp, _ = cd.canonicalize(prob)
    a = solve_cone_program(cp, SETTINGS)
    b = solve_cone_program(cp, SETTINGS)
    assert a.status == "optimal"
    assert a.scale["refactors"] >= 1
    assert a.scale == b.scale
    assert_same_solution(a, b)


def test_refactor_cap_holds(monkeypatch):
    # with updates allowed every 25 iterations this solve refactors 14
    # times; the cap stops it at 5
    monkeypatch.setattr(solver_mod, "_SCALE_MIN_ITERS", 25)
    cp, _, _, _ = constructed_program(50, MIXES[1])
    settings = SolverSettings(eps_abs=EPS, eps_rel=EPS, max_iters=800)
    sol = solve_cone_program(cp, settings)
    assert sol.scale["refactors"] == solver_mod._MAX_REFACTORS
    assert sol.scale["start"] == solver_mod._SCALE_START
    assert sol.scale["final"] != sol.scale["start"]
    # without the cap the same solve refactors more often
    monkeypatch.setattr(solver_mod, "_MAX_REFACTORS", 100)
    uncapped = solve_cone_program(cp, settings)
    assert uncapped.scale["refactors"] > sol.scale["refactors"]


def test_refactor_keeps_the_point():
    # a refactor moves the row scale d and maps u_y and v_y to match, so
    # the point the iterate stands for does not move
    cp, _, _, _ = constructed_program(47, MIXES[1])
    ws = solver_mod._Workspace(cp)
    w = SplitMix64(7).normals(ws.n + ws.m + 1)
    w[-1] = 1.0
    u = ws.proj(w)
    v = u - w
    _, before, _, _ = ws.unscale(u, v)
    tau, kappa = u[-1], v[-1]
    # a mean log ratio near 50 asks for the largest scale allowed
    ws.log_sum, ws.log_count = 100.0, 1
    assert ws.retune(solver_mod._SCALE_MIN_ITERS, u, v)
    assert ws.refactors == 1
    assert ws.scale == solver_mod._SCALE_START * solver_mod._SCALE_RANGE
    _, after, _, _ = ws.unscale(u, v)
    for a, b in zip(after, before):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
    assert (u[-1], v[-1]) == (tau, kappa)


def equilibrate_at(A, cones):
    """The Ruiz scaling of solver._equilibrate with its row and column
    maxima taken by np.maximum.at over A's entries in COO order."""
    m, n = A.shape
    d, e = np.ones(m), np.ones(n)
    if A.nnz == 0:
        return d, e
    coo = A.tocoo()
    rows, cols, vals = coo.row, coo.col, np.abs(coo.data)
    # the SOC, PSD and exp blocks, which tile the rows from lo to the end
    multi = [(start, stop) for kind, start, stop, _ in spec_blocks(cones)
             if kind in ("soc", "psd", "exp")]
    lo = multi[0][0] if multi else m
    sizes = np.array([stop - start for start, stop in multi], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    for _ in range(solver_mod._RUIZ_SWEEPS):
        rmax = np.zeros(m)
        np.maximum.at(rmax, rows, vals * d[rows] * e[cols])
        rmax[rmax == 0] = 1.0
        if sizes.size:
            logs = np.add.reduceat(np.log(rmax[lo:]), starts)
            rmax[lo:] = np.repeat(np.exp(logs / sizes), sizes)
        d /= np.sqrt(rmax)
        cmax = np.zeros(n)
        np.maximum.at(cmax, cols, vals * d[rows] * e[cols])
        cmax[cmax == 0] = 1.0
        e /= np.sqrt(cmax)
    return d, e


def assert_same_csc(got, want):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def gallery_program(name):
    return cd.canonicalize(build_example(ExampleConfig(name)).problem)[0]


def with_empty_lines():
    """A constructed program with one column and one row of A zeroed."""
    cp = constructed_program(3, MIXES[1])[0]
    A = cp.A.toarray()
    A[:, 1] = 0.0
    A[2, :] = 0.0
    return ConeProgram(c=cp.c, A=from_dense(A), b=cp.b, cones=cp.cones)


SETUP_CASES = ([(name, lambda name=name: gallery_program(name))
                for name in example_names()]
               + [(f"constructed-mix{i}",
                   lambda i=i: constructed_program(i, MIXES[i])[0])
                  for i in range(len(MIXES))]
               + [("empty-row-and-column", with_empty_lines),
                  ("zero-A", lambda: program([1.0, -1.0], [1.0, 0.0, 2.0],
                                             FEASIBILITY[2][0]))])


@pytest.mark.parametrize("make", [make for _, make in SETUP_CASES],
                         ids=[name for name, _ in SETUP_CASES])
def test_setup_matches_the_sparse_products_bit_for_bit(make, monkeypatch):
    # the KKT matrix is refilled in a pattern built once per solve; it and
    # As must equal SciPy's diag(d) A diag(e) and bmat assembly exactly,
    # and the scales the np.maximum.at equilibration
    factored = []

    class Recording(solver_mod.QuasidefSolver):
        def __init__(self, M):
            factored.append(M)
            super().__init__(M)

    monkeypatch.setattr(solver_mod, "QuasidefSolver", Recording)
    cp = make()
    ws = solver_mod._Workspace(cp)
    d, e = equilibrate_at(cp.A, cp.cones)
    assert np.array_equal(ws.d_ruiz, d) and np.array_equal(ws.e, e)
    for scale in (solver_mod._SCALE_START, 7.0):
        if scale != ws.scale:
            ws.factor(scale)
        As = sp.csc_matrix(sp.diags(ws.d) @ cp.A @ sp.diags(ws.e))
        assert_same_csc(ws.As, As)
        kkt = sp.bmat([[sp.eye(cp.n), As.T], [As, -sp.eye(cp.m)]],
                      format="csc")
        assert_same_csc(factored[-1], kkt)
    assert len(factored) == 2


@pytest.mark.parametrize("name", example_names())
def test_kkt_residuals_stay_far_inside_their_bound(name, monkeypatch):
    # the residual of a KKT solve is checked only at the first solve of
    # each factorization and at each convergence check that goes on; on
    # the gallery every one of them is within 1e-3 of its bound, so no
    # solve is refined
    ratios, solutions = [], []
    refine = linalg.QuasidefSolver.refine

    def measuring(self, rhs, z):
        bound = 1e-9 * (1.0 + np.linalg.norm(rhs))
        ratios.append(np.linalg.norm(rhs - self._csc @ z) / bound)
        return refine(self, rhs, z)

    def recording(cp, settings=None):
        sol = solve_cone_program(cp, settings)
        solutions.append(sol)
        return sol

    monkeypatch.setattr(linalg.QuasidefSolver, "refine", measuring)
    monkeypatch.setattr(api, "solve_cone_program", recording)
    assert run_example(ExampleConfig(name)).status == "optimal"
    # 1 + r factorizations and every check but the last
    assert len(ratios) == sum(1 + sol.scale["refactors"] + len(sol.history)
                              - 1 for sol in solutions)
    assert max(ratios) <= 1e-3
    assert all(sol.refined_solves == 0 for sol in solutions)


def test_refined_solves_add_up_over_refactors(monkeypatch):
    # every solve the residual is checked on counts once if refined,
    # whichever factorization made it
    def refine_all(self, rhs, z):
        self.refined += 1
        return z

    monkeypatch.setattr(linalg.QuasidefSolver, "refine", refine_all)
    cp, settings = TRACED["refactoring"]()
    sol = solve_cone_program(cp, settings)
    assert sol.scale["refactors"] > 0
    assert sol.refined_solves == sol.scale["refactors"] + len(sol.history)


def test_anderson_counts_are_deterministic():
    cp, _, _, _ = constructed_program(4, ("zero", "soc", "psd"))
    a = solve_cone_program(cp, SETTINGS)
    b = solve_cone_program(cp, SETTINGS)
    assert a.status == "optimal"
    assert a.anderson == b.anderson
    assert set(a.anderson) == {"accepted", "rejected", "resets"}
    assert a.anderson["accepted"] > 0
    # every extrapolation is accepted or resets the memory, and only an
    # accepted point can be rejected later
    assert a.anderson["accepted"] + a.anderson["resets"] <= a.iterations
    assert a.anderson["rejected"] <= a.anderson["accepted"]
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.s, b.s)
    assert [h["fp_res"] for h in a.history] == [h["fp_res"] for h in b.history]


def _fill_memory(diffs_s, diffs_y, memory=None):
    """An Anderson memory fed the pairs whose successive differences are
    the given rows, and the last pair (w, g)."""
    dim = diffs_s.shape[1]
    memory = memory if memory is not None else _AndersonMemory(dim)
    w, g = np.zeros(dim), np.zeros(dim)
    memory.push(w, g)
    for ds, dy in zip(diffs_s, diffs_y):
        w, g = w + ds, g + dy
        memory.push(w, g)
    return memory, w, g


def test_anderson_memory_keeps_the_gram_matrix_of_its_live_rows():
    rng = SplitMix64(41)
    dim = 30
    memory = _AndersonMemory(dim)
    w, g = rng.normals(dim), rng.normals(dim)
    memory.push(w, g)
    assert memory.count == 0
    pushed = []
    for step in range(1, 3 * _ACCEL_MEMORY):
        if step == 17:
            memory.clear("resets")
            assert memory.count == 0
            assert memory.counts == {"accepted": 0, "rejected": 0,
                                     "resets": 1}
            pushed = []
        ds, dy = rng.normals(dim), rng.normals(dim) * 10.0 ** (step % 4)
        w, g = w + ds, g + dy
        memory.push(w, g)
        if step != 17:
            pushed.append((ds, dy))
        k = memory.count
        assert k == min(len(pushed), _ACCEL_MEMORY)
        if k == 0:
            continue
        Y = memory.Y[:k]
        ref = Y @ Y.T
        assert np.abs(memory.G[:k, :k] - ref).max() \
            <= 1e-12 * np.abs(ref).max()
        # the live rows are the last k differences pushed, in ring order
        for _, dy in pushed[-k:]:
            gap = np.abs(Y - dy).max(axis=1).min()
            assert gap <= 1e-12 * np.abs(g).max()


def test_anderson_extrapolation_matches_least_squares():
    rng = SplitMix64(42)
    dim = 50
    for k in (1, 4, _ACCEL_MEMORY):
        S, Y = rng.normals(k, dim), rng.normals(k, dim)
        memory, _, g = _fill_memory(S, Y)
        assert memory.count == k
        w_plain = rng.normals(dim)
        gamma = np.linalg.lstsq(Y.T, g, rcond=None)[0]
        want = w_plain - (S + Y).T @ gamma
        got = memory.extrapolate(w_plain, g)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_anderson_extrapolation_on_rank_deficient_memory():
    rng = SplitMix64(43)
    dim = 20
    S, Y = rng.normals(4, dim), rng.normals(4, dim)
    S[3], Y[3] = S[1], Y[1]          # one difference stored twice
    memory, _, g = _fill_memory(S, Y)
    cand = memory.extrapolate(rng.normals(dim), g)
    assert cand is None or np.all(np.isfinite(cand))
    # with every residual difference zero the system is singular: no point
    memory, _, g = _fill_memory(S, np.zeros((4, dim)))
    assert memory.extrapolate(rng.normals(dim), g) is None


def test_scaling_invariance_of_verdict():
    cp, x_star, _, _ = constructed_program(9, ("zero", "nonneg", "soc"))
    base = solve_cone_program(cp, SETTINGS)
    assert base.status == "optimal"

    rng = SplitMix64(123)
    m, n = cp.A.shape
    # per-block uniform row scaling keeps every cone invariant
    drow = np.empty(m)
    for kind, start, stop, _ in spec_blocks(cp.cones):
        if kind in ("zero", "nonneg"):
            drow[start:stop] = 0.5 + rng.uniforms(stop - start) * 2.0
        else:
            drow[start:stop] = 0.5 + 2.0 * rng.uniform()
    ecol = 0.5 + rng.uniforms(n) * 2.0
    rho = 3.7
    A = cp.A.toarray()
    scaled = ConeProgram(
        c=rho * (cp.c * ecol),
        A=from_dense(drow[:, None] * A * ecol[None, :]),
        b=drow * cp.b, cones=cp.cones, offset=0.0, flipped=False)
    sol = solve_cone_program(scaled, SETTINGS)
    assert sol.status == "optimal"
    # objective scales by rho (column scaling cancels inside c'x)
    assert np.isclose(sol.objective, rho * base.objective,
                      rtol=1e-5, atol=1e-6)


def test_max_iters_status():
    cp, _, _, _ = constructed_program(11, ("nonneg", "soc", "psd"))
    sol = solve_cone_program(cp, SolverSettings(max_iters=3))
    assert sol.status == "max_iters_reached"
    assert sol.iterations == 3
    assert np.all(np.isfinite(sol.x))


@pytest.mark.parametrize("k", range(4))
def test_accelerated_solve_survives_one_ulp_nudge(k):
    # this problem sits where one ulp in b can send the accelerated
    # iteration adrift; the residual safeguard must bring it back
    cp, _, _, _ = constructed_program(1098, MIXES[4])
    cp.b[k] = np.nextafter(cp.b[k], np.inf)
    sol = solve_cone_program(cp, SolverSettings(eps_abs=EPS, eps_rel=EPS,
                                                max_iters=5000))
    assert sol.status == "optimal"


def test_settings_validation():
    # each bad value fails at construction, with the field in the message
    for field, value in [
            ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True),
            ("max_iters", "10"), ("max_iters", None),
            ("eps_abs", -1e-9), ("eps_abs", float("nan")),
            ("eps_abs", float("inf")), ("eps_abs", "1e-6"),
            ("eps_rel", -1.0), ("eps_rel", float("nan")),
            ("eps_rel", float("inf"))]:
        with pytest.raises(InputError, match=field):
            SolverSettings(**{field: value})


def test_settings_accept_numpy_scalars():
    s = SolverSettings(max_iters=np.int64(7), eps_abs=np.float64(0.0),
                       eps_rel=1)
    assert s.max_iters == 7


def test_settings_are_frozen():
    # an assignment would skip the checks made at construction
    s = SolverSettings()
    for name, bad in (("max_iters", 2.5), ("eps_abs", float("nan")),
                      ("eps_rel", 1e-3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, bad)
    assert s == SolverSettings()


def test_settings_defaults():
    s = SolverSettings()
    assert s.max_iters == 50000
    assert s.eps_abs == 1e-6 and s.eps_rel == 1e-6


def program(c, b, cones):
    """Cone program with an all-zero A of the shape that c and b give."""
    return ConeProgram(c=np.asarray(c, dtype=float),
                       A=from_dense(np.zeros((len(b), len(c)))),
                       b=np.asarray(b, dtype=float), cones=cones,
                       offset=0.0, flipped=False)


def assert_uniform_history(sol):
    assert sol.history
    keys = {tuple(rec) for rec in sol.history}
    assert keys == {("iter", "pres", "dres", "gap", "tau", "kappa", "fp_res")}


NO_ROWS = ConeSpec(zero=0, nonneg=0, soc=[], psd=[], ep=0)


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("c,status", [
    ([0.0, 0.0, 0.0], "optimal"),
    # 0 < ||c|| <= eps_abs is still unbounded: x = -t c for any t > 0
    ([1e-7, 0.0, 0.0], "dual_infeasible"),
    ([1.0, 2.0, 3.0], "dual_infeasible"),
    ([], "optimal"),
], ids=["c_zero", "c_tiny", "c_large", "no_vars"])
def test_empty_constraint_program(c, status, eps):
    # m = 0: minimize c'x with no rows; only c = 0 is bounded
    cp = program(c, [], NO_ROWS)
    sol = solve_cone_program(cp, SolverSettings(eps_abs=eps, eps_rel=eps))
    assert sol.status == status
    assert_uniform_history(sol)
    if status == "optimal":
        assert sol.objective == 0.0
        assert sol.x.shape == (cp.n,)
    else:
        # an unbounded ray: c'x = -1 and nothing else to satisfy
        assert sol.certificate["kind"] == "dual"
        assert np.isclose(cp.c @ sol.x, -1.0)
        assert np.isnan(sol.objective)


FEASIBILITY = [
    # (cone spec, b in K, b outside K)
    (ConeSpec(zero=2, nonneg=0, soc=[], psd=[], ep=0), [0.0, 0.0], [1.0, 0.0]),
    (ConeSpec(zero=0, nonneg=2, soc=[], psd=[], ep=0), [1.0, 2.0], [1.0, -2.0]),
    (ConeSpec(zero=0, nonneg=0, soc=[3], psd=[], ep=0), [2.0, 1.0, 1.0],
     [1.0, 2.0, 1.0]),
    (ConeSpec(zero=0, nonneg=0, soc=[], psd=[2], ep=0), [1.0, 0.0, 1.0],
     [1.0, 0.0, -1.0]),
    (ConeSpec(zero=0, nonneg=0, soc=[], psd=[], ep=1), [0.0, 1.0, 2.0],
     [0.0, -1.0, 2.0]),
]


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("feasible", [True, False],
                         ids=["feasible", "infeasible"])
@pytest.mark.parametrize("spec,inside,outside", FEASIBILITY,
                         ids=["zero", "nonneg", "soc", "psd", "exp"])
def test_feasibility_only_program(spec, inside, outside, feasible, eps):
    # n = 0: find s = b in K
    b = np.array(inside if feasible else outside)
    cp = program([], b, spec)
    sol = solve_cone_program(cp, SolverSettings(eps_abs=eps, eps_rel=eps))
    assert_uniform_history(sol)
    if feasible:
        assert sol.status == "optimal"
        assert np.allclose(sol.s, b, atol=10 * eps)
        return
    assert sol.status == "primal_infeasible"
    assert sol.certificate["kind"] == "primal"
    # Farkas ray: b'y < 0, y in K* and A'y = 0
    y = sol.y
    assert b @ y < 0
    assert np.linalg.norm(cone_ops.project_dual(spec, y) - y) \
        <= 1e-9 * np.linalg.norm(y)
    assert np.linalg.norm(cp.A.T @ y) == 0.0


def test_dimension_mismatch_rejected():
    from conedsl.errors import ShapeError
    with pytest.raises(ShapeError):
        ConeProgram(c=np.zeros(2), A=from_dense(np.zeros((2, 3))),
                    b=np.zeros(2),
                    cones=ConeSpec(zero=2, nonneg=0, soc=[], psd=[], ep=0),
                    offset=0.0, flipped=False)
    with pytest.raises(ShapeError):
        # cone sizes must add up to the row count
        ConeProgram(c=np.zeros(3), A=from_dense(np.zeros((2, 3))),
                    b=np.zeros(2),
                    cones=ConeSpec(zero=5, nonneg=0, soc=[], psd=[], ep=0),
                    offset=0.0, flipped=False)


def test_diagnostics_rendering():
    x = cd.Variable(name="x")
    res = cd.solve(cd.Problem(cd.Minimize(x), [x >= 1]))
    text = diagnostics(res.solution)
    assert "status: optimal" in text
    assert "iterations" in text and "pres" in text
    aa = res.solution.anderson
    assert (f"anderson: {aa['accepted']} accepted, {aa['rejected']} "
            f"rejected, {aa['resets']} resets") in text
    assert res.metrics["anderson"] == aa
    sc = res.solution.scale
    assert (f"scale: {sc['start']:.4g} -> {sc['final']:.4g}, "
            f"{sc['refactors']} refactors") in text
    assert "kkt: 0 refined solves" in text
    assert res.metrics["refined_solves"] == res.solution.refined_solves == 0

    infeas = cd.solve(cd.Problem(cd.Minimize(x), [x >= 1, x <= 0]))
    text = diagnostics(infeas.solution)
    assert "primal_infeasible" in text
    assert "certificate" in text

    cp, _, _, _ = constructed_program(19, ("nonneg", "soc"))
    stuck = solve_cone_program(cp, SolverSettings(max_iters=2))
    text = diagnostics(stuck)
    assert "max_iters_reached" in text
