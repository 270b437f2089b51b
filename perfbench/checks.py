"""Independent checks of what the library delivers.

Nothing here calls the library's own cone tests or trusts its status: the
optimality conditions of

    min c'x  s.t.  Ax + s = b,  s in K

are recomputed from the raw standard-form arrays, cone membership uses
this file's own tests, and three gallery models are compared with
closed-form answers. Every function returns a list of problems found; an
empty list means the result passed.
"""
from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

# Solver residuals are recomputed in another summation order, so allow a
# rounding margin of this size (relative to the data scale) on top of the
# solve's own tolerance.
ROUNDING = 1e-12
# Cone membership of the returned s and y holds up to rounding of the
# iterate, relative to the size of the block.
CONE_TOL = 1e-9
# The gallery's feasibility audit: the bound the example tests use.
FEASIBILITY_TOL = 1e-6


def standard_form(cp):
    """Plain arrays of a ConeProgram: (c, A as scipy CSC, b, cone dims)."""
    A = sp.csc_matrix((np.asarray(cp.A.vals, dtype=float),
                       np.asarray(cp.A.rowidx), np.asarray(cp.A.colptr)),
                      shape=(cp.b.size, cp.c.size))
    dims = {"z": cp.cones.zero, "l": cp.cones.nonneg,
            "q": list(cp.cones.soc), "s": list(cp.cones.psd),
            "ep": cp.cones.ep}
    return np.asarray(cp.c, dtype=float), A, np.asarray(cp.b, dtype=float), dims


def _blocks(dims):
    """(kind, start, stop, side) in the fixed row order of the format."""
    r = 0
    out = []
    for kind, size in (("zero", dims["z"]), ("nonneg", dims["l"])):
        if size:
            out.append((kind, r, r + size, None))
            r += size
    for q in dims["q"]:
        out.append(("soc", r, r + q, None))
        r += q
    for side in dims["s"]:
        d = side * (side + 1) // 2
        out.append(("psd", r, r + d, side))
        r += d
    for _ in range(dims["ep"]):
        out.append(("exp", r, r + 3, None))
        r += 3
    return out


def _mat(v, side):
    """Symmetric matrix from scaled lower-triangle (svec) coordinates."""
    X = np.zeros((side, side))
    rows, cols = np.tril_indices(side)
    order = np.lexsort((rows, cols))          # column by column
    rows, cols = rows[order], cols[order]
    vals = np.where(rows == cols, v, v / math.sqrt(2.0))
    X[rows, cols] = vals
    X[cols, rows] = vals
    return X


def cone_violation(kind, v, side=None, dual=False):
    """Violation of v in the block's cone (or its dual cone), >= 0."""
    if kind == "zero":
        return 0.0 if dual else float(np.max(np.abs(v), initial=0.0))
    if kind == "nonneg":
        return float(max(-np.min(v, initial=0.0), 0.0))
    if kind == "soc":
        return float(max(np.linalg.norm(v[1:]) - v[0], 0.0))
    if kind == "psd":
        return float(max(-np.linalg.eigvalsh(_mat(v, side))[0], 0.0))
    if dual:
        # K*exp = cl{u < 0, -u exp(v/u) <= e w}, which is the set of points
        # with (-v, -u, e w) in Kexp
        u, w2, w3 = (float(t) for t in v)
        return exp_violation(-w2, -u, math.e * w3)
    return exp_violation(*v)


def exp_violation(x, y, z):
    """Violation of (x, y, z) in Kexp = cl{y > 0, y exp(x/y) <= z}: how far
    (in the max norm) the point must move to reach the ray {x <= 0, y = 0,
    z >= 0} or, for y > 0, to satisfy y exp(x/y) <= z by raising z."""
    x, y, z = float(x), float(y), float(z)
    ray = max(abs(y), x, -z, 0.0)
    if y <= 0:
        return ray
    return min(ray, max(y * math.exp(min(x / y, 700.0)) - z, 0.0))


def check_solution(cp, sol, eps_abs, eps_rel):
    """Recompute the optimality conditions the solve claims to meet."""
    problems = []
    c, A, b, dims = standard_form(cp)
    x, y, s = (np.asarray(sol.x, dtype=float), np.asarray(sol.y, dtype=float),
               np.asarray(sol.s, dtype=float))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))
            and np.all(np.isfinite(s))):
        return ["solution has non-finite entries"]
    pres = np.linalg.norm(A @ x + s - b)
    dres = np.linalg.norm(A.T @ y + c)
    ctx, bty = float(c @ x), float(b @ y)
    gap = abs(ctx + bty)
    nb, nc = np.linalg.norm(b), np.linalg.norm(c)
    for name, val, bound, scale in (
            ("primal residual", pres, eps_abs + eps_rel * nb, nb),
            ("dual residual", dres, eps_abs + eps_rel * nc, nc),
            ("duality gap", gap, eps_abs + eps_rel * (abs(ctx) + abs(bty)),
             abs(ctx) + abs(bty))):
        if not val <= bound + ROUNDING * (1.0 + scale):
            problems.append(f"{name} {val:.3e} exceeds {bound:.3e}")
    for kind, start, stop, side in _blocks(dims):
        for label, vec, dual in (("s", s, False), ("y", y, True)):
            block = vec[start:stop]
            viol = cone_violation(kind, block, side, dual)
            if viol > CONE_TOL * (1.0 + np.max(np.abs(block), initial=0.0)):
                problems.append(f"{label}[{start}:{stop}] outside the "
                                f"{'dual ' if dual else ''}{kind} cone by "
                                f"{viol:.3e}")
                break
    return problems


def feasibility(result):
    """Worst constraint violation at the recovered point (gallery audit)."""
    worst = 0.0
    for con in result.problem.constraints:
        val = np.asarray(result.value_of(con.body), dtype=float)
        if con.kind == "eq":
            v = np.max(np.abs(val), initial=0.0)
        elif con.kind == "ineq":
            v = max(np.max(val, initial=0.0), 0.0)
        else:
            v = max(-np.linalg.eigvalsh(0.5 * (val + val.T))[0], 0.0)
        worst = max(worst, float(v))
    return worst


def check_feasibility(worst):
    if not worst <= FEASIBILITY_TOL:
        return [f"constraint violation {worst:.3e} exceeds "
                f"{FEASIBILITY_TOL:.0e}"]
    return []


# -- closed-form references -----------------------------------------------------

def pava(y):
    """Isotonic least-squares fit by pool-adjacent-violators."""
    means, weights, counts = [], [], []
    for v in np.asarray(y, dtype=float).ravel():
        means.append(v)
        weights.append(1.0)
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            w = weights[-2] + weights[-1]
            m = (weights[-2] * means[-2] + weights[-1] * means[-1]) / w
            c = counts[-2] + counts[-1]
            del means[-1], weights[-1], counts[-1]
            means[-1], weights[-1], counts[-1] = m, w, c
    return np.repeat(means, counts)


def binary_entropy_bits(p):
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _compare(label, got, ref, tol):
    got = np.asarray(got, dtype=float).ravel()
    ref = np.asarray(ref, dtype=float).ravel()
    err = float(np.max(np.abs(got - ref), initial=0.0))
    if got.shape != ref.shape or not err <= tol * (1.0 + np.max(np.abs(ref))):
        return [f"{label} differs from the closed form by {err:.3e}"]
    return []


def ols_reference(m, n, rng):
    """Normal-equation solution of the ols example's data (same stream)."""
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.5 * rng.normals(m, 1)
    return np.linalg.solve(X.T @ X, X.T @ y)


def check_reference(example, params, outputs, eps, reference_rng):
    """Closed-form comparison for the models that have one; the tolerance
    is the square root of the solve tolerance, the accuracy a first-order
    method reaches in the solution when its residuals reach eps."""
    tol = math.sqrt(eps)
    if example == "ols":
        ref = ols_reference(int(params["m"]), int(params["n"]), reference_rng)
        return _compare("beta", outputs["beta"], ref, tol)
    if example == "isotonic":
        return _compare("beta", outputs["beta"], pava(outputs["y"]), tol)
    if example == "channel_capacity":
        ref = 1.0 - binary_entropy_bits(float(params["crossover"]))
        return _compare("capacity", outputs["capacity_bits"], ref, tol)
    return []


# -- export round trip -------------------------------------------------------------

def check_export(cp, text, imported, text_again):
    """The export must decode to exactly the lowered program, import to the
    same arrays and re-export to the same bytes."""
    if text_again != text:
        return ["re-export differs from the export"]
    try:
        doc = json.loads(text)
    except ValueError as e:
        return [f"export is not JSON: {e}"]
    c, A, b, dims = standard_form(cp)
    problems = []
    try:
        if (doc["n"], doc["m"]) != (c.size, b.size):
            problems.append("n/m differ from the lowered program")
        for key, got, want in (("c", doc["c"], c), ("b", doc["b"], b),
                               ("A.colptr", doc["A"]["colptr"], A.indptr),
                               ("A.rowidx", doc["A"]["rowidx"], A.indices),
                               ("A.vals", doc["A"]["vals"], A.data)):
            if len(got) != len(want) or not np.array_equal(
                    np.asarray(got, dtype=float), np.asarray(want, dtype=float)):
                problems.append(f"{key} differs from the lowered program")
        if doc["cones"] != dims:
            problems.append("cone dimensions differ from the lowered program")
        if doc["offset"] != float(cp.offset) or doc["flipped"] != cp.flipped:
            problems.append("offset/sense differ from the lowered program")
    except (KeyError, TypeError) as e:
        return [f"export lacks a field: {e}"]
    ci, Ai, bi, dims_i = standard_form(imported)
    if not (np.array_equal(ci, c) and np.array_equal(bi, b) and dims_i == dims
            and np.array_equal(Ai.indptr, A.indptr)
            and np.array_equal(Ai.indices, A.indices)
            and np.array_equal(Ai.data, A.data)):
        problems.append("imported program differs from the lowered one")
    return problems
