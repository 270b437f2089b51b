"""Randomly generated problems checked against twin numpy evaluators.

A small grammar builds convex objectives together with an independent
plain-numpy evaluator for each.  The feasible set is always the box
-2 <= x <= 2, so a multilevel grid search over the box gives a reference
optimum without touching any library code.
"""
import json

import numpy as np
import pytest

import conedsl as cd
from conedsl.rng import SplitMix64

SEEDS = list(range(50))
BOX = 2.0

UNARY = [
    ("square", cd.square, lambda t: t * t),
    ("abs", cd.abs, np.abs),
    ("exp", cd.exp, np.exp),
    ("huber", lambda e: cd.huber(e, 1.0),
     lambda t: np.where(np.abs(t) <= 1.0, t * t, 2.0 * np.abs(t) - 1.0)),
    ("logistic", cd.logistic, lambda t: np.logaddexp(0.0, t)),
    ("pos", cd.pos, lambda t: np.maximum(t, 0.0)),
]

AGGREGATE = [
    ("sum_entries", cd.sum_entries, np.sum),
    ("max_entries", cd.max_entries, np.max),
    ("log_sum_exp", cd.log_sum_exp,
     lambda v: np.log(np.sum(np.exp(v)))),
    ("norm1", lambda e: cd.p_norm(e, 1), lambda v: np.abs(v).sum()),
    ("norm2", lambda e: cd.p_norm(e, 2), np.linalg.norm),
    ("norminf", lambda e: cd.p_norm(e, "inf"),
     lambda v: np.abs(v).max()),
    ("sum_squares", cd.sum_squares, lambda v: float(np.sum(v * v))),
]


def affine_scalar(rng, x, n):
    a = 0.8 * rng.normals(1, n)
    b = float(rng.normals(1)[0])
    expr = a @ x + b
    return expr, lambda xv: float(a.ravel() @ xv) + b


def unary_term(rng, x, n):
    base_expr, base_np = affine_scalar(rng, x, n)
    _, facade, fn = UNARY[int(rng.randint(len(UNARY)))]
    return facade(base_expr), lambda xv: float(fn(base_np(xv)))


def aggregate_term(rng, x, n):
    k = int(rng.randint(3)) + 2
    A = 0.8 * rng.normals(k, n)
    c = rng.normals(k, 1)
    _, facade, fn = AGGREGATE[int(rng.randint(len(AGGREGATE)))]
    expr = facade(A @ x + c)
    return expr, lambda xv: float(fn((A @ xv.reshape(-1, 1) + c).ravel()))


def build_problem(seed):
    """Problem plus an independent numpy objective over the box."""
    rng = SplitMix64(seed)
    n = int(rng.randint(2)) + 1
    x = cd.Variable(n, 1, name="x")
    level = seed % 4

    terms = []
    expr, base_np = affine_scalar(rng, x, n)
    terms.append((expr, base_np))
    if level >= 1:
        for _ in range(int(rng.randint(2)) + 1):
            terms.append(unary_term(rng, x, n))
    if level >= 2:
        for _ in range(int(rng.randint(2)) + 1):
            terms.append(aggregate_term(rng, x, n))
    if level >= 3:
        terms.append(unary_term(rng, x, n))
        terms.append(aggregate_term(rng, x, n))

    weights = [0.1 + float(w) for w in rng.uniforms(len(terms))]
    weights[0] = 1.0                       # the affine part enters unscaled

    total = weights[0] * terms[0][0]
    for w, (e, _) in zip(weights[1:], terms[1:]):
        total = total + w * e

    def f_np(xv):
        xv = np.asarray(xv, dtype=float).ravel()
        return sum(w * fn(xv) for w, (_, fn) in zip(weights, terms))

    flip = rng.uniform() < 0.25
    if flip:
        objective = cd.Maximize(-total)
    else:
        objective = cd.Minimize(total)
    prob = cd.Problem(objective, [x >= -BOX, x <= BOX])
    return prob, f_np, x, flip


def grid_minimum(f, n):
    lo = np.full(n, -BOX)
    hi = np.full(n, BOX)
    best = None
    for _ in range(14):
        axes = [np.linspace(lo[i], hi[i], 13) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        vals = np.array([f(p) for p in pts])
        k = int(np.argmin(vals))
        best = pts[k]
        step = (hi - lo) / 12.0
        lo = np.maximum(best - 2.0 * step, -BOX)
        hi = np.minimum(best + 2.0 * step, BOX)
    return float(f(best))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_problem_matches_grid_oracle(seed):
    prob, f_np, x, flip = build_problem(seed)
    assert prob.is_dcp()
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    assert res.status == "optimal", seed
    ref = grid_minimum(f_np, x.shape.rows)
    if flip:
        ref = -ref
    assert abs(res.value - ref) <= 1e-3 * (1.0 + abs(ref)), (seed, res.value,
                                                             ref)
    # the reported point sits inside the box and achieves the value
    xv = np.asarray(res.value_of(x)).ravel()
    assert np.all(np.abs(xv) <= BOX + 1e-6)
    achieved = f_np(xv)
    if flip:
        achieved = -achieved
    assert abs(achieved - res.value) <= 1e-5 * (1.0 + abs(res.value))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_export_byte_identical(seed):
    first, _, _, _ = build_problem(seed)
    second, _, _, _ = build_problem(seed)
    blob1 = json.dumps(cd.get_problem_data(first)[0], sort_keys=True)
    blob2 = json.dumps(cd.get_problem_data(second)[0], sort_keys=True)
    assert blob1.encode() == blob2.encode()


def test_levels_are_all_exercised():
    kinds = {seed % 4 for seed in SEEDS}
    assert kinds == {0, 1, 2, 3}


def test_generator_produces_both_senses():
    flips = [build_problem(s)[3] for s in SEEDS]
    assert any(flips) and not all(flips)
