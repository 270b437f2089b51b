"""End-to-end acceptance checks.

One test per advertised behavior; each asserts its numeric tolerance and
its runtime budget, so `pytest -v` prints a single pass/fail line per
criterion.
"""
import json
import time
import zlib

import numpy as np
import pytest
from scipy.optimize import least_squares

import conedsl as cd
from conedsl import cones
from conedsl.canon import ConeSpec
from conedsl.errors import DCPError
from conedsl.examples import ExampleConfig, run_example
from conedsl.rng import SplitMix64

from test_atoms import (CASES, CASE_IDS, REGISTRY, build_expr, case_atom,
                        flat, sample_values)
from test_generator import SEEDS as GEN_SEEDS
from test_generator import build_problem, grid_minimum
from test_solver import MIXES, constructed_program


class Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeds {self.seconds}s budget")
        return False


def test_criterion_01_worst_case_covariance():
    expected = np.array([
        [0.1999, 0.0973, 0.0006, 0.0743],
        [0.0973, 0.0998, -0.1012, 0.0000],
        [0.0006, -0.1012, 0.3000, 0.0005],
        [0.0743, 0.0000, 0.0005, 0.1001],
    ])
    with Budget(2.0):
        record = run_example(ExampleConfig("worst_cov"))
    assert record.status == "optimal"
    sigma = np.asarray(record.outputs["Sigma"])
    assert np.max(np.abs(sigma - expected)) <= 5e-3


def test_criterion_02_survey_calibration():
    expected_weights = (29.00, 31.40, 29.03, 28.91, 31.50, 31.53)
    expected_freqs = (15, 13, 9, 127, 12, 24)
    with Budget(2.0):
        record = run_example(ExampleConfig("calibration"))
    assert record.status == "optimal"
    table = record.outputs["weight_table"]
    weights = tuple(row["weight"] for row in table)
    freqs = tuple(row["frequency"] for row in table)
    assert freqs == expected_freqs
    for got, want in zip(weights, expected_weights):
        assert abs(got - want) <= 0.01


def test_criterion_03_ols_matches_normal_equations():
    rng = SplitMix64(3)
    m, n = 50, 8
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.5 * rng.normals(m, 1)
    beta_ref = np.linalg.lstsq(X, y, rcond=None)[0]

    with Budget(1.0):
        beta = cd.Variable(n, 1, name="beta")
        prob = cd.Problem(cd.Minimize(cd.sum_squares(y - X @ beta)))
        res = cd.solve(prob, eps_abs=1e-11, eps_rel=1e-11)
        assert res.status == "optimal"
        beta_hat = np.asarray(res.value_of(beta))
    assert np.max(np.abs(beta_hat - beta_ref)) <= 1e-6


def pava(y):
    """Pool-adjacent-violators: exact nondecreasing least-squares fit."""
    blocks = []
    for v in y:
        blocks.append([float(v), 1.0])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in blocks:
        out.extend([v] * int(round(w)))
    return np.array(out)


def test_criterion_04_isotonic_matches_pava():
    m = 30
    with Budget(5.0):
        for seed in range(20):
            rng = SplitMix64(seed)
            y = 2.0 * np.linspace(0, 1, m).reshape(-1, 1) \
                + 0.4 * rng.normals(m, 1)
            ref = pava(y.ravel())

            beta = cd.Variable(m, 1, name="beta")
            prob = cd.Problem(cd.Minimize(cd.sum_squares(y - beta)),
                              [cd.diff(beta) >= 0])
            res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
            assert res.status == "optimal", seed
            beta_hat = np.asarray(res.value_of(beta)).ravel()
            assert np.max(np.abs(beta_hat - ref)) <= 1e-5, seed


def test_criterion_05_huber_matches_damped_newton():
    rng = SplitMix64(7)
    m, n, M = 60, 5, 1.0
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.1 * rng.normals(m, 1)
    for i in range(0, m, 10):                      # 10% gross outliers
        y[i, 0] += 5.0 if (i // 10) % 2 == 0 else -5.0

    def value_grad_hess(b):
        r = (y - X @ b).ravel()
        inside = np.abs(r) <= M
        val = float(np.sum(np.where(inside, r * r,
                                    2 * M * np.abs(r) - M * M)))
        grad = -X.T @ np.where(inside, 2 * r, 2 * M * np.sign(r))
        hess = 2 * X.T @ (inside[:, None] * X)
        return val, grad, hess

    b = np.zeros((n, 1))
    for _ in range(200):
        val, g, H = value_grad_hess(b)
        if np.linalg.norm(g) < 1e-12:
            break
        step = np.linalg.solve(H + 1e-9 * np.eye(n), -g).reshape(-1, 1)
        t = 1.0
        while t > 1e-12:
            if value_grad_hess(b + t * step)[0] < val - 1e-12 * abs(val):
                break
            t *= 0.5
        if t <= 1e-12:
            break
        b = b + t * step
    ref = value_grad_hess(b)[0]

    with Budget(2.0):
        beta = cd.Variable(n, 1, name="beta")
        prob = cd.Problem(
            cd.Minimize(cd.sum_entries(cd.huber(y - X @ beta, M))))
        res = cd.solve(prob, eps_abs=1e-10, eps_rel=1e-10)
        assert res.status == "optimal"
    assert abs(res.value - ref) <= 1e-4 * (1.0 + abs(ref))


def test_criterion_06_composition_gate():
    rng = SplitMix64(11)
    m, n = 20, 4
    X = rng.normals(m, n)
    yy = np.where(rng.uniforms(m, 1) < 0.5, -1.0, 1.0)

    with Budget(1.0):
        beta = cd.Variable(n, 1, name="beta")
        margins = cd.mul_elemwise(-yy, X @ beta)
        naive = cd.sum_entries(cd.log(1.0 + cd.exp(margins)))
        prob_bad = cd.Problem(cd.Minimize(naive))
        assert not prob_bad.is_dcp()
        with pytest.raises(DCPError) as excinfo:
            cd.solve(prob_bad)
        rendered = str(excinfo.value)
        assert "log" in rendered            # the violation path is shown

        good = cd.sum_entries(cd.logistic(margins))
        res = cd.solve(cd.Problem(cd.Minimize(good)))
        assert res.status == "optimal"


def test_criterion_07_catenary_flat_symmetric():
    with Budget(3.0):
        record = run_example(ExampleConfig("catenary"))
    assert record.status == "optimal"
    xv = np.asarray(record.outputs["x"]).ravel()
    yv = np.asarray(record.outputs["y"]).ravel()
    h = record.outputs["h"]
    assert xv.size == 51

    # mirror symmetry: x_i + x_{m+1-i} is the same for every i
    sums = xv + xv[::-1]
    assert sums.max() - sums.min() <= 1e-5

    # least-squares fit of a hanging-chain profile a*cosh((x-c)/a) + b
    def resid(q):
        a, b, c = q
        return a * np.cosh((xv - c) / a) + b - yv

    fit = least_squares(resid, x0=np.array([0.3, 0.0, 0.5]))
    assert np.max(np.abs(resid(fit.x))) <= 2.0 * h


def test_criterion_08_binary_channel_capacity():
    def capacity_bits(p):
        if p in (0.0, 1.0):
            return 1.0
        ent = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        return 1.0 - ent

    with Budget(1.0):
        for p in (0.0, 0.1, 0.5):
            record = run_example(ExampleConfig(
                "channel_capacity", params={"crossover": str(p)}))
            assert record.status == "optimal"
            got = record.outputs["capacity_bits"]
            assert abs(got - capacity_bits(p)) <= 1e-4, p
            if p == 0.1:
                assert abs(got - 0.531004) <= 1e-4


def test_criterion_09_fastest_mixing_chain():
    with Budget(10.0):
        k3 = run_example(ExampleConfig("fmmc", params={"graph": "k3"}))
        assert k3.status == "optimal"
        assert abs(k3.objective) <= 1e-5

        path = run_example(ExampleConfig("fmmc", params={"graph": "path3"}))
        assert path.status == "optimal"

        # brute-force oracle over symmetric stochastic matrices on the
        # 3-path: P = [[1-a, a, 0], [a, 1-a-b, b], [0, b, 1-b]]
        def slem_grid(avals, bvals):
            A, B = np.meshgrid(avals, bvals, indexing="ij")
            keep = (A + B) <= 1.0 + 1e-12
            a, b = A[keep], B[keep]
            P = np.zeros((a.size, 3, 3))
            P[:, 0, 0] = 1 - a
            P[:, 0, 1] = P[:, 1, 0] = a
            P[:, 1, 1] = 1 - a - b
            P[:, 1, 2] = P[:, 2, 1] = b
            P[:, 2, 2] = 1 - b
            lam = np.linalg.eigvalsh(P)
            mu = np.maximum(lam[:, 1], -lam[:, 0])
            k = int(np.argmin(mu))
            return float(mu[k]), float(a[k]), float(b[k])

        mu0, a0, b0 = slem_grid(np.linspace(0, 1, 201),
                                np.linspace(0, 1, 201))
        step = 1.0 / 200
        for _ in range(6):
            step /= 4.0
            mu0, a0, b0 = slem_grid(
                np.clip(np.linspace(a0 - 4 * step, a0 + 4 * step, 17), 0, 1),
                np.clip(np.linspace(b0 - 4 * step, b0 + 4 * step, 17), 0, 1))
        assert abs(path.objective - mu0) <= 1e-3


def test_criterion_10_logconcave_mle_grid_oracle():
    counts = np.array([1.0, 5.0, 2.0, 1.0])

    def loglik(p):
        return float(counts @ np.log(p))

    def feasible(p0, p1, p2, p3, slack=0.0):
        if min(p0, p1, p2, p3) <= 0:
            return False
        return (p1 * p1 >= p0 * p2 - slack
                and p2 * p2 >= p1 * p3 - slack)

    with Budget(30.0):
        record = run_example(ExampleConfig("logconcave_mle"))
        assert record.status == "optimal"

        # coarse pass over the probability simplex
        step = 0.02
        grid = np.arange(step, 1.0, step)
        best_ll, best_p = -np.inf, None
        for p0 in grid:
            for p1 in grid:
                if p0 + p1 >= 1.0 - step:
                    break
                for p2 in grid:
                    p3 = 1.0 - p0 - p1 - p2
                    if p3 <= step / 2:
                        break
                    if not feasible(p0, p1, p2, p3):
                        continue
                    ll = loglik(np.array([p0, p1, p2, p3]))
                    if ll > best_ll:
                        best_ll, best_p = ll, np.array([p0, p1, p2, p3])

        # local refinement with shrinking steps down to ~1e-6
        step_r = step
        for _ in range(16):
            step_r *= 0.5
            offs = np.arange(-2, 3) * step_r
            for d0 in offs:
                for d1 in offs:
                    for d2 in offs:
                        p0 = best_p[0] + d0
                        p1 = best_p[1] + d1
                        p2 = best_p[2] + d2
                        p3 = 1.0 - p0 - p1 - p2
                        if not feasible(p0, p1, p2, p3, slack=1e-15):
                            continue
                        ll = loglik(np.array([p0, p1, p2, p3]))
                        if ll > best_ll:
                            best_ll = ll
                            best_p = np.array([p0, p1, p2, p3])

    assert abs(record.objective - best_ll) <= 1e-3 * (1.0 + abs(best_ll))


def test_criterion_11_constructed_optimum_suite():
    settings = cd.SolverSettings(eps_abs=1e-8, eps_rel=1e-8)
    with Budget(60.0):
        count = 0
        for batch, mix in enumerate(MIXES):
            for seed in range(batch * 20, batch * 20 + 20):
                cp, x_star, s_star, y_star = constructed_program(
                    seed + 1000, mix)
                opt = float(cp.c @ x_star)
                sol = cd.solve_cone_program(cp, settings)
                assert sol.status == "optimal", (mix, seed)
                assert abs(sol.objective - opt) <= 1e-4 * (1.0 + abs(opt))
                A = cp.A.to_dense()
                pres = np.linalg.norm(A @ sol.x + sol.s - cp.b)
                dres = np.linalg.norm(A.T @ sol.y + cp.c)
                gap = abs(cp.c @ sol.x + cp.b @ sol.y)
                assert pres <= 2e-8 * (1.0 + np.linalg.norm(cp.b))
                assert dres <= 2e-8 * (1.0 + np.linalg.norm(cp.c))
                assert gap <= 2e-8 * (1.0 + abs(cp.c @ sol.x)
                                      + abs(cp.b @ sol.y))
                count += 1
        assert count == 100


def test_criterion_12_projection_laws():
    blocks = [("zero", 5, None), ("nonneg", 5, None), ("soc", 5, None),
              ("psd", 6, 3), ("exp", 3, None)]
    with Budget(10.0):
        for kind, dim, meta in blocks:
            rng = SplitMix64(zlib.crc32(kind.encode()))
            pts = rng.normals(1000, dim) * 3.0
            mates = rng.normals(1000, dim) * 3.0
            for v, u in zip(pts, mates):
                p = cones.project_block(kind, v, meta)
                # idempotence
                assert np.linalg.norm(
                    cones.project_block(kind, p, meta) - p) <= 1e-10
                # nonexpansiveness
                q = cones.project_block(kind, u, meta)
                assert np.linalg.norm(p - q) <= np.linalg.norm(v - u) + 1e-12
                # Moreau: v = proj_K(v) - proj_{K*}(-v)
                if kind == "zero":
                    pstar = -v
                elif kind == "exp":
                    pstar = cones.project_dual(
                        ConeSpec(zero=0, nonneg=0, soc=[], psd=[], ep=1), -v)
                else:
                    pstar = cones.project_block(kind, -v, meta)
                assert np.linalg.norm(v - (p - pstar)) \
                    <= 1e-10 * (1.0 + np.linalg.norm(v))


def test_criterion_13_atom_conformance():
    with Budget(60.0):
        covered = {case_atom(cid) for cid in CASE_IDS}
        assert covered == set(REGISTRY)
        rng = SplitMix64(5150)
        for cid in CASE_IDS:
            case = CASES[cid]
            e, _ = build_expr(cid)
            d = REGISTRY[case_atom(cid)]
            assert e.curvature is case["curv"], cid
            assert e.sign is case["sign"], cid
            assert d.monotonicity([a.sign for a in e.args],
                                  e.params) == case["mono"], cid
            for _ in range(10):
                vals = sample_values(cid, rng)
                got = flat(d.evaluate(vals, e.params))
                want = flat(case["ref"](vals))
                assert np.allclose(got, want, atol=1e-10), cid
            # convexity/concavity holds along sampled segments
            for _ in range(5):
                va = sample_values(cid, rng)
                vb = sample_values(cid, rng)
                fa = flat(d.evaluate(va, e.params))
                fb = flat(d.evaluate(vb, e.params))
                vm = [0.5 * a + 0.5 * b for a, b in zip(va, vb)]
                fm = flat(d.evaluate(vm, e.params))
                chord = 0.5 * fa + 0.5 * fb
                tol = 1e-8 * (1.0 + np.max(np.abs(chord)))
                if case["curv"] in (cd.Curvature.CONVEX, cd.Curvature.AFFINE):
                    assert np.all(fm <= chord + tol), cid
                if case["curv"] in (cd.Curvature.CONCAVE,
                                    cd.Curvature.AFFINE):
                    assert np.all(fm >= chord - tol), cid


def test_criterion_14_generator_equivalence_and_exports():
    with Budget(120.0):
        for seed in GEN_SEEDS:
            prob, f_np, x, flipped = build_problem(seed)
            assert prob.is_dcp()
            res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
            assert res.status == "optimal", seed
            ref = grid_minimum(f_np, x.shape.rows)
            if flipped:
                ref = -ref
            assert abs(res.value - ref) <= 1e-3 * (1.0 + abs(ref)), seed

            again, _, _, _ = build_problem(seed)
            blob1 = json.dumps(cd.solve(prob, solver="export-only").export)
            blob2 = json.dumps(cd.solve(again, solver="export-only").export)
            assert blob1.encode() == blob2.encode(), seed
