"""Fast self-test of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced layer times tile each request, that the checker rejects a
perturbed solution and a corrupted export, that the exact-repeat guard
fires, and that the benchmark refuses to run without the library's
sources. Exits non-zero on the first failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

import run as bench

TINY_SOLVES = [
    ("ols", {"m": 20, "n": 3}),
    ("isotonic", {"m": 12}),
    ("channel_capacity", {}),
    ("huber_reg", {"m": 20, "n": 3}),
    ("logistic_reg", {"m": 30, "n": 7}),
    ("sparse_inv_cov", {"n": 3, "m": 30, "alpha": 4.0}),
    ("fmmc", {}),
]
TINY_EXPORTS = [
    ("catenary", {"m": 11}),
    ("kelly", {"K": 10, "n": 4, "lam": 1.0}),
    ("sparse_inv_cov", {"n": 3}),
]


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def tiny_models(cd, workloads):
    out = []
    for name, params in TINY_SOLVES:
        kw = {"eps_abs": workloads.GALLERY_EPS, "eps_rel": workloads.GALLERY_EPS}
        out.append(workloads.Model(name, dict(params), kw))
    out += [workloads.Model(name, dict(p), None) for name, p in TINY_EXPORTS]
    for m in out:
        workloads.build(m, cd.examples)
    return out


def check_metrics(cd, workloads, spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = argparse.Namespace(workload="selftest", seed=1, seconds=1,
                                  trace=trace)
        record, code = bench.run(args, tiny_models(cd, workloads))
        result = record["result"]
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"tiny run (trace {trace}) is correct")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"trace {trace} emits exactly the {section} "
                            "metrics of BENCHMARK.json, with their units")
        expect(all(isinstance(v["value"], float)
                   for v in result["metrics"].values()),
               f"trace {trace} values are numbers")
        if trace:
            for row in record["models"]:
                if row["solver"] is None or "layers" not in row:
                    continue
                lat, gap = row["traced_latency_s"], row["unaccounted_s"]
                expect(-1e-4 <= gap <= 0.05 * lat + 2e-3,
                       f"{row['model']}: layers tile the traced latency "
                       f"({gap * 1e3:.2f} ms of {lat * 1e3:.1f} ms outside)")


def check_checker(cd, checks):
    at = cd.atoms
    rng = cd.SplitMix64(3)
    X, y = rng.normals(15, 3), rng.normals(15, 1)
    beta = cd.Variable(3, 1, name="beta")
    S = cd.Semidef(2, name="S")
    prob = cd.Problem(cd.Minimize(at.sum_squares(y - X @ beta)
                                  + at.exp(beta[0]) - at.log_det(S)
                                  + at.matrix_trace(S)),
                      [at.p_norm(beta, 2) <= 3])
    res = cd.solve(prob, eps_abs=1e-9, eps_rel=1e-9)
    cp, sol = res.cone_program, res.solution
    expect(res.status == "optimal"
           and not checks.check_solution(cp, sol, 1e-9, 1e-9),
           "checker accepts a good solution")
    for field in ("x", "y", "s"):
        bad = type(sol)(**{**sol.__dict__})
        vec = getattr(bad, field).copy()
        vec[0] += 1e-3
        setattr(bad, field, vec)
        expect(checks.check_solution(cp, bad, 1e-9, 1e-9),
               f"checker rejects a perturbed {field}")
    bad = type(sol)(**{**sol.__dict__})
    bad.s = sol.s.copy()
    start = cp.cones.zero + cp.cones.nonneg   # first SOC block
    bad.s[start] -= 10.0
    bad.x = sol.x.copy()
    expect(any("cone" in p for p in checks.check_solution(cp, bad, 1e-9,
                                                          1e-9)),
           "checker rejects s outside its cone")

    # exp membership on points built on, inside and outside the cones
    gen = cd.SplitMix64(11)
    for _ in range(500):
        x, y = 2.0 * gen.normal(), 0.5 + 2.5 * gen.uniform()
        z = y * math.exp(x / y)             # on the boundary of Kexp
        u, v = -0.5 - 2.5 * gen.uniform(), 2.0 * gen.normal()
        w = -u * math.exp(v / u) / math.e   # on the boundary of K*exp
        inside = (checks.exp_violation(x, y, z) <= 1e-12 * (1 + abs(z))
                  and checks.exp_violation(x, y, z + 1.0) == 0.0
                  and checks.cone_violation("exp", [u, v, w], dual=True)
                  <= 1e-12 * (1 + abs(w)))
        outside = (checks.exp_violation(x, y, z - 0.1 * (1 + z)) > 1e-3
                   and checks.cone_violation("exp", [u, v, w - 0.1 * (1 + w)],
                                             dual=True) > 1e-3)
        if not (inside and outside):
            expect(False, f"exp membership at {(x, y, z)} / {(u, v, w)}")
    expect(checks.exp_violation(-1.0, 0.0, 2.0) == 0.0
           and checks.exp_violation(1.0, 0.0, 2.0) == 1.0
           and checks.cone_violation("exp", [0.0, 1.0, 2.0], dual=True) == 0
           and checks.cone_violation("exp", [0.0, -1.0, 2.0], dual=True) > 0,
           "exp membership: interior, boundary, rays and outside points")

    text = cd.export_json(cp, res.vmap)
    doc = json.loads(text)
    doc["A"]["vals"][0] += 1.0
    corrupt = json.dumps(doc, separators=(",", ":"))
    cp2, vmap2 = cd.import_json(corrupt)
    expect(checks.check_export(cp, corrupt, cp2, cd.export_json(cp2, vmap2)),
           "checker rejects a corrupted export")
    cp3, vmap3 = cd.import_json(text)
    expect(not checks.check_export(cp, text, cp3, cd.export_json(cp3, vmap3)),
           "checker accepts a faithful export")
    expect(checks.check_reference("isotonic", {}, {
        "beta": checks.pava([3.0, 1.0, 2.0]) + 1e-2, "y": [3.0, 1.0, 2.0]},
        1e-9, None), "reference check rejects a wrong isotonic fit")


def check_guard(cd, checks, workloads):
    runner = bench.Runner(cd, checks)
    model = tiny_models(cd, workloads)[0]
    runner.sample(model, "a")
    expect(not runner.guard_errors, "a repeated solve repeats exactly")
    model.fingerprint = {**model.fingerprint, "iterations": -1}
    runner.sample(model, "b")
    expect(runner.guard_errors, "the exact-repeat guard fires on a mismatch")


def check_bare_directory():
    bare = bench.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(bench.HERE):
        if name.endswith(".py") or name.endswith(".md"):
            shutil.copy(bench.HERE / name, bare / "perfbench" / name)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "gallery", "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "refuses to run without the library's sources")


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(bench.BLAS_THREADS)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    cd = bench.load_library()
    import checks
    import workloads
    expect(bench.tail([float(i) for i in range(100)]) == (89.0, 90.0)
           and bench.tail([float(i) for i in range(35)]) == (24.0, 100 * 25 / 35),
           "tail is the highest percentile with ten samples beyond it")
    check_checker(cd, checks)
    check_guard(cd, checks, workloads)
    check_metrics(cd, workloads, spec)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
