"""Benchmark of the conedsl pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 20 --trace 0

One client submits the workload's models in a closed loop, one problem at
a time. A problem's latency runs from the call into the library until the
caller holds the deliverable: for a solve, the example's output values
recovered through Result.value_of; for an export, JSON text that has been
imported and re-exported byte for byte. Every deliverable is then checked
by perfbench/checks.py, never by the solver's own status alone.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same sweeps
untraced and then traced (perfbench/tracing.py) and prints the per-layer
metrics. The last line of standard output is one JSON object; the full
record, one row per model, goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10
clock = time.perf_counter

END_TO_END = {
    "latency_geomean_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "problems_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
PER_LAYER = {
    "expr.dcp_check_s": "s",
    "canon.canonicalize_s": "s", "canon.rows_m": "count",
    "canon.cols_n": "count", "canon.nnz": "count",
    "canon.export_json_s": "s", "canon.import_json_s": "s",
    "canon.json_bytes": "bytes",
    "api.recover_s": "s",
    "solver.solve_s": "s", "solver.setup_s": "s", "solver.iterations": "count",
    "solver.per_iter_s": "s", "solver.self_s": "s",
    "linalg.factor_s": "s", "linalg.solve_s": "s", "linalg.solve_calls": "count",
    "cones.project_dual_s": "s", "cones.project_dual_calls": "count",
    **{f"cones.{k}_{suffix}": unit
       for k in ("zero", "nonneg", "soc", "psd", "exp")
       for suffix, unit in (("s", "s"), ("calls", "count"))},
    "trace.overhead_ratio": "ratio", "trace.unaccounted_s": "s",
    "trace.wrapper_s": "s",
}


def load_library():
    """Import conedsl from this checkout's src/, and nothing else."""
    if not (SRC / "conedsl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no conedsl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conedsl
    if Path(conedsl.__file__).resolve().parent != SRC / "conedsl":
        sys.exit(f"perfbench: imported conedsl from {conedsl.__file__}, "
                 f"not from {SRC}")
    import conedsl.examples  # noqa: F401  (loaded before any patching)
    return conedsl


def import_seconds():
    """Seconds to import conedsl in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import conedsl; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def warm_up(cd):
    """One small solve and one small round trip touching every cone kind,
    so lazy initialisation in numpy/scipy lands outside the samples."""
    at = cd.atoms
    x = cd.Variable(3, 1, name="x")
    S = cd.Semidef(2, name="S")
    prob = cd.Problem(cd.Minimize(at.sum_squares(x) + at.exp(x[0])
                                  - at.log_det(S) + at.matrix_trace(S)),
                      [x >= -1, at.p_norm(x, 1) <= 2])
    res = cd.solve(prob)
    res.value_of(x)
    cp, vmap = cd.canonicalize(prob)
    cd.import_json(cd.export_json(cp, vmap))


def sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


class Runner:
    """Runs samples of a workload's models and checks each deliverable."""

    def __init__(self, cd, checks):
        self.cd = cd
        self.checks = checks
        self.guard_errors = []
        self._verified = {}

    def _deliver(self, model):
        cd, problem = self.cd, model.bundle.problem
        if model.solver_kw is None:
            t0 = clock()
            report = cd.dcp_check(problem)
            if not report.accepted:
                raise cd.DCPError("rejected by the ruleset", report=report)
            cp, vmap = cd.canonicalize(problem)
            text = cd.export_json(cp, vmap)
            cp2, vmap2 = cd.import_json(text)
            again = cd.export_json(cp2, vmap2)
            return clock() - t0, (cp, text, cp2, again)
        t0 = clock()
        res = cd.solve(problem, **model.solver_kw)
        outputs = model.bundle.outputs(res)
        return clock() - t0, (res, outputs)

    def _check(self, model, deliverable):
        chk = self.checks
        if model.solver_kw is None:
            cp, text, cp2, again = deliverable
            fp = {"m": cp.m, "n": cp.n, "nnz": int(cp.A.nnz),
                  "export": sha(text.encode())}
            key = (model.label, fp["export"], again == text)
            if key not in self._verified:    # the same bytes check the same
                self._verified[key] = chk.check_export(cp, text, cp2, again)
            return list(self._verified[key]), fp, {}
        res, outputs = deliverable
        cp, sol = res.cone_program, res.solution
        fp = {"m": cp.m, "n": cp.n, "nnz": int(cp.A.nnz),
              "iterations": int(res.metrics["iterations"]),
              "x": sha(sol.x.tobytes()) if sol is not None else None}
        if res.status != "optimal":
            return [f"status {res.status}"], fp, {}
        settings = self.cd.SolverSettings(**model.solver_kw)
        eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
        worst = chk.feasibility(res)
        problems = chk.check_solution(cp, sol, eps_abs, eps_rel)
        problems += chk.check_feasibility(worst)
        problems += chk.check_reference(
            model.example, model.resolved, outputs, eps_abs,
            self.cd.SplitMix64(workloads.DATA_SEED))
        return problems, fp, {"feasibility": worst}

    def sample(self, model, request, tracer=None):
        gc.collect()     # start each request without the previous one's debt
        if tracer is not None:
            tracer.begin(request)
        try:
            latency, deliverable = self._deliver(model)
        except Exception:     # a failed problem is a result, not a crash
            latency = None
            problems, fp, info = [traceback.format_exc(limit=4)], {}, {}
        if tracer is not None:
            tracer.begin(None)   # the checks below are not the library's time
        if latency is not None:
            problems, fp, info = self._check(model, deliverable)
        if fp:
            if not model.fingerprint:
                model.fingerprint = fp
            elif fp != model.fingerprint:
                self.guard_errors.append(
                    f"{model.label}: {fp} differs from {model.fingerprint}")
        row = {"model": model.label, "request": request,
               "latency_s": latency, "ok": not problems,
               "problems": problems, **info}
        if tracer is not None and latency is not None:
            row["layers"] = tracer.layers(request)
        return row

    def sweeps(self, models, orders, tracer=None, tag="u"):
        rows = []
        for j, order in enumerate(orders):
            for i in order:
                rows.append(self.sample(models[i], f"{tag}{j}:{i}", tracer))
        return rows


# -- metrics ----------------------------------------------------------------------

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest
    rank): (value, percentile). Every run has more samples than that,
    since a workload has at least 18 models and a run two sweeps."""
    s = sorted(latencies)
    rank = len(s) - TAIL_BEYOND
    return s[rank - 1], 100.0 * rank / len(s)


def per_model_latency(models, rows):
    out = {}
    for m in models:
        lats = [r["latency_s"] for r in rows
                if r["model"] == m.label and r["latency_s"] is not None]
        out[m.label] = statistics.median(lats) if lats else None
    return out


def end_to_end(models, rows, setup_s):
    lats = [r["latency_s"] for r in rows if r["latency_s"] is not None]
    if not lats:
        sys.exit("perfbench: every problem raised; see the record's rows")
    delivered = sum(r["ok"] for r in rows)
    med = per_model_latency(models, rows)
    value, pct = tail(lats)
    metrics = {
        "latency_geomean_s": geomean([v for v in med.values() if v]),
        "latency_p50_s": statistics.median(lats),
        "latency_tail_s": value,
        # closed-loop throughput of one sweep, each model at its median
        "problems_per_s": len(med) / sum(v for v in med.values() if v),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": delivered / len(rows),
    }
    notes = {"samples": len(lats), "latency_tail_percentile": pct,
             "latency_tail_samples_beyond": TAIL_BEYOND,
             "fail_ratio": 1.0 - delivered / len(rows)}
    return metrics, notes, med


def per_layer(models, traced, untraced_geomean, sweeps, costs):
    keys = [k for k in PER_LAYER if not k.startswith(("trace.",
                                                      "solver.per_iter"))]
    total = {k: 0.0 for k in keys}
    unaccounted = wrapper = 0.0
    for r in traced:
        lay = r.get("layers")
        if lay is None:
            continue
        for k in keys:
            total[k] += lay[k]
        unaccounted += r["latency_s"] - lay["tiled_s"]
        wrapper += lay["stage_calls"] * costs[0] + lay["counted_calls"] * costs[1]
    metrics = {k: v / sweeps for k, v in total.items()}
    its = total["solver.iterations"]
    metrics["solver.per_iter_s"] = ((total["solver.solve_s"]
                                     - total["solver.setup_s"]) / its
                                    if its else 0.0)
    traced_med = per_model_latency(models, traced)
    metrics["trace.overhead_ratio"] = (
        geomean([v for v in traced_med.values() if v]) / untraced_geomean - 1)
    metrics["trace.unaccounted_s"] = unaccounted / sweeps
    metrics["trace.wrapper_s"] = wrapper / sweeps
    return metrics


def model_rows(models, untraced, traced, med):
    out = []
    for m in models:
        row = {"model": m.label, "example": m.example, "params": m.resolved,
               "solver": m.solver_kw, "median_latency_s": med[m.label],
               "latencies_s": [r["latency_s"] for r in untraced
                               if r["model"] == m.label],
               "fingerprint": m.fingerprint,
               "feasibility": max((r["feasibility"] for r in untraced
                                   if r["model"] == m.label
                                   and "feasibility" in r), default=None),
               "problems": sorted({p for r in untraced + traced
                                   if r["model"] == m.label
                                   for p in r["problems"]})}
        mine = [r for r in traced if r["model"] == m.label and "layers" in r]
        if mine:       # means over the traced samples
            row["layers"] = {k: sum(r["layers"][k] for r in mine) / len(mine)
                             for k in mine[0]["layers"]}
            row["traced_latency_s"] = sum(r["latency_s"]
                                          for r in mine) / len(mine)
            row["unaccounted_s"] = (row["traced_latency_s"]
                                    - row["layers"]["tiled_s"])
        out.append(row)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- exact-repeat guard across runs -------------------------------------------------

def program_digest():
    files = [p for p in (SRC / "conedsl").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    files.append(HERE / "workloads.py")
    return workloads.digest_tree(ROOT, files)


def guard_across_runs(key_prefix, models, digest):
    """Compare this run's fingerprints with those earlier runs of the same
    program recorded; returns the mismatches and records the rest."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"fingerprints-{digest[:16]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    errors = []
    for m in models:
        key = f"{key_prefix}|{m.label}"
        if not m.fingerprint:
            continue
        if key in known and known[key] != m.fingerprint:
            errors.append(f"{m.label}: {m.fingerprint} differs from an "
                          f"earlier run's {known[key]}")
        known.setdefault(key, m.fingerprint)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return errors


# -- main -------------------------------------------------------------------------

def environment(args, sweeps):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "data_seed": workloads.DATA_SEED, "seconds": args.seconds,
            "sweeps": sweeps, "trace": args.trace}


def setup(cd, workload):
    """Import, data generation and Problem construction, then a warm-up.
    The first three are done SETUP_REPEATS times and the median of their
    sums is kept; the warm-up only counts once, since it primes caches."""
    imports, builds = [], []
    models = None
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = clock()
        models = workloads.models_for(workload, cd.examples)
        for m in models:
            workloads.build(m, cd.examples)
        builds.append(clock() - t0)
    t0 = clock()
    warm_up(cd)
    warm = clock() - t0
    detail = {"import_s": imports, "build_s": builds, "warm_up_s": warm}
    setups = [i + b for i, b in zip(imports, builds)]
    return models, statistics.median(setups) + warm, detail


def run(args, models_override=None):
    """Run one workload; returns (record, exit code)."""
    cd = load_library()
    import checks
    import tracing

    if models_override is None:
        sweeps = round(args.seconds / workloads.NOMINAL_SWEEP_S[args.workload])
        if args.trace:      # half untraced, half traced: the same run length
            sweeps = math.ceil(sweeps / 2)
        sweeps = max(workloads.MIN_SWEEPS, sweeps)
        models, setup_s, setup_detail = setup(cd, args.workload)
    else:
        sweeps, models = workloads.MIN_SWEEPS, models_override
        setup_s, setup_detail = 0.0, {}
    orders = workloads.sweep_orders(len(models), sweeps, args.seed)
    runner = Runner(cd, checks)

    t_run = clock()
    untraced = runner.sweeps(models, orders)
    e2e, notes, med = end_to_end(models, untraced, setup_s)
    metrics, traced = e2e, []
    if args.trace:
        costs = tracing.wrapper_costs()
        tracer = tracing.Tracer(cd)
        with tracer:
            traced = runner.sweeps(models, orders, tracer, tag="t")
        metrics = per_layer(models, traced, e2e["latency_geomean_s"],
                            sweeps, costs)
        notes["wrapper_costs_s"] = costs
        notes["spans"] = [[req, layer, t0 - t_run, t1 - t_run]
                          for req, layer, t0, t1, _ in tracer.spans
                          if req is not None]
    errors = list(runner.guard_errors)
    if models_override is None:
        errors += guard_across_runs(args.workload, models, program_digest())
    rows = untraced + traced
    failed = sum(not r["ok"] for r in rows)
    record = {
        "environment": environment(args, sweeps),
        "setup": setup_detail,
        "metrics": metrics, "end_to_end": e2e, "notes": notes,
        "models": model_rows(models, untraced, traced, med),
        "repeat_guard_errors": errors,
        "result": {
            "correct": failed == 0 and not errors,
            "attempted": len(rows), "failed": failed,
            "metrics": {k: {"value": v,
                            "unit": (PER_LAYER if args.trace
                                     else END_TO_END)[k]}
                        for k, v in metrics.items()},
        },
    }
    return record, (1 if errors else 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.NOMINAL_SWEEP_S))
    ap.add_argument("--seed", type=int, required=True,
                    help="sets the closed loop's submission order")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time on the reference machine; the run "
                         "makes round(seconds / nominal sweep time) sweeps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    record, code = run(args)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json")
    out.write_text(json.dumps(record, indent=1, default=str))
    for err in record["repeat_guard_errors"]:
        print(f"perfbench: exact-repeat guard: {err}", file=sys.stderr)
    print(f"perfbench: full record in {out.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(record["result"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
