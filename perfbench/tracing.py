"""Per-layer tracing from outside the package.

The tracer replaces the library's public boundaries with timing wrappers
for the length of a traced sweep and restores them afterwards. `api` and
`solver` bind these names with `from ... import`, so each function is
replaced in every conedsl module that holds it, not only where it is
defined.

Stage boundaries (one span per call, kept with start and end):
    dcp_check, canonicalize, solve_cone_program, export_json, import_json,
    Result.value_of.
Per-iteration boundaries (a call count and a total time per request,
because a single solve can make hundreds of thousands of calls):
    QuasidefSolver construction and .solve, project_dual, project_block
    (split by cone kind) and project_exp_many.

Everything stays in memory until the run writes it out.
"""
from __future__ import annotations

import functools
import sys
import time

clock = time.perf_counter

RECOVER = "api.recover"
# Per-iteration boundaries, whose wrapper calls the overhead estimate counts.
COUNTED = ("linalg.factor", "linalg.solve", "cones.project_dual",
           "cones.zero", "cones.nonneg", "cones.soc", "cones.psd", "cones.exp")
# Layer times that tile a request: everything else is glue in the caller.
TILING = ("expr.dcp_check", "canon.canonicalize", "canon.export_json",
          "canon.import_json", "solver.solve", RECOVER)


class Tracer:
    def __init__(self, cd):
        self.cd = cd
        self.request = None
        self.spans = []          # (request, layer, start, end, nested)
        self.totals = {}         # request -> {name: [calls, total]}
        self._cur = None
        self._depth = 0
        self._solve_start = None
        self._undo = []

    # -- recording ----------------------------------------------------------

    def begin(self, request):
        self.request = request
        self._cur = self.totals.setdefault(request, {})

    def add(self, name, value):
        slot = self._cur.get(name)
        if slot is None:
            self._cur[name] = [1, value]
        else:
            slot[0] += 1
            slot[1] += value

    def layers(self, request):
        """Per-layer figures of one request, in the metric names."""
        out = {name: 0.0 for name in TILING}
        for req, layer, t0, t1, nested in self.spans:
            if req == request and not nested:
                out[layer] += t1 - t0
        tot = self.totals.get(request, {})

        def val(name):
            return tot.get(name, (0, 0.0))[1]

        def calls(name):
            return tot.get(name, (0, 0.0))[0]

        res = {
            "expr.dcp_check_s": out["expr.dcp_check"],
            "canon.canonicalize_s": out["canon.canonicalize"],
            "canon.rows_m": val("canon.rows_m"),
            "canon.cols_n": val("canon.cols_n"),
            "canon.nnz": val("canon.nnz"),
            "canon.export_json_s": out["canon.export_json"],
            "canon.import_json_s": out["canon.import_json"],
            "canon.json_bytes": val("canon.json_bytes"),
            "api.recover_s": out[RECOVER],
            "solver.solve_s": out["solver.solve"],
            "solver.setup_s": val("solver.setup"),
            "solver.iterations": val("solver.iterations"),
            "linalg.factor_s": val("linalg.factor"),
            "linalg.solve_s": val("linalg.solve"),
            "linalg.solve_calls": calls("linalg.solve"),
            "cones.project_dual_s": val("cones.project_dual"),
            "cones.project_dual_calls": calls("cones.project_dual"),
        }
        for kind in ("zero", "nonneg", "soc", "psd", "exp"):
            res[f"cones.{kind}_s"] = val(f"cones.{kind}")
            res[f"cones.{kind}_calls"] = calls(f"cones.{kind}")
        res["solver.self_s"] = (res["solver.solve_s"] - res["solver.setup_s"]
                                - res["linalg.solve_s"]
                                - res["cones.project_dual_s"])
        res["stage_calls"] = sum(1 for s in self.spans if s[0] == request)
        res["counted_calls"] = sum(calls(n) for n in COUNTED)
        res["tiled_s"] = sum(out.values())
        return res

    # -- wrappers -------------------------------------------------------------

    def _stage(self, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer._depth > 0
            tracer._depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._depth -= 1
                tracer.spans.append((tracer.request, layer, t0, t1, nested))
            if after is not None:
                after(out)
            return out
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            tracer.add(name, clock() - t0)
            return out
        return wrapper

    def _solve_wrapper(self, fn):
        tracer = self
        inner = self._stage("solver.solve", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._solve_start = clock()
            sol = inner(*args, **kwargs)
            tracer._solve_start = None
            tracer.add("solver.iterations", sol.iterations)
            return sol
        return wrapper

    def _after_canonicalize(self, out):
        cp = out[0]
        self.add("canon.rows_m", cp.m)
        self.add("canon.cols_n", cp.n)
        self.add("canon.nnz", int(cp.A.nnz))

    def _make_quasidef(self, base):
        tracer = self

        class TracedQuasidefSolver(base):
            def __init__(self, M):
                t0 = clock()
                super().__init__(M)
                t1 = clock()
                tracer.add("linalg.factor", t1 - t0)
                if tracer._solve_start is not None:
                    # setup: equilibration, KKT assembly, factorization
                    tracer.add("solver.setup", t1 - tracer._solve_start)
                    tracer._solve_start = None

            def solve(self, rhs):
                t0 = clock()
                out = super().solve(rhs)
                tracer.add("linalg.solve", clock() - t0)
                return out

        return TracedQuasidefSolver

    def _make_project_block(self, fn):
        tracer = self
        names = {k: f"cones.{k}" for k in ("zero", "nonneg", "soc", "psd",
                                             "exp")}

        @functools.wraps(fn)
        def wrapper(kind, v, meta=None):
            t0 = clock()
            out = fn(kind, v, meta)
            tracer.add(names.get(kind, "cones.other"), clock() - t0)
            return out
        return wrapper

    def _make_import(self, fn):
        tracer = self
        inner = self._stage("canon.import_json", fn)

        @functools.wraps(fn)
        def wrapper(text):
            out = inner(text)
            tracer.add("canon.json_bytes", len(text))
            return out
        return wrapper

    # -- install / remove -----------------------------------------------------

    def _replace(self, original, replacement):
        """Bind replacement wherever a conedsl module holds original."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "conedsl"
                                   or name.startswith("conedsl.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        cd = self.cd
        canon, solver, cones, api = cd.canon, cd.solver, cd.cones, cd.api
        self._replace(cd.dcp_check, self._stage("expr.dcp_check",
                                                cd.dcp_check))
        self._replace(canon.canonicalize,
                      self._stage("canon.canonicalize", canon.canonicalize,
                                  self._after_canonicalize))
        self._replace(solver.solve_cone_program,
                      self._solve_wrapper(solver.solve_cone_program))
        self._replace(canon.export_json, self._stage("canon.export_json",
                                                     canon.export_json))
        self._replace(canon.import_json, self._make_import(canon.import_json))
        self._replace(solver.QuasidefSolver,
                      self._make_quasidef(solver.QuasidefSolver))
        self._replace(cones.project_dual,
                      self._counted("cones.project_dual", cones.project_dual))
        self._replace(cones.project_block,
                      self._make_project_block(cones.project_block))
        self._replace(cones.project_exp_many,
                      self._counted("cones.exp", cones.project_exp_many))
        original = api.Result.value_of
        api.Result.value_of = self._stage(RECOVER, original)
        self._undo.append((api.Result, "value_of", original))

    def remove(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def wrapper_costs(samples=20000):
    """Seconds a stage wrapper and a counted wrapper add to one call,
    measured on a no-op (best of five rounds)."""
    def noop():
        return None

    probe = Tracer(None)
    probe.begin("probe")
    costs = []
    for wrapped in (probe._stage("probe", noop), probe._counted("probe", noop)):
        best = float("inf")
        for _ in range(5):
            t0 = clock()
            for _ in range(samples):
                noop()
            plain = clock() - t0
            t0 = clock()
            for _ in range(samples):
                wrapped()
            best = min(best, (clock() - t0 - plain) / samples)
            probe.spans.clear()
        costs.append(max(best, 0.0))
    return tuple(costs)
