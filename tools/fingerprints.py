"""Print fingerprints that show whether a change kept the program's outputs.

For each model of the benchmark's `export` workload it prints the sha256
of the model's JSON export. For each model of the `gallery` workload it
solves the problem once, as the benchmark's first solve does, and prints
the status, the iteration count and the sha256 of the bytes of x, y and s
concatenated; then the total iteration count and one sha256 over every
gallery solve's x, y and s in turn. Two checkouts whose lines all agree
export the same cone programs and take the same iterates.

    python3 tools/fingerprints.py

The model lists come from perfbench/workloads.py, which is only read.
Standard library and conedsl only.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import conedsl as cd  # noqa: E402
import conedsl.examples as examples  # noqa: E402
import workloads  # noqa: E402


def export_fingerprints():
    for model in workloads.models_for("export", examples):
        problem = workloads.build(model, examples).bundle.problem
        text = cd.export_json(*cd.canonicalize(problem))
        print(f"export  {model.label}  "
              f"{hashlib.sha256(text.encode()).hexdigest()}")


def gallery_fingerprints():
    total_iters = 0
    total = hashlib.sha256()
    for model in workloads.models_for("gallery", examples):
        problem = workloads.build(model, examples).bundle.problem
        sol = cd.solve(problem, **model.solver_kw).solution
        iterate = b"".join(v.tobytes() for v in (sol.x, sol.y, sol.s))
        total_iters += sol.iterations
        total.update(iterate)
        print(f"gallery  {model.label}  {sol.status}  {sol.iterations}  "
              f"{hashlib.sha256(iterate).hexdigest()}")
    print(f"gallery  total  {total_iters}  {total.hexdigest()}")


if __name__ == "__main__":
    export_fingerprints()
    gallery_fingerprints()
