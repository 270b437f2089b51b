"""Compare benchmark runs of a parent commit with runs of a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files (perfbench/results/<workload>-seed
<n>-trace<t>.json) of one commit, made with the same --seconds. Runs are
paired by workload, seed and trace mode. For every end-to-end metric the
report gives each side's median and quartiles, how many pairs the change
won, and a verdict:

    gain        the change won at least 9 of 10 pairs and the medians
                differ by more than the parent's own quartile spread
    regression  the change's median is worse by more than the metric's
                bound in BENCHMARK.json
    unresolved  the parent's spread is wider than the bound
    same        none of the above

Per-layer medians (trace 1 runs) are listed side by side, and so is every
model whose exact counts (iterations, sizes, hashes) changed.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        workload, rest = path.stem.split("-seed")
        seed, trace = rest.split("-trace")
        runs[(workload, int(seed), int(trace))] = json.loads(path.read_text())
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if pm and sign * (pm - cm) / pm > bound:
        return wins, "regression"
    if pm and (p3 - p1) / pm > bound:
        return wins, "unresolved"
    if wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1:
        return wins, "gain"
    return wins, "same"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    keys = sorted(set(parent) & set(change))
    for workload in sorted({k[0] for k in keys}):
        for trace in (0, 1):
            pairs = [k for k in keys if k[0] == workload and k[2] == trace]
            if not pairs:
                continue
            print(f"\n== {workload}, trace {trace}, {len(pairs)} pairs")
            metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for m in metrics:
                name = m["name"]
                p = [parent[k]["metrics"][name] for k in pairs]
                c = [change[k]["metrics"][name] for k in pairs]
                p1, pm, p3 = quartiles(p)
                c1, cm, c3 = quartiles(c)
                line = (f"{name:28s} parent {pm:.5g} [{p1:.5g}, {p3:.5g}]  "
                        f"change {cm:.5g} [{c1:.5g}, {c3:.5g}]")
                if pm:
                    line += f"  {100 * (cm - pm) / pm:+.1f}%"
                if trace == 0:
                    wins, word = verdict(p, c, m["better"], m["bound"])
                    line += f"  won {wins}/{len(pairs)}  {word}"
                print(line)
            for k in pairs:
                before = {r["model"]: r["fingerprint"] for r in parent[k]["models"]}
                for r in change[k]["models"]:
                    if before.get(r["model"]) != r["fingerprint"]:
                        print(f"  seed {k[1]}: {r['model']} exact counts "
                              f"{before.get(r['model'])} -> {r['fingerprint']}")


if __name__ == "__main__":
    main(sys.argv)
