"""The benchmark's workloads: which models each one runs, and how.

A model is one gallery example at fixed parameters. Its data come from
the example's own SplitMix64 stream at DATA_SEED (0, the gallery
default), so every run of a workload solves the same problems and the
spread between runs measures the program rather than the data. The run
seed sets the order in which the closed loop submits the models.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

# A fresh data seed moves the gallery's iteration counts up to 50x, which
# would swamp any change to the program in the run-to-run spread.
DATA_SEED = 0
# eps 1e-9 unless the example sets its own, as `conedsl example` runs them
GALLERY_EPS = 1e-9

# Lowered and exported beside the gallery's 18 models at their defaults.
# The small models are the common case of a lowering change; without them
# the pooled median of this workload is the median of one model, which
# spread 27-36 % between runs on the reference machine.
EXPORT = [
    ("catenary", {"m": 101}),                   # O(k^2) soc_batch, small k
    ("catenary", {"m": 201}),                   # ... and twice the k
    ("huber_reg", {"m": 3000, "n": 50}),
    ("elastic_net", {"m": 2000, "n": 400}),     # 19.5 MB of JSON
    ("logistic_reg", {"m": 2000}),
    ("kelly", {"K": 500, "n": 50, "lam": 1.0}),  # exp cones, log_sum_exp
    ("sparse_inv_cov", {"n": 20}),              # svec PSD blocks
]

# Seconds one sweep over a workload's models takes on the reference
# machine (2 cores, one BLAS thread), checks included. A run makes
# round(seconds / nominal) sweeps, at least MIN_SWEEPS, so the sample
# count of a workload depends only on --seconds.
NOMINAL_SWEEP_S = {"gallery": 5.0, "export": 12.0}
MIN_SWEEPS = 2


@dataclass
class Model:
    example: str
    params: dict
    solver_kw: dict | None          # None: lower and export, do not solve
    label: str = ""
    bundle: object = None
    resolved: dict = field(default_factory=dict)   # parameters in force
    fingerprint: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.label:
            inner = ",".join(f"{k}={v}" for k, v in self.params.items())
            self.label = f"{self.example}[{inner}]" if inner else self.example


def models_for(workload, cd_examples):
    """The workload's models, unbuilt."""
    if workload == "gallery":
        out = []
        for name in cd_examples.example_names():
            kw = {"eps_abs": GALLERY_EPS, "eps_rel": GALLERY_EPS}
            kw.update(cd_examples.EXAMPLES[name].settings)
            out.append(Model(name, {}, kw))
        return out
    if workload == "export":
        return ([Model(name, {}, None) for name in cd_examples.example_names()]
                + [Model(name, dict(p), None) for name, p in EXPORT])
    raise ValueError(f"unknown workload {workload!r}")


def build(model, cd_examples):
    """Generate the model's data and construct its Problem."""
    cfg = cd_examples.ExampleConfig(
        model.example, seed=DATA_SEED,
        params={k: str(v) for k, v in model.params.items()})
    model.bundle = cd_examples.build_example(cfg)
    model.resolved = {**cd_examples.EXAMPLES[model.example].defaults,
                      **model.params}
    return model


def sweep_orders(n_models, sweeps, seed):
    """The closed loop's submission order for each sweep."""
    rng = random.Random(seed)
    orders = []
    for _ in range(sweeps):
        order = list(range(n_models))
        rng.shuffle(order)
        orders.append(order)
    return orders


def digest_tree(root, paths):
    """sha256 over the given files' names (relative to root) and bytes."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
