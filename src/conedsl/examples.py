"""Worked-example gallery: estimation, fitting, and allocation problems.

Every example builds a Problem from the modeling layer, solves it with the
embedded solver, and reports a ResultRecord (JSON-able). Synthetic data
comes exclusively from the package's splitmix generator so records are
reproducible bit for bit given (example, seed, params). Dataset-backed
examples read CSV fixtures (comma separated, one header row, no quoting)
from the package fixture directory; an absolute file name is read as given.
"""
from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import atoms as at
from .api import Maximize, Minimize, Problem, solve
from .errors import InputError, ShapeError
from .expr import Semidef, Variable, as_int
from .rng import SplitMix64


def fixture_dir() -> str:
    return str(resources.files(__package__).joinpath("fixtures"))


def _read_csv(name):
    path = os.path.join(fixture_dir(), name)
    if not os.path.exists(path):
        raise InputError(f"fixture file not found: {path}")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise InputError(f"fixture file is empty: {path}")
    return rows[0], rows[1:]


@dataclass
class ExampleConfig:
    name: str
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class ResultRecord:
    example: str
    config: dict
    status: str
    objective: float
    outputs: dict
    residuals: tuple
    iterations: int
    runtime: float
    feasibility: float | None

    def to_dict(self):
        return _jsonify(asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _jsonify(v):
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    if isinstance(v, np.ndarray):
        return _jsonify(v.tolist())
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return None if not np.isfinite(f) else f
    return v


@dataclass
class Bundle:
    problem: Problem
    outputs: object                 # callable(Result) -> dict
    series: object = None           # callable(Result) -> {name: (header, rows)}


@dataclass
class Example:
    name: str
    build: object                   # callable(params, rng) -> Bundle
    defaults: dict
    doc: str
    param_doc: dict
    settings: dict = field(default_factory=dict)


EXAMPLES: dict[str, Example] = {}


def _register(name, defaults, doc, param_doc=None, settings=None):
    def wrap(fn):
        EXAMPLES[name] = Example(name, fn, defaults, doc, param_doc or {},
                                 settings or {})
        return fn
    return wrap


# -- regression family -----------------------------------------------------------


@_register("ols", {"m": 50, "n": 8},
           "least squares regression on synthetic data",
           {"m": "observations", "n": "coefficients"},
           settings={"eps_abs": 1e-10, "eps_rel": 1e-10})
def _ols(p, rng):
    m, n = p["m"], p["n"]
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.5 * rng.normals(m, 1)
    beta = Variable(n, 1, name="beta")
    prob = Problem(Minimize(at.sum_squares(y - X @ beta)))
    return Bundle(prob, lambda r: {"beta": r.value_of(beta)})


@_register("isotonic", {"m": 30},
           "isotonic least squares: nondecreasing fit to a noisy trend",
           {"m": "series length"})
def _isotonic(p, rng):
    m = p["m"]
    y = 2.0 * np.linspace(0, 1, m).reshape(-1, 1) + 0.4 * rng.normals(m, 1)
    beta = Variable(m, 1, name="beta")
    prob = Problem(Minimize(at.sum_squares(y - beta)), [at.diff(beta) >= 0])
    out = lambda r: {"beta": r.value_of(beta), "y": y}
    return Bundle(prob, out)


@_register("huber_reg", {"m": 60, "n": 5, "M": 1.0},
           "robust regression with the huber loss; 10% gross outliers",
           {"m": "observations", "n": "coefficients", "M": "huber threshold"})
def _huber_reg(p, rng):
    m, n, M = p["m"], p["n"], p["M"]
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.1 * rng.normals(m, 1)
    picked = set()
    while len(picked) < m // 10:
        picked.add(rng.randint(m))
    for i in sorted(picked):
        y[i, 0] += 5.0 if rng.uniform() < 0.5 else -5.0
    beta = Variable(n, 1, name="beta")
    prob = Problem(Minimize(at.sum_entries(at.huber(y - X @ beta, M))))
    return Bundle(prob, lambda r: {"beta": r.value_of(beta)})


@_register("quantile_reg", {"m": 60, "n": 5, "tau": 0.5},
           "quantile regression via the tilted absolute loss",
           {"m": "observations", "n": "coefficients",
            "tau": "quantile in (0,1)"})
def _quantile_reg(p, rng):
    m, n, tau = p["m"], p["n"], p["tau"]
    if not 0.0 < tau < 1.0:
        raise InputError("tau must lie in (0,1)")
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    y = X @ beta_true + 0.5 * rng.normals(m, 1)
    beta = Variable(n, 1, name="beta")
    u = y - X @ beta
    prob = Problem(Minimize(at.sum_entries(0.5 * at.abs(u) + (tau - 0.5) * u)))
    return Bundle(prob, lambda r: {"beta": r.value_of(beta)})


@_register("elastic_net", {"m": 40, "n": 10, "lam": 0.1, "alpha": 0.5,
                           "loss": "square", "M": 1.0},
           "elastic net: l1 plus squared l2 regularized regression",
           {"m": "observations", "n": "coefficients",
            "lam": "overall regularization weight (>= 0)",
            "alpha": "l1 fraction in [0,1]",
            "loss": "square | huber", "M": "huber threshold"})
def _elastic_net(p, rng):
    m, n, lam, alpha = p["m"], p["n"], p["lam"], p["alpha"]
    if lam < 0 or not 0.0 <= alpha <= 1.0:
        raise InputError("need lam >= 0 and alpha in [0,1]")
    X = rng.normals(m, n)
    beta_true = rng.normals(n, 1)
    for i in range(n):
        if rng.uniform() < 0.5:
            beta_true[i, 0] = 0.0
    y = X @ beta_true + 0.25 * rng.normals(m, 1)
    beta = Variable(n, 1, name="beta")
    resid = y - X @ beta
    if p["loss"] == "square":
        fit = at.sum_squares(resid) / (2 * m)
    elif p["loss"] == "huber":
        fit = at.sum_entries(at.huber(resid, p["M"])) / (2 * m)
    else:
        raise InputError("loss must be 'square' or 'huber'")
    reg = lam * ((1 - alpha) / 2 * at.sum_squares(beta)
                 + alpha * at.p_norm(beta, 1))
    prob = Problem(Minimize(fit + reg))
    return Bundle(prob, lambda r: {"beta": r.value_of(beta)})


@_register("logistic_reg", {"m": 100, "n": 10, "constrained": True,
                            "radius": 0.05, "box": 1.0},
           "logistic regression MLE; optional box and coefficient-gap "
           "constraints on the non-intercept terms",
           {"m": "observations", "n": "coefficients (first is intercept)",
            "constrained": "apply box and |beta2-beta6| constraints",
            "radius": "bound on |beta2 - beta6|",
            "box": "upper bound for non-intercept coefficients"})
def _logistic_reg(p, rng):
    m, n = p["m"], p["n"]
    if p["constrained"] and n < 7:
        raise InputError("constrained variant needs n >= 7")
    X = np.hstack([np.ones((m, 1)), rng.normals(m, n - 1)])
    beta_true = 0.8 * rng.normals(n, 1)
    probs = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
    y = (rng.uniforms(m, 1) < probs).astype(float)
    X0 = X[y.ravel() == 0.0]
    beta = Variable(n, 1, name="beta")
    # log-likelihood written with the logistic atom, log(1 + e^z)
    obj = -at.sum_entries(X0 @ beta) - at.sum_entries(at.logistic(-(X @ beta)))
    constr = []
    if p["constrained"]:
        rest = beta[1:n]
        constr = [rest >= 0, rest <= p["box"],
                  at.abs(beta[1] - beta[5]) <= p["radius"]]
    prob = Problem(Maximize(obj), constr)
    out = lambda r: {"beta": r.value_of(beta),
                     "log_odds": r.value_of(X @ beta)}
    return Bundle(prob, out)


@_register("sparse_inv_cov", {"m": 200, "n": 6, "alpha": 8.0},
           "sparse inverse covariance estimation with an l1 budget",
           {"m": "samples", "n": "dimension", "alpha": "l1 budget (>= 0)"})
def _sparse_inv_cov(p, rng):
    m, n, alpha = p["m"], p["n"], p["alpha"]
    S_true = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.25:
                v = 0.25 if rng.uniform() < 0.5 else -0.25
                S_true[i, j] = S_true[j, i] = v
    wmin = np.linalg.eigvalsh(S_true)[0]
    if wmin < 0.1:
        S_true += (0.1 - wmin) * np.eye(n)
    Sigma_true = np.linalg.inv(S_true)
    L = np.linalg.cholesky(Sigma_true)
    Z = rng.normals(m, n) @ L.T
    Zc = Z - Z.mean(axis=0, keepdims=True)
    Q = Zc.T @ Zc / (m - 1)
    S = Semidef(n, name="S")
    obj = at.log_det(S) - at.matrix_trace(S @ Q)
    prob = Problem(Maximize(obj), [at.sum_entries(at.abs(S)) <= alpha])
    return Bundle(prob, lambda r: {"S": r.value_of(S)})


@_register("saturating_hinges", {"m": 80, "k": 5, "lam": 0.5,
                                 "loss": "square", "M": 0.02},
           "saturating hinge spline fit; weights sum to zero so the fit "
           "is constant beyond the boundary knots",
           {"m": "observations", "k": "knots", "lam": "l1 penalty weight",
            "loss": "square | huber", "M": "huber threshold"})
def _saturating_hinges(p, rng):
    m, k, lam = p["m"], p["k"], p["lam"]
    x = 10.0 * rng.uniforms(m, 1)
    y = 1.0 / (1.0 + np.exp(-(x - 5.0))) + 0.1 * rng.normals(m, 1)
    knots = np.linspace(x.min(), x.max(), k)
    H = np.maximum(x - knots.reshape(1, -1), 0.0)
    w0 = Variable(name="w0")
    w = Variable(k, 1, name="w")
    f = w0 + H @ w
    if p["loss"] == "square":
        fit = at.sum_squares(y - f)
    elif p["loss"] == "huber":
        fit = at.sum_entries(at.huber(y - f, p["M"]))
    else:
        raise InputError("loss must be 'square' or 'huber'")
    prob = Problem(Minimize(fit + lam * at.p_norm(w, 1)),
                   [at.sum_entries(w) == 0])

    def out(r):
        return {"w0": r.value_of(w0), "w": r.value_of(w), "knots": knots}

    def series(r):
        w0v = float(r.value_of(w0)[0, 0])
        wv = r.value_of(w).ravel()
        order = np.argsort(x.ravel())
        rows = [(float(x[i, 0]), float(y[i, 0]),
                 float(w0v + np.maximum(x[i, 0] - knots, 0.0) @ wv))
                for i in order]
        return {"fit": (("x", "y", "fitted"), rows)}

    return Bundle(prob, out, series)


# -- nonparametric estimation -----------------------------------------------------


@_register("logconcave_mle", {"counts": "1,5,2,1"},
           "log-concave probability mass estimation from counts on 0..K",
           {"counts": "comma-separated nonnegative observation counts"})
def _logconcave_mle(p, rng):
    counts = np.array([float(v) for v in str(p["counts"]).split(",")])
    if counts.size < 3 or (counts < 0).any():
        raise InputError("counts needs >= 3 nonnegative entries")
    K1 = counts.size
    u = Variable(K1, 1, name="u")
    obj = counts.reshape(1, -1) @ u
    constr = [at.sum_entries(at.exp(u)) <= 1,
              at.diff(u, differences=2) <= 0]
    prob = Problem(Maximize(obj), constr)
    out = lambda r: {"u": r.value_of(u), "pmf": r.value_of(at.exp(u))}
    return Bundle(prob, out)


@_register("calibration", {"sample": "calibration_sample.csv",
                           "totals": "calibration_totals.csv"},
           "survey raking: reweight a sample to match population margin "
           "totals with minimal relative-entropy perturbation",
           {"sample": "fixture CSV of sample units",
            "totals": "fixture CSV of margin totals"})
def _calibration(p, rng):
    header, rows = _read_csv(str(p["sample"]))
    if header[:3] != ["stype", "sch_wide", "pw"]:
        raise InputError("sample fixture must have columns stype,sch_wide,pw")
    theader, trows = _read_csv(str(p["totals"]))
    if theader[:3] != ["variable", "level", "total"]:
        raise InputError("totals fixture must have columns variable,level,total")
    m = len(rows)
    d = np.array([float(r[2]) for r in rows]).reshape(-1, 1)
    cols = [(r[0], r[1]) for r in trows]
    r_tot = np.array([float(r[2]) for r in trows]).reshape(-1, 1)
    colmap = {"stype": 0, "sch_wide": 1}
    X = np.zeros((m, len(cols)))
    for i, row in enumerate(rows):
        for j, (var, level) in enumerate(cols):
            if var not in colmap:
                raise InputError(f"unknown margin variable '{var}' in totals")
            if row[colmap[var]] == level:
                X[i, j] = 1.0
    A = d * X

    g = Variable(m, 1, name="g")
    penalty = at.mul_elemwise(-at.entr(g) - g + 1.0, d)
    prob = Problem(Minimize(at.sum_entries(penalty)), [A.T @ g == r_tot])

    def out(r):
        gv = r.value_of(g).ravel()
        w = d.ravel() * gv
        table = []
        seen = {}
        for i, row in enumerate(rows):
            key = (row[0], row[1])
            if key not in seen:
                seen[key] = {"stype": key[0], "sch_wide": key[1],
                             "weights": [], }
                table.append(seen[key])
            seen[key]["weights"].append(w[i])
        table = [{"stype": t["stype"], "sch_wide": t["sch_wide"],
                  "weight": float(np.mean(t["weights"])),
                  "frequency": len(t["weights"])} for t in table]
        return {"weights": w, "weight_table": table}

    return Bundle(prob, out)


def _near_fit_data(p, rng):
    m = p["m"]
    t = np.linspace(0, 1, m).reshape(-1, 1)
    y = -0.2 + 1.1 * t * t + 0.25 * rng.normals(m, 1)
    return t, y


@_register("near_iso", {"m": 40, "lam": 0.44},
           "nearly-isotonic fit: squared loss plus a penalty on decreases",
           {"m": "series length", "lam": "penalty weight"})
def _near_iso(p, rng):
    t, y = _near_fit_data(p, rng)
    m, lam = p["m"], p["lam"]
    beta = Variable(m, 1, name="beta")
    # penalize (beta_i - beta_{i+1})_+, the monotonicity violations
    penalty = at.sum_entries(at.pos(-at.diff(beta)))
    prob = Problem(Minimize(0.5 * at.sum_squares(y - beta) + lam * penalty))
    return _near_bundle(prob, beta, t, y)


@_register("near_convex", {"m": 40, "lam": 0.44},
           "nearly-convex fit: squared loss plus a penalty on positive "
           "second differences",
           {"m": "series length", "lam": "penalty weight"})
def _near_convex(p, rng):
    t, y = _near_fit_data(p, rng)
    m, lam = p["m"], p["lam"]
    beta = Variable(m, 1, name="beta")
    penalty = at.sum_entries(at.pos(at.diff(beta, differences=2)))
    prob = Problem(Minimize(0.5 * at.sum_squares(y - beta) + lam * penalty))
    return _near_bundle(prob, beta, t, y)


def _near_bundle(prob, beta, t, y):
    def series(r):
        bv = r.value_of(beta).ravel()
        rows = [(float(t[i, 0]), float(y[i, 0]), float(bv[i]))
                for i in range(t.size)]
        return {"fit": (("t", "y", "beta"), rows)}
    return Bundle(prob, lambda r: {"beta": r.value_of(beta)}, series)


# -- miscellaneous applications ----------------------------------------------------


@_register("worst_cov", {},
           "worst-case variance of a portfolio under partial knowledge of "
           "the covariance matrix (semidefinite program)",
           {})
def _worst_cov(p, rng):
    w = np.array([[0.1], [0.2], [-0.05], [0.1]])
    Sigma = Semidef(4, name="Sigma")
    constr = [Sigma[0, 0] == 0.2, Sigma[0, 1] >= 0, Sigma[0, 2] >= 0,
              Sigma[1, 1] == 0.1, Sigma[1, 2] <= 0, Sigma[1, 3] <= 0,
              Sigma[2, 2] == 0.3, Sigma[2, 3] >= 0, Sigma[3, 3] == 0.1]
    prob = Problem(Maximize(at.quad_form(w, Sigma)), constr)

    def out(r):
        # the maximizer is not unique (the optimal face is flat), so report
        # the minimum-Frobenius-norm optimizer; a small backoff keeps the
        # optimal-value constraint feasible under solver tolerances
        backoff = 1e-7 * (1.0 + abs(r.value))
        tie = Problem(Minimize(at.sum_squares(at.vec(Sigma))),
                      list(constr)
                      + [at.quad_form(w, Sigma) >= r.value - backoff])
        rt = solve(tie, eps_abs=1e-9, eps_rel=1e-9)
        return {"Sigma": rt.value_of(Sigma)}

    return Bundle(prob, out)


def _staircase(m):
    frac = np.linspace(0, 1, m)
    g = np.full(m, -0.5)
    g[(frac >= 0.2) & (frac < 0.4)] = -1.0
    g[(frac >= 0.4) & (frac < 0.6)] = -1.5
    g[(frac >= 0.6) & (frac < 0.8)] = -1.0
    return g.reshape(-1, 1)


@_register("catenary", {"m": 51, "variant": "flat", "length": 0.0},
           "hanging-chain shape by potential energy minimization; link "
           "lengths bounded by SOC constraints",
           {"m": "number of chain points",
            "variant": "flat (equal-height endpoints) | ground (lowered "
                       "right endpoint over a staircase)",
            "length": "total chain length; 0 picks 1.5 (flat) or 4.0 (ground)"})
def _catenary(p, rng):
    m, variant = p["m"], p["variant"]
    if m < 3:
        raise InputError("catenary needs m >= 3")
    length = p["length"] if p["length"] > 0 else (
        1.5 if variant == "flat" else 4.0)
    h = length / (m - 1)
    x = Variable(m, 1, name="x")
    y = Variable(m, 1, name="y")
    # each link satisfies diff(x)^2 + diff(y)^2 <= h^2, written per link as
    # a norm bound; the squared form is the same set but its multipliers
    # grow like 1/h^2, which needlessly slows the splitting solver
    dx, dy = at.diff(x), at.diff(y)
    links = [at.p_norm(at.vstack(dx[i], dy[i]), 2) <= h for i in range(m - 1)]
    if variant == "flat":
        constr = [x[0] == 0, y[0] == 1, x[m - 1] == 1, y[m - 1] == 1] + links
        ground = None
    elif variant == "ground":
        ground = _staircase(m)
        constr = [x[0] == 0, y[0] == 0, x[m - 1] == 1, y[m - 1] == 0.5,
                  y >= ground] + links
    else:
        raise InputError("variant must be 'flat' or 'ground'")
    prob = Problem(Minimize(at.sum_entries(y)), constr)

    def out(r):
        return {"x": r.value_of(x), "y": r.value_of(y), "h": h}

    def series(r):
        xv, yv = r.value_of(x).ravel(), r.value_of(y).ravel()
        if ground is None:
            rows = [(float(xv[i]), float(yv[i])) for i in range(m)]
            return {"shape": (("x", "y"), rows)}
        rows = [(float(xv[i]), float(yv[i]), float(ground[i, 0]))
                for i in range(m)]
        return {"shape": (("x", "y", "ground"), rows)}

    return Bundle(prob, out, series)


@_register("portfolio", {"n": 10, "gamma": 1.0, "variant": "long",
                         "Lmax": 2.0},
           "risk-adjusted return maximization; long-only or leverage-bounded",
           {"n": "assets", "gamma": "risk aversion (> 0)",
            "variant": "long | leverage", "Lmax": "leverage bound"})
def _portfolio(p, rng):
    n, gamma = p["n"], p["gamma"]
    if gamma <= 0:
        raise InputError("gamma must be positive")
    mu = rng.normals(n, 1)
    Shalf = rng.normals(n, n)
    Sigma = Shalf.T @ Shalf

    def make(gv):
        w = Variable(n, 1, name="w")
        ret = mu.T @ w
        risk = at.quad_form(w, Sigma)
        if p["variant"] == "long":
            constr = [w >= 0, at.sum_entries(w) == 1]
        elif p["variant"] == "leverage":
            constr = [at.p_norm(w, 1) <= p["Lmax"], at.sum_entries(w) == 1]
        else:
            raise InputError("variant must be 'long' or 'leverage'")
        return Problem(Maximize(ret - gv * risk), constr), w, ret, risk

    prob, w, ret, risk = make(gamma)

    def out(r):
        return {"w": r.value_of(w),
                "ret": float(r.value_of(ret)[0, 0]),
                "risk": float(r.value_of(risk)[0, 0])}

    def series(r):
        rows = []
        for gv in np.logspace(-2, 2, 9):
            prob_g, _, ret_g, risk_g = make(float(gv))
            rg = solve(prob_g)
            rows.append((float(gv), float(rg.value_of(risk_g)[0, 0]),
                         float(rg.value_of(ret_g)[0, 0])))
        return {"tradeoff": (("gamma", "risk", "ret"), rows)}

    return Bundle(prob, out, series)


@_register("kelly", {"K": 20, "n": 5, "lam": 0.0, "periods": 60},
           "Kelly-optimal bet sizing; optional drawdown-risk constraint",
           {"K": "outcomes", "n": "bets (last is the sure outcome)",
            "lam": "drawdown risk aversion; 0 disables the constraint",
            "periods": "length of the simulated wealth trajectory"})
def _kelly(p, rng):
    K, n, lam, periods = p["K"], p["n"], p["lam"], p["periods"]
    if lam < 0:
        raise InputError("lam must be >= 0")
    ps = rng.uniforms(K, 1)
    ps /= ps.sum()
    rets = np.hstack([0.5 + rng.uniforms(K, n - 1), np.ones((K, 1))])
    b = Variable(n, 1, name="b")
    growth = at.sum_entries(at.mul_elemwise(at.log(rets @ b), ps))
    constr = [b >= 0, at.sum_entries(b) == 1]
    if lam > 0:
        constr.append(
            at.log_sum_exp(np.log(ps) - lam * at.log(rets @ b)) <= 0)
    prob = Problem(Maximize(growth), constr)

    def out(r):
        return {"bets": r.value_of(b), "growth_rate": r.value}

    def series(r):
        bv = r.value_of(b).ravel()
        mu = (rets.T @ ps).ravel()
        naive = 0.85 * mu / mu.sum()
        naive[-1] += 0.15
        cum = np.cumsum(ps.ravel())
        wealth_k, wealth_n, rows = 1.0, 1.0, []
        for t in range(periods):
            j = int(np.searchsorted(cum, rng.uniform(), side="right"))
            j = min(j, K - 1)
            wealth_k *= float(rets[j] @ bv)
            wealth_n *= float(rets[j] @ naive)
            rows.append((t + 1, wealth_k, wealth_n))
        return {"wealth": (("period", "kelly", "naive"), rows)}

    return Bundle(prob, out, series)


@_register("channel_capacity", {"crossover": 0.1},
           "capacity of a binary symmetric channel in bits via mutual "
           "information maximization",
           {"crossover": "error probability in [0, 1]"})
def _channel_capacity(p, rng):
    pe = p["crossover"]
    if not 0.0 <= pe <= 1.0:
        raise InputError("crossover must lie in [0,1]")
    P = np.array([[1 - pe, pe], [pe, 1 - pe]])
    m, n = P.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        pl = np.where(P > 0, P * np.log2(np.where(P > 0, P, 1.0)), 0.0)
    c = pl.sum(axis=0).reshape(1, -1)
    x = Variable(n, 1, name="x")
    y = Variable(m, 1, name="y")
    obj = c @ x + at.sum_entries(at.entr(y)) * (1.0 / np.log(2.0))
    constr = [y == P @ x, at.sum_entries(x) == 1, x >= 0]
    prob = Problem(Maximize(obj), constr)
    out = lambda r: {"x": r.value_of(x), "y": r.value_of(y),
                     "capacity_bits": r.value}
    return Bundle(prob, out)


_GRAPHS = {
    "k3": (3, []),
    "path3": (3, [(0, 2)]),
    "path4": (4, [(0, 2), (0, 3), (1, 3)]),
    "triangle_plus": (4, [(0, 2), (0, 3)]),
    "bipartite23": (5, [(0, 2), (1, 3), (1, 4), (3, 4)]),
}


@_register("fmmc", {"graph": "triangle_plus"},
           "fastest-mixing symmetric Markov chain on a small graph: "
           "minimize the second-largest eigenvalue modulus",
           {"graph": "k3 | path3 | path4 | triangle_plus | bipartite23"})
def _fmmc(p, rng):
    name = str(p["graph"])
    if name not in _GRAPHS:
        raise InputError(f"unknown graph '{name}'; choices: "
                         + ", ".join(sorted(_GRAPHS)))
    n, nonedges = _GRAPHS[name]
    P = Variable(n, n, name="P")
    ones = np.ones((n, 1))
    constr = [P >= 0, P @ ones == ones, P == at.transpose(P)]
    constr += [P[i, j] == 0 for i, j in nonedges]
    prob = Problem(Minimize(at.lambda_max(P - 1.0 / n)), constr)
    out = lambda r: {"P": r.value_of(P), "mu": r.value}
    return Bundle(prob, out)


# -- runner ----------------------------------------------------------------------


def _coerce(raw, default):
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise InputError(f"expected a boolean, got {raw!r}")
    if isinstance(default, int):
        # a string is parsed; a float or bool is refused, not truncated
        try:
            return (int(raw) if isinstance(raw, str)
                    else as_int(raw, "parameters"))
        except (ValueError, ShapeError) as e:
            raise InputError(f"expected an integer, got {raw!r}") from e
    if isinstance(default, float):
        # a bool is refused, not read as 0.0 or 1.0
        if not isinstance(raw, (bool, np.bool_)):
            try:
                return float(raw)
            except (TypeError, ValueError):
                pass
        raise InputError(f"expected a number, got {raw!r}")
    return str(raw)


def _resolve(cfg: ExampleConfig):
    if cfg.name not in EXAMPLES:
        raise InputError(f"unknown example '{cfg.name}'; "
                         "use the list command to see available names")
    ex = EXAMPLES[cfg.name]
    params = dict(ex.defaults)
    # run tighter than the library default so feasibility audits clear 1e-6
    solver_kw = {"eps_abs": 1e-9, "eps_rel": 1e-9}
    solver_kw.update(ex.settings)
    for key, raw in cfg.params.items():
        if key == "eps":
            solver_kw["eps_abs"] = solver_kw["eps_rel"] = _coerce(raw, 0.0)
        elif key == "max_iters":
            solver_kw["max_iters"] = _coerce(raw, 0)
        elif key in params:
            params[key] = _coerce(raw, params[key])
        else:
            raise InputError(f"unknown parameter '{key}' for example "
                             f"'{cfg.name}'")
    return ex, params, solver_kw


def build_example(cfg: ExampleConfig) -> Bundle:
    """Construct the Problem (and output hooks) for a configuration."""
    ex, params, _ = _resolve(cfg)
    return ex.build(params, SplitMix64(cfg.seed))


def run_example(cfg: ExampleConfig) -> ResultRecord:
    ex, params, solver_kw = _resolve(cfg)
    rng = SplitMix64(cfg.seed)
    bundle = ex.build(params, rng)

    t0 = time.perf_counter()
    result = solve(bundle.problem, **solver_kw)
    runtime = time.perf_counter() - t0

    outputs = {}
    feasibility = None
    if result.status == "optimal":
        outputs = bundle.outputs(result)
        env = result._environment()
        viols = [c.violation(env) for c in bundle.problem.constraints]
        feasibility = float(max(viols)) if viols else 0.0

    record = ResultRecord(
        example=cfg.name,
        config={"seed": cfg.seed, **params},
        status=result.status,
        objective=result.value,
        outputs=outputs,
        residuals=result.metrics["residuals"],
        iterations=result.metrics["iterations"],
        runtime=runtime,
        feasibility=feasibility,
    )
    record._series = (bundle.series, result)  # used by emit_series
    return record


def emit_series(record: ResultRecord, outdir: str) -> list:
    """Write any series attached to a record as CSV files; returns paths."""
    series_fn, result = getattr(record, "_series", (None, None))
    if series_fn is None or record.status != "optimal":
        return []
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, (header, rows) in series_fn(result).items():
        path = os.path.join(outdir, f"{record.example}_{name}.csv")
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(header)
            wr.writerows(rows)
        paths.append(path)
    return paths


def example_names() -> list:
    return sorted(EXAMPLES)


def describe_examples() -> str:
    lines = []
    for name in example_names():
        ex = EXAMPLES[name]
        lines.append(f"{name}: {ex.doc}")
        for pname, pdoc in ex.param_doc.items():
            lines.append(f"    {pname} (default {ex.defaults[pname]!r}): {pdoc}")
    return "\n".join(lines)
