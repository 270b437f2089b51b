import csv

import numpy as np
import pytest

from conedsl import api
from conedsl.errors import InputError
from conedsl.examples import (EXAMPLES, ExampleConfig, emit_series,
                              example_names, run_example)
from conedsl.solver import solve_cone_program

ALL_NAMES = example_names()


def test_gallery_is_complete():
    assert len(ALL_NAMES) == 18
    assert ALL_NAMES == sorted(ALL_NAMES)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_example_runs_optimal(name):
    record = run_example(ExampleConfig(name))
    assert record.status == "optimal", name
    assert np.isfinite(record.objective)
    assert record.feasibility is not None
    # every constraint holds to solver tolerance
    assert record.feasibility <= 1e-6, (name, record.feasibility)
    assert record.iterations > 0
    assert record.runtime > 0


# The solver's scale constants were tuned on the gallery at data seed 0;
# these seeds hold out fresh data. quantile_reg at seed 4 takes about
# 3,100 iterations, but ends optimal.
HELDOUT_SEEDS = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("seed", HELDOUT_SEEDS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_example_optimal_at_heldout_seeds(name, seed):
    record = run_example(ExampleConfig(name, seed=seed))
    assert record.status == "optimal", (name, seed, record.status)
    assert record.feasibility <= 1e-6, (name, seed, record.feasibility)


# Iterations of every solve an example makes at its defaults (worst_cov
# adds its tie-break solve), at the counts of the adaptive KKT scale. A
# change that needs more iterations on a model fails here.
ITERATION_CEILINGS = {
    "calibration": 75, "catenary": 550, "channel_capacity": 25,
    "elastic_net": 100, "fmmc": 75, "huber_reg": 100, "isotonic": 100,
    "kelly": 125, "logconcave_mle": 50, "logistic_reg": 200,
    "near_convex": 125, "near_iso": 100, "ols": 25, "portfolio": 50,
    "quantile_reg": 700, "saturating_hinges": 100, "sparse_inv_cov": 75,
    "worst_cov": 100 + 625,
}


def test_iteration_ceilings_cover_the_gallery():
    assert sorted(ITERATION_CEILINGS) == ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_example_iterations_within_ceiling(name, monkeypatch):
    iterations = []

    def counting(cp, settings=None):
        sol = solve_cone_program(cp, settings)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(api, "solve_cone_program", counting)
    record = run_example(ExampleConfig(name))
    assert record.status == "optimal"
    assert sum(iterations) <= ITERATION_CEILINGS[name], iterations


@pytest.mark.parametrize("name", ALL_NAMES)
def test_example_deterministic(name):
    a = run_example(ExampleConfig(name))
    b = run_example(ExampleConfig(name))
    assert a.status == b.status
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_seed_changes_data():
    a = run_example(ExampleConfig("ols", seed=0))
    b = run_example(ExampleConfig("ols", seed=1))
    assert a.objective != b.objective


def test_kelly_bets_form_a_distribution():
    record = run_example(ExampleConfig("kelly"))
    bets = np.asarray(record.outputs["bets"]).ravel()
    assert np.all(bets >= -1e-7)
    assert np.isclose(bets.sum(), 1.0, atol=1e-6)


def test_kelly_drawdown_constraint_reduces_growth():
    base = run_example(ExampleConfig("kelly"))
    safer = run_example(ExampleConfig("kelly", params={"lam": "1.5"}))
    assert safer.status == "optimal"
    assert safer.objective <= base.objective + 1e-6


def test_portfolio_risk_return_tradeoff():
    lo = run_example(ExampleConfig("portfolio", params={"gamma": "0.05"}))
    hi = run_example(ExampleConfig("portfolio", params={"gamma": "20.0"}))
    # raising risk aversion cannot raise risk or the achieved return
    assert hi.outputs["risk"] <= lo.outputs["risk"] + 1e-6
    assert hi.outputs["ret"] <= lo.outputs["ret"] + 1e-6


def test_portfolio_long_only_weights():
    record = run_example(ExampleConfig("portfolio"))
    w = np.asarray(record.outputs["w"]).ravel()
    assert np.all(w >= -1e-6)
    assert np.isclose(w.sum(), 1.0, atol=1e-6)


def test_portfolio_leverage_variant():
    record = run_example(ExampleConfig(
        "portfolio", params={"variant": "leverage", "Lmax": "1.6"}))
    assert record.status == "optimal"
    w = np.asarray(record.outputs["w"]).ravel()
    assert np.abs(w).sum() <= 1.6 + 1e-5
    assert np.isclose(w.sum(), 1.0, atol=1e-6)


def test_portfolio_rejects_bad_variant():
    with pytest.raises(InputError):
        run_example(ExampleConfig("portfolio", params={"variant": "martian"}))


def test_portfolio_rejects_nonpositive_gamma():
    with pytest.raises(InputError):
        run_example(ExampleConfig("portfolio", params={"gamma": "0"}))


def test_isotonic_fit_is_monotone():
    record = run_example(ExampleConfig("isotonic"))
    beta = np.asarray(record.outputs["beta"]).ravel()
    assert np.all(np.diff(beta) >= -1e-7)


def test_catenary_endpoints_pinned():
    record = run_example(ExampleConfig("catenary"))
    xs = np.asarray(record.outputs["x"]).ravel()
    ys = np.asarray(record.outputs["y"]).ravel()
    assert np.isclose(xs[0], 0.0, atol=1e-6)
    assert np.isclose(ys[0], 1.0, atol=1e-6)
    assert np.isclose(ys[-1], 1.0, atol=1e-6)


def test_elastic_net_shrinks_with_penalty():
    light = run_example(ExampleConfig("elastic_net", params={"lam": "0.01"}))
    heavy = run_example(ExampleConfig("elastic_net", params={"lam": "50.0"}))
    b_light = np.abs(np.asarray(light.outputs["beta"]).ravel())
    b_heavy = np.abs(np.asarray(heavy.outputs["beta"]).ravel())
    assert b_heavy.sum() < b_light.sum()


def test_unconverged_run_reports_no_objective():
    record = run_example(ExampleConfig("ols", params={"max_iters": "2"}))
    assert record.status == "max_iters_reached"
    assert np.isnan(record.objective)
    assert record.outputs == {}
    assert len(record.residuals) == 3


def test_unknown_example_rejected():
    with pytest.raises(InputError):
        run_example(ExampleConfig("wormhole_design"))


def test_unknown_param_rejected():
    with pytest.raises(InputError):
        run_example(ExampleConfig("ols", params={"bogus": "1"}))


def test_param_coercion_follows_default_type():
    for m in ("25", 25, np.int64(25)):
        record = run_example(ExampleConfig("ols", params={"m": m}))
        assert record.config["m"] == 25
    record = run_example(ExampleConfig("huber_reg", params={"M": "2.5"}))
    assert record.config["M"] == 2.5


@pytest.mark.parametrize("params", [
    {"m": 20.7}, {"max_iters": 900.9}, {"m": True}, {"m": np.float64(20.0)},
])
def test_integer_param_refuses_float_and_bool(params):
    # a fractional value is refused, not truncated
    with pytest.raises(InputError, match="expected an integer"):
        run_example(ExampleConfig("ols", params=params))


@pytest.mark.parametrize("name,params", [
    ("ols", {"eps": True}), ("ols", {"eps": np.True_}),
    ("huber_reg", {"M": False}), ("quantile_reg", {"tau": None})])
def test_float_param_refuses_bool(name, params):
    # a bool is refused, not read as 1.0 or 0.0
    with pytest.raises(InputError, match="expected a number"):
        run_example(ExampleConfig(name, params=params))


@pytest.mark.parametrize("raw", [1, "2.5e-1", "2", 0.5, np.float64(0.25)])
def test_float_param_takes_ints_and_numeric_strings(raw):
    record = run_example(ExampleConfig("huber_reg", params={"M": raw}))
    assert record.config["M"] == float(raw) and record.status == "optimal"


@pytest.mark.parametrize("name,overrides", [
    ("ols", {"m": "30", "n": "4"}),
    ("isotonic", {"m": "15"}),
    ("huber_reg", {"m": "40", "n": "3"}),
    ("quantile_reg", {"tau": "0.25"}),
    ("elastic_net", {"lam": "0.5", "alpha": "1.0"}),
    ("logistic_reg", {"m": "40", "n": "4", "constrained": "false"}),
    ("catenary", {"m": "21"}),
    ("kelly", {"K": "10", "n": "4"}),
    ("channel_capacity", {"crossover": "0.2"}),
    ("fmmc", {"graph": "path3"}),
])
def test_variant_matrix_smoke(name, overrides):
    record = run_example(ExampleConfig(name, params=overrides))
    assert record.status == "optimal", (name, overrides)
    assert record.feasibility <= 1e-6


SERIES_CASES = [
    # example, params, series name, header, row count, a property of the rows
    ("saturating_hinges", {}, "fit", ["x", "y", "fitted"], 80,
     lambda d: np.all(np.diff(d[:, 0]) >= 0)),
    ("catenary", {}, "shape", ["x", "y"], 51,
     lambda d: np.allclose(d[[0, -1]], [[0.0, 1.0], [1.0, 1.0]], atol=1e-6)),
    ("catenary", {"variant": "ground"}, "shape", ["x", "y", "ground"], 51,
     lambda d: np.all(d[:, 1] >= d[:, 2] - 1e-6)),
    ("portfolio", {}, "tradeoff", ["gamma", "risk", "ret"], 9,
     lambda d: np.all(np.diff(d[:, 0]) > 0)
     and np.all(np.diff(d[:, 1]) <= 1e-6)),
    ("kelly", {}, "wealth", ["period", "kelly", "naive"], 60,
     lambda d: np.array_equal(d[:, 0], np.arange(1, 61))
     and np.all(d[:, 1:] > 0)),
]


@pytest.mark.parametrize("name,params,series,header,rows,holds", SERIES_CASES,
                         ids=["saturating_hinges", "catenary",
                              "catenary_ground", "portfolio", "kelly"])
def test_example_series_csv(tmp_path, name, params, series, header, rows,
                            holds):
    record = run_example(ExampleConfig(name, params=params))
    paths = emit_series(record, str(tmp_path))
    assert paths == [str(tmp_path / f"{name}_{series}.csv")]
    with open(paths[0], newline="") as f:
        table = list(csv.reader(f))
    assert table[0] == header
    data = np.array(table[1:], dtype=float)
    assert data.shape == (rows, len(header))
    assert np.isfinite(data).all() and holds(data)


def test_record_json_round_trip():
    import json
    record = run_example(ExampleConfig("ols"))
    blob = json.loads(record.to_json())
    assert blob["example"] == "ols"
    assert blob["status"] == "optimal"
    assert isinstance(blob["outputs"]["beta"], list)
