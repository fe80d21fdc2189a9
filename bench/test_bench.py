"""Tests of the benchmark itself: each output check passes on a sound result and
fails on a corrupted one, and the printed metric names match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bubbletower as bt  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402

DT_MIN = bt.FlowConfig().dt_min
STATIONARY_TOL = bt.FlowConfig().stationary_tol


def _nearest(nodes, r):
    return int(np.argmin(np.abs(nodes - r)))


def test_nodal_law_rejects_radius_or_scale_moved_two_cells():
    N, k, eps = 4, 2, 1e-3
    nodes = bt.build_grid(eps, 1.0, 4096, "log", N).nodes
    radii = [nodes[_nearest(nodes, eps ** 0.5)]]
    deltas = [nodes[_nearest(nodes, eps ** (1 / 4))], nodes[_nearest(nodes, eps ** (3 / 4))]]
    assert checks.check_nodal_law(radii, deltas, nodes, k, eps) == []
    moved = [nodes[_nearest(nodes, eps ** 0.5) + 2]]
    assert checks.check_nodal_law(moved, deltas, nodes, k, eps)
    moved_scale = [deltas[0], nodes[_nearest(nodes, eps ** (3 / 4)) - 2]]
    assert checks.check_nodal_law(radii, moved_scale, nodes, k, eps)
    assert checks.check_nodal_law([], deltas, nodes, k, eps)


def test_eigen_check_rejects_lambda1_scaled_by_1_001():
    grid = bt.build_grid(0.5, 1.0, 256, "uniform", 3)
    op = bt.assemble_operator(grid, bt.RadialField(grid, np.full(grid.nodes.size, 100.0)))
    lam_lapack = checks.lapack_lambda1(op.d, op.e)
    summary = {"lambda1": bt.eigenvalue_k(op), "inner_product": 0.1, "identity_residual": 1e-12}
    assert lam_lapack < 0
    assert checks.check_eigen(summary, lam_lapack) == []
    assert checks.check_eigen({**summary, "lambda1": 1.001 * summary["lambda1"]}, lam_lapack)
    assert checks.check_eigen({**summary, "inner_product": -0.1}, lam_lapack)
    assert checks.check_eigen({**summary, "identity_residual": 1e-3}, lam_lapack)


def test_tower_check_rejects_residual_above_gate():
    nodes = bt.build_grid(1e-3, 1.0, 4096, "log", 4).nodes
    summary = {
        "k": 2,
        "eps": 1e-3,
        "residual_norm": 1e-12,
        "nodal_radii": [1e-3 ** 0.5],
        "deltas_measured": [1e-3 ** 0.25, 1e-3 ** 0.75],
    }
    assert checks.check_tower(summary, nodes) == []
    assert checks.check_tower({**summary, "residual_norm": 1.5e-8}, nodes)


def test_limit_check_rejects_positive_or_rising_rung():
    good = {"lambda_star_R": {"20": -4.60, "40": -4.65, "80": -4.65}}
    assert checks.check_limit(good) == []
    assert checks.check_limit({"lambda_star_R": {"20": -4.60, "40": -4.55, "80": -4.65}})
    assert checks.check_limit({"lambda_star_R": {"20": 0.1, "40": -4.55}})


def _decay_series(mu):
    t = np.arange(1, 20002) * 1e-5
    J = np.exp(-2.0 * mu * t)
    return np.column_stack([t, np.exp(-mu * t), J, np.full(t.size, 1e-5)])


def test_decay_check_rejects_swapped_status_wrong_rate_or_rising_energy():
    mu = checks.ball_dirichlet_lambda1(4)
    assert abs(mu - 14.68197) < 1e-5
    series = _decay_series(mu)
    assert checks.check_decay("GlobalBounded", series, 4) == []
    assert checks.check_decay("BlowUp", series, 4)
    assert checks.check_decay("GlobalBounded", _decay_series(1.02 * mu), 4)
    bumped = series.copy()
    bumped[500, 2] += 1e-3  # one step decreases J by about 3e-4
    assert checks.check_decay("GlobalBounded", bumped, 4)


def test_growth_rate_check():
    assert checks.check_growth_rate(1.52e5, -1.525e5) == []
    assert checks.check_growth_rate(1.40e5, -1.525e5)


def _blowup_row(T=1.5e-5):
    bracket = (T - 1e-12, T + 1e-12)
    series = np.array([[1e-6, 1.0, 5.0, 1e-6], [2e-6, 2.0, 4.0, 1e-6], [3e-6, 9.0, -7.0, 1e-12]])
    return dict(
        lam=1.03, status="BlowUp", T_estimate=T, T_bracket=bracket, series=series,
        drift_rel=10.0, dt_min=DT_MIN, stationary_tol=STATIONARY_TOL,
    )


def test_flow_row_rejects_swapped_status_or_T_outside_bracket():
    row = _blowup_row()
    assert checks.check_flow_row(**row) == []
    assert checks.check_flow_row(**{**row, "status": "GlobalBounded"})
    lo, hi = row["T_bracket"]
    assert checks.check_flow_row(**{**row, "T_estimate": hi + 9 * DT_MIN}) == []
    assert checks.check_flow_row(**{**row, "T_estimate": hi + 1e-9})
    assert checks.check_flow_row(**{**row, "T_estimate": lo - 1e-9})
    assert checks.check_flow_row(**{**row, "T_estimate": None})
    stationary = {**row, "lam": 1.0, "status": "Stationary", "T_estimate": None, "drift_rel": 1e-8}
    stationary["series"] = np.array([[1e-6, 1.0, 5.0, 1e-6], [2e-6, 1.0, 5.0, 1e-6]])
    assert checks.check_flow_row(**stationary) == []
    assert checks.check_flow_row(**{**stationary, "status": "BlowUp"})
    assert checks.check_flow_row(**{**stationary, "drift_rel": 1e-3})


def test_escape_time_check():
    lam1 = -1.5e5
    Ta = 2.3e-5
    Tb = Ta - math.log(0.04 / 0.01) / abs(lam1)
    assert checks.check_escape_times(1.01, Ta, 1.04, Tb, lam1) == []
    assert checks.check_escape_times(1.01, Ta, 1.04, Tb - 2e-6, lam1)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_blowup_lambdas_lie_in_the_bands(seed):
    lams = run.blowup_lambdas(seed)
    assert lams == run.blowup_lambdas(seed)
    assert len(lams) == 7 and lams.count(1.0) == 1
    below = [x for x in lams if x < 1]
    above = [x for x in lams if x > 1]
    assert len(below) == len(above) == 3
    assert all(0.95 <= x <= 0.98 for x in below) and all(1.01 <= x <= 1.05 for x in above)
    assert run.blowup_lambdas(seed + 1) != lams


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    names = run.PER_LAYER if trace else run.END_TO_END
    line = run.result_line(True, run.Tally(), {n: 1.0 for n in names}, trace)
    printed = json.loads(line)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in printed["metrics"].items()} == wanted
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
