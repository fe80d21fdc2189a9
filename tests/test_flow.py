import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import bubbletower as bt
from bubbletower import flow
from bubbletower.errors import IntegratorFailure
from bubbletower.flow import _Stepper

from conftest import different_grids
from oracles import (
    ReferenceStepper,
    assert_no_child_process,
    reference_energy,
    reference_evolve,
    reference_linearized_series,
    reference_reaction_map,
    reference_separation_time,
)

# numpy's overflow and invalid warnings must not escape a flow loop (each runs
# under one np.errstate); a misplaced errstate shows here as a failure
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _no_child_process_left():
    yield
    assert_no_child_process()


KEY = (4, 2, 1e-3)


def _bump(g, amp=1.0):
    vals = amp * np.sin(np.pi * (g.nodes - g.inner) / (g.outer - g.inner))
    vals[0] = vals[-1] = 0.0
    return bt.RadialField(g, vals, dirichlet=True)


def test_flow_config_validation():
    with pytest.raises(ValueError, match=r"^need dt_min < dt_max, got 1e-12 >= 1e-12$"):
        bt.FlowConfig(dt_max=1e-12)
    # a flow no longer than dt_min used to take no step and report Stationary
    with pytest.raises(ValueError, match=r"^need dt_min < t_end, got 1e-12 >= 1e-12$"):
        bt.FlowConfig(t_end=1e-12)
    with pytest.raises(ValueError):
        bt.FlowConfig(integrator="rk4")
    with pytest.raises(ValueError):
        bt.FlowConfig(t_end=0.0)
    with pytest.raises(ValueError, match=r"^integrator must be one of \('imex-be', 'reaction-only'\), got 'imex-cn'$"):
        bt.FlowConfig(integrator="imex-cn")


@pytest.mark.parametrize("value", (math.inf, math.nan, 0.0, -1e-3))
@pytest.mark.parametrize("field", ("dt_max", "t_end", "safety"))
def test_flow_config_rejects_non_finite_or_non_positive_steps_and_horizon(field, value):
    # t_end = inf used to march forever, and t_end = nan to stop at once as Stationary
    with pytest.raises(ValueError, match=rf"^{field} must be finite and positive, got {value}"):
        bt.FlowConfig(**{field: value})


# the classification constants, which the benchmark reads from FlowConfig
CONSTANTS = {"dt_min": 1e-12, "blow_threshold": 1e3, "stationary_tol": 1e-4}


@pytest.mark.parametrize("name, value", CONSTANTS.items())
def test_flow_classification_constants_are_class_constants(name, value):
    assert getattr(bt.FlowConfig, name) == value
    assert getattr(bt.FlowConfig(), name) == value
    assert name not in {f.name for f in dataclasses.fields(bt.FlowConfig)}
    with pytest.raises(TypeError):
        bt.FlowConfig(**{name: value})


def test_zero_data_is_globally_bounded():
    g = bt.build_grid(0.5, 1.0, 32, N=3)
    v0 = bt.RadialField(g, np.zeros(g.nodes.size), dirichlet=True)
    res = bt.evolve(v0, bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=1e-3))
    assert res.status == "GlobalBounded"
    assert res.sup0 == 0.0
    assert float(np.max(np.abs(res.final.values))) == 0.0


def test_diffusive_run_requires_zero_trace():
    g = bt.build_grid(0.5, 1.0, 32, N=3)
    v0 = bt.RadialField(g, np.ones(g.nodes.size))
    with pytest.raises(ValueError):
        bt.evolve(v0, bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=1e-3))


def test_reaction_only_blowup_time_exact():
    # v' = v^p from v=1: T = 1/(p-1); N=3 gives p=5, T=0.25
    g = bt.build_grid(0.5, 1.0, 16, N=3)
    v0 = bt.RadialField(g, np.ones(g.nodes.size))
    cfg = bt.FlowConfig(integrator="reaction-only", t_end=0.5, dt_max=1e-5)
    res = bt.evolve(v0, bt.ProblemParams(3, 1, 0.5), cfg)
    assert res.status == "BlowUp"
    assert res.T_bracket is not None
    lo, hi = res.T_bracket
    # containment holds up to the step clock's accumulation roundoff
    assert lo <= 0.25 + 1e-9 and 0.25 <= hi + 1e-9
    assert abs(res.T_estimate - 0.25) <= 1e-4 * 0.25


def test_stationary_hold_at_lambda_one(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg = bt.FlowConfig(t_end=10.0 / abs(pair.lam))
    res = bt.evolve(sol.field, sol.params, cfg)
    assert res.status == "Stationary"
    assert res.drift <= 1e-4 * res.sup0


def test_energy_identity_at_stationary_solution(case_solutions):
    # discrete summation by parts: |grad phi|^2 = int |phi|^{p+1} at the solution,
    # so J(phi) = (1/2 - 1/(p+1)) int |phi|^{p+1}
    sol = case_solutions[KEY]
    p = sol.params.p
    g = sol.field.grid
    from bubbletower.params import sphere_area

    pot = sphere_area(g.N) * float(
        np.sum(g.cell_weights * np.abs(sol.field.values) ** (p + 1.0))
    )
    J = bt.energy(sol.field, sol.params)
    want = (0.5 - 1.0 / (p + 1.0)) * pot
    assert abs(J - want) <= 1e-6 * abs(want)


def test_subcritical_decay_and_energy_monotone(case_solutions):
    sol = case_solutions[KEY]
    v0 = bt.RadialField(sol.field.grid, 0.1 * sol.field.values, dirichlet=True)
    cfg = bt.FlowConfig(dt_max=1e-3, t_end=2.0)
    res = bt.evolve(v0, sol.params, cfg)
    assert res.status == "GlobalBounded"
    sup_final = float(np.max(np.abs(res.final.values)))
    assert sup_final <= 1e-6 * res.sup0
    J = res.series[:, 2]
    slack = 1e-8 * (1.0 + np.abs(J[:-1]))
    assert int(np.sum(J[1:] > J[:-1] + slack)) == 0


def test_supercritical_blowup_detected(case_solutions, case_pairs):
    sol = case_solutions[KEY]
    v0 = bt.RadialField(sol.field.grid, 1.05 * sol.field.values, dirichlet=True)
    res = bt.evolve(v0, sol.params, bt.FlowConfig(t_end=0.01))
    assert res.status == "BlowUp"
    assert res.T_bracket is not None and res.T_bracket[0] <= res.T_bracket[1]
    assert res.T_estimate is not None and res.T_estimate > 0


def test_lambda_sweep_classifies(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    rows = bt.lambda_sweep(sol, (1.0, 1.05), bt.FlowConfig(t_end=0.01), pair=pair)
    by_lam = {r["lambda"]: r for r in rows}
    assert by_lam[1.0]["status"] == "Stationary"
    assert by_lam[1.0]["t_end"] == 10.0 / abs(pair.lam)
    assert by_lam[1.05]["status"] == "BlowUp"
    assert by_lam[1.05]["T_estimate"] is not None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def test_lambda_sweep_rows_are_bit_identical_to_one_run_at_a_time(case_solutions, case_pairs, monkeypatch):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg, lams = bt.FlowConfig(t_end=0.01), (0.5, 0.97, 1.0, 1.03, 1.06)
    assert flow._sweep_workers(len(lams)) == min(len(lams), _usable_cores())  # the fan-out runs where it can
    rows = bt.lambda_sweep(sol, lams, cfg, pair)
    assert_no_child_process()
    assert [r["lambda"] for r in rows] == list(lams)
    assert rows == [bt.lambda_sweep(sol, [lam], cfg, pair)[0] for lam in lams]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert flow._sweep_workers(len(lams)) == 1
    assert rows == bt.lambda_sweep(sol, lams, cfg, pair)
    assert_no_child_process()


def test_linearized_rate_from_eigenfunction(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.linearized_evolve(sol, pair, pair.phi)
    assert not out["orthogonal_start"]
    assert out["projection_sign"] > 0
    want = -pair.lam
    assert abs(out["growth_rate"] - want) <= 1e-2 * want
    assert abs(out["norm_rate"] - want) <= 1e-2 * want


def test_linearized_rate_from_solution_data(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.linearized_evolve(sol, pair, sol.field)
    want = -pair.lam
    assert abs(out["growth_rate"] - want) <= 5e-2 * want


def test_linearized_orthogonal_start_respects_gap(case_solutions, case_pairs):
    from bubbletower.spectral import eigenvalue_k

    sol, pair = case_solutions[KEY], case_pairs[KEY]
    g = sol.field.grid
    b = _bump(g)
    c = bt.integrate_weighted(b, pair.phi)  # phi1 is unit-normalized
    z0 = bt.RadialField(g, b.values - c * pair.phi.values, dirichlet=True)
    out = bt.linearized_evolve(sol, pair, z0)
    assert out["orthogonal_start"]
    lam2 = eigenvalue_k(bt.assemble_linearized(sol), 2)
    # the norm growth stays at the second mode's rate, far below the first
    assert out["norm_rate"] <= 1.05 * (-lam2)
    assert out["norm_rate"] <= 0.01 * (-pair.lam)


def test_linearized_takes_exactly_ceil_t_end_over_dt_steps(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    t_end, dt = 1.0, 0.1
    steps = int(np.ceil(t_end / dt))
    clock = 0.0
    for _ in range(steps):
        clock += dt
    assert clock < t_end  # a loop on the accumulated clock would take one more step
    out = bt.linearized_evolve(sol, pair, pair.phi, t_end=t_end, dt=dt)
    assert out["series"].shape[0] == steps
    assert out["series"][-1, 0] == clock


@pytest.mark.parametrize("steps", [1, 2])
def test_linearized_rejects_runs_too_short_for_the_rate_fit(case_solutions, case_pairs, steps):
    # ceil(t_end/dt) < 3 leaves fewer than two rows for the fit over the second half
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    dt = 0.002 / abs(pair.lam)
    with pytest.raises(ValueError, match=rf"t_end=.* at dt=.* gives {steps} steps"):
        bt.linearized_evolve(sol, pair, pair.phi, t_end=steps * dt, dt=dt)


@pytest.mark.parametrize("value", (math.inf, math.nan, 0.0, -1e-3))
@pytest.mark.parametrize("name", ("t_end", "dt"))
def test_linearized_rejects_non_finite_or_non_positive_t_end_and_dt(case_solutions, case_pairs, name, value):
    # these used to raise OverflowError, ZeroDivisionError or a NaN-to-integer error from the step count
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    kwargs = {"t_end": 1.0 / abs(pair.lam), "dt": 0.002 / abs(pair.lam), name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite and positive, got {value}$"):
        bt.linearized_evolve(sol, pair, pair.phi, **kwargs)


def test_linearized_rejects_zero_data(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    g = sol.field.grid
    z0 = bt.RadialField(g, np.zeros(g.nodes.size), dirichlet=True)
    with pytest.raises(ValueError):
        bt.linearized_evolve(sol, pair, z0)


@pytest.mark.parametrize("key", (KEY, (4, 1, 1e-3)), ids=lambda key: "-".join(map(str, key)))
def test_the_flow_leaves_phi_at_the_rate_of_its_first_eigenvalue(key):
    # the escape law: v - phi ~ (lambda - 1) <phi, phi_1> e^{|lambda_1| t} phi_1, so T moves by
    # ln(100)/|lambda_1| from lambda - 1 = 1e-6 to 1e-8 and r = |lambda_1| dT / ln 100 = 1. The runs
    # read f and lambda_1 reads f'. T is first order in the step, so r(m) at (0.1, 1e-5)/m is
    # extrapolated; 2 r(4) - r(2) reads 1 to 5.3e-4 and 1.5e-4 here, and f' x 1.001 moves it by
    # 2.5e-3 and 1.1e-2 (docs/decisions.md, "The escape law replaces the lockstep consistency check")
    sol = bt.find_nodal_solution(bt.ProblemParams(*key))
    pair = bt.first_eigenpair(bt.assemble_linearized(sol))

    def ratio(m):
        cfg = bt.FlowConfig(safety=0.1 / m, dt_max=1e-5 / m)
        rows = bt.lambda_sweep(sol, (1.0 + 1e-6, 1.0 + 1e-8), cfg, pair)
        assert [row["status"] for row in rows] == ["BlowUp", "BlowUp"]
        return abs(pair.lam) * (rows[1]["T_estimate"] - rows[0]["T_estimate"]) / math.log(100.0)

    assert abs(2.0 * ratio(4) - ratio(2) - 1.0) <= 2e-3


def test_separation_time_lambda_one(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.find_separation_time(sol, pair, 1.0, bt.FlowConfig(t_end=1e-3))
    assert out["t0"] is None
    assert "note" in out["diagnostics"]


@pytest.mark.parametrize("lam,sign", ((1.02, 1.0), (0.98, -1.0)))
def test_separation_projection_sign(case_solutions, case_pairs, lam, sign):
    # full pointwise separation is preempted by blow-up on this solution; the
    # projection of v - phi on the first eigenfunction still locks to the
    # predicted sign almost immediately
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.find_separation_time(sol, pair, lam, bt.FlowConfig(t_end=0.02))
    assert out["t0"] is None
    diag = out["diagnostics"]
    assert diag["projection_sign"] == sign
    assert diag["reason"] == "blow-up preempted full separation"
    assert 0.0 < diag["best_fraction"] < 1.0


@pytest.fixture(scope="module")
def one_lobe():
    sol = bt.find_nodal_solution(bt.ProblemParams(3, 1, 0.1), M=1024)
    return sol, bt.first_eigenpair(bt.assemble_linearized(sol))


@pytest.mark.parametrize("lam,sign", ((1.5, 1.0), (0.5, -1.0)))
def test_separation_time_on_a_one_lobe_tower(one_lobe, lam, sign):
    # with one lobe there is no sign change to sweep: the difference is
    # one-signed at the first step checked after the 10-step transient
    out = bt.find_separation_time(*one_lobe, lam, bt.FlowConfig())
    assert out["t0"] == pytest.approx(1.1e-4, rel=1e-12)
    assert out["diagnostics"] == {"steps": 11, "projection_sign": sign}


@pytest.mark.parametrize(
    "case, lam, t_end",
    [
        ("tower", 1.02, 0.02),  # blow-up at t ~ 1.84e-5 after 117 steps
        ("tower", 0.98, 0.02),  # blow-up at t ~ 8.73e-3 after 996 steps
        ("one_lobe", 1.5, 2.0),  # one-signed at the 11th step
        ("one_lobe", 0.5, 2.0),
        ("one_lobe", 1.0001, 1e-4),  # the horizon after 10 steps
    ],
)
def test_separation_time_matches_its_own_loop(case_solutions, case_pairs, one_lobe, case, lam, t_end):
    # the reference keeps the search's old loop and its copy of the BlowUp rule;
    # the package leaves that rule to evolve's loop
    sol, pair = one_lobe if case == "one_lobe" else (case_solutions[KEY], case_pairs[KEY])
    cfg = bt.FlowConfig(t_end=t_end)
    got, want = bt.find_separation_time(sol, pair, lam, cfg), reference_separation_time(sol, pair, lam, cfg)
    assert got == want
    assert list(got["diagnostics"]) == list(want["diagnostics"])
    # the search always takes the IMEX-BE step
    assert bt.find_separation_time(sol, pair, lam, dataclasses.replace(cfg, integrator="reaction-only")) == want


def test_onesided_window(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.find_onesided_window(sol, pair)
    assert out["floor"] > 0
    assert out["tolerance"] == 2.0 * out["floor"]
    assert out["passing"]
    assert any(abs(ep - 1e-3) <= 1e-12 for ep in out["passing"])
    assert all(ep < 1e-2 for ep in out["passing"])


def test_subsupersolution_residual_signs(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    sub = bt.subsupersolution_residual(sol.field, pair.phi, 1e-3, sol.params)
    sup = bt.subsupersolution_residual(sol.field, pair.phi, -1e-3, sol.params)
    assert sub["max_wrong_sign"] == sub["max_positive"]
    assert sup["max_wrong_sign"] == sup["max_negative"]
    floor = 2.0 * float(
        np.max(np.abs(bt.stationary_residual(sol.field, sol.params).values[1:-1]))
    )
    assert sub["max_wrong_sign"] <= floor
    assert sup["max_wrong_sign"] <= floor


def test_comparison_monitor_ordered_pair():
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    params = bt.ProblemParams(3, 1, 0.5)
    cfg = bt.FlowConfig(t_end=5e-3, dt_max=1e-4)
    out = bt.comparison_monitor(_bump(g, 0.8), _bump(g, 1.0), params, cfg)
    assert out["violation"] <= 1e-8
    assert out["stopped"] == "horizon"


def test_comparison_monitor_equal_data_zero_violation():
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    params = bt.ProblemParams(3, 1, 0.5)
    cfg = bt.FlowConfig(t_end=5e-3, dt_max=1e-4)
    out = bt.comparison_monitor(_bump(g), _bump(g), params, cfg)
    assert out["violation"] == 0.0


def test_comparison_monitor_stops_at_the_blow_up_threshold():
    g = bt.build_grid(0.5, 1.0, 64, "uniform", N=3)
    cfg = bt.FlowConfig(dt_max=1e-4, t_end=1.0)
    out = bt.comparison_monitor(_bump(g, 20.0), _bump(g, 40.0), bt.ProblemParams(3, 1, 0.5), cfg)
    assert out["stopped"] == "blow-up threshold"
    assert out["violation"] == 0.0


def test_comparison_monitor_overflow_raises():
    # the reaction overflows on the first step at dt_min; the NaN violation it
    # leaves must not read as an ordered pair
    g = bt.build_grid(0.5, 1.0, 256, N=4)
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.comparison_monitor(
            _bump(g, 0.5e110), _bump(g, 1e110), bt.ProblemParams(4, 1, 0.5), bt.FlowConfig(t_end=1e-3)
        )


def test_comparison_monitor_rejects_unordered():
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    with pytest.raises(ValueError):
        bt.comparison_monitor(
            _bump(g, 1.0), _bump(g, 0.8), bt.ProblemParams(3, 1, 0.5), bt.FlowConfig()
        )


def _twins(g):
    """Grids with g's node count that g must not be combined with: graded uniformly in r where g
    is graded in log r, and g's own nodes in the next dimension (the same nodes, other weights)."""
    return bt.build_grid(g.inner, g.outer, g.M, "uniform", N=g.N), bt.RadialGrid(g.nodes, N=g.N + 1)


def test_comparison_monitor_rejects_fields_on_two_grids():
    # as many nodes on both grids, so only the grid check tells them apart
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    zero = bt.RadialField(g, np.zeros(g.nodes.size), dirichlet=True)
    for twin in _twins(g):
        with pytest.raises(ValueError, match=different_grids(g, twin)):
            bt.comparison_monitor(zero, _bump(twin), bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=1e-3))


def test_comparison_monitor_rejects_data_without_zero_trace():
    # ordered, so only the trace check rejects it, with evolve's message for the same data
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    low = bt.RadialField(g, np.full(g.nodes.size, 0.1))
    high = bt.RadialField(g, low.values + _bump(g).values)
    with pytest.raises(ValueError, match=r"^diffusive runs need zero-trace initial data$"):
        bt.comparison_monitor(low, high, bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=1e-3))


def test_linearized_rejects_data_on_another_grid(case_solutions, case_pairs):
    # as many nodes on both grids, so only the grid check tells them apart
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    for twin in _twins(sol.field.grid):
        z0 = bt.RadialField(twin, pair.phi.values, dirichlet=True)
        with pytest.raises(ValueError, match=different_grids(twin, sol.field.grid)):
            bt.linearized_evolve(sol, pair, z0)


def test_subsupersolution_residual_rejects_fields_on_two_grids(case_solutions, case_pairs):
    # as many nodes on both grids, so only the grid check tells them apart
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    for twin in _twins(sol.field.grid):
        psi = bt.RadialField(twin, sol.field.values, dirichlet=True)
        with pytest.raises(ValueError, match=different_grids(twin, sol.field.grid)):
            bt.subsupersolution_residual(psi, pair.phi, 1e-3, sol.params)


# each entry that takes a field and params, called with the field on an N = 4 grid and N = 3 params
ONE_DIMENSION_ENTRIES = {
    "evolve": lambda v, params: bt.evolve(v, params, bt.FlowConfig(t_end=1e-3)),
    "energy": bt.energy,
    "comparison_monitor": lambda v, params: bt.comparison_monitor(v, v, params, bt.FlowConfig(t_end=1e-3)),
}


@pytest.mark.parametrize("entry", ONE_DIMENSION_ENTRIES)
def test_entries_reject_params_of_another_dimension(entry):
    # the weights would carry r^3 and the reaction p = 5
    v = _bump(bt.build_grid(0.5, 1.0, 128, N=4))
    with pytest.raises(ValueError, match=r"^the grid has dimension N = 4 but the params have N = 3$"):
        ONE_DIMENSION_ENTRIES[entry](v, bt.ProblemParams(3, 1, 0.5))


def test_positivity_preserved():
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    params = bt.ProblemParams(3, 1, 0.5)
    res = bt.evolve(_bump(g), params, bt.FlowConfig(t_end=5e-3, dt_max=1e-4))
    mn = float(np.min(res.final.values))
    assert mn >= -1e-14


def _interior_laplacian(g):
    """Dense interior block of the radial Laplacian, assembled column by column."""
    n = g.nodes.size
    cols = []
    for j in range(1, n - 1):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(bt.apply_radial_laplacian(bt.RadialField(g, e)).values[1:-1])
    return np.array(cols).T


def test_stepper_matches_dense_solve():
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    p, dt = params.p, 1e-3
    v = _bump(g, 1.5).values
    w = v[1:-1]
    A = _interior_laplacian(g)
    I = np.eye(w.size)
    react = np.abs(w) ** (p - 1.0) * w
    want = np.linalg.solve(I - dt * A, w + dt * react)
    got = _Stepper(g, params).step(v, dt)
    assert got[0] == 0.0 and got[-1] == 0.0
    assert np.max(np.abs(got[1:-1] - want)) <= 1e-12 * np.max(np.abs(want))


def test_imex_be_is_first_order_in_time():
    # successive halvings of a fixed dt on a smooth bump: the explicit reaction
    # and the backward-Euler diffusion both make the error O(dt)
    g = bt.build_grid(0.5, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.5)
    finals = [
        bt.evolve(_bump(g), params, bt.FlowConfig(dt_max=1e-4 / 2**i, t_end=0.01)).final.values for i in range(5)
    ]
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(d / d_half) for d, d_half in zip(diffs, diffs[1:])]
    assert all(0.95 <= q <= 1.05 for q in orders), orders


@pytest.mark.parametrize("i", range(3))
def test_evolve_takes_no_step_shorter_than_dt_min(i):
    # t_end is a whole number of dt_max steps and the accumulated clock falls a
    # rounding short of it: the march ends there instead of taking a ~1e-17 step
    g = bt.build_grid(0.5, 1.0, 64, N=3)
    cfg = bt.FlowConfig(dt_max=1e-4 / 2**i, t_end=0.01)
    res = bt.evolve(_bump(g), bt.ProblemParams(3, 1, 0.5), cfg)
    assert np.all(res.series[:, 3] >= cfg.dt_min)
    assert res.series.shape[0] == 100 * 2**i


def test_stepper_refactors_when_dt_changes():
    # a stale factor from an earlier dt would show as a mismatch at the last step
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    v = _bump(g, 1.5).values
    shared = _Stepper(g, params)
    for dt in (1e-3, 3e-5, 1e-3):
        got = shared.step(v, dt)
        assert np.array_equal(got, _Stepper(g, params).step(v, dt))
    assert not np.array_equal(shared.step(v, 3e-5), shared.step(v, 1e-3))


def test_stepper_indefinite_matrix_raises_with_info():
    # a negative step makes D + dt K indefinite, which dpttrf reports
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    stepper = _Stepper(g, bt.ProblemParams(3, 1, 0.1))
    with pytest.raises(IntegratorFailure) as err:
        stepper.step(_bump(g).values, -1.0)
    info = err.value.diagnostics["info"]
    assert info > 0
    assert f"info={info}" in str(err.value)


def test_overflowing_reaction_raises_integrator_failure():
    g = bt.build_grid(0.5, 1.0, 256, N=4)
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.evolve(_bump(g, 1e110), bt.ProblemParams(4, 1, 0.5), bt.FlowConfig(t_end=1e-3))


@pytest.mark.parametrize(
    "state",
    [
        np.array([0.0, -0.0, 0.0, -0.0]),  # a max over signed zeros can return -0.0
        np.array([-0.0, -0.0]),
        np.array([0.0, -3.0, 2.0, 0.0]),
        np.array([0.0, np.nan, 1.0, 0.0]),
        np.array([0.0, -np.inf, 1.0, 0.0]),
        np.array([0.0, np.inf, -np.inf, 0.0]),
        np.array([[0.0, 1.0, 0.0], [0.0, -2.0, 0.0]]),  # comparison_monitor's stacked state
    ],
)
def test_sup_norm_is_the_max_of_the_absolute_values(state):
    got, want = flow._sup_norm(state), float(np.max(np.abs(state)))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(got) == np.signbit(want)


@pytest.fixture(scope="module")
def overflowing_state():
    """A field whose reaction p|u|^{p-1} overflows, posed as a solution with a unit eigenpair."""
    from bubbletower.spectral import EigenPair
    from bubbletower.stationary import StationarySolution

    g = bt.build_grid(0.5, 1.0, 256, N=4)
    phi = _bump(g)
    phi = bt.RadialField(g, phi.values / np.sqrt(bt.integrate_weighted(phi, phi)), dirichlet=True)
    field = bt.RadialField(g, 1e200 * phi.values, dirichlet=True)
    sol = StationarySolution(bt.ProblemParams(4, 1, 0.5), field, np.array([]), np.array([]), 1.0, 0.0)
    return sol, EigenPair(lam=-1.0, phi=phi, residual=0.0)


def test_overflow_in_lambda_sweep_is_a_failed_row(overflowing_state):
    sol, pair = overflowing_state
    (row,) = bt.lambda_sweep(sol, (2.0,), bt.FlowConfig(t_end=1e-3), pair)
    assert row["status"] == "Failed"
    assert "overflow" in row["message"]


def test_overflow_in_a_multi_lambda_sweep_is_a_failed_row_in_place(overflowing_state):
    sol, pair = overflowing_state
    zero, blown = bt.lambda_sweep(sol, (0.0, 2.0), bt.FlowConfig(t_end=1e-3), pair)
    assert (zero["lambda"], zero["status"]) == (0.0, "GlobalBounded")
    assert (blown["lambda"], blown["status"]) == (2.0, "Failed")
    assert "overflow" in blown["message"]
    assert_no_child_process()


@pytest.mark.parametrize("lams", [(1.0, math.nan), (math.nan, 1.0)])
def test_an_error_in_a_sweep_run_is_raised_in_the_caller(overflowing_state, lams):
    sol, pair = overflowing_state
    with pytest.raises(ValueError, match="^dirichlet field must have exactly zero endpoint values$"):
        bt.lambda_sweep(sol, lams, bt.FlowConfig(t_end=1e-3), pair)
    assert_no_child_process()


def test_the_caller_forks_one_child_fewer_than_the_workers(case_solutions, case_pairs, monkeypatch):
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    lams = (0.5, 1.0, 1.05)
    rows = bt.lambda_sweep(sol, lams, bt.FlowConfig(t_end=1e-4), pair)
    assert len(forks) == flow._sweep_workers(len(lams)) - 1
    assert [r["lambda"] for r in rows] == list(lams)
    forks.clear()

    def square(i):
        time.sleep(0.01)
        return i * i, os.getpid()

    results = flow._fan_out(square, list(range(10)), 3)
    assert forks == [os.getpid()] * 2
    assert [r for r, _ in results] == [i * i for i in range(10)]
    assert os.getpid() in {pid for _, pid in results}  # the caller runs items too


def test_a_child_that_ends_without_a_report_is_an_error(case_solutions, case_pairs, monkeypatch):
    sol, pair, caller, real_row = case_solutions[KEY], case_pairs[KEY], os.getpid(), flow._sweep_row

    def row_or_die(*args):
        if os.getpid() != caller:
            os._exit(7)
        time.sleep(0.1)  # the caller is slow, so the child claims some lambdas
        return real_row(*args)

    monkeypatch.setattr(flow, "_sweep_row", row_or_die)
    monkeypatch.setattr(flow, "_sweep_workers", lambda n_runs: 2)
    with pytest.raises(RuntimeError, match=r"ended without a report: process \d+, exit code 7$"):
        bt.lambda_sweep(sol, (0.5, 0.6, 0.7, 0.8), bt.FlowConfig(t_end=1e-6), pair)
    assert_no_child_process()


def test_the_first_failed_item_in_input_order_is_raised():
    def odd_fails(i):
        if i % 2:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError, match="^1$"):
        flow._fan_out(odd_fails, list(range(8)), 2)


def test_an_error_in_the_caller_reaps_the_children_before_it_propagates(tmp_path):
    class Abort(BaseException):
        pass

    caller, log = os.getpid(), os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(i):
        if os.getpid() == caller:
            raise Abort(i)
        os.write(log, b".")
        time.sleep(0.01)
        return i

    with pytest.raises(Abort):
        flow._fan_out(fn, list(range(50)), 2)
    os.close(log)
    assert_no_child_process()
    # the caller emptied the claims: the child stopped after its current item
    assert len((tmp_path / "ran").read_bytes()) < 25


_ORPHAN_PROBE = """
import os, sys, time
from bubbletower import flow

log = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)

def slow(i):
    os.write(log, f"{os.getpid()} {i} {time.time()!r}\\n".encode())
    time.sleep(0.2)
    return i

flow._fan_out(slow, list(range(20)), 2)
"""


def test_a_child_stops_claiming_once_its_caller_is_killed(tmp_path):
    log = tmp_path / "started"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(flow.__file__).parents[1]), env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PROBE, str(log)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
    )

    def started():
        return [line.split() for line in log.read_text().splitlines()] if log.exists() else []

    deadline = time.monotonic() + 60.0
    while len({pid for pid, _, _ in started()}) < 2:  # the caller and its child have each begun an item
        assert proc.poll() is None and time.monotonic() < deadline, proc.communicate()[0]
        time.sleep(0.005)
    killed_at = time.time()  # each has 0.2 s to go before its next claim
    proc.kill()
    # the child inherited the probe's stdout, so its end of the pipe closes only
    # when the child is gone as well
    proc.communicate(timeout=10)
    late = [(int(pid), int(i)) for pid, i, t in started() if float(t) > killed_at]
    assert not late, f"items started after the caller was killed: {late}"


def test_a_long_sweep_matches_the_serial_rows(case_solutions, case_pairs, monkeypatch):
    # 300 one-step runs: more claim records than one byte can index
    sol, pair, cfg = case_solutions[KEY], case_pairs[KEY], bt.FlowConfig(t_end=1e-10)
    lams = np.linspace(0.5, 1.5, 300)
    rows = bt.lambda_sweep(sol, lams, cfg, pair)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert flow._sweep_workers(len(lams)) == 1
    assert rows == bt.lambda_sweep(sol, lams, cfg, pair)
    assert [r["lambda"] for r in rows] == [float(lam) for lam in lams]


def _row_from_evolve(sol, cfg, lam, pair):
    """A `lambda_sweep` row built by hand from the public `evolve`."""
    run_cfg = dataclasses.replace(cfg, t_end=10.0 / abs(pair.lam)) if lam == 1.0 else cfg
    v0 = bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    try:
        res = bt.evolve(v0, sol.params, run_cfg)
    except IntegratorFailure as exc:
        return {"lambda": lam, "status": "Failed", "message": str(exc)}
    return {
        "lambda": lam,
        "status": res.status,
        "T_estimate": res.T_estimate,
        "sup_final": float(np.max(np.abs(res.final.values))),
        "drift_rel": res.drift / max(res.sup0, 1e-300),
        "t_end": run_cfg.t_end,
    }


def test_lambda_sweep_rows_match_rows_built_from_evolve(case_solutions, case_pairs, overflowing_state):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg, lams = bt.FlowConfig(t_end=0.01), (0.5, 0.97, 1.0, 1.03)
    rows = bt.lambda_sweep(sol, lams, cfg, pair)
    assert rows == [_row_from_evolve(sol, cfg, lam, pair) for lam in lams]
    bad, bad_pair = overflowing_state
    cfg = bt.FlowConfig(t_end=1e-3)
    (failed,) = bt.lambda_sweep(bad, (2.0,), cfg, bad_pair)
    assert failed["status"] == "Failed"
    assert failed == _row_from_evolve(bad, cfg, 2.0, bad_pair)


def test_lambda_sweep_requires_the_eigenpair(case_solutions):
    # without the pair the lambda = 1 run would go on to cfg.t_end, where phi
    # itself blows up spuriously: the call is refused instead
    with pytest.raises(TypeError, match="pair"):
        bt.lambda_sweep(case_solutions[KEY], [1.0], bt.FlowConfig())


@pytest.mark.parametrize(
    "lams, cfg",
    [((1.0,), bt.FlowConfig()), ((0.5, 1.0), bt.FlowConfig(t_end=1e-3))],
    ids=["serial", "forked"],
)
def test_a_missing_eigenpair_at_lambda_one_is_named(lams, cfg, monkeypatch):
    # one process per lambda: the two-lambda sweep raises from the fan-out
    monkeypatch.setattr(flow, "_sweep_workers", lambda n_runs: n_runs)
    sol = bt.find_nodal_solution(bt.ProblemParams(3, 1, 0.1), M=256)
    with pytest.raises(ValueError, match=r"first eigenpair.*t_end = 10/\|lambda_1\|"):
        bt.lambda_sweep(sol, lams, cfg, None)


@pytest.mark.parametrize("lams", [(1.0,), (0.5, 1.0)], ids=["serial", "forked"])
def test_runs_from_phi_refuse_the_eigenpair_of_another_tower(case_solutions, case_pairs, lams, monkeypatch):
    # the (4,3,1e-4) pair on the (4,2,1e-3) tower: the lambda = 1 horizon read 10/|lambda_1| of the
    # foreign pair, and the run was called Stationary; every run is refused before it starts
    sol, pair = case_solutions[KEY], case_pairs[(4, 3, 1e-4)]
    monkeypatch.setattr(flow, "_sweep_workers", lambda n_runs: n_runs)

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(flow, "_evolve", no_run)
    mismatch = different_grids(pair.phi.grid, sol.field.grid)
    with pytest.raises(ValueError, match=mismatch):
        bt.lambda_sweep(sol, lams, bt.FlowConfig(t_end=1e-3), pair)
    with pytest.raises(ValueError, match=mismatch):
        bt.find_separation_time(sol, pair, lams[0] + 0.02, bt.FlowConfig(t_end=1e-3))


def test_lambda_sweep_never_evaluates_the_energy(case_solutions, case_pairs, monkeypatch):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg, lams = bt.FlowConfig(t_end=0.01), (0.5, 1.0, 1.03)
    rows = bt.lambda_sweep(sol, lams, cfg, pair)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])  # runs in this process

    def no_energy(*args):
        raise AssertionError("a sweep run evaluated the energy")

    monkeypatch.setattr(flow, "_energy_of", no_energy)
    assert flow._sweep_workers(len(lams)) == 1
    assert bt.lambda_sweep(sol, lams, cfg, pair) == rows
    assert_no_child_process()


@pytest.mark.parametrize("lam", [0.97, 1.03])
def test_a_run_without_the_energy_differs_only_in_the_energy_column(case_solutions, lam):
    # evolve's run is the one with the energy probe; without a probe the column is NaN
    sol = case_solutions[KEY]
    v0 = bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    cfg = bt.FlowConfig(t_end=0.01)
    got, want = flow._evolve(v0, sol.params, cfg, None), bt.evolve(v0, sol.params, cfg)
    assert np.isnan(got.series[:, 2]).all()
    got.series[:, 2] = want.series[:, 2]
    _assert_same_run(got, want)
    assert (got.sup0, got.message) == (want.sup0, want.message)


class _CountingProbe:
    """A probe that records the t it sees and puts its call count in column 3; it stops at call stop_at."""

    def __init__(self, stop_at=None):
        self.times, self.stop_at = [], stop_at

    def __call__(self, t, v):
        self.times.append(t)
        n = len(self.times)
        return float(n), (f"stopped at step {n}" if n == self.stop_at else None)


def _lam_phi(sol, lam):
    return bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)


@pytest.mark.parametrize("lam", [0.97, 1.03])
def test_a_probe_that_stops_the_run_ends_it_undetermined_with_its_reason(case_solutions, lam):
    sol, cfg = case_solutions[KEY], bt.FlowConfig(t_end=0.01)
    free = flow._evolve(_lam_phi(sol, lam), sol.params, cfg, None)
    probe = _CountingProbe(stop_at=37)
    res = flow._evolve(_lam_phi(sol, lam), sol.params, cfg, probe)
    assert (res.status, res.message) == ("Undetermined", "stopped at step 37")
    assert res.T_estimate is None and res.T_bracket is None
    assert res.series.shape == (37, 4)
    assert np.array_equal(res.series[:, 2], np.arange(1.0, 38.0))
    # the other columns are the first 37 rows of the run without a probe
    assert np.array_equal(res.series[:, [0, 1, 3]], free.series[:37, [0, 1, 3]])
    assert probe.times == list(res.series[:, 0])


@pytest.mark.parametrize("lam", [0.97, 1.03])
def test_a_probe_that_never_stops_changes_only_the_third_column(case_solutions, lam):
    sol, cfg = case_solutions[KEY], bt.FlowConfig(t_end=0.01)
    want = flow._evolve(_lam_phi(sol, lam), sol.params, cfg, None)
    got = flow._evolve(_lam_phi(sol, lam), sol.params, cfg, _CountingProbe())
    assert np.array_equal(got.series[:, 2], np.arange(1.0, got.series.shape[0] + 1.0))
    want.series[:, 2] = got.series[:, 2]  # NaN there, which no comparison equates
    _assert_same_run(got, want)
    assert (got.sup0, got.message) == (want.sup0, want.message)


def test_the_probe_sees_every_step_of_a_blowup_run_up_to_the_detecting_one(case_solutions):
    sol, cfg = case_solutions[KEY], bt.FlowConfig(t_end=0.01)
    probe = _CountingProbe()
    res = flow._evolve(_lam_phi(sol, 1.05), sol.params, cfg, probe)
    assert res.status == "BlowUp"
    assert probe.times == list(res.series[:, 0]) and probe.times[-1] == res.T_bracket[1]
    # it is called before the step's own checks, so a stop at the detecting step wins
    stopped = flow._evolve(_lam_phi(sol, 1.05), sol.params, cfg, _CountingProbe(stop_at=len(probe.times)))
    assert (stopped.status, stopped.message) == ("Undetermined", f"stopped at step {len(probe.times)}")
    assert np.array_equal(stopped.series, res.series)


def test_overflow_in_separation_search_raises(overflowing_state):
    sol, pair = overflowing_state
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.find_separation_time(sol, pair, 2.0, bt.FlowConfig(t_end=1e-3))


def test_overflow_in_linearized_flow_raises(overflowing_state):
    sol, pair = overflowing_state
    with pytest.raises(IntegratorFailure):
        bt.linearized_evolve(sol, pair, pair.phi)


def _tower_run(key, lam):
    """The IMEX-BE run from lam * phi on the (N, k, eps) tower, at the default FlowConfig."""
    sol = bt.find_nodal_solution(bt.ProblemParams(*key))
    return bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True), sol.params, bt.FlowConfig()


def _first_step_divergence():
    """v' = v^3 from 1000 blows up at T = 1000^-2 / 2 = 5e-7, inside the first step, dt = 0.6 / 1000^2."""
    g = bt.build_grid(0.5, 1.0, 16, N=4)
    cfg = bt.FlowConfig(integrator="reaction-only", safety=0.6)
    return bt.RadialField(g, np.full(g.nodes.size, 1000.0)), bt.ProblemParams(4, 1, 0.5), cfg


@pytest.mark.parametrize(
    "setup",
    [
        pytest.param(partial(_tower_run, key, lam), id="-".join(map(str, (*key, lam))))
        for key in ((3, 2, 1e-3), (4, 2, 1e-3), (5, 2, 1e-3), (6, 2, 1e-4), (8, 2, 1e-2))
        for lam in (1.05, 1.3)
    ]
    + [pytest.param(_first_step_divergence, id="reaction-map-diverges-on-the-first-step")],
)
def test_blowup_time_lies_in_the_bracket(setup):
    # the escape time never decreases along the run, and the detecting step is
    # taken at dt_min, so its escape time is at most dt_min / (safety (p - 1)) past it
    v0, params, cfg = setup()
    res = bt.evolve(v0, params, cfg)
    assert res.status == "BlowUp"
    lo, hi = res.T_bracket
    assert lo <= res.T_estimate <= hi + cfg.dt_min / (cfg.safety * (params.p - 1.0))


def test_a_crossing_without_time_step_collapse_is_undetermined():
    # 1.05 phi on (4, 2, 1e-2) crosses the threshold a few steps before its
    # step collapses; a horizon between the two ends the run undecided. For
    # N = 3 (p = 5) the crossing and the collapse fall on the same step.
    sol = bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-2), M=1024)
    v0 = bt.RadialField(sol.field.grid, 1.05 * sol.field.values, dirichlet=True)
    full = bt.evolve(v0, sol.params, bt.FlowConfig())
    assert full.status == "BlowUp"
    lo, hi = full.T_bracket
    assert lo < hi
    res = bt.evolve(v0, sol.params, bt.FlowConfig(t_end=0.5 * (lo + hi)))
    assert res.status == "Undetermined"
    assert res.message == "threshold crossed without time-step collapse"
    assert res.T_estimate is None


@pytest.mark.parametrize("key", [(4, 2, 1e-3), (3, 2, 1e-3)])
@pytest.mark.parametrize("lam", [1.05, 0.98])
def test_the_escape_time_never_decreases_along_a_run(case_solutions, key, lam):
    # backward-Euler diffusion does not raise the sup norm (D + dt K is an
    # M-matrix) and the explicit reaction lags the ODE v' = v^p
    sol = case_solutions[key]
    v0 = bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    res = bt.evolve(v0, sol.params, bt.FlowConfig())
    assert res.status == "BlowUp"
    p = sol.params.p
    escape = res.series[:, 0] + res.series[:, 1] ** (1.0 - p) / (p - 1.0)
    assert (np.diff(escape) >= 0.0).all()


def _assert_float64_table(series, shape):
    assert series.dtype == np.float64 and series.flags.c_contiguous
    assert series.shape == shape


def _count_steps(monkeypatch) -> list:
    """The times of the steps `_march` yields from now on, one entry per step."""
    times, march = [], flow._march

    def counted(*args):
        for out in march(*args):
            times.append(out[0])
            yield out

    monkeypatch.setattr(flow, "_march", counted)
    return times


@pytest.mark.parametrize(
    "lam, integrator, t_end",
    [
        (0.1, "imex-be", 5e-3),  # 500 steps at the fixed dt = dt_max
        (1.05, "imex-be", 0.01),  # ends on the step that detects the blow-up
        (1.05, "reaction-only", 0.01),  # ends on the last step before the map diverged
    ],
)
@pytest.mark.parametrize("energy", [True, False])
def test_a_run_series_is_a_c_contiguous_float64_table_of_its_steps(
    case_solutions, monkeypatch, lam, integrator, t_end, energy
):
    sol = case_solutions[KEY]
    v0 = bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    times = _count_steps(monkeypatch)
    probe = flow._energy_probe(v0.grid, sol.params.p) if energy else None
    res = flow._evolve(v0, sol.params, bt.FlowConfig(t_end=t_end, integrator=integrator), probe)
    _assert_float64_table(res.series, (len(times), 4))
    assert np.array_equal(res.series[:, 0], times)
    if lam == 0.1:
        assert len(times) == 500
    else:
        assert res.status == "BlowUp"


def test_the_other_recorders_return_c_contiguous_float64_tables_of_their_steps(
    case_solutions, case_pairs, monkeypatch
):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    times = _count_steps(monkeypatch)
    t_end, dt = 1.0 / abs(pair.lam), 0.002 / abs(pair.lam)
    lin = bt.linearized_evolve(sol, pair, pair.phi, t_end=t_end, dt=dt)
    _assert_float64_table(lin["series"], (len(times), 5))
    assert len(times) == math.ceil(t_end / dt)
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    times.clear()
    params, cfg = bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=5e-3, dt_max=1e-4)
    mon = bt.comparison_monitor(_bump(g, 0.8), _bump(g, 1.0), params, cfg)
    _assert_float64_table(mon["series"], (len(times), 2))


def _late_divergence():
    """v' = v^3 from 1 blows up at T = 1/2; at dt_max = 3e-3 the map diverges in the
    step from t = 0.498, at sup 15.8, short of the threshold 1e3."""
    g = bt.build_grid(0.5, 1.0, 16, N=4)
    cfg = bt.FlowConfig(integrator="reaction-only", safety=0.6, dt_max=3e-3)
    return bt.RadialField(g, np.ones(g.nodes.size)), bt.ProblemParams(4, 1, 0.5), cfg


@pytest.mark.parametrize("setup, rows", [(_first_step_divergence, 0), (_late_divergence, 166)])
def test_a_map_diverging_before_the_threshold_takes_t_estimate_from_the_last_row(setup, rows):
    v0, params, cfg = setup()
    res = bt.evolve(v0, params, cfg)
    assert res.status == "BlowUp" and res.message == "exact reaction map diverged within the step"
    _assert_float64_table(res.series, (rows, 4))
    # the escape time from (t, sup) of the last row, or (0, sup0) with none, as a Python float
    t, sup = res.series[-1, :2] if rows else (0.0, res.sup0)
    assert sup < bt.FlowConfig.blow_threshold * res.sup0
    assert type(res.T_estimate) is float
    assert res.T_estimate == t + sup ** (1.0 - params.p) / (params.p - 1.0)


def test_a_long_run_keeps_its_rows_in_under_80_bytes_each():
    # a row is four doubles appended to the run's array("d"); as a tuple of
    # four floats in a list it took 210-222 traced bytes
    sol = bt.find_nodal_solution(bt.ProblemParams(3, 1, 0.1), M=256)
    v0 = bt.RadialField(sol.field.grid, 0.1 * sol.field.values, dirichlet=True)
    tracemalloc.start()
    try:
        res = bt.evolve(v0, sol.params, bt.FlowConfig(t_end=0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.series.shape == (20_000, 4)
    assert peak / 20_000 < 80, f"tracemalloc peak {peak / 20_000:.1f} B per row"


def _assert_same_run(got, want):
    assert got.status == want.status
    assert np.array_equal(got.series, want.series)
    assert np.array_equal(got.final.values, want.final.values)
    assert got.drift == want.drift
    assert got.T_estimate == want.T_estimate
    assert got.T_bracket == want.T_bracket


@pytest.mark.parametrize(
    "lam, integrator, t_end",
    [
        (0.1, "imex-be", 5e-3),  # 500 steps at the fixed dt = dt_max
        (1.05, "imex-be", 0.01),  # adaptive dt down to dt_min and blow-up detection
    ],
)
def test_evolve_is_bit_identical_to_the_allocating_reference(case_solutions, lam, integrator, t_end):
    sol = case_solutions[KEY]
    v0 = bt.RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    cfg = bt.FlowConfig(t_end=t_end, integrator=integrator)
    got = bt.evolve(v0, sol.params, cfg)
    assert got.series.shape[0] >= 100
    _assert_same_run(got, reference_evolve(v0, sol.params, cfg))


def test_reaction_only_evolve_is_bit_identical_to_the_allocating_reference():
    g = bt.build_grid(0.5, 1.0, 16, N=3)
    v0 = bt.RadialField(g, np.ones(g.nodes.size))
    params, cfg = bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(integrator="reaction-only", t_end=0.5, dt_max=1e-4)
    got = bt.evolve(v0, params, cfg)
    assert got.message == "exact reaction map diverged within the step"
    _assert_same_run(got, reference_evolve(v0, params, cfg))


# N = 3, 4, 5, 6, 8 give p - 1 = 4, 2, 4/3, 1, 2/3 and (p + 1)/2 = 3, 2, 5/3, 3/2, 4/3:
# every exponent path of numpy's power, including the square and copy shortcuts
DIMENSIONS = (3, 4, 5, 6, 8)


@pytest.mark.parametrize("integrator", flow._INTEGRATORS)
@pytest.mark.parametrize("N", DIMENSIONS)
def test_bump_evolve_is_bit_identical_to_the_allocating_reference(N, integrator):
    g = bt.build_grid(0.5, 1.0, 256, N=N)
    params, cfg = bt.ProblemParams(N, 1, 0.5), bt.FlowConfig(t_end=0.05, dt_max=1e-4, integrator=integrator)
    got = bt.evolve(_bump(g, 3.0), params, cfg)
    _assert_same_run(got, reference_evolve(_bump(g, 3.0), params, cfg))


def test_energy_is_bit_identical_to_the_reference(case_solutions):
    fields = [(sol.field, sol.params) for sol in case_solutions.values()]
    sol = case_solutions[KEY]
    fields.append((bt.RadialField(sol.field.grid, 0.1 * sol.field.values), sol.params))
    for N in DIMENSIONS:
        fields.append((_bump(bt.build_grid(0.5, 1.0, 256, N=N), 3.0), bt.ProblemParams(N, 1, 0.5)))
    for u, params in fields:
        assert bt.energy(u, params) == reference_energy(u, params)


def test_linearized_series_is_bit_identical_to_the_reference(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    t_end, dt = 1.0 / abs(pair.lam), 0.002 / abs(pair.lam)
    for z0 in (pair.phi, sol.field):
        got = bt.linearized_evolve(sol, pair, z0, t_end=t_end, dt=dt)["series"]
        assert np.array_equal(got, reference_linearized_series(sol, pair, z0, t_end, dt))


@pytest.mark.parametrize("integrator", flow._INTEGRATORS)
def test_steps_return_fresh_arrays(integrator):
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    v = _bump(g, 1.5).values
    stepper = _Stepper(g, params)
    if integrator == "reaction-only":
        step, reference = partial(flow._reaction_map, p=params.p), partial(reference_reaction_map, p=params.p)
    else:
        step, reference = stepper.step, ReferenceStepper(g, params).step
    with np.errstate(invalid="ignore"):  # as in the flow loops: reaction-only forms 0 * inf at the endpoints
        a = step(v, 1e-3)
        b = step(a, 1e-3)
    assert not np.shares_memory(a, b)
    assert not np.shares_memory(a, v) and not np.shares_memory(b, v)
    # the second step left the first result alone
    assert np.array_equal(a, reference(v, 1e-3))
    gain = 1.0 + 1e-3 * np.ones(g.M - 1)
    za = stepper.linear_step(v, 1e-3, gain)
    zb = stepper.linear_step(za, 1e-3, gain)
    assert not np.shares_memory(za, zb) and not np.shares_memory(za, v)
    assert np.array_equal(za, ReferenceStepper(g, params).linear_step(v, 1e-3, gain))


def test_linear_step_follows_a_new_dt_or_potential():
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    z = _bump(g).values
    shared, ref = _Stepper(g, params), ReferenceStepper(g, params)
    for dt, V in ((1e-3, np.ones(g.M - 1)), (3e-5, np.ones(g.M - 1)), (3e-5, np.full(g.M - 1, 2.0))):
        gain = 1.0 + dt * V
        assert np.array_equal(shared.linear_step(z, dt, gain), ref.linear_step(z, dt, gain))


def test_lockstep_callers_match_the_allocating_stepper(monkeypatch):
    g = bt.build_grid(0.5, 1.0, 128, N=3)
    params, cfg = bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=5e-3, dt_max=1e-4)
    got = bt.comparison_monitor(_bump(g, 0.8), _bump(g, 1.0), params, cfg)
    monkeypatch.setattr(flow, "_Stepper", ReferenceStepper)
    want = bt.comparison_monitor(_bump(g, 0.8), _bump(g, 1.0), params, cfg)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(np.asarray(got[key]), np.asarray(want[key])), key


@pytest.mark.parametrize("case", ("horizon", "blow-up", "failure"))
def test_evolve_leaves_the_error_state_as_it_found_it(case):
    # "blow-up" breaks out of the loop and leaves the marching generator suspended;
    # the state is set here so that a leak from an earlier test cannot hide one
    with np.errstate(over="warn", invalid="warn", divide="warn", under="ignore"):
        before = np.geterr()
        if case == "failure":
            g = bt.build_grid(0.5, 1.0, 256, N=4)
            with pytest.raises(IntegratorFailure, match="overflow"):
                bt.evolve(_bump(g, 1e110), bt.ProblemParams(4, 1, 0.5), bt.FlowConfig(t_end=1e-3))
        else:
            g = bt.build_grid(0.5, 1.0, 256, N=3)
            amp = 3.0 if case == "blow-up" else 0.5
            res = bt.evolve(_bump(g, amp), bt.ProblemParams(3, 1, 0.5), bt.FlowConfig(t_end=0.05, dt_max=1e-4))
            assert res.status == ("BlowUp" if case == "blow-up" else "GlobalBounded")
        assert np.geterr() == before
