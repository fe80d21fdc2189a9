import numpy as np
import pytest

import bubbletower as bt
from bubbletower.errors import IntegratorFailure
from bubbletower.flow import _Stepper

KEY = (4, 2, 1e-3)


def _bump(g, amp=1.0):
    vals = amp * np.sin(np.pi * (g.nodes - g.inner) / (g.outer - g.inner))
    vals[0] = vals[-1] = 0.0
    return bt.RadialField(g, vals, dirichlet=True)


def test_flow_config_validation():
    with pytest.raises(ValueError):
        bt.FlowConfig(dt_max=1e-12, dt_min=1e-5)
    with pytest.raises(ValueError):
        bt.FlowConfig(blow_threshold=50.0)
    with pytest.raises(ValueError):
        bt.FlowConfig(integrator="rk4")
    with pytest.raises(ValueError):
        bt.FlowConfig(t_end=0.0)


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


def test_stationary_hold_imex_cn(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg = bt.FlowConfig(t_end=10.0 / abs(pair.lam), integrator="imex-cn")
    res = bt.evolve(sol.field, sol.params, cfg)
    assert res.status == "Stationary"


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


def test_linearized_rejects_zero_data(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    g = sol.field.grid
    z0 = bt.RadialField(g, np.zeros(g.nodes.size), dirichlet=True)
    with pytest.raises(ValueError):
        bt.linearized_evolve(sol, pair, z0)


def test_linear_nonlinear_consistency(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.linear_nonlinear_consistency(sol, pair, lam=1.001)
    assert out["max_rel_err"] <= 5e-2
    assert out["t_final"] > 0
    with pytest.raises(ValueError):
        bt.linear_nonlinear_consistency(sol, pair, lam=1.0)


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


@pytest.mark.parametrize("integrator", ("imex-be", "imex-cn"))
def test_stepper_matches_dense_solve(integrator):
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    p, dt = params.p, 1e-3
    v = _bump(g, 1.5).values
    w = v[1:-1]
    A = _interior_laplacian(g)
    I = np.eye(w.size)
    react = np.abs(w) ** (p - 1.0) * w
    if integrator == "imex-be":
        want = np.linalg.solve(I - dt * A, w + dt * react)
    else:
        want = np.linalg.solve(I - 0.5 * dt * A, w + 0.5 * dt * (A @ w) + dt * react)
    got = _Stepper(g, params, integrator).step(v, dt)
    assert got[0] == 0.0 and got[-1] == 0.0
    assert np.max(np.abs(got[1:-1] - want)) <= 1e-12 * np.max(np.abs(want))


def test_stepper_refactors_when_dt_changes():
    # a stale factor from an earlier dt would show as a mismatch at the last step
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    params = bt.ProblemParams(3, 1, 0.1)
    v = _bump(g, 1.5).values
    shared = _Stepper(g, params, "imex-be")
    for dt in (1e-3, 3e-5, 1e-3):
        got = shared.step(v, dt)
        assert np.array_equal(got, _Stepper(g, params, "imex-be").step(v, dt))
    assert not np.array_equal(shared.step(v, 3e-5), shared.step(v, 1e-3))


def test_stepper_indefinite_matrix_raises_with_info():
    # a negative step makes D + dt K indefinite, which dpttrf reports
    g = bt.build_grid(0.1, 1.0, 64, N=3)
    stepper = _Stepper(g, bt.ProblemParams(3, 1, 0.1), "imex-be")
    with pytest.raises(IntegratorFailure) as err:
        stepper.step(_bump(g).values, -1.0)
    info = err.value.diagnostics["info"]
    assert info > 0
    assert f"info={info}" in str(err.value)


def test_overflowing_reaction_raises_integrator_failure():
    g = bt.build_grid(0.5, 1.0, 256, N=4)
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.evolve(_bump(g, 1e110), bt.ProblemParams(4, 1, 0.5), bt.FlowConfig(t_end=1e-3))


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
    sol, _ = overflowing_state
    (row,) = bt.lambda_sweep(sol, (2.0,), bt.FlowConfig(t_end=1e-3))
    assert row["status"] == "Failed"
    assert "overflow" in row["message"]


def test_overflow_in_separation_search_raises(overflowing_state):
    sol, pair = overflowing_state
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.find_separation_time(sol, pair, 2.0, bt.FlowConfig(t_end=1e-3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_in_linearized_flow_raises(overflowing_state):
    sol, pair = overflowing_state
    with pytest.raises(IntegratorFailure):
        bt.linearized_evolve(sol, pair, pair.phi)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_in_linear_nonlinear_consistency_raises(overflowing_state):
    sol, pair = overflowing_state
    with pytest.raises(IntegratorFailure, match="overflow"):
        bt.linear_nonlinear_consistency(sol, pair, lam=1.001)


def test_blowup_time_for_p5_clamped_jump(case_solutions):
    # N = 3 (p = 5): at dt_min one clamped step jumps from below a decade of
    # the threshold straight past it, so the fit window must reach further down
    sol = case_solutions[(3, 2, 1e-3)]
    v0 = bt.RadialField(sol.field.grid, 1.05 * sol.field.values, dirichlet=True)
    cfg = bt.FlowConfig()
    res = bt.evolve(v0, sol.params, cfg)
    assert res.status == "BlowUp"
    assert res.T_estimate is not None and np.isfinite(res.T_estimate)
    lo, hi = res.T_bracket
    assert lo - 10 * cfg.dt_min <= res.T_estimate <= hi + 10 * cfg.dt_min
