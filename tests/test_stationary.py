import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import ellipkm1

import bubbletower as bt
from bubbletower import stationary
from bubbletower.errors import SolverError
from bubbletower.mesh import apply_radial_laplacian
from bubbletower.stationary import _interior_zeros, _lobe_clock, _lobe_time, _time_map_slope

from conftest import CASES
from oracles import oracle_slope
from test_refusals import add_refusal_tests

# converged shooting slopes, frozen from a slope scan + Brent on the terminal
# value of a DOP853 shot at rtol 1e-10 (the time map reproduces them to about
# 3e-11)
FROZEN_SLOPES = {
    (3, 2, 1e-3): 2.4268142479e4,
    (4, 2, 1e-3): 9.6575040361e5,
    (4, 3, 1e-4): 1.2094942113e8,
}


def _shoot_grid(params, M=1024):
    return bt.build_grid(params.eps, 1.0, M, "log", params.N)


def test_shoot_zero_slope_is_trivial():
    # 5e-324 is a nonzero slope whose launch speed s eps^{N/2} underflows to 0
    params = bt.ProblemParams(3, 2, 1e-2)
    for s in (0.0, 5e-324):
        orbit = bt.shoot(params, s, _shoot_grid(params))
        assert orbit.dirichlet
        assert np.all(orbit.values == 0.0)


def test_shoot_odd_symmetry():
    params = bt.ProblemParams(3, 2, 1e-2)
    grid = _shoot_grid(params)
    a = bt.shoot(params, 5.0, grid)
    b = bt.shoot(params, -5.0, grid)
    assert np.max(np.abs(a.values)) > 0
    assert np.array_equal(b.values, -a.values)


def _whole_interval_orbit(params, s, nodes):
    """u and w' at nodes from one solve_ivp across all of [log eps, 0], with no fold."""
    p, beta = params.p, params.beta
    a = s * params.eps ** (beta + 1.0)
    sol = solve_ivp(
        lambda t, y: (y[1], beta * beta * y[0] - abs(y[0]) ** (p - 1.0) * y[0]),
        (math.log(params.eps), 0.0), (0.0, a), method="DOP853", rtol=1e-12, atol=1e-14 * a,
        dense_output=True,
    )
    w, dw = sol.sol(np.log(nodes))
    return nodes ** (-beta) * w, dw


@pytest.mark.parametrize("key, slope", [((4, 3, 1e-4), None), ((5, 4, 1e-4), None), ((3, 1, 0.1), 1.0)])
def test_shoot_matches_a_whole_interval_integration(key, slope):
    # the unfolded half lobe against a shot over the whole interval at a
    # tighter tolerance; slope None is the tower's own s*, and slope 1 on
    # (3, 1, 0.1) turns past r = 1, so that shot is read without a fold
    params = bt.ProblemParams(*key)
    s = _time_map_slope(params) if slope is None else slope
    grid = bt.build_grid(params.eps, 1.0, 4096, "log", params.N)
    u, dw = _whole_interval_orbit(params, s, grid.nodes)
    if slope is not None:
        assert np.all(dw > 0.0)
    sup = float(np.max(np.abs(u)))
    got = bt.shoot(params, s, grid).values
    assert float(np.max(np.abs(got[1:-1] - u[1:-1]))) <= 1e-8 * sup


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_shot_ends_at_the_first_turn(monkeypatch, k):
    # each lobe of the k-lobe orbit lasts log(1/eps)/k, so the shot at s*
    # folds its nodes at half of that: the clock table the shot reads must be
    # the time map's own
    params = bt.ProblemParams(4, k, 1e-4)
    s_star = _time_map_slope(params)
    half_lobes = []

    def recording(params, log_y):
        table = _lobe_clock(params, log_y)
        half_lobes.append(table[2][-1] / params.beta)
        return table

    # shoot reads _lobe_clock from the module at each call, so it reads the patched attribute
    monkeypatch.setattr(stationary, "_lobe_clock", recording)
    bt.shoot(params, s_star, _shoot_grid(params))
    assert len(half_lobes) == 1
    assert abs(half_lobes[0] + math.log(params.eps) / (2 * k)) <= 1e-9


def test_zero_count_transitions_with_slope():
    # N=3, eps=0.1: small slopes die back without crossing, larger ones oscillate
    params = bt.ProblemParams(3, 1, 0.1)
    grid = _shoot_grid(params)
    counts = {_interior_zeros(bt.shoot(params, s, grid)).size for s in np.geomspace(0.01, 1e4, 60)}
    assert 0 in counts
    assert any(c >= 1 for c in counts)


def test_single_lobe_slope_against_independent_integrator():
    params = bt.ProblemParams(3, 1, 0.1)
    sol = bt.find_nodal_solution(params, M=1024)
    oracle = oracle_slope(3, 1, 0.1, sol.shooting_slope)
    assert oracle["zeros"] == 0
    assert abs(sol.shooting_slope - oracle["slope"]) <= 1e-6 * oracle["slope"]


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_nodal_solutions_converged(case_solutions, key):
    N, k, eps = key
    sol = case_solutions[key]
    assert sol.nodal_radii.size == k - 1
    assert np.all((sol.nodal_radii > eps) & (sol.nodal_radii < 1.0))
    assert sol.residual_norm <= 1e-8
    assert sol.field.values[0] == 0.0 and sol.field.values[-1] == 0.0
    # orientation: innermost lobe positive
    assert sol.field.values[1] > 0 or sol.field.values[2] > 0
    rel = abs(sol.shooting_slope - FROZEN_SLOPES[key]) / FROZEN_SLOPES[key]
    assert rel <= 1e-6


def test_newton_stage_small_shift(case_solutions):
    sol = case_solutions[(4, 2, 1e-3)]
    sup = float(np.max(np.abs(sol.field.values)))
    assert sol.newton_shift <= 1e-5 * sup
    hist = sol.residual_history
    assert hist[-1] <= hist[0]
    assert hist[-1] <= 1e-8


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_residual_history_ends_at_the_residual_norm(case_solutions, key):
    # the history and residual_norm are divided by one scale, the returned field's
    sol = case_solutions[key]
    assert sol.residual_history[-1] == sol.residual_norm


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_concentration_scales_match_leading_order(case_solutions, key):
    N, k, eps = key
    sol = case_solutions[key]
    assert sol.deltas_measured.size == k
    for i, d in enumerate(sol.deltas_measured, start=1):
        d_hat = d / eps ** ((2 * i - 1) / (2 * k))
        assert abs(d_hat - 1.0) <= 5e-3, f"scale {i}: d_hat={d_hat}"


def test_scaling_law_two_lobes(sweep_solutions, monkeypatch):
    # the fit reads the towers it is given and solves none itself
    def no_solve(*args, **kwargs):
        raise AssertionError("verify_scaling_law solved a tower")

    monkeypatch.setattr(stationary, "find_nodal_solution", no_solve)
    out = bt.verify_scaling_law(sweep_solutions)
    assert abs(out["exponents"][1] - 0.25) <= 0.1
    assert abs(out["exponents"][2] - 0.75) <= 0.1
    assert out["expected"] == {1: 0.25, 2: 0.75}
    assert set(out["deltas"]) == set(sweep_solutions)


def test_scaling_law_single_lobe():
    eps_list = (0.2, 0.05, 0.01)
    sols = {e: bt.find_nodal_solution(bt.ProblemParams(3, 1, e), M=1024) for e in eps_list}
    out = bt.verify_scaling_law(sols)
    assert abs(out["exponents"][1] - 0.5) <= 0.1


@pytest.mark.filterwarnings("error")
def test_the_shot_takes_no_power_of_a_negative_rounded_sine():
    # the shot's Newton steps evaluated the clock's rate at tau = -6e-17, where sin(theta) = -3e-15
    # and, for N = 8, sin^(2/3) of it was NaN
    sol = bt.find_nodal_solution(bt.ProblemParams(8, 5, 0.9), M=256)
    assert sol.residual_norm <= 1e-8


@pytest.mark.parametrize("N", [4, 6])
def test_concentrated_one_lobe_towers_clear_the_collapse_bound(N):
    # weighted L2 norms below the former fixed floor 1e-3, with sup|u|^{p-1} at 8e9 and 2.4e10
    # times the bound pi^2/(1 - eps)^2
    params = bt.ProblemParams(N, 1, 1e-10)
    sol = bt.find_nodal_solution(params, residual_tol=1.0)
    assert sol.nodal_radii.size == 0
    assert abs(sol.deltas_measured[0] - 1e-5) <= 1e-2 * 1e-5
    assert float(np.max(np.abs(sol.field.values))) ** (params.p - 1.0) >= 1e9 * (math.pi / (1.0 - 1e-10)) ** 2


def test_a_sign_change_through_an_exact_zero_is_counted():
    # one crossing at r = 0.75, whose node is set to exactly 0 between a + and a - node
    g = bt.build_grid(0.5, 1.0, 16, "uniform", 4)
    vals = np.sin(np.pi * (g.nodes - 0.5) / 0.25)
    vals[8] = 0.0
    assert g.nodes[8] == 0.75 and vals[7] > 0.0 > vals[9]
    assert _interior_zeros(bt.RadialField(g, vals)).tolist() == [0.75]
    # a node that touches zero without a sign change is no crossing
    assert _interior_zeros(bt.RadialField(g, vals * vals)).tolist() == []


def test_params_take_numpy_integers():
    # N and k must be integers (rows of test_refusals.py); numpy's integers index, so they are
    assert bt.ProblemParams(np.int64(4), np.int32(2), 1e-3).p == 3.0


def test_newton_polish_stops_at_a_zero_residual():
    # the zero field solves the discrete problem exactly: no step can cut a residual of 0
    params = bt.ProblemParams(3, 2, 1e-2)
    zero = bt.RadialField(bt.build_grid(1e-2, 1.0, 256, "log", 3), np.zeros(257), dirichlet=True)
    u, hist = stationary._newton_refine(zero, params)
    assert hist == [0.0]
    assert not np.any(u.values)


def _log_launch_slope(params, log_y):
    """log a of the lobe with w_max^{p-1} = m0 (1 + y), from a^2 = (beta w_max)^2 y."""
    p, beta = params.p, params.beta
    m0 = beta * beta * (p + 1.0) / 2.0
    return np.log(beta) + 0.5 * log_y + (np.log(m0) + np.log1p(np.exp(log_y))) / (p - 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", (3, 4, 5, 6, 8))
def test_lobe_time_strictly_decreasing_in_the_slope(N):
    # a grows strictly with y, so T(a) falls strictly iff T falls along the
    # log y grid; [-80, 24] holds every root of the matrix test ([-36, 3])
    params = bt.ProblemParams(N)
    log_y = np.linspace(-80.0, 24.0, 300)
    T = np.array([_lobe_time(params, ly) for ly in log_y])
    assert np.all(np.diff(_log_launch_slope(params, log_y)) > 0)
    assert np.all(np.diff(T) < 0)
    assert np.all(np.isfinite(T)) and T[-1] > 0


def test_lobe_time_matches_the_closed_form_for_n4():
    # for N = 4 (p = 3, beta = 1) the lobe is an elliptic orbit: with
    # s = sqrt(1 + 2 a^2), T = (2 / sqrt(s)) K(m), 1 - m = a^2 / (s (1 + s))
    params = bt.ProblemParams(4)
    log_y = np.linspace(-70.0, 60.0, 261)
    a = np.exp(_log_launch_slope(params, log_y))
    s = np.sqrt(1.0 + 2.0 * a * a)
    exact = 2.0 / np.sqrt(s) * ellipkm1(a * a / (s * (1.0 + s)))
    T = np.array([_lobe_time(params, ly) for ly in log_y])
    assert np.max(np.abs(T - exact) / exact) <= 1e-14


@pytest.mark.parametrize("N", (3, 8))
@pytest.mark.parametrize("log_y", (-10.0, 0.0, 5.0))
def test_lobe_time_is_the_first_return_time_of_the_oscillator(N, log_y):
    # integrate w'' = beta^2 w - |w|^{p-1} w from (0, a) to its next zero;
    # smaller y hugs the separatrix, where the integrator loses accuracy
    params = bt.ProblemParams(N)
    p, beta = params.p, params.beta
    a = math.exp(_log_launch_slope(params, log_y))

    def back_at_zero(t, y):
        return y[0]

    back_at_zero.terminal, back_at_zero.direction = True, -1
    sol = solve_ivp(
        lambda t, y: (y[1], beta * beta * y[0] - abs(y[0]) ** (p - 1.0) * y[0]),
        (0.0, 1e3), (0.0, a), method="DOP853", rtol=1e-12, atol=1e-14 * a, events=back_at_zero,
    )
    (t_return,) = sol.t_events[0]
    assert abs(t_return - _lobe_time(params, log_y)) <= 1e-8 * t_return


def _cells_off(measured, law, nodes):
    """Distance of each measured radius from its law, in widths of the cell holding the law."""
    j = np.clip(np.searchsorted(nodes, law) - 1, 0, nodes.size - 2)
    return np.abs(np.asarray(measured) - law) / (nodes[j + 1] - nodes[j])


# the k = 1 configurations whose Newton polish stalls above residual_tol
KNOWN_STALLS = {(N, 1, eps) for N in (3, 4, 5) for eps in (1e-4, 1e-6)} | {(6, 1, 1e-6), (8, 1, 1e-6)}


@pytest.mark.filterwarnings("error")
def test_robustness_matrix_solves_or_names_the_cause():
    failures = {}
    for N in (3, 4, 5, 6, 8):
        for k in (1, 2, 3, 4):
            for eps in (1e-2, 1e-4, 1e-6):
                try:
                    sol = bt.find_nodal_solution(bt.ProblemParams(N, k, eps), M=4096)
                except SolverError as exc:
                    failures[(N, k, eps)] = str(exc)
                    continue
                nodes = sol.field.grid.nodes
                radii = eps ** (1.0 - np.arange(1, k) / k)
                scales = eps ** ((2.0 * np.arange(1, k + 1) - 1.0) / (2 * k))
                assert sol.nodal_radii.size == k - 1 and sol.deltas_measured.size == k
                assert np.all(_cells_off(sol.nodal_radii, radii, nodes) <= 1.0), (N, k, eps)
                assert np.all(_cells_off(sol.deltas_measured, scales, nodes) <= 1.0), (N, k, eps)
                # the polish stops where no damped step helps, so it makes no rounding moves
                assert sol.newton_iterations <= 3, (N, k, eps, sol.residual_history)
    assert set(failures) <= KNOWN_STALLS, failures
    for msg in failures.values():
        assert msg.startswith("Newton refinement stalled at scaled residual"), msg


def test_the_ball_residual_keeps_its_regularity_row():
    # r = 0 is an unknown of a ball grid; its residual read 0.0 where the row gives -0.0345
    g = bt.build_grid(0.0, 20.0, 512, "uniform", 4)
    U = bt.RadialField(g, bt.bubble_eval(bt.Bubble(1.0, 4), g.nodes))
    params = bt.ProblemParams(4)
    want = -apply_radial_laplacian(U).values - params.reaction(U.values)
    res = bt.stationary_residual(U, params).values
    assert res[0] == want[0] and res[0] < -0.03
    assert res[-1] == 0.0 and np.array_equal(res[:-1], want[:-1])


def test_residual_field_vanishes_at_solution(case_solutions):
    sol = case_solutions[(3, 2, 1e-3)]
    res = bt.stationary_residual(sol.field, sol.params)
    scale = float(np.max(np.abs(sol.params.reaction(sol.field.values))))
    assert float(np.max(np.abs(res.values))) <= 1e-8 * scale


add_refusal_tests(globals())
