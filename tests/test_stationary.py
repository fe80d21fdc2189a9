import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import bubbletower as bt
from bubbletower.errors import SolverError
from bubbletower.stationary import _lobe_time

from conftest import CASES
from oracles import oracle_slope

# converged shooting slopes, frozen from a slope scan + Brent on the terminal
# value at ivp_rtol=1e-10 (the time map reproduces them to about 3e-11)
FROZEN_SLOPES = {
    (3, 2, 1e-3): 2.4268142479e4,
    (4, 2, 1e-3): 9.6575040361e5,
    (4, 3, 1e-4): 1.2094942113e8,
}


def test_shoot_zero_slope_is_trivial():
    params = bt.ProblemParams(3, 2, 1e-2)
    res = bt.shoot(params, 0.0)
    assert res.zero_count == 0
    assert res.terminal_value == 0.0


def test_shoot_odd_symmetry():
    params = bt.ProblemParams(3, 2, 1e-2)
    a = bt.shoot(params, 5.0)
    b = bt.shoot(params, -5.0)
    assert a.zero_count == b.zero_count
    assert abs(a.terminal_value + b.terminal_value) <= 1e-13 * abs(a.terminal_value)


def test_shoot_rejects_nonfinite_slope():
    with pytest.raises(ValueError):
        bt.shoot(bt.ProblemParams(3, 2, 1e-2), float("nan"))


def test_zero_count_transitions_with_slope():
    # N=3, eps=0.1: small slopes die back without crossing, larger ones oscillate
    params = bt.ProblemParams(3, 1, 0.1)
    counts = {bt.shoot(params, s).zero_count for s in np.geomspace(0.01, 1e4, 60)}
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
def test_concentration_scales_match_leading_order(case_solutions, key):
    N, k, eps = key
    sol = case_solutions[key]
    assert sol.deltas_measured.size == k
    for i, d in enumerate(sol.deltas_measured, start=1):
        d_hat = d / eps ** ((2 * i - 1) / (2 * k))
        assert abs(d_hat - 1.0) <= 5e-3, f"scale {i}: d_hat={d_hat}"


def test_scaling_law_two_lobes(sweep_solutions):
    out = bt.verify_scaling_law(4, 2, list(sweep_solutions), solutions=sweep_solutions)
    assert abs(out["exponents"][1] - 0.25) <= 0.1
    assert abs(out["exponents"][2] - 0.75) <= 0.1
    assert out["expected"] == {1: 0.25, 2: 0.75}
    assert not out["failures"]


def test_scaling_law_single_lobe():
    eps_list = (0.2, 0.05, 0.01)
    sols = {e: bt.find_nodal_solution(bt.ProblemParams(3, 1, e), M=1024) for e in eps_list}
    out = bt.verify_scaling_law(3, 1, eps_list, M=1024, solutions=sols)
    assert abs(out["exponents"][1] - 0.5) <= 0.1


def test_scaling_law_input_validation():
    with pytest.raises(ValueError):
        bt.verify_scaling_law(4, 2, (1e-2, 1e-3))
    with pytest.raises(ValueError):
        bt.verify_scaling_law(4, 2, (1e-2, 9e-3, 8e-3))


def test_unconverged_solve_raises_naming_its_cause():
    # a residual gate below the rounding floor cannot be met: the solve
    # reports the stall and its residual instead of returning a field
    with pytest.raises(SolverError, match="Newton refinement stalled at scaled residual"):
        bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-3), M=1024, residual_tol=1e-30)


@pytest.mark.parametrize(
    "N, k, eps, cause",
    [(40, 1, 1e-20, "no root of k T"), (40, 4, 1e-20, "shooting slope overflows")],
)
def test_time_map_out_of_range_raises_naming_the_case(N, k, eps, cause):
    # root past |log y| = 512, and a root whose slope a eps^{-N/2} overflows
    with pytest.raises(SolverError, match=cause) as err:
        bt.find_nodal_solution(bt.ProblemParams(N, k, eps), M=64)
    assert f"(N, k, eps) = ({N}, {k}, {eps:g})" in str(err.value)


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
    assert all(k == 1 for (_, k, _) in failures), failures
    for msg in failures.values():
        assert msg.startswith("Newton refinement stalled at scaled residual"), msg


def test_residual_field_vanishes_at_solution(case_solutions):
    sol = case_solutions[(3, 2, 1e-3)]
    res = bt.stationary_residual(sol.field, sol.params)
    scale = float(np.max(np.abs(sol.params.reaction(sol.field.values))))
    assert float(np.max(np.abs(res.values))) <= 1e-8 * scale
