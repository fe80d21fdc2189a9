"""Acceptance gate: one test per advertised guarantee, at the stated tolerances.

Each test prints a single "criterion NN" line with the measured numbers, so a
verbose run reads as a checklist. Two criteria (06a, 10a) state properties the
implementation measurably does not have on the tested configurations; those
tests run the full measurement and then fail with the numbers and a pointer to
the analysis in docs/decisions.md. They are deliberate reds, not bugs to
silence.
"""
import math

import numpy as np
import pytest

import bubbletower as bt
from bubbletower.mesh import apply_radial_laplacian
from bubbletower.params import critical_exponent

from conftest import CASES, SWEEP_EPS
from oracles import oracle_slope

KEY = (4, 2, 1e-3)


def test_criterion_01_bubble_residual_second_order():
    # closed-form bubble plugged into the discrete operator: residual drops
    # below 1e-5 of the reaction scale at M=4096 and shrinks ~4x per refinement
    worst = 0.0
    ratios = []
    for N in (3, 4, 5, 6):
        p = critical_exponent(N)
        for delta in (0.01, 0.1, 1.0):
            inner = 0.1 if delta == 1.0 else 1e-3  # keep the core resolved
            res = {}
            for M in (2048, 4096):
                g = bt.build_grid(inner, 1.0, M, N=N)
                U = bt.bubble_eval(bt.Bubble(delta, N), g.nodes)
                lap = apply_radial_laplacian(bt.RadialField(g, U))
                r = lap.values[1:-1] + U[1:-1] ** p
                res[M] = float(np.max(np.abs(r))) / float(np.max(U**p))
            assert res[4096] <= 1e-5, f"N={N} delta={delta}: residual {res[4096]:.3e}"
            ratio = res[2048] / res[4096]
            assert 2.8 <= ratio <= 4.5, f"N={N} delta={delta}: refinement ratio {ratio:.3f}"
            worst = max(worst, res[4096])
            ratios.append(ratio)
    print(
        f"criterion 01: PASS  worst scaled residual {worst:.3e} <= 1e-5 at M=4096, "
        f"refinement ratios in [{min(ratios):.3f}, {max(ratios):.3f}]"
    )


def test_criterion_02_flat_potential_calibration():
    g = bt.build_grid(0.5, 1.0, 4096, N=3)
    zero = bt.RadialField(g, np.zeros(g.nodes.size))
    lam0 = bt.first_eigenpair(bt.assemble_operator(g, zero)).lam
    rel = abs(lam0 - 4.0 * np.pi**2) / (4.0 * np.pi**2)
    assert rel <= 1e-6, f"zero-potential bottom eigenvalue off by {rel:.3e}"
    c = 7.25  # exactly representable, so the shifted matrix is entrywise exact
    shifted = bt.RadialField(g, np.full(g.nodes.size, c))
    lamc = bt.first_eigenpair(bt.assemble_operator(g, shifted)).lam
    shift_rel = abs(lamc - (lam0 - c)) / abs(lam0)
    assert shift_rel <= 1e-10, f"constant-shift identity off by {shift_rel:.3e}"
    print(f"criterion 02: PASS  |lam1 - 4pi^2|/4pi^2 = {rel:.3e}, shift residual {shift_rel:.3e}")


def test_criterion_03_profiles_match_independent_integrator(case_solutions):
    # nodal counts, scaled residuals, and the shooting slope cross-checked
    # against a fixed-step RK4 integrator written independently in r
    lines = []
    for N, k, eps in CASES:
        sol = case_solutions[(N, k, eps)]
        assert sol.nodal_radii.size == k - 1, f"{(N,k,eps)}: {sol.nodal_radii.size} interior zeros"
        assert np.all(sol.nodal_radii > eps) and np.all(sol.nodal_radii < 1.0)
        assert sol.residual_norm <= 1e-8, f"{(N,k,eps)}: residual {sol.residual_norm:.3e}"
        orc = oracle_slope(N, k, eps, sol.shooting_slope)
        assert orc["zeros"] == k - 1
        rel = abs(orc["slope"] - sol.shooting_slope) / orc["slope"]
        assert rel <= 1e-6, f"{(N,k,eps)}: slope disagrees by {rel:.3e}"
        lines.append(f"(N={N},k={k},eps={eps:g}) slope rel {rel:.2e}")
    print("criterion 03: PASS  " + "; ".join(lines))


def test_criterion_04_concentration_scaling_law(sweep_solutions):
    law = bt.verify_scaling_law(sweep_solutions)
    for i, want in law["expected"].items():
        got = law["exponents"][i]
        assert abs(got - want) <= 0.1, f"delta_{i} exponent {got:.4f} vs expected {want:.4f}"
    print(
        "criterion 04: PASS  fitted exponents "
        + ", ".join(
            f"delta_{i}: {law['exponents'][i]:.4f} (want {w:.2f})"
            for i, w in law["expected"].items()
        )
    )


def test_criterion_05_eigenvalue_negative_and_identity(
    case_solutions, case_pairs, solution_hi, pair_hi
):
    for key in CASES:
        assert case_pairs[key].lam < 0.0, f"{key}: lam1 = {case_pairs[key].lam}"
    res = {}
    for sol, pair, M in (
        (case_solutions[KEY], case_pairs[KEY], 4096),
        (solution_hi, pair_hi, 8192),
    ):
        sc = bt.sign_condition(sol, pair)
        assert sc["identity_residual"] <= 1e-6, f"M={M}: identity {sc['identity_residual']:.3e}"
        res[M] = sc["identity_residual"]
    ratio = res[4096] / max(res[8192], 1e-300)
    # both residuals sit at the rounding floor (~1e-11), far below the 1e-6
    # bound, so the refinement ratio carries no information; printed unasserted
    print(
        f"criterion 05: PASS  lam1 < 0 on all cases; identity residual "
        f"{res[4096]:.3e} (M=4096), {res[8192]:.3e} (M=8192), ratio {ratio:.2f} "
        f"(both at rounding floor; improvement clause vacuous here)"
    )


def test_criterion_06a_scaled_eigenvalue_gap_decreasing(sweep_solutions, sweep_pairs, limit4):
    lam_star = limit4["lambda_star"]
    rows = []
    for eps in SWEEP_EPS:  # descending: 1e-2, 1e-3, 1e-4
        d = bt.scaled_eigenvalue_diagnostic(sweep_solutions[eps], sweep_pairs[eps], lam_star)
        rows.append((eps, d["lambda_tilde"], d["gap_to_limit"]))
    gaps = [g for (_, _, g) in rows]
    detail = ", ".join(f"eps={e:g}: lam_tilde={lt:.6f} gap={g:.4f}" for (e, lt, g) in rows)
    if all(a > b for a, b in zip(gaps, gaps[1:])):
        print(f"criterion 06a: PASS  gaps strictly decreasing: {detail}")
        return
    pytest.fail(
        "criterion 06a: FAIL  |delta_k^2 lam1 - lam*| is not strictly decreasing "
        f"across the sweep (lam* = {lam_star:.6f}): {detail}. The signed gap "
        "delta_k^2 lam1 - lam* reads -0.1348, +0.0818, +0.1387, +0.1033, +0.0460, "
        "+0.0167, +0.0056 at eps=1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8: it crosses "
        "zero between eps=1e-3 and 3e-4, peaks at eps=1e-4 and then falls at about "
        "the bubble-interaction rate eps^(1/2), so this sweep is pre-asymptotic. "
        "Not a discretization effect (M=8192 moves the eps=1e-4 gap by <1%). "
        "Measured and analyzed; deliberately left red. Full analysis: docs/decisions.md"
    )


def test_criterion_06b_limit_eigenvalue_ladder(limit4):
    ladder = limit4["lambda_star_R"]
    radii = sorted(ladder)
    assert radii == [20.0, 40.0, 80.0]
    for R in radii:
        assert ladder[R] < 0.0, f"lam*_R at R={R} is {ladder[R]}"
    assert ladder[40.0] <= ladder[20.0] and ladder[80.0] <= ladder[40.0], (
        "domain-inclusion monotonicity violated: " + str(ladder)
    )
    print(
        "criterion 06b: PASS  "
        + ", ".join(f"lam*({R:g}) = {ladder[R]:.6f}" for R in radii)
        + f"; extrapolated lam* = {limit4['lambda_star']:.6f}"
    )


def test_criterion_07_sign_condition_and_bubble_overlap(
    case_solutions, case_pairs, sweep_solutions, sweep_pairs, limit_pair4
):
    ips = []
    for key in CASES:
        sc = bt.sign_condition(case_solutions[key], case_pairs[key])
        assert sc["inner_product"] > 0.0, f"{key}: int phi phi1 = {sc['inner_product']:.3e}"
        ips.append(sc["inner_product"])
    C4 = bt.limit_overlap(limit_pair4)
    sc_small = bt.sign_condition(sweep_solutions[1e-4], sweep_pairs[1e-4])
    ratio = sc_small["overlap_scaled"] / C4
    assert abs(ratio - 1.0) <= 0.20, f"scaled overlap / limit overlap = {ratio:.4f}"
    # same limit, deeper tower: k=3 at the same eps sits farther out (diagnostic only)
    sc_k3 = bt.sign_condition(case_solutions[(4, 3, 1e-4)], case_pairs[(4, 3, 1e-4)])
    print(
        f"criterion 07: PASS  inner products {', '.join(f'{v:.3e}' for v in ips)} all > 0; "
        f"k=2 eps=1e-4 scaled overlap / C4 = {ratio:.4f} (C4 = {C4:.6f}); "
        f"k=3 ratio {sc_k3['overlap_scaled'] / C4:.4f} unasserted"
    )


def test_criterion_08_reaction_blowup_times():
    # pure reaction from constant data a: v(t) = a(1-(p-1)a^{p-1}t)^{-1/(p-1)},
    # so T = a^{1-p}/(p-1) exactly; the escape-time estimate must land within 1%
    worst = 0.0
    for N in (3, 4, 5):  # p = 5, 3, 7/3
        p = critical_exponent(N)
        for a in (0.5, 1.0, 2.0):
            T = a ** (1.0 - p) / (p - 1.0)
            g = bt.build_grid(0.5, 1.0, 16, N=N)
            v0 = bt.RadialField(g, np.full(g.nodes.size, a))
            cfg = bt.FlowConfig(integrator="reaction-only", t_end=6.0, dt_max=1e-4)
            out = bt.evolve(v0, bt.ProblemParams(N, 1, 0.5), cfg)
            assert out.status == "BlowUp", f"N={N} a={a}: status {out.status}"
            assert out.T_estimate is not None
            rel = abs(out.T_estimate - T) / T
            assert rel <= 1e-2, f"N={N} a={a}: T_estimate {out.T_estimate} vs {T} ({rel:.3e})"
            worst = max(worst, rel)
    print(f"criterion 08: PASS  9 (p, a) combinations, worst |T_est - T|/T = {worst:.3e}")


def test_criterion_09_flow_classification_sweep(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    sup_phi = float(np.max(np.abs(sol.field.values)))
    rows = bt.lambda_sweep(sol, (0.1, 0.95, 1.0, 1.05), bt.FlowConfig(), pair)
    by = {r["lambda"]: r for r in rows}

    assert by[0.1]["status"] == "GlobalBounded", by[0.1]
    assert by[0.1]["sup_final"] <= 1e-6 * (0.1 * sup_phi), by[0.1]["sup_final"]
    assert by[1.0]["status"] == "Stationary", by[1.0]
    assert by[1.0]["drift_rel"] <= 1e-4, by[1.0]["drift_rel"]
    for lam in (0.95, 1.05):
        assert by[lam]["status"] == "BlowUp", by[lam]
        assert by[lam]["T_estimate"] is not None and math.isfinite(by[lam]["T_estimate"])
        assert by[lam]["T_estimate"] > 0.0
    print(
        "criterion 09: PASS  lam=0.1 decays to "
        f"{by[0.1]['sup_final']:.2e} (GlobalBounded); lam=1 holds with drift "
        f"{by[1.0]['drift_rel']:.2e} over t_end={by[1.0]['t_end']:.2e}; "
        f"lam=0.95 blows up (T ~ {by[0.95]['T_estimate']:.3e}); "
        f"lam=1.05 blows up (T ~ {by[1.05]['T_estimate']:.3e})"
    )


def test_criterion_10a_separation_time_finite(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    cfg = bt.FlowConfig(t_end=0.02)
    out = {lam: bt.find_separation_time(sol, pair, lam, cfg) for lam in (1.02, 0.98)}
    ok = all(
        out[lam]["t0"] is not None
        and out[lam]["diagnostics"].get("projection_sign") == (1.0 if lam > 1 else -1.0)
        for lam in (1.02, 0.98)
    )
    detail = "; ".join(
        f"lam={lam}: t0={o['t0']}, projection_sign={o['diagnostics'].get('projection_sign')}, "
        f"best_fraction={o['diagnostics'].get('best_fraction')}, "
        f"t_blowup={o['diagnostics'].get('t_blowup')}"
        for lam, o in out.items()
    )
    if ok:
        print(f"criterion 10a: PASS  {detail}")
        return
    pytest.fail(
        f"criterion 10a: FAIL  no finite full-separation time t0 on this configuration: {detail}. "
        "The perturbation's projection on the first eigenfunction takes the predicted sign "
        "immediately and the single-signed node fraction climbs (best 0.50 above, 0.80 below), "
        "but the linearized difference from phi is one-signed only at t ~ 2-3e-3, its last nodes "
        "at 0.78 <= r < 1, while blow-up arrives at ~2e-5 (lam=1.02); one-signedness everywhere is "
        "never reached before the sup norm leaves the window. Measured and analyzed; "
        "deliberately left red. Full analysis: docs/decisions.md"
    )


def test_criterion_10b_linearized_growth_rate(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    out = bt.linearized_evolve(sol, pair, pair.phi)
    rel = abs(out["growth_rate"] - (-pair.lam)) / abs(pair.lam)
    assert rel <= 0.05, f"growth rate {out['growth_rate']:.6e} vs -lam1 {-pair.lam:.6e} ({rel:.3%})"
    assert out["projection_sign"] > 0.0
    print(
        f"criterion 10b: PASS  linearized growth rate {out['growth_rate']:.6e} "
        f"matches -lam1 = {-pair.lam:.6e} to {rel:.3%}"
    )


def test_criterion_11_comparison_and_onesided_window(case_solutions, case_pairs):
    sol, pair = case_solutions[KEY], case_pairs[KEY]
    g = sol.field.grid

    def bump(amp):
        vals = amp * np.sin(np.pi * (g.nodes - g.inner) / (g.outer - g.inner))
        vals[0] = vals[-1] = 0.0
        return bt.RadialField(g, vals, dirichlet=True)

    mon = bt.comparison_monitor(
        bump(0.8), bump(1.0), sol.params, bt.FlowConfig(t_end=5e-3, dt_max=1e-4)
    )
    assert mon["violation"] <= 1e-8, f"ordering violation {mon['violation']:.3e}"
    assert mon["stopped"] == "horizon"

    win = bt.find_onesided_window(sol, pair)
    assert win["passing"], f"no eps' passed the one-sided checks: {win}"
    print(
        f"criterion 11: PASS  worst ordering violation {mon['violation']:.3e}; "
        f"one-sided residual window eps' in [{min(win['passing']):.1e}, "
        f"{max(win['passing']):.1e}] ({len(win['passing'])} of {len(win['rows'])} candidates, "
        f"tolerance {win['tolerance']:.3e})"
    )
