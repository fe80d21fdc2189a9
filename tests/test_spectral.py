import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import bubbletower as bt
from bubbletower import spectral
from bubbletower.profile import Bubble, bubble_linearization
from bubbletower.spectral import LinearizedOperator, eigenvalue_k

from conftest import CASES, SWEEP_EPS
from test_refusals import add_refusal_tests

# frozen spectral regressions (M=4096 annulus grids; R=80, M=4096 ball grids)
FROZEN_LAM1 = -1.525308e5  # (4, 2, 1e-3)
FROZEN_LAM2 = -172.39486266  # (4, 2, 1e-3)
FROZEN_IP = 4.50657828e-2  # (4, 2, 1e-3) inner product
FROZEN_LAMBDA_STAR_4 = -4.6886465359  # Richardson-extrapolated, R=80
FROZEN_LAM3_LADDER = -3.6312093811  # N=3, R=80, M=4096, no extrapolation
FROZEN_C4 = 15.8208276935
FROZEN_C3 = 3.4444434289


def _zero_potential_operator(M=4096):
    g = bt.build_grid(0.5, 1.0, M, N=3)
    V = bt.RadialField(g, np.zeros(g.nodes.size))
    return bt.assemble_operator(g, V)


def test_path_laplacian_closed_form():
    # tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2 cos(j pi / (n + 1)); a
    # count at x = 2.0 (the Gershgorin midpoint) meets an exactly-zero pivot
    for n in range(1, 41):
        op = LinearizedOperator(None, np.full(n, 2.0), np.full(n - 1, -1.0))
        for j in range(1, n + 1):
            want = 2.0 - 2.0 * math.cos(j * math.pi / (n + 1))
            assert abs(eigenvalue_k(op, j) - want) <= 1e-12, (n, j)


def test_small_integer_tridiagonals_match_eigvalsh():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        d = rng.integers(-3, 4, n).astype(float)
        e = rng.integers(-2, 3, n - 1).astype(float)
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        op = LinearizedOperator(None, d, e)
        got = [eigenvalue_k(op, j) for j in range(1, n + 1)]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12, (d, e)


@pytest.mark.parametrize("d0", [-2.5, 0.0, 3.0])
def test_one_by_one_operator(d0):
    assert eigenvalue_k(LinearizedOperator(None, np.array([d0]), np.zeros(0)), 1) == d0


def _limit_operator(N, R, M):
    g = bt.build_grid(0.0, R, M, "uniform", N)
    return bt.assemble_operator(g, bt.RadialField(g, bubble_linearization(Bubble(1.0, N), g.nodes)))


@pytest.mark.parametrize("N", [4, 3])
def test_ball_eigenvalues_match_dense_eigvalsh(N):
    # an independent dense route (Householder reduction and QR, no Sturm count) on the
    # R = 20, M = 1024 limit rung; measured worst 0.54 eps_mach G, G the Gershgorin bound
    op = _limit_operator(N, 20.0, 1024)
    want, vectors = np.linalg.eigh(np.diag(op.d) + np.diag(op.e, 1) + np.diag(op.e, -1))
    spread = 2.0 * float(np.max(np.abs(op.e)))
    G = max(abs(float(np.min(op.d)) - spread), abs(float(np.max(op.d)) + spread))
    for j in (1, 2):
        assert abs(eigenvalue_k(op, j) - want[j - 1]) <= 2.0 * np.finfo(float).eps * G, (N, j)
    # the first eigenvector in the symmetrized coordinates, unit norm; measured worst 1.05e-14
    pair = spectral.first_eigenpair(op)
    psi = pair.phi.values[op.grid.unknowns] * np.sqrt(op.grid.stiffness[0])
    psi /= np.linalg.norm(psi)
    dense = vectors[:, 0] * np.sign(vectors[:, 0] @ psi)
    assert np.max(np.abs(psi - dense)) <= 1e-12, N


def test_zero_potential_first_eigenvalue():
    # -Delta on the (0.5, 1) annulus: sin(2 pi (r - 1/2))/r, eigenvalue 4 pi^2
    op = _zero_potential_operator()
    lam = eigenvalue_k(op, 1)
    want = 4.0 * math.pi**2
    assert abs(lam - want) <= 1e-6 * want


def test_constant_potential_shifts_exactly():
    g = bt.build_grid(0.5, 1.0, 1024, grading="uniform", N=3)
    op0 = bt.assemble_operator(g, bt.RadialField(g, np.zeros(g.nodes.size)))
    c = 7.25  # exactly representable, so T - cI carries no extra rounding
    opc = bt.assemble_operator(g, bt.RadialField(g, np.full(g.nodes.size, c)))
    assert abs((eigenvalue_k(opc, 1) + c) - eigenvalue_k(op0, 1)) <= 1e-10


def test_eigenvalue_index_bounds():
    # j = 0, size + 1 and 1.5 are refused (rows of test_refusals.py)
    op = _zero_potential_operator(M=64)
    assert eigenvalue_k(op, np.int64(2)) == eigenvalue_k(op, 2)  # numpy integers index


def _case_id(key):
    return f"N{key[0]}k{key[1]}eps{key[2]:g}" if isinstance(key, tuple) else key


def _pair(request, key):
    """The first eigenpair of a CASES tower, or a limit pair named by its fixture."""
    return request.getfixturevalue("case_pairs")[key] if isinstance(key, tuple) else request.getfixturevalue(key)


@pytest.mark.parametrize("key", (*CASES, "limit_pair4"), ids=_case_id)
def test_first_eigenpair_invariants(request, key):
    pair = _pair(request, key)
    assert pair.lam < 0
    assert pair.residual <= 1e-8
    nrm = bt.integrate_weighted(pair.phi, pair.phi)
    assert abs(nrm - 1.0) <= 1e-10
    assert float(np.min(pair.phi.values)) >= 0.0


@pytest.mark.parametrize("key", ((4, 2, 1e-3), (3, 2, 1e-3), "limit_pair3", "limit_pair4"), ids=_case_id)
def test_first_eigenvector_is_positive_at_every_unknown(request, key):
    # Perron-Frobenius: the discrete phi_1 is positive, and these tails stay above underflow
    # (log10 of the smallest entry over the largest: -166, -186, -69 and -79)
    phi = _pair(request, key).phi
    assert np.all(phi.values[phi.grid.unknowns] > 0)


def test_outer_tail_decays_at_the_agmon_rate(case_pairs):
    # there V is tiny against |lambda_1| = 1.5e5, so phi_1 falls like exp(-sqrt|lambda_1| r);
    # measured slope -389.4 against -390.6 (0.3%)
    pair = case_pairs[(4, 2, 1e-3)]
    r, phi = pair.phi.grid.nodes, pair.phi.values
    outer = (r > 0.5) & (r < 0.9)
    slope = np.polyfit(r[outer], np.log(phi[outer]), 1)[0]
    rate = math.sqrt(-pair.lam)
    assert abs(slope + rate) <= 0.01 * rate, (slope, rate)


def test_first_eigenvector_matches_eigh_tridiagonal(case_solutions, case_pairs, sweep_solutions, sweep_pairs):
    # scipy's own route (bisection at its default tolerance, then inverse iteration); relative
    # agreement wherever psi > 1e-6 max, measured 5.4e-12 to 1.4e-10 over the five towers
    towers = [(case_solutions[key], case_pairs[key]) for key in CASES]
    towers += [(sweep_solutions[eps], sweep_pairs[eps]) for eps in SWEEP_EPS if (4, 2, eps) not in CASES]
    for sol, pair in towers:
        op = bt.assemble_linearized(sol)
        psi = pair.phi.values[op.grid.unknowns] * np.sqrt(op.grid.stiffness[0])
        psi /= np.linalg.norm(psi)
        _, vectors = eigh_tridiagonal(op.d, op.e, select="i", select_range=(0, 0))
        ref = vectors[:, 0] * np.sign(vectors[:, 0] @ psi)
        big = psi > 1e-6 * np.max(psi)
        assert np.max(np.abs(ref[big] - psi[big]) / psi[big]) <= 1e-9, sol.params


def test_first_eigenvalue_regression(case_pairs):
    pair = case_pairs[(4, 2, 1e-3)]
    assert abs(pair.lam - FROZEN_LAM1) <= 1e-4 * abs(FROZEN_LAM1)


def test_bisection_agrees_with_library_solver(case_solutions, case_pairs):
    # dual route: LAPACK bisection needs an explicit tight tolerance, its
    # default abstol scales with ||T|| ~ 1/h^2 and is far too loose here
    op = bt.assemble_linearized(case_solutions[(4, 2, 1e-3)])
    lib = eigh_tridiagonal(
        op.d, op.e, eigvals_only=True, select="i", select_range=(0, 1), tol=1e-14
    )
    lam1, lam2 = eigenvalue_k(op, 1), eigenvalue_k(op, 2)
    assert abs(lam1 - lib[0]) <= 1e-10 * abs(lib[0])
    assert abs(lam2 - lib[1]) <= 1e-10 * abs(lib[1])
    assert lam1 == case_pairs[(4, 2, 1e-3)].lam


def test_second_eigenvalue_negative_and_separated(case_solutions):
    op = bt.assemble_linearized(case_solutions[(4, 2, 1e-3)])
    lam1, lam2 = eigenvalue_k(op, 1), eigenvalue_k(op, 2)
    assert lam1 < lam2 < 0
    assert abs(lam2 - FROZEN_LAM2) <= 1e-6 * abs(FROZEN_LAM2)


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_sign_condition_positive_with_identity(case_solutions, case_pairs, key):
    out = bt.sign_condition(case_solutions[key], case_pairs[key])
    assert out["inner_product"] > 0
    assert out["identity_residual"] <= 1e-6
    assert out["reaction_inner_product"] > 0


def test_inner_product_regression(case_solutions, case_pairs):
    out = bt.sign_condition(case_solutions[(4, 2, 1e-3)], case_pairs[(4, 2, 1e-3)])
    assert abs(out["inner_product"] - FROZEN_IP) <= 1e-5 * FROZEN_IP


def test_mesh_independence(case_solutions, case_pairs, solution_hi, pair_hi):
    lo_pair = case_pairs[(4, 2, 1e-3)]
    assert abs(pair_hi.lam - lo_pair.lam) <= 1e-4 * abs(lo_pair.lam)
    ip_lo = bt.sign_condition(case_solutions[(4, 2, 1e-3)], lo_pair)["inner_product"]
    ip_hi = bt.sign_condition(solution_hi, pair_hi)["inner_product"]
    assert abs(ip_hi - ip_lo) <= 1e-5 * abs(ip_lo)
    assert bt.sign_condition(solution_hi, pair_hi)["identity_residual"] <= 1e-10


def test_limit_scan_ladder(limit4):
    ladder = limit4["lambda_star_R"]
    assert all(v < 0 for v in ladder.values())
    # domain inclusion: larger ball, lower ground state
    assert ladder[40.0] <= ladder[20.0]
    assert ladder[80.0] <= ladder[40.0]
    assert limit4["r_convergence"] <= 0.05
    assert limit4["h_gap"] <= 0.02
    rel = abs(limit4["lambda_star"] - FROZEN_LAMBDA_STAR_4) / abs(FROZEN_LAMBDA_STAR_4)
    assert rel <= 1e-6


@pytest.mark.parametrize("N", range(3, 9))
def test_the_limit_ladder_rungs_agree_to_rounding(N):
    # why the ladder is a constant: from R = 20 on, the truncation radius does not move lambda*_R
    rungs = list(bt.limit_scan(N)["lambda_star_R"].values())
    assert max(rungs) - min(rungs) <= 4 * np.spacing(abs(rungs[-1])), rungs


def test_limit_pair_and_overlap_n4(limit_pair4):
    assert limit_pair4.lam < 0
    assert limit_pair4.residual <= 1e-8
    c4 = bt.limit_overlap(limit_pair4)
    assert abs(c4 - FROZEN_C4) <= 1e-6 * FROZEN_C4


def test_limit_pair_and_overlap_n3(limit_pair3):
    pair = limit_pair3
    assert abs(pair.lam - FROZEN_LAM3_LADDER) <= 1e-6 * abs(FROZEN_LAM3_LADDER)
    c3 = bt.limit_overlap(pair)
    assert abs(c3 - FROZEN_C3) <= 1e-6 * FROZEN_C3


def test_scaled_eigenvalue_diagnostic(sweep_solutions, sweep_pairs, limit4):
    lam_star = limit4["lambda_star"]
    for eps in SWEEP_EPS:
        out = bt.scaled_eigenvalue_diagnostic(
            sweep_solutions[eps], sweep_pairs[eps], lam_star
        )
        assert out["lambda_tilde"] < 0
        # the rescaled eigenvalue sits at the right magnitude for every eps
        assert 0.5 <= out["lambda_tilde"] / lam_star <= 2.0
        assert out["gap_to_limit"] == abs(out["lambda_tilde"] - lam_star)


def test_scaled_eigenvalue_gap_falls_past_its_peak(sweep_solutions, sweep_pairs, limit4):
    # criterion 06a's sweep ends at the gap's peak, eps = 1e-4; past it the gap
    # falls at about the bubble-interaction rate eps^{1/2} (docs/decisions.md)
    lam_star = limit4["lambda_star"]
    fields = [(sweep_solutions[1e-4], sweep_pairs[1e-4])]
    for eps in (1e-5, 1e-6, 1e-7):
        sol = bt.find_nodal_solution(bt.ProblemParams(4, 2, eps))
        fields.append((sol, bt.first_eigenpair(bt.assemble_linearized(sol))))
    gaps = [bt.scaled_eigenvalue_diagnostic(sol, pair, lam_star)["gap_to_limit"] for sol, pair in fields]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_scaled_eigenfunction_distance_decreases(sweep_solutions, sweep_pairs, limit_pair4):
    dists = [
        bt.scaled_eigenfunction_distance(sweep_solutions[eps], sweep_pairs[eps], limit_pair4)
        for eps in sorted(SWEEP_EPS, reverse=True)
    ]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] <= 0.2


add_refusal_tests(globals())
