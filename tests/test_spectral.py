import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import bubbletower as bt
from bubbletower import spectral
from bubbletower.errors import SolverError
from bubbletower.profile import Bubble, bubble_linearization
from bubbletower.spectral import LinearizedOperator, eigenvalue_k, rayleigh_quotient

from conftest import CASES, SWEEP_EPS

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


def _gershgorin_bisection(op, j):
    """Reference: the same Sturm count, bisected from the Gershgorin interval."""
    d, e2 = op.d.tolist(), (op.e * op.e).tolist()
    spread = 2.0 * float(np.max(np.abs(op.e))) if op.e.size else 0.0
    lo, hi = float(np.min(op.d)) - spread, float(np.max(op.d)) + spread
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if spectral._sturm_count(d, e2, mid) >= j:
            hi = mid
        else:
            lo = mid


def test_path_laplacian_closed_form():
    # tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2 cos(j pi / (n + 1)); a
    # count at x = 2.0 (the Gershgorin midpoint) meets an exactly-zero pivot
    for n in range(1, 41):
        op = LinearizedOperator(None, np.full(n, 2.0), np.full(n - 1, -1.0))
        for j in range(1, n + 1):
            want = 2.0 - 2.0 * math.cos(j * math.pi / (n + 1))
            assert abs(eigenvalue_k(op, j) - want) <= 1e-12, (n, j)


def test_sturm_count_includes_a_zero_pivot():
    # at x = 2 the first pivot of tridiag(-1, 2, -1) is exactly 0, and the rest
    # alternate +1e300 and -1e-300 after the floor, so every other row counts; the
    # eigenvalues at or below 2 are those with j <= (n + 1) / 2
    for n in range(1, 41):
        assert spectral._sturm_count([2.0] * n, [1.0] * (n - 1), 2.0) == (n + 1) // 2, n


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


@pytest.mark.parametrize(
    "fake",
    [lambda v: v * (1.0 + 1e-6), lambda v: 0.0, lambda v: math.nan],
    ids=["shifted-1e-6", "zero", "nan"],
)
def test_uncertified_lapack_value_falls_back_to_gershgorin(case_solutions, monkeypatch, fake):
    op = bt.assemble_linearized(case_solutions[(4, 2, 1e-3)])
    want = [_gershgorin_bisection(op, j) for j in (1, 2)]
    real = spectral._lapack_eigenvalue
    monkeypatch.setattr(spectral, "_lapack_eigenvalue", lambda d, e, j: fake(real(d, e, j)))
    assert [eigenvalue_k(op, j) for j in (1, 2)] == want


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_certified_start_is_bit_identical(case_solutions, key):
    op = bt.assemble_linearized(case_solutions[key])
    for j in (1, 2):
        assert eigenvalue_k(op, j) == _gershgorin_bisection(op, j)


def _limit_operator(N, R, M):
    g = bt.build_ball_grid(R, M, N)
    return bt.assemble_operator(g, bt.RadialField(g, bubble_linearization(Bubble(1.0, N), g.nodes)))


def test_certified_start_is_bit_identical_on_limit_rung():
    op = _limit_operator(4, 20.0, 1024)
    assert bt.limit_eigenpair(4, 20.0, 1024).lam == _gershgorin_bisection(op, 1)
    assert eigenvalue_k(op, 2) == _gershgorin_bisection(op, 2)


def _count_sturm_calls(monkeypatch) -> list:
    calls = [0]
    real = spectral._sturm_count

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(spectral, "_sturm_count", counted)
    return calls


# the operators of `limit --N 4`: the radius ladder at matched spacing and its 2M rung
LIMIT_RUNGS = ((20.0, 1024), (40.0, 2048), (80.0, 4096), (80.0, 8192))


def test_small_eigenvalue_certifies_from_the_floored_bracket(monkeypatch):
    # lambda_2 ~ 1.25e-4 is small against the operator's Gershgorin bound (~2.7e4):
    # dstebz's value misses the +-1e-9 |v| bracket, which used to cost a Gershgorin
    # start and 81 counts
    op = _limit_operator(4, 80.0, 4096)
    want = _gershgorin_bisection(op, 2)
    calls = _count_sturm_calls(monkeypatch)
    assert eigenvalue_k(op, 2) == want
    assert calls[0] <= 35


def test_counts_are_unchanged_where_the_relative_bracket_certifies(case_solutions, monkeypatch):
    # the floored bracket is only a second try: on the towers it would be far wider than
    # 1e-9 |lambda_2| and cost 7-9 more counts
    cases = [(bt.assemble_linearized(sol), j) for sol in case_solutions.values() for j in (1, 2)]
    cases += [(_limit_operator(4, R, M), 1) for R, M in LIMIT_RUNGS]
    wants = [_gershgorin_bisection(op, j) for op, j in cases]
    calls = _count_sturm_calls(monkeypatch)
    for (op, j), want in zip(cases, wants):
        calls[0] = 0
        assert eigenvalue_k(op, j) == want
        assert 25 <= calls[0] <= 26, (op.size, j)


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


def test_assemble_rejects_negative_potential():
    g = bt.build_grid(0.5, 1.0, 64, N=3)
    with pytest.raises(ValueError):
        bt.assemble_operator(g, bt.RadialField(g, -np.ones(g.nodes.size)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_assemble_rejects_non_finite_potential(bad):
    g = bt.build_grid(0.5, 1.0, 64, N=3)
    V = np.zeros(g.nodes.size)
    V[10] = bad
    with pytest.raises(ValueError, match="finite"):
        bt.assemble_operator(g, bt.RadialField(g, V))


def test_eigenvalue_index_bounds():
    op = _zero_potential_operator(M=64)
    with pytest.raises(ValueError):
        eigenvalue_k(op, 0)
    with pytest.raises(ValueError):
        eigenvalue_k(op, op.size + 1)


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_first_eigenpair_invariants(case_pairs, key):
    pair = case_pairs[key]
    assert pair.lam < 0
    assert pair.residual <= 1e-8
    nrm = bt.integrate_weighted(pair.phi, pair.phi)
    assert abs(nrm - 1.0) <= 1e-10
    mx = float(np.max(np.abs(pair.phi.values)))
    assert float(np.min(pair.phi.values)) >= -1e-12 * mx


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


def test_rayleigh_quotient_at_eigenvector(case_solutions, case_pairs):
    sol = case_solutions[(3, 2, 1e-3)]
    pair = case_pairs[(3, 2, 1e-3)]
    op = bt.assemble_linearized(sol)
    rq = rayleigh_quotient(op, pair.phi)
    assert abs(rq - pair.lam) <= 1e-8 * abs(pair.lam)


@pytest.mark.parametrize("key", CASES, ids=lambda c: f"N{c[0]}k{c[1]}eps{c[2]:g}")
def test_sign_condition_positive_with_identity(case_solutions, case_pairs, key):
    out = bt.sign_condition(case_solutions[key], case_pairs[key])
    assert out["inner_product"] > 0
    assert out["identity_residual"] <= 1e-6
    assert out["reaction_inner_product"] > 0


def test_inner_product_regression(case_solutions, case_pairs):
    out = bt.sign_condition(case_solutions[(4, 2, 1e-3)], case_pairs[(4, 2, 1e-3)])
    assert abs(out["inner_product"] - FROZEN_IP) <= 1e-5 * FROZEN_IP


def test_sign_condition_rejects_zero_eigenvalue(case_solutions, case_pairs):
    sol = case_solutions[(4, 2, 1e-3)]
    fake = bt.EigenPair(lam=0.0, phi=case_pairs[(4, 2, 1e-3)].phi, residual=0.0)
    with pytest.raises(SolverError):
        bt.sign_condition(sol, fake)


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


def test_limit_pair_and_overlap_n4(limit_pair4):
    assert limit_pair4.lam < 0
    assert limit_pair4.residual <= 1e-8
    c4 = bt.limit_overlap(4, limit_pair4)
    assert abs(c4 - FROZEN_C4) <= 1e-6 * FROZEN_C4


def test_limit_pair_and_overlap_n3():
    pair = bt.limit_eigenpair(3, 80.0, 4096)
    assert abs(pair.lam - FROZEN_LAM3_LADDER) <= 1e-6 * abs(FROZEN_LAM3_LADDER)
    c3 = bt.limit_overlap(3, pair)
    assert abs(c3 - FROZEN_C3) <= 1e-6 * FROZEN_C3


def test_limit_eigenpair_validation():
    with pytest.raises(ValueError):
        bt.limit_eigenpair(4, 5.0, 512)


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


def test_scaled_eigenfunction_distance_decreases(sweep_solutions, sweep_pairs, limit_pair4):
    dists = [
        bt.scaled_eigenfunction_distance(sweep_solutions[eps], sweep_pairs[eps], limit_pair4)
        for eps in sorted(SWEEP_EPS, reverse=True)
    ]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] <= 0.2
