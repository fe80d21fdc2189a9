"""Eigenanalysis of the linearized operator -Delta - p|phi|^{p-1} and its whole-space limit.

The symmetrized tridiagonal form is assembled with the same face/cell weights
as the mesh module's Laplacian, so Rayleigh quotients, residuals, and the
inner-product identity below are all consistent with `integrate_weighted`.
Eigenvalues come from bisection on the Sturm sequence run down to machine
interval width (no library eigensolver); eigenvectors from a short inverse
iteration at the converged eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import SolverError
from .mesh import RadialField, RadialGrid, build_ball_grid, integrate_weighted
from .params import ProblemParams, critical_exponent, sphere_area
from .profile import Bubble, bubble_eval, bubble_linearization
from .stationary import StationarySolution

_PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class LinearizedOperator:
    """Symmetrized tridiagonal representation of -Delta - V with Dirichlet trace.

    d, e      : diagonal and off-diagonal of the symmetric tridiagonal matrix
    weights   : quadrature weights of the unknown nodes (the symmetrizer is
                their square root)
    potential : V >= 0 at the nodes (full grid)
    On annulus grids the unknowns are the interior nodes; on origin (ball)
    grids the r=0 node is an unknown too, with the regularity row.
    """

    grid: RadialGrid
    potential: RadialField
    d: np.ndarray
    e: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.d.size


@dataclass
class EigenPair:
    """Eigenvalue with its weighted-L2-normalized, interior-positive eigenfunction.

    residual is ||T psi - lambda psi||_2 / max(1, |lambda|) in the symmetrized
    coordinates (psi unit); the eigenfunction's deep tail may underflow to 0
    in double precision, which the positivity check tolerates.
    """

    lam: float
    phi: RadialField
    residual: float


def assemble_operator(grid: RadialGrid, potential: RadialField) -> LinearizedOperator:
    """Build -Delta - V on the grid's unknown nodes (V entering with a minus sign)."""
    V = potential.values
    if np.min(V) < 0:
        raise ValueError("potential must be nonnegative")
    beta, D = grid.face_weights, grid.cell_weights
    if grid.origin:
        # unknowns 0..M-1 (outer node eliminated)
        Dk = D[:-1]
        d = np.empty(Dk.size)
        d[0] = beta[0] / Dk[0] - V[0]
        d[1:] = (beta[:-1] + beta[1:]) / Dk[1:] - V[1:-1]
        e = -beta[:-1] / np.sqrt(Dk[:-1] * Dk[1:])
    else:
        # unknowns 1..M-1
        Dk = D[1:-1]
        d = (beta[:-1] + beta[1:]) / Dk - V[1:-1]
        e = -beta[1:-1] / np.sqrt(Dk[:-1] * Dk[1:])
    return LinearizedOperator(grid=grid, potential=potential, d=d, e=e, weights=Dk)


def assemble_linearized(sol: StationarySolution) -> LinearizedOperator:
    """Linearization -Delta - p|phi|^{p-1} around a converged stationary solution."""
    V = RadialField(sol.field.grid, sol.params.reaction_derivative(sol.field.values))
    return assemble_operator(sol.field.grid, V)


def _sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) strictly below x."""
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, d.size):
        denom = q
        if abs(denom) < _PIVOT_FLOOR:
            denom = -_PIVOT_FLOOR if denom <= 0 else _PIVOT_FLOOR
        q = d[i] - x - e[i - 1] * e[i - 1] / denom
        if q < 0:
            count += 1
    return count


def eigenvalue_k(op: LinearizedOperator, j: int = 1) -> float:
    """j-th smallest eigenvalue by Sturm bisection, run to machine interval width."""
    if j < 1 or j > op.size:
        raise ValueError(f"eigenvalue index {j} out of range 1..{op.size}")
    d, e = op.d, op.e
    spread = 2.0 * float(np.max(np.abs(e))) if e.size else 0.0
    lo = float(np.min(d)) - spread
    hi = float(np.max(d)) + spread
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _sturm_count(d, e, mid) >= j:
            hi = mid
        else:
            lo = mid
    return hi


def _inverse_iteration(op: LinearizedOperator, lam: float, sweeps: int = 4) -> np.ndarray:
    n = op.size
    shift = lam * (1.0 + 1e-14) + _PIVOT_FLOOR
    ab = np.zeros((3, n))
    ab[0, 1:] = op.e
    ab[1, :] = op.d - shift
    ab[2, :-1] = op.e
    y = np.ones(n)
    for _ in range(sweeps):
        y = solve_banded((1, 1), ab, y)
        y /= np.linalg.norm(y)
    return y


def first_eigenpair(op: LinearizedOperator) -> EigenPair:
    """Smallest eigenvalue (Sturm bisection) + positive eigenvector (inverse iteration)."""
    lam = eigenvalue_k(op, 1)
    psi = _inverse_iteration(op, lam)
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    if np.min(psi) < -1e-12 * np.max(np.abs(psi)):
        raise SolverError(
            "first eigenvector is not positive (discretization or multiplicity failure)",
            {"min": float(np.min(psi)), "max": float(np.max(psi))},
        )
    # residual in the symmetrized coordinates
    Tpsi = op.d * psi
    Tpsi[:-1] += op.e * psi[1:]
    Tpsi[1:] += op.e * psi[:-1]
    residual = float(np.linalg.norm(Tpsi - lam * psi)) / max(1.0, abs(lam))
    # back to nodal values and weighted-L2 normalization
    vals = np.zeros_like(op.grid.nodes)
    if op.grid.origin:
        vals[:-1] = psi / np.sqrt(op.weights)
    else:
        vals[1:-1] = psi / np.sqrt(op.weights)
    phi = RadialField(op.grid, vals)
    nrm = np.sqrt(integrate_weighted(phi, phi))
    phi.values /= nrm
    return EigenPair(lam=float(lam), phi=phi, residual=residual)


def rayleigh_quotient(op: LinearizedOperator, phi: RadialField) -> float:
    """Quotient of the assembled form at a field (uses the symmetrizing weights)."""
    if op.grid.origin:
        psi = phi.values[:-1] * np.sqrt(op.weights)
    else:
        psi = phi.values[1:-1] * np.sqrt(op.weights)
    Tpsi = op.d * psi
    Tpsi[:-1] += op.e * psi[1:]
    Tpsi[1:] += op.e * psi[:-1]
    return float(psi @ Tpsi) / float(psi @ psi)


def limit_eigenpair(N: int, R: float, M: int) -> EigenPair:
    """First Dirichlet eigenpair of -Delta - N(N+2)/(1+r^2)^2 on the ball of radius R.

    This is the linearization at the unit-scale bubble on the whole space,
    truncated at radius R; the r=0 node carries the regularity row. The first
    eigenvalue is negative for R >= 20 in every dimension handled here.
    """
    if R < 20:
        raise ValueError(f"truncation radius must be >= 20, got {R}")
    grid = build_ball_grid(R, M, N)
    V = RadialField(grid, bubble_linearization(Bubble(1.0, N), grid.nodes))
    op = assemble_operator(grid, V)
    pair = first_eigenpair(op)
    if pair.lam >= 0:
        raise SolverError(
            f"limit eigenvalue came out nonnegative ({pair.lam:.3e}); mesh too coarse"
        )
    return pair


def limit_scan(N: int, radii=(20.0, 40.0, 80.0), M_at_largest: int = 4096) -> dict:
    """lambda*_R over a radius ladder at matched spacing, plus the h-extrapolated limit.

    Matched spacing (M scales with R) makes the domain-inclusion monotonicity
    lambda*_{2R} <= lambda*_R hold exactly in the discrete setting. The
    extrapolated value combines the largest radius with Richardson in h
    (order-2 stencil), and the radius-convergence estimate is the gap between
    the two largest radii. "pair" is the eigenpair at the largest radius.
    """
    radii = tuple(sorted(float(R) for R in radii))
    R_max = radii[-1]
    out = {}
    for R in radii:
        M = int(round(M_at_largest * R / R_max))
        pair = limit_eigenpair(N, R, M)
        out[R] = pair.lam
    lam_h = out[R_max]
    lam_h2 = limit_eigenpair(N, R_max, 2 * M_at_largest).lam
    extrapolated = (4.0 * lam_h2 - lam_h) / 3.0
    return {
        "lambda_star_R": out,
        "lambda_star": extrapolated,
        "r_convergence": abs(out[radii[-1]] - out[radii[-2]]) if len(radii) > 1 else 0.0,
        "h_gap": abs(lam_h2 - lam_h),
        "pair": pair,
    }


def limit_overlap(N: int, pair: EigenPair) -> float:
    """Overlap of the unit bubble's reaction with the limit eigenfunction: int f(U) phi*."""
    grid = pair.phi.grid
    U = bubble_eval(Bubble(1.0, N), grid.nodes)
    f = U ** critical_exponent(N)
    return sphere_area(N) * float(np.sum(grid.cell_weights * f * pair.phi.values))


def scaled_eigenvalue_diagnostic(sol: StationarySolution, pair: EigenPair, lambda_star: float) -> dict:
    """lambda_tilde = (measured delta_k)^2 * lambda, and its gap to the limit value."""
    if sol.deltas_measured is None or len(sol.deltas_measured) == 0:
        raise ValueError("solution carries no measured concentration scales")
    delta_k = float(sol.deltas_measured[-1])
    lam_tilde = delta_k * delta_k * pair.lam
    return {
        "lambda_tilde": lam_tilde,
        "gap_to_limit": abs(lam_tilde - lambda_star),
        "delta_k": delta_k,
    }


def scaled_eigenfunction_distance(
    sol: StationarySolution, pair: EigenPair, limit_pair: EigenPair
) -> float:
    """Weighted-L2 distance between the rescaled annulus eigenfunction and the limit one.

    The annulus eigenfunction is rescaled by the innermost concentration
    scale, phi_tilde(x) = delta_k^{N/2} phi1(delta_k x), extended by zero
    outside the annulus image, and compared on the limit grid.
    """
    delta_k = float(sol.deltas_measured[-1])
    N = sol.params.N
    g_lim = limit_pair.phi.grid
    x = g_lim.nodes
    r = delta_k * x
    inside = (r >= sol.field.grid.inner) & (r <= sol.field.grid.outer)
    phi_tilde = np.zeros_like(x)
    phi_tilde[inside] = delta_k ** (N / 2) * np.interp(
        r[inside], pair.phi.grid.nodes, pair.phi.values
    )
    diff = RadialField(g_lim, phi_tilde - limit_pair.phi.values)
    return float(np.sqrt(integrate_weighted(diff, diff)))


def sign_condition(sol: StationarySolution, pair: EigenPair) -> dict:
    """The inner product int phi phi1 with its built-in identity cross-check.

    At a discrete stationary solution and its exact discrete eigenpair,
    int phi phi1 = -(p-1)/lambda * int f(phi) phi1 holds identically (the
    derivation only uses the two defining relations and the symmetry of the
    discrete operator), so identity_residual measures accumulated solver and
    rounding error. Also reports delta_k * int f(phi) phi1, the quantity whose
    eps -> 0 limit is the unit-bubble overlap from `limit_overlap`.
    """
    lam = pair.lam
    if abs(lam) < 1e-8:
        raise SolverError("eigenvalue is zero within tolerance; identity undefined")
    p = sol.params.p
    phi, phi1 = sol.field, pair.phi
    ip = integrate_weighted(phi, phi1)
    f_phi = RadialField(phi.grid, sol.params.reaction(phi.values))
    fip = integrate_weighted(f_phi, phi1)
    predicted = -(p - 1.0) / lam * fip
    identity_residual = abs(ip - predicted) / max(abs(ip), 1e-300)
    delta_k = float(sol.deltas_measured[-1])
    return {
        "inner_product": ip,
        "identity_residual": identity_residual,
        "reaction_inner_product": fip,
        "overlap_scaled": delta_k * fip,
    }
