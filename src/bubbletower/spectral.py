"""Eigenanalysis of the linearized operator -Delta - p|phi|^{p-1} and its whole-space limit.

The symmetrized tridiagonal form is assembled from the grid's mass and
stiffness (`RadialGrid.stiffness`), the same face/cell weights as the mesh
module's Laplacian, so Rayleigh quotients, residuals, and the inner-product
identity below are all consistent with `integrate_weighted`.
Eigenvalues come from bisection on the Sturm sequence run down to machine
interval width, written out here. LAPACK's own bisection (dstebz) only
supplies the starting bracket, which two Sturm counts certify before it is
used, so every eigenvalue is the one the count defines. Eigenvectors come
from a short inverse iteration at the converged eigenvalue, whose shifted
tridiagonal solves are LAPACK calls (dgttrf, dgttrs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .errors import SolverError
from .mesh import RadialField, RadialGrid, build_ball_grid, integrate_weighted
from .params import critical_exponent, sphere_area
from .profile import Bubble, bubble_eval, bubble_linearization
from .stationary import StationarySolution

_PIVOT_FLOOR = 1e-300
_TINY = float(np.finfo(float).tiny)  # dstebz's absolute tolerance: bisect to rounding
_BRACKET_REL = 1e-9  # half-width of the start bracket around LAPACK's value, relative
# The second start bracket, tried when the relative one fails, has the half-width
# _BRACKET_FLOOR eps_mach G, with G the Gershgorin bound on |eigenvalue|. dstebz's
# value lies up to 0.05 eps_mach G off the count's boundary (measured on the ball
# and tower operators), which no relative bracket covers for an eigenvalue small
# against G (lambda_2 ~ 1.25e-4 at G ~ 2.7e4 on the R = 80 ball); a quarter leaves
# a 5x margin.
_BRACKET_FLOOR = 0.25
_EPS = float(np.finfo(float).eps)
_INVERSE_SWEEPS = 4  # inverse-iteration solves per eigenvector


@dataclass(frozen=True)
class LinearizedOperator:
    """Symmetrized tridiagonal representation of -Delta - V with Dirichlet trace.

    d, e      : diagonal and off-diagonal of the symmetric tridiagonal matrix
    The unknowns are `grid.unknowns`: the interior nodes on annulus grids,
    and the r=0 node too, with the regularity row, on origin (ball) grids.
    The symmetrizer is the square root of their quadrature weights, the mass
    of `grid.stiffness`.
    """

    grid: RadialGrid
    d: np.ndarray
    e: np.ndarray

    @property
    def size(self) -> int:
        return self.d.size

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The symmetric tridiagonal matrix times psi."""
        out = self.d * psi
        out[:-1] += self.e * psi[1:]
        out[1:] += self.e * psi[:-1]
        return out


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
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite (it holds NaN or inf)")
    if np.min(V) < 0:
        raise ValueError("potential must be nonnegative")
    Dk, diag, off = grid.stiffness
    d = diag / Dk - V[grid.unknowns]
    e = -off / np.sqrt(Dk[:-1] * Dk[1:])
    return LinearizedOperator(grid=grid, d=d, e=e)


def assemble_linearized(sol: StationarySolution) -> LinearizedOperator:
    """Linearization -Delta - p|phi|^{p-1} around a converged stationary solution."""
    V = RadialField(sol.field.grid, sol.params.reaction_derivative(sol.field.values))
    return assemble_operator(sol.field.grid, V)


def _sturm_count(d, e2, x: float) -> int:
    """Number of eigenvalues at or below x of the tridiagonal (diagonal d, squared off-diagonal e2).

    d and e2 are float sequences whose items are Python floats (lists, or
    memoryviews of float64 arrays, which copy nothing): the recurrence does
    the same IEEE operations as on numpy scalars, several times faster. A
    pivot is counted when it is at or below 0, the sign the pivot floor then
    gives it in the next row (LAPACK's convention).
    """
    count = 0
    rows = iter(d)
    q = next(rows) - x
    if q <= 0:
        count += 1
    for di, e2i in zip(rows, e2):
        if abs(q) < _PIVOT_FLOOR:
            q = -_PIVOT_FLOOR if q <= 0 else _PIVOT_FLOOR
        q = di - x - e2i / q
        if q <= 0:
            count += 1
    return count


def _lapack_eigenvalue(d: np.ndarray, e: np.ndarray, j: int) -> float:
    """LAPACK dstebz's j-th smallest eigenvalue (its own bisection, tol = tiny), NaN if it fails."""
    if d.size == 1:  # the dstebz wrapper wants an off-diagonal of length >= 1
        return float(d[0])
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, j, j, _TINY, b"E")
    return float(w[0]) if info == 0 and m == 1 else math.nan


def eigenvalue_k(op: LinearizedOperator, j: int = 1) -> float:
    """j-th smallest eigenvalue by Sturm bisection, run to machine interval width.

    The bisection starts from LAPACK's value v widened by _BRACKET_REL |v| on
    each side when two Sturm counts certify that this bracket holds the j-th
    eigenvalue, count(lo) < j <= count(hi); failing that, from v widened by
    the floor _BRACKET_FLOOR eps_mach G, with G the larger end of the
    Gershgorin interval in magnitude, when that is wider and certified;
    otherwise (v not finite, or v too far off) from the Gershgorin interval.
    Every start ends at the smallest float x with count(x) >= j, so LAPACK
    only picks where to start.
    """
    if j < 1 or j > op.size:
        raise ValueError(f"eigenvalue index {j} out of range 1..{op.size}")
    v = _lapack_eigenvalue(op.d, op.e, j)
    d, e2 = memoryview(op.d), memoryview(op.e * op.e)
    spread = 2.0 * float(np.max(np.abs(op.e))) if op.e.size else 0.0
    g_lo, g_hi = float(np.min(op.d)) - spread, float(np.max(op.d)) + spread
    rel = _BRACKET_REL * abs(v)
    for half in (rel, max(rel, _BRACKET_FLOOR * _EPS * max(abs(g_lo), abs(g_hi)))):
        lo, hi = v - half, v + half
        if _sturm_count(d, e2, lo) < j <= _sturm_count(d, e2, hi):
            break
    else:
        lo, hi = g_lo, g_hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _sturm_count(d, e2, mid) >= j:
            hi = mid
        else:
            lo = mid
    return hi


def _inverse_iteration(op: LinearizedOperator, lam: float) -> np.ndarray:
    """Unit eigenvector at lam: sweeps y <- (T - shift I)^{-1} y / norm from all ones, shift ~ lam.

    LAPACK dgttrf factors the shifted matrix once (LU with partial pivoting); dgttrs runs each sweep.
    """
    shift = lam * (1.0 + 1e-14) + _PIVOT_FLOOR
    *lu, info = dgttrf(op.e, op.d - shift, op.e)
    if info > 0:
        raise SolverError(f"inverse iteration: shifted matrix is singular (zero pivot in row {info})")
    y = np.ones(op.size)
    for _ in range(_INVERSE_SWEEPS):
        y, _ = dgttrs(*lu, y)
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
    Tpsi = op.apply(psi)
    residual = float(np.linalg.norm(Tpsi - lam * psi)) / max(1.0, abs(lam))
    # back to nodal values and weighted-L2 normalization
    vals = np.zeros_like(op.grid.nodes)
    vals[op.grid.unknowns] = psi / np.sqrt(op.grid.stiffness[0])
    phi = RadialField(op.grid, vals)
    nrm = np.sqrt(integrate_weighted(phi, phi))
    phi.values /= nrm
    return EigenPair(lam=float(lam), phi=phi, residual=residual)


def rayleigh_quotient(op: LinearizedOperator, phi: RadialField) -> float:
    """Quotient of the assembled form at a field (uses the symmetrizing weights)."""
    psi = phi.values[op.grid.unknowns] * np.sqrt(op.grid.stiffness[0])
    return float(psi @ op.apply(psi)) / float(psi @ psi)


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


def limit_ladder(radii, M_at_largest: int) -> list:
    """(R, M) rungs in increasing R at matched spacing: M = M_at_largest R / R_max, rounded."""
    radii = sorted(float(R) for R in radii)
    return [(R, int(round(M_at_largest * R / radii[-1]))) for R in radii]


def limit_scan(N: int, radii=(20.0, 40.0, 80.0), M_at_largest: int = 4096) -> dict:
    """lambda*_R over a radius ladder at matched spacing, plus the h-extrapolated limit.

    Matched spacing (M scales with R) makes the domain-inclusion monotonicity
    lambda*_{2R} <= lambda*_R hold exactly in the discrete setting. The
    extrapolated value combines the largest radius with Richardson in h
    (order-2 stencil), and the radius-convergence estimate is the gap between
    the two largest radii. "pair" is the eigenpair at the largest radius.
    """
    ladder = limit_ladder(radii, M_at_largest)
    radii = [R for R, _ in ladder]
    R_max = radii[-1]
    out = {}
    for R, M in ladder:
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
