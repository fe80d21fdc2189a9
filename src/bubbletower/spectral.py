"""Eigenanalysis of the linearized operator -Delta - p|phi|^{p-1} and its whole-space limit.

The symmetrized tridiagonal form is assembled from the grid's mass and
stiffness (`RadialGrid.stiffness`), the same face/cell weights as the mesh
module's Laplacian, so residuals and the inner-product identity below are
consistent with `integrate_weighted`.
Eigenvalues come from LAPACK's Sturm-sequence bisection (dstebz, Kahan's
bisection), selected by index with absolute tolerance tiny, so it stops only
at its relative floor: a bracket two ulps wide. The first eigenvector comes
from a twisted factorization of T - lambda_1 (Parlett-Dhillon): two LAPACK
dpttrf sweeps, one from each end, give it to full relative accuracy and
positive. Both routines come from scipy's compiled LAPACK module through
`_lapack`, which loads it without running scipy's Python package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dstebz
from .errors import SolverError
from .mesh import RadialField, RadialGrid, _same_dimension, _same_grid, build_grid, integrate_weighted
from .params import critical_exponent
from .profile import Bubble, bubble_eval, bubble_linearization
from .stationary import StationarySolution

_TINY = float(np.finfo(float).tiny)  # dstebz's absolute tolerance: bisect to rounding


@dataclass(frozen=True, eq=False)
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


@dataclass(eq=False)
class EigenPair:
    """Eigenvalue with its weighted-L2-normalized eigenfunction, positive at the unknowns.

    residual is ||T psi - lambda psi||_2 / max(1, |lambda|) in the symmetrized
    coordinates (psi unit). The eigenfunction is never negative; its deep tail
    may underflow to +0.0 in double precision.
    """

    lam: float
    phi: RadialField
    residual: float


def assemble_operator(grid: RadialGrid, potential: RadialField) -> LinearizedOperator:
    """Build -Delta - V on the grid's unknown nodes (V entering with a minus sign); V must live on grid."""
    _same_grid(potential, grid)
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


def eigenvalue_k(op: LinearizedOperator, j: int = 1) -> float:
    """j-th smallest eigenvalue by LAPACK dstebz's Sturm bisection (absolute tolerance tiny).

    A 1x1 operator is its own eigenvalue (the dstebz wrapper wants an
    off-diagonal of length >= 1). j is an integer (`__index__`) in 1..size.
    info != 0 or other than one eigenvalue returned raises SolverError naming both.
    """
    if not (hasattr(j, "__index__") and 1 <= j <= op.size):
        raise ValueError(f"eigenvalue index j must be an integer in 1..{op.size}, got {j!r}")
    if op.size == 1:
        return float(op.d[0])
    m, w, *_, info = dstebz(op.d, op.e, 2, 0.0, 0.0, j, j, _TINY, b"B")
    if info != 0 or m != 1:
        raise SolverError(
            f"LAPACK dstebz failed on eigenvalue {j}: info = {info}, m = {m}",
            {"info": int(info), "m": int(m)},
        )
    return float(w[0])


def first_eigenpair(op: LinearizedOperator) -> EigenPair:
    """Smallest eigenvalue (dstebz bisection) + its eigenvector from a twisted factorization.

    dpttrf on s = d - lambda gives the top-down pivots D+ of T - lambda, and on
    the reversed arrays the bottom-up pivots D-; each stops at its first
    nonpositive pivot. The twist k is the node of their overlap where
    |D+ + D- - s| is least, and log psi is two cumulative sums of log(-e/D+-)
    away from it: psi > 0 by construction. An off-diagonal that is not negative
    (no Perron-Frobenius) or an empty overlap raises SolverError.
    """
    lam = eigenvalue_k(op, 1)
    s = op.d - lam
    down, l_down, stop_down = dpttrf(s, op.e)
    up, l_up, stop_up = dpttrf(s[::-1], op.e[::-1])
    up, l_up = up[::-1], l_up[::-1]  # l_down[i] = e_i / D+_i, l_up[i] = e_i / D-_{i+1}
    lo, hi = op.size - stop_up if stop_up else 0, stop_down - 1 if stop_down else op.size - 1
    if not np.all(op.e < 0) or lo > hi:
        raise SolverError(
            "first eigenvector is not positive (an off-diagonal >= 0, or D+ and D- do not overlap)",
            {"max_offdiagonal": float(np.max(op.e)), "overlap": [lo, hi]},
        )
    ov = slice(lo, hi + 1)
    k = lo + int(np.argmin(np.abs(down[ov] + up[ov] - s[ov])))
    log_psi = np.zeros(op.size)
    log_psi[:k] = np.cumsum(np.log(-l_down[:k])[::-1])[::-1]
    log_psi[k + 1 :] = np.cumsum(np.log(-l_up[k:]))
    psi = np.exp(log_psi - np.max(log_psi))
    psi /= np.linalg.norm(psi)
    # residual in the symmetrized coordinates
    residual = float(np.linalg.norm(op.apply(psi) - lam * psi)) / max(1.0, abs(lam))
    # back to nodal values and weighted-L2 normalization
    vals = np.zeros_like(op.grid.nodes)
    vals[op.grid.unknowns] = psi / np.sqrt(op.grid.stiffness[0])
    phi = RadialField(op.grid, vals)
    phi.values /= np.sqrt(integrate_weighted(phi, phi))
    return EigenPair(lam=lam, phi=phi, residual=residual)


def limit_eigenpair(N: int, R: float, M: int) -> EigenPair:
    """First Dirichlet eigenpair of -Delta - N(N+2)/(1+r^2)^2 on the ball of radius R.

    This is the linearization at the unit-scale bubble on the whole space,
    truncated at radius R; the r=0 node carries the regularity row. The first
    eigenvalue is negative for R >= 20 in every dimension handled here.
    """
    if R < 20:
        raise ValueError(f"truncation radius must be >= 20, got {R}")
    grid = build_grid(0.0, R, M, "uniform", N)
    V = RadialField(grid, bubble_linearization(Bubble(1.0, N), grid.nodes))
    op = assemble_operator(grid, V)
    pair = first_eigenpair(op)
    if pair.lam >= 0:
        raise SolverError(
            f"limit eigenvalue came out nonnegative ({pair.lam:.3e}); mesh too coarse"
        )
    return pair


# (R, M) rungs of limit_scan at matched spacing h = R/M = 1/51.2. phi* decays like
# exp(-sqrt|lambda*| R), so from R = 20 on the truncation error lies below rounding:
# for N = 3..12 the three rungs agree to 2 ulp. The largest rung's Richardson partner
# in h is (80, 8192).
_LIMIT_LADDER = ((20.0, 1024), (40.0, 2048), (80.0, 4096))


def limit_scan(N: int) -> dict:
    """lambda*_R over the fixed ladder _LIMIT_LADDER, plus the h-extrapolated limit.

    Matched spacing (M scales with R) makes the domain-inclusion monotonicity
    lambda*_{2R} <= lambda*_R hold exactly in the discrete setting. The
    extrapolated value combines the largest radius with Richardson in h
    (order-2 stencil, M doubled), and the radius-convergence estimate is the
    gap between the two largest radii. "pair" is the eigenpair at the largest
    radius. For N = 3..12 that gap reads 0.0 or 1.8e-15 (docs/decisions.md).
    """
    out = {}
    for R, M in _LIMIT_LADDER:
        pair = limit_eigenpair(N, R, M)
        out[R] = pair.lam
    (R_prev, _), (R_max, M_max) = _LIMIT_LADDER[-2:]
    lam_h = out[R_max]
    lam_h2 = limit_eigenpair(N, R_max, 2 * M_max).lam
    return {
        "lambda_star_R": out,
        "lambda_star": (4.0 * lam_h2 - lam_h) / 3.0,
        "r_convergence": abs(lam_h - out[R_prev]),
        "h_gap": abs(lam_h2 - lam_h),
        "pair": pair,
    }


def limit_overlap(pair: EigenPair) -> float:
    """Overlap of the unit bubble's reaction with the limit eigenfunction: int f(U) phi*, in the pair's N."""
    grid = pair.phi.grid
    f = bubble_eval(Bubble(1.0, grid.N), grid.nodes) ** critical_exponent(grid.N)
    return integrate_weighted(RadialField(grid, f), pair.phi)


def _innermost_scale(sol: StationarySolution) -> float:
    """The measured innermost concentration scale delta_k; ValueError when sol carries none."""
    if sol.deltas_measured is None or len(sol.deltas_measured) == 0:
        raise ValueError("solution carries no measured concentration scales")
    return float(sol.deltas_measured[-1])


def scaled_eigenvalue_diagnostic(sol: StationarySolution, pair: EigenPair, lambda_star: float) -> dict:
    """lambda_tilde = (measured delta_k)^2 * lambda, and its gap to the limit value; pair must live on sol's grid."""
    _same_grid(pair.phi, sol.field)
    delta_k = _innermost_scale(sol)
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

    The annulus eigenfunction is rescaled by the innermost concentration scale,
    phi_tilde(x) = delta_k^{N/2} phi1(delta_k x), extended by zero outside the annulus
    image, and compared on the limit grid. pair must live on sol's grid, limit_pair have sol's N.
    """
    _same_grid(pair.phi, sol.field)
    _same_dimension(limit_pair.phi.grid, sol.params)
    delta_k = _innermost_scale(sol)
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
    delta_k = _innermost_scale(sol)
    p = sol.params.p
    phi, phi1 = sol.field, pair.phi
    ip = integrate_weighted(phi, phi1)
    f_phi = RadialField(phi.grid, sol.params.reaction(phi.values))
    fip = integrate_weighted(f_phi, phi1)
    predicted = -(p - 1.0) / lam * fip
    identity_residual = abs(ip - predicted) / max(abs(ip), 1e-300)
    return {
        "inner_product": ip,
        "identity_residual": identity_residual,
        "reaction_inner_product": fip,
        "overlap_scaled": delta_k * fip,
    }
