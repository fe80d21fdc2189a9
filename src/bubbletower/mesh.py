"""Radial grids on the annulus, weighted quadrature, and the discrete radial Laplacian.

Everything downstream (profiles, the stationary solver, the eigensolver, the
flow) lives on these grids. The discrete operator is assembled in divergence
form with face weights ((r_j + r_{j+1})/2)^{N-1} / h_j and diagonal cell
weights r_j^{N-1} (h_{j-1} + h_j)/2; the quadrature uses the same cell
weights, which makes weighted inner products and the operator exactly
compatible (Green's identity holds discretely, not just to truncation order).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import sphere_area


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radial nodes r_0 < ... < r_M with dimension metadata.

    nodes   : array of M+1 radii; r_0 is the inner radius, r_M the outer
    N       : space dimension (weights carry r^{N-1})
    """

    nodes: np.ndarray
    N: int

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 17:
            raise ValueError(f"need at least 17 nodes (M >= 16), got {nodes.size}")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.N < 3:
            raise ValueError(f"dimension N must be >= 3, got {self.N}")
        if nodes[0] < 0.0:
            raise ValueError(f"radii must be nonnegative, got r_0 = {nodes[0]}")

    def __eq__(self, other) -> bool:
        """The same grid, or the same N and nodes: fields on equal grids may be combined. Grids are unhashable."""
        return self is other or (
            isinstance(other, RadialGrid) and self.N == other.N and np.array_equal(self.nodes, other.nodes)
        )

    @property
    def origin(self) -> bool:
        """True when r_0 == 0 (ball grids for the whole-space limit).

        The r=0 cell then carries its exact mass (h/2)^N / N and the operator
        row encodes the regularity condition u'(0) = 0.
        """
        return bool(self.nodes[0] == 0.0)

    @property
    def M(self) -> int:
        return self.nodes.size - 1

    @property
    def inner(self) -> float:
        return float(self.nodes[0])

    @property
    def outer(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def spacings(self) -> np.ndarray:
        """h_j = r_{j+1} - r_j, length M."""
        return np.diff(self.nodes)

    @cached_property
    def face_weights(self) -> np.ndarray:
        """beta_{j+1/2} = midpoint(r)^{N-1} / h_j, length M."""
        r = self.nodes
        mid = 0.5 * (r[:-1] + r[1:])
        return mid ** (self.N - 1) / self.spacings

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Trapezoid cell weights D_j = r_j^{N-1} c_j, length M+1.

        c_j is the node's share of the radial interval (half of each adjacent
        spacing). On origin grids the r=0 cell instead carries the exact mass
        of the slab [0, h/2]: integral of r^{N-1} dr = (h/2)^N / N.
        """
        r, h = self.nodes, self.spacings
        c = np.empty_like(r)
        c[0] = 0.5 * h[0]
        c[-1] = 0.5 * h[-1]
        c[1:-1] = 0.5 * (h[:-1] + h[1:])
        D = r ** (self.N - 1) * c
        if self.origin:
            D[0] = (0.5 * h[0]) ** self.N / self.N
        return D

    @property
    def unknowns(self) -> slice:
        """Nodes that carry unknowns under a zero outer trace: 1..M-1, or 0..M-1 on origin grids."""
        return slice(0 if self.origin else 1, self.M)

    @cached_property
    def stiffness(self) -> tuple:
        """(mass, diag, off): the divergence-form operator on the unknown nodes.

        -Delta_h = mass^{-1} K, with mass the cell weights of the unknowns and K
        the symmetric tridiagonal stiffness matrix of the face weights: diag
        beta_{j-1/2} + beta_{j+1/2}, off-diagonal -off = -beta_{j+1/2}. The r=0
        row of an origin grid has only its outer face (the regularity row).
        """
        beta, u = self.face_weights, self.unknowns
        diag = beta[:-1] + beta[1:]
        if self.origin:
            diag = np.concatenate((beta[:1], diag))
        return self.cell_weights[u], diag, beta[u.start : self.M - 1]


@dataclass(eq=False)
class RadialField:
    """Nodal values of a radial function on a grid.

    dirichlet=True asserts zero trace: both endpoint values must be exactly 0.
    """

    grid: RadialGrid
    values: np.ndarray
    dirichlet: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"field has {self.values.size} values for {self.grid.nodes.size} nodes"
            )
        if self.dirichlet and (self.values[0] != 0.0 or self.values[-1] != 0.0):
            raise ValueError("dirichlet field must have exactly zero endpoint values")


def build_grid(inner: float, outer: float, M: int, grading: str = "log", N: int = 3) -> RadialGrid:
    """Grid on [inner, outer] with M+1 nodes: an annulus, or a ball when inner = 0.

    'log' places nodes uniformly in log r, so each concentration scale gets
    the same number of nodes per decade (M / log10(outer/inner) of them).
    'uniform' places them uniformly in r; with inner = 0 this is the ball
    grid of the whole-space limit.
    """
    if not (0.0 <= inner < outer):
        raise ValueError(f"need 0 <= inner < outer, got inner={inner}, outer={outer}")
    if M < 16:
        raise ValueError(f"M must be >= 16, got {M}")
    j = np.arange(M + 1)
    if grading == "log":
        if inner == 0.0:
            raise ValueError("the 'log' grading needs a positive inner radius")
        nodes = inner * (outer / inner) ** (j / M)
    elif grading == "uniform":
        nodes = inner + j * (outer - inner) / M
    else:
        raise ValueError(f"unknown grading {grading!r}")
    nodes[0], nodes[-1] = inner, outer
    return RadialGrid(nodes=nodes, N=N)


def _same_grid(u: RadialField | RadialGrid, v: RadialField | RadialGrid) -> None:
    """Raise ValueError naming both grids when u and v, each a field or a grid, do not live on equal grids."""
    a, b = getattr(u, "grid", u), getattr(v, "grid", v)
    if a is not b and a != b:
        sides = [f"N = {g.N}, {g.M + 1} nodes {g.inner:.6g}, {g.nodes[1]:.6g}, ..., {g.outer:.6g}" for g in (a, b)]
        raise ValueError(f"fields live on different grids: {sides[0]} and {sides[1]}")


def _same_dimension(grid: RadialGrid, params) -> None:
    """Raise ValueError when the grid's N, which sets the weights, is not params' N, which sets p."""
    if grid.N != params.N:
        raise ValueError(f"the grid has dimension N = {grid.N} but the params have N = {params.N}")


def integrate_weighted(u: RadialField, v: RadialField) -> float:
    """omega_{N-1} * integral of u v r^{N-1} dr over the grid (trapezoid weights).

    Realizes volume integrals of radial functions over the annulus (or ball).
    """
    _same_grid(u, v)
    g = u.grid
    return sphere_area(g.N) * float(np.sum(g.cell_weights * u.values * v.values))


def apply_radial_laplacian(u: RadialField) -> RadialField:
    """Discrete radial Laplacian u'' + (N-1)/r u' in divergence form.

    Interior nodes get the three-point flux-difference stencil; endpoint rows
    follow the Dirichlet convention and are returned as 0. On origin grids the
    r=0 row uses the one-sided flux with the exact origin cell mass, which is
    the reflection (u'(0)=0) row.
    """
    g = u.grid
    beta, D = g.face_weights, g.cell_weights
    w = u.values
    out = np.zeros_like(w)
    flux = beta * (w[1:] - w[:-1])
    out[1:-1] = (flux[1:] - flux[:-1]) / D[1:-1]
    if g.origin:
        out[0] = flux[0] / D[0]
    return RadialField(g, out)


def norms(u: RadialField) -> dict:
    """Weighted L2 norm and sup norm of a field."""
    l2 = float(np.sqrt(max(integrate_weighted(u, u), 0.0)))
    linf = float(np.max(np.abs(u.values)))
    return {"l2_weighted": l2, "linf": linf}
