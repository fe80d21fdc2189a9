"""Radial sign-changing stationary solutions from the lobe time map, refined on the grid.

The radial stationary equation u'' + (N-1)/r u' + |u|^{p-1}u = 0 on (eps, 1)
with zero boundary values is integrated in the log/scaled variables
s = log r, w = r^{(N-2)/2} u, where it becomes the autonomous conservative
oscillator

    w'' = beta^2 w - |w|^{p-1} w,      beta = (N-2)/2.

Its energy w'^2/2 - beta^2 w^2/2 + |w|^{p+1}/(p+1) is conserved, so orbits
are bounded, zeros of w are zeros of u, and every lobe of the orbit leaving
w = 0 with w' = a lasts the same time T(a). The k-lobe solution is the one
scalar equation k T(a) = log(1/eps), with shooting slope s* = a eps^{-N/2}.
The lobe is parametrized by y = a^2 / (beta w_max)^2 > 0: energy conservation
at the turning point w_max becomes w_max^{p-1} = m0 (1 + y) with
m0 = beta^2 (p+1)/2, free of the cancellation in a^2 << w_max^2, and both a
and T (see _lobe_time) are explicit in y, a rising and T falling strictly, so
the root is unique and Brent's method finds it in log y. One shot at s* then
gives the orbit, which is projected to the grid and polished by a damped
Newton iteration on the discrete boundary-value problem, so downstream
spectral and flow work acts on an actual discrete solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .errors import SolverError
from .mesh import RadialField, RadialGrid, apply_radial_laplacian, build_grid, norms
from .params import ProblemParams
from .profile import extract_concentrations

_TIME_RTOL = 1e-13  # relative tolerance of the lobe-time quadrature
_LOG_Y_MAX = 512.0  # the root search in log y stops at |log y| = 512


@dataclass
class ShootResult:
    """One radial shot: interior zero count, terminal value, and the dense orbit."""

    slope: float
    zero_count: int
    terminal_value: float
    _dense: object = field(default=None, repr=False)
    _params: ProblemParams = field(default=None, repr=False)

    def on_grid(self, grid: RadialGrid) -> RadialField:
        """Evaluate the trajectory u(r) = r^{-beta} w(log r) at the grid nodes."""
        if self._dense is None:
            raise SolverError("shot carries no trajectory")
        r = grid.nodes
        beta = self._params.beta
        w = self._dense(np.log(r))[0]
        vals = r ** (-beta) * w
        vals[0] = 0.0
        vals[-1] = 0.0
        return RadialField(grid, vals, dirichlet=True)


def shoot(params: ProblemParams, s: float, rtol: float = 1e-10, atol: float = 1e-13) -> ShootResult:
    """Integrate the radial IVP u(eps)=0, u'(eps)=s and report the nodal data.

    The returned zero_count counts interior sign changes on (eps, 1);
    terminal_value is u(1) (equal to w at s=0).
    """
    if not math.isfinite(s):
        raise ValueError(f"slope must be finite, got {s}")
    p, beta, eps = params.p, params.beta, params.eps
    s0 = math.log(eps)
    w0 = 0.0
    dw0 = s * eps ** (beta + 1.0)  # chain rule: w'(log eps) from u'(eps)
    if dw0 == 0.0:
        # (0, 0) initial data rides the invariant zero solution; integrating it
        # would trip the zero event at every accepted step
        return ShootResult(
            slope=s,
            zero_count=0,
            terminal_value=0.0,
            _dense=lambda t: np.zeros((2,) + np.shape(t)),
            _params=params,
        )

    def rhs(t, y):
        w, dw = y
        return (dw, beta * beta * w - abs(w) ** (p - 1.0) * w)

    def zero_event(t, y):
        return y[0]

    zero_event.direction = 0

    sol = solve_ivp(
        rhs,
        (s0, 0.0),
        (w0, dw0),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=zero_event,
    )
    if not sol.success:
        raise SolverError(f"shooting integrator failed: {sol.message}")
    guard = 1e-9 * abs(s0)
    crossings = sol.t_events[0]
    interior = crossings[(crossings > s0 + guard) & (crossings < -guard)]
    return ShootResult(
        slope=s,
        zero_count=int(interior.size),
        terminal_value=float(sol.sol(0.0)[0]),
        _dense=sol.sol,
        _params=params,
    )


@dataclass
class StationarySolution:
    """A converged sign-changing stationary solution resident on its grid.

    field           : zero-trace nodal values (orientation: innermost lobe positive)
    nodal_radii     : the k-1 interior zeros
    deltas_measured : concentration scales read off the transformed profile
    shooting_slope  : converged initial slope s* (positive by normalization)
    residual_norm   : sup norm of the discrete stationary residual, relative to
                      max(1, sup|f(u)|); double precision puts an absolute floor
                      ~ |u| eps_mach / h^2 at the spikes, so only the scaled
                      residual is meaningful there
    """

    params: ProblemParams
    field: RadialField
    nodal_radii: np.ndarray
    deltas_measured: np.ndarray
    shooting_slope: float
    residual_norm: float
    newton_iterations: int = 0
    newton_shift: float = 0.0
    residual_history: list = None


def stationary_residual(u: RadialField, params: ProblemParams) -> RadialField:
    """-Delta_h u - f(u): zero (to solver tolerance) at a stationary solution.

    Sign convention matches the sub/supersolution checks: a subsolution has
    residual <= 0 at interior nodes.
    """
    lap = apply_radial_laplacian(u)
    vals = -lap.values - params.reaction(u.values)
    vals[0] = 0.0
    vals[-1] = 0.0
    return RadialField(u.grid, vals)


def _scaled_residual_norm(u: RadialField, params: ProblemParams) -> float:
    res = stationary_residual(u, params).values[1:-1]
    scale = max(1.0, float(np.max(np.abs(params.reaction(u.values)))))
    return float(np.max(np.abs(res))) / scale


def _newton_refine(
    u0: RadialField,
    params: ProblemParams,
    floor: float = 1e-13,
    max_iter: int = 50,
) -> tuple[RadialField, list]:
    """Damped Newton on the discrete BVP Delta_h u + f(u) = 0 (interior rows).

    Backtracking line search on the scaled residual sup norm; stops at the
    floor or on stall (no factor-2 progress over two steps).
    """
    g = u0.grid
    beta_f, D = g.face_weights, g.cell_weights
    Din = D[1:-1]
    lo = beta_f[1:-1] / Din[1:]  # sub-diagonal entries (rows 2..)
    up = beta_f[1:-1] / Din[:-1]  # super-diagonal entries (rows ..n-1)
    diag_lap = -(beta_f[:-1] + beta_f[1:]) / Din
    u = u0.values.copy()
    n = Din.size
    scale = max(1.0, float(np.max(np.abs(params.reaction(u)))))

    def resid(vals):
        fld = RadialField(g, vals)
        r = apply_radial_laplacian(fld).values[1:-1] + params.reaction(vals[1:-1])
        return r

    hist = []
    F = resid(u)
    res = float(np.max(np.abs(F))) / scale
    hist.append(res)
    it = 0
    while res > floor and it < max_iter:
        ab = np.zeros((3, n))
        ab[0, 1:] = up
        ab[1, :] = diag_lap + params.reaction_derivative(u[1:-1])
        ab[2, :-1] = lo
        try:
            delta = solve_banded((1, 1), ab, -F, overwrite_ab=True, overwrite_b=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Newton system: {exc}", {"history": hist})
        t = 1.0
        for _ in range(30):
            trial = u.copy()
            trial[1:-1] += t * delta
            Ft = resid(trial)
            rest = float(np.max(np.abs(Ft))) / scale
            if rest <= res * (1.0 - 0.25 * t) or rest <= floor:
                u, F, res = trial, Ft, rest
                break
            t *= 0.5
        else:
            break
        hist.append(res)
        it += 1
        if it > 3 and res > 0.5 * hist[-3]:
            break  # stalled at the fp floor
    return RadialField(g, u, dirichlet=True), hist


def _interior_zeros(u: RadialField) -> np.ndarray:
    r, v = u.grid.nodes, u.values
    sign = np.sign(v[1:-1])
    j = np.nonzero(sign[:-1] * sign[1:] < 0)[0] + 1
    return r[j] - v[j] * (r[j + 1] - r[j]) / (v[j + 1] - v[j])


def _lobe_time(params: ProblemParams, log_y: float) -> float:
    """Duration T of one lobe, as a function of log y (see the module docstring).

    With w = w_max sin(theta) and q = (1 - sin^{p-1} theta) / cos^2 theta,

        T = (2/beta) int_0^{pi/2} dtheta / sqrt(y + (1+y) sin^2(theta) q(theta)),

    every term nonnegative and q running from 1 to (p-1)/2. The substitution
    theta = sqrt(y) sinh(tau) spreads the peak of width sqrt(y) at theta = 0
    over tau = O(1).
    """
    half = 0.5 * (params.p - 1.0)
    root_y = math.exp(0.5 * log_y)
    ratio = 1.0 + math.exp(-log_y)  # (1 + y) / y

    def integrand(tau):
        theta = root_y * math.sinh(tau)
        c2 = math.cos(theta) ** 2
        # log(sin^2 theta) from whichever of sin, cos is not near 1
        log_s2 = math.log1p(-c2) if c2 < 0.5 else 2.0 * math.log(math.sin(theta))
        q = -math.expm1(half * log_s2) / c2
        return math.cosh(tau) / math.sqrt(1.0 + ratio * math.sin(theta) ** 2 * q)

    tau_max = math.asinh(0.5 * math.pi / root_y)
    val = quad(integrand, 0.0, tau_max, epsabs=0.0, epsrel=_TIME_RTOL, limit=200)[0]
    return 2.0 / params.beta * val


def _time_map_slope(params: ProblemParams) -> float:
    """The slope s* = a eps^{-N/2} of the k-lobe orbit: the root of k T = log(1/eps)."""
    N, k, eps, p, beta = params.N, params.k, params.eps, params.p, params.beta
    case = f"(N, k, eps) = ({N}, {k}, {eps:g})"
    log_inv_eps = -math.log(eps)

    def excess(log_y):
        return k * _lobe_time(params, log_y) - log_inv_eps

    # T falls from infinity to 0 as log y runs over the reals: step outward
    # from log y = 0 with doubling strides until the excess changes sign
    f0 = excess(0.0)
    inner, outer = 0.0, math.copysign(1.0, f0)
    while excess(outer) * f0 > 0:
        if abs(outer) >= _LOG_Y_MAX:
            raise SolverError(f"no root of k T(a) = log(1/eps) with |log y| <= {_LOG_Y_MAX:g} for {case}")
        inner, outer = outer, 2.0 * outer
    log_y = brentq(excess, min(inner, outer), max(inner, outer), xtol=1e-14)
    m0 = beta * beta * (p + 1.0) / 2.0
    log_a = math.log(beta) + 0.5 * log_y + (math.log(m0) + math.log1p(math.exp(log_y))) / (p - 1.0)
    try:
        return math.exp(log_a + 0.5 * N * log_inv_eps)
    except OverflowError:
        raise SolverError(f"shooting slope overflows for {case}") from None


def find_nodal_solution(
    params: ProblemParams,
    k: int | None = None,
    M: int = 4096,
    ivp_rtol: float = 1e-10,
    residual_tol: float = 1e-8,
) -> StationarySolution:
    """Find the k-lobe stationary solution: time map, one shot, grid Newton.

    The slope s* is the unique root of k T(a) = log(1/eps). One shot at s*
    gives the orbit; damped Newton polishes it on the grid. A SolverError
    names the cause when the root lies out of range, the scaled residual
    stays above residual_tol, the refined field has the wrong number of
    interior zeros, or it collapses.

    Orientation: s* is positive, so the innermost lobe of the returned
    solution is positive; the mirrored solution is -field.
    """
    if k is None:
        k = params.k
    elif k != params.k:
        params = ProblemParams(params.N, k, params.eps)
    target = k - 1

    s_star = _time_map_slope(params)
    shot = shoot(params, s_star, rtol=ivp_rtol)

    grid = build_grid(params.eps, 1.0, M, "log", params.N)
    u_shot = shot.on_grid(grid)
    u, hist = _newton_refine(u_shot, params)
    res_norm = _scaled_residual_norm(u, params)
    if res_norm > residual_tol:
        raise SolverError(
            f"Newton refinement stalled at scaled residual {res_norm:.3e} > {residual_tol:g}",
            {"history": hist},
        )

    zeros = _interior_zeros(u)
    if zeros.size != target:
        raise SolverError(
            f"refined solution has {zeros.size} interior zeros, expected {target}",
            {"zeros": zeros.tolist()},
        )
    if norms(u)["l2_weighted"] < 1e-3:
        raise SolverError("solution collapsed toward zero (weighted L2 < 1e-3)")

    deltas = extract_concentrations(u, k)
    return StationarySolution(
        params=params,
        field=u,
        nodal_radii=zeros,
        deltas_measured=deltas,
        shooting_slope=float(s_star),
        residual_norm=res_norm,
        newton_iterations=len(hist) - 1,
        newton_shift=float(np.max(np.abs(u.values - u_shot.values))),
        residual_history=hist,
    )


def verify_scaling_law(
    N: int,
    k: int,
    eps_list,
    M: int = 4096,
    solutions: dict | None = None,
) -> dict:
    """Fit the exponents of measured delta_i against eps across a sweep.

    Expected exponents are (2i-1)/(2k). Requires at least 3 eps values
    spanning a decade. Pre-solved solutions can be passed to avoid recompute;
    per-eps solver failures are collected and flagged, and the fit proceeds
    when at least 3 values survive.
    """
    eps_arr = np.sort(np.asarray(list(eps_list), dtype=float))[::-1]
    if eps_arr.size < 3:
        raise ValueError(f"need >= 3 eps values for a slope fit, got {eps_arr.size}")
    if eps_arr[0] / eps_arr[-1] < 10.0:
        raise ValueError("eps values must span at least one decade")
    table = {}
    failures = {}
    for eps in eps_arr:
        try:
            sol = None if solutions is None else solutions.get(float(eps))
            if sol is None:
                sol = find_nodal_solution(ProblemParams(N, k, float(eps)), M=M)
            table[float(eps)] = sol.deltas_measured
        except SolverError as exc:
            failures[float(eps)] = str(exc)
    if len(table) < 3:
        raise SolverError("fewer than 3 converged solutions in the sweep", {"failures": failures})
    eps_ok = np.array(sorted(table))
    log_eps = np.log(eps_ok)
    exponents = {}
    for i in range(k):
        log_d = np.log([table[e][i] for e in eps_ok])
        exponents[i + 1] = float(np.polyfit(log_eps, log_d, 1)[0])
    expected = {i + 1: (2 * (i + 1) - 1) / (2 * k) for i in range(k)}
    return {
        "exponents": exponents,
        "expected": expected,
        "deltas": {e: table[e].tolist() for e in eps_ok},
        "failures": failures,
    }
