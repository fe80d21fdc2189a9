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
the root is unique and Brent's method finds it in log y. One shot at s*
(`shoot`) integrates the oscillator only up to its first turning point
w' = 0, at tau = T/2 past log eps. Being autonomous, undamped and odd, the
oscillator repeats that half lobe: w(tau + x) = w(tau - x) and
w(sigma + 2 tau) = -w(sigma) in the time sigma since launch. So each node's
sigma folds into [0, tau] with the sign (-1)^m, m = floor(sigma / (2 tau)),
and one dense-output call gives the orbit u = r^{-beta} w(log r) at all grid
nodes. A damped Newton iteration then drives the discrete residual
(`stationary_residual`) of that field down until no damped step lowers it,
so downstream spectral and flow work acts on an actual discrete solution.
The shooting stack (`scipy.integrate`, `scipy.optimize`) is imported inside
`shoot`, `_lobe_time` and `_time_map_slope`, so the first tower solve loads
it and `import bubbletower` does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import SolverError
from .mesh import RadialField, RadialGrid, apply_radial_laplacian, build_grid, norms
from .params import ProblemParams, _require_finite_positive
from .profile import extract_concentrations

_TIME_RTOL = 1e-13  # relative tolerance of the lobe-time quadrature
IVP_RTOL = 1e-10  # relative tolerance of the shooting integrator
_LOG_Y_MAX = 512.0  # the root search in log y stops at |log y| = 512
_NEWTON_MAX_ITER = 50  # the Newton polish takes at most this many steps
_NEWTON_STEPS = tuple(0.5**j for j in range(7))  # its damped steps t = 1, 1/2, ..., 1/64


def shoot(params: ProblemParams, s: float, grid: RadialGrid) -> RadialField:
    """Integrate the radial IVP u(eps) = 0, u'(eps) = s and return the orbit on the grid.

    The orbit u(r) = r^{-beta} w(log r) is evaluated at the nodes of grid, a
    grid on [eps, 1], and its two end values are set to exactly 0. The shot
    stops at the orbit's first turning point w' = 0, and the rest of the
    orbit is that half lobe unfolded; when the turn lies past r = 1 the shot
    covers the grid and is read directly.
    """
    if not math.isfinite(s):
        raise ValueError(f"slope must be finite, got {s}")
    p, beta, eps = params.p, params.beta, params.eps
    r = grid.nodes
    dw0 = abs(s) * eps ** (beta + 1.0)  # chain rule: w'(log eps) from u'(eps); the orbit is odd in s
    if dw0 == 0.0:  # the zero orbit, on which the turn event would fire at once
        return RadialField(grid, np.zeros_like(r), dirichlet=True)

    def rhs(t, y):
        w, dw = y
        return (dw, beta * beta * w - abs(w) ** (p - 1.0) * w)

    def turn(t, y):
        return y[1]

    turn.terminal, turn.direction = True, -1
    # imported here: at module level, scipy.integrate and scipy.optimize made up a third of `import bubbletower`
    from scipy.integrate import solve_ivp

    t0 = math.log(eps)
    sol = solve_ivp(
        rhs, (t0, 0.0), (0.0, dw0), method="DOP853", rtol=IVP_RTOL, atol=1e-13, dense_output=True, events=turn
    )
    if not sol.success:
        raise SolverError(f"shooting integrator failed: {sol.message}")
    t = np.log(r)
    sign = math.copysign(1.0, s)
    if sol.status == 1:  # stopped at the turn: fold each node onto the half lobe (module docstring)
        two_tau = 2.0 * (sol.t_events[0][0] - t0)
        m = np.floor((t - t0) / two_tau)
        rest = t - t0 - two_tau * m
        sign = sign * (1.0 - 2.0 * (m % 2.0))
        t = t0 + np.minimum(rest, two_tau - rest)
    vals = sign * r ** (-beta) * sol.sol(t)[0]
    vals[0] = vals[-1] = 0.0
    return RadialField(grid, vals, dirichlet=True)


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
    newton_iterations : Newton steps the polish accepted
    newton_shift    : sup norm of the change Newton made to the shot
    residual_history : scaled residual of the shot and after each accepted step,
                      all over the returned field's max(1, sup|f|); the last
                      entry is residual_norm
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


def _newton_refine(u0: RadialField, params: ProblemParams) -> tuple[RadialField, list]:
    """Damped Newton on the discrete BVP Delta_h u + f(u) = 0 (interior rows).

    Takes the first t in _NEWTON_STEPS whose step cuts the residual sup norm
    by 1 - t/4, and stops at the first direction where none does: rounding
    sets the residual there. The test compares two norms of one step, so it
    needs no scale. Returns the field and the unscaled history of interior
    residual sup norms, the shot's first.
    """
    g = u0.grid
    mass, diag, off = g.stiffness
    lo = off / mass[1:]  # sub-diagonal entries (rows 2..)
    up = off / mass[:-1]  # super-diagonal entries (rows ..n-1)
    diag_lap = -diag / mass
    u = u0.values.copy()

    def resid(vals):
        return -stationary_residual(RadialField(g, vals), params).values[1:-1]

    hist = []
    F = resid(u)
    res = float(np.max(np.abs(F)))
    hist.append(res)
    if not math.isfinite(res):  # accepted steps keep it finite: only the start can fail here
        raise SolverError(f"non-finite Newton residual {res} at the initial field", {"history": hist})
    for _ in range(_NEWTON_MAX_ITER):
        *_, delta, info = dgtsv(lo, diag_lap + params.reaction_derivative(u[1:-1]), up, -F)
        if info > 0:
            raise SolverError(f"singular Newton system: zero pivot in row {info}", {"history": hist})
        for t in _NEWTON_STEPS:
            trial = u.copy()
            trial[1:-1] += t * delta
            Ft = resid(trial)
            rest = float(np.max(np.abs(Ft)))
            if rest <= res * (1.0 - 0.25 * t):
                break
        else:
            break  # no damped step helps: the residual sits at its rounding floor
        u, F, res = trial, Ft, rest
        hist.append(res)
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

    # imported here: at module level, scipy.integrate and scipy.optimize made up a third of `import bubbletower`
    from scipy.integrate import quad

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
    # imported here: at module level, scipy.integrate and scipy.optimize made up a third of `import bubbletower`
    from scipy.optimize import brentq

    log_y = brentq(excess, min(inner, outer), max(inner, outer), xtol=1e-14)
    m0 = beta * beta * (p + 1.0) / 2.0
    log_a = math.log(beta) + 0.5 * log_y + (math.log(m0) + math.log1p(math.exp(log_y))) / (p - 1.0)
    try:
        return math.exp(log_a + 0.5 * N * log_inv_eps)
    except OverflowError:
        raise SolverError(f"shooting slope overflows for {case}") from None


def find_nodal_solution(
    params: ProblemParams,
    M: int = 4096,
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
    _require_finite_positive(residual_tol=residual_tol)
    s_star = _time_map_slope(params)
    grid = build_grid(params.eps, 1.0, M, "log", params.N)
    u_shot = shoot(params, s_star, grid)
    u, hist = _newton_refine(u_shot, params)
    scale = max(1.0, float(np.max(np.abs(params.reaction(u.values)))))
    hist = [res / scale for res in hist]
    res_norm = hist[-1]
    if res_norm > residual_tol:
        raise SolverError(
            f"Newton refinement stalled at scaled residual {res_norm:.3e} > {residual_tol:g}",
            {"history": hist},
        )

    zeros = _interior_zeros(u)
    if zeros.size != params.k - 1:
        raise SolverError(
            f"refined solution has {zeros.size} interior zeros, expected {params.k - 1}",
            {"zeros": zeros.tolist()},
        )
    if norms(u)["l2_weighted"] < 1e-3:
        raise SolverError("solution collapsed toward zero (weighted L2 < 1e-3)")

    deltas = extract_concentrations(u, params.k)
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


def verify_scaling_law(solutions: dict) -> dict:
    """Fit the exponents of measured delta_i against eps across converged towers.

    solutions maps each eps to the converged tower at that eps, all of one
    (N, k); at least 3 eps values spanning a decade are needed. Expected
    exponents are (2i-1)/(2k).
    """
    eps_sorted = sorted(solutions)
    if len(eps_sorted) < 3:
        raise ValueError(f"need >= 3 eps values for a slope fit, got {len(eps_sorted)}")
    if eps_sorted[-1] / eps_sorted[0] < 10.0:
        raise ValueError("eps values must span at least one decade")
    misfiled = [e for e, sol in solutions.items() if sol.params.eps != e]
    if misfiled:
        raise ValueError(f"towers filed under an eps other than their own: {misfiled}")
    kinds = sorted({(sol.params.N, sol.params.k) for sol in solutions.values()})
    if len(kinds) > 1:
        raise ValueError(f"towers of one (N, k) are needed, got {kinds}")
    k = kinds[0][1]
    log_eps = np.log(eps_sorted)
    exponents = {}
    for i in range(k):
        log_d = np.log([solutions[e].deltas_measured[i] for e in eps_sorted])
        exponents[i + 1] = float(np.polyfit(log_eps, log_d, 1)[0])
    expected = {i + 1: (2 * (i + 1) - 1) / (2 * k) for i in range(k)}
    return {
        "exponents": exponents,
        "expected": expected,
        "deltas": {e: solutions[e].deltas_measured.tolist() for e in eps_sorted},
    }
