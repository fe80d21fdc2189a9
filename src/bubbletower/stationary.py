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
and T are explicit in y, a rising and T falling strictly, so the root is
unique. With w = w_max sin(theta), the time sigma since launch is a quadrature
in theta, the lobe's clock (_lobe_clock), and one table of its Gauss-Legendre
panel sums serves the whole solve: its total is T/2; the root of
k T = log(1/eps) comes from a bracketed false-position search in log y; and
the shot at s* (`shoot`) reads the clock backwards at each node. Being
autonomous, undamped and odd, the oscillator repeats its first half lobe:
with h = T/2, w(h + x) = w(h - x) and w(sigma + 2h) = -w(sigma). So each
node's sigma folds into [0, h] with the sign (-1)^m, m = floor(sigma / (2h)),
Newton steps on the table invert the clock there to theta, and
u = r^{-beta} w_max sin(theta). A damped Newton iteration then drives the
discrete residual (`stationary_residual`) of that field down until no damped
step lowers it, so downstream spectral and flow work acts on an actual
discrete solution. Each step of that polish is one tridiagonal solve (LAPACK
dgtsv, from scipy's compiled module through `_lapack`), and the quadrature is
numpy's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legint, legval, legvander

from ._lapack import dgtsv
from .errors import SolverError
from .mesh import RadialField, RadialGrid, _same_dimension, apply_radial_laplacian, build_grid
from .params import ProblemParams, _require_finite_positive
from .profile import extract_concentrations


def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by Newton on the
    recurrence for P_n from cos(pi (i - 1/4) / (n + 1/2)): for n = 16 the fourth step moves
    no node by more than 5e-16. (numpy's leggauss maps about 1 MB of BLAS buffers into the process.)"""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


_GAUSS_X, _GAUSS_W = _gauss_legendre(16)  # one clock panel's rule
# a panel's 16 rate values -> the Legendre coefficients of their interpolant's antiderivative
# from x = -1; the interpolant's own are (m + 1/2) sum_i w_i P_m(x_i) f_i
_ANTIDERIVATIVE = legint((np.arange(16) + 0.5)[:, None] * legvander(_GAUSS_X, 15).T * _GAUSS_W, lbnd=-1)
_CLOCK_STEPS = 4  # Newton steps inverting the clock: the 4th moves x by <= 2.3e-13 (60 towers, 1e-3..1e3 s*)
_LOG_Y_MAX = 512.0  # the root search in log y stops at |log y| = 512, and a shot needs log y >= -512
_NEWTON_MAX_ITER = 50  # a Newton iteration (log y of a shot, the polish) takes at most this many steps
_NEWTON_STEPS = tuple(0.5**j for j in range(7))  # its damped steps t = 1, 1/2, ..., 1/64


def shoot(params: ProblemParams, s: float, grid: RadialGrid) -> RadialField:
    """The orbit of the radial IVP u(eps) = 0, u'(eps) = s on the grid.

    The orbit u(r) = r^{-beta} w(log r) is evaluated at the nodes of grid, a
    grid on [eps, 1], and its two end values are set to exactly 0. The launch
    speed fixes log y (at least -512), each node's time since launch folds onto
    the first half lobe (module docstring), and the clock's table inverted
    there gives theta; when the first turn lies past r = 1 no node folds.
    """
    if not math.isfinite(s):
        raise ValueError(f"slope must be finite, got {s}")
    _same_dimension(grid, params)
    if grid.inner != params.eps or grid.outer != 1.0:
        raise ValueError(f"the grid spans [{grid.inner!r}, {grid.outer!r}] but the params need [{params.eps!r}, 1.0]")
    p, beta, eps = params.p, params.beta, params.eps
    r = grid.nodes
    dw0 = abs(s) * eps ** (beta + 1.0)  # chain rule: w'(log eps) from u'(eps); the orbit is odd in s
    if dw0 == 0.0:
        return RadialField(grid, np.zeros_like(r), dirichlet=True)
    # log y from log a = log beta + log(y)/2 + log(w_max): convex and rising in log y, so Newton converges
    log_a = math.log(dw0)
    log_y = 2.0 * (log_a - math.log(beta))
    for _ in range(_NEWTON_MAX_ITER):
        step = (_log_launch_speed(params, log_y) - log_a) / (0.5 + math.exp(log_y - _softplus(log_y)) / (p - 1.0))
        log_y -= step
        if abs(step) <= 1e-15 * (1.0 + abs(log_y)):
            break
    if log_y < -_LOG_Y_MAX:
        raise SolverError(f"launch speed {dw0:.3g} lies below the lobe clock's range log y >= {-_LOG_Y_MAX:g}")
    rate, edges, clock, within = _lobe_clock(params, log_y)
    half_lobe = clock[-1]  # beta T / 2: the clock counts beta sigma
    t = beta * (np.log(r) - math.log(eps))
    m = np.floor(t / (2.0 * half_lobe))
    rest = t - 2.0 * half_lobe * m
    t = np.minimum(rest, 2.0 * half_lobe - rest)
    # each node's x in [-1, 1] on its panel, where the clock reads t: from the chord, Newton
    # steps on the panel's antiderivative with the exact derivative half * rate
    j = np.minimum(np.searchsorted(clock, t, side="right") - 1, edges.size - 2)
    mid, half = 0.5 * (edges[j + 1] + edges[j]), 0.5 * (edges[j + 1] - edges[j])
    x = 2.0 * (t - clock[j]) / (clock[j + 1] - clock[j]) - 1.0
    coef = within[j].T
    for _ in range(_CLOCK_STEPS):
        x = np.clip(x - (clock[j] + legval(x, coef, tensor=False) - t) / (half * rate(mid + half * x)), -1.0, 1.0)
    w = math.exp(log_a - math.log(beta) - 0.5 * log_y) * np.sin(math.exp(0.5 * log_y) * np.sinh(mid + half * x))
    vals = math.copysign(1.0, s) * (1.0 - 2.0 * (m % 2.0)) * r ** (-beta) * w  # w = w_max sin(theta)
    vals[0] = vals[-1] = 0.0
    return RadialField(grid, vals, dirichlet=True)


@dataclass(eq=False)
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
    _same_dimension(u.grid, params)
    lap = apply_radial_laplacian(u)
    vals = -lap.values - params.reaction(u.values)
    vals[0] = 0.0
    vals[-1] = 0.0
    return RadialField(u.grid, vals)


def _newton_refine(u0: RadialField, params: ProblemParams) -> tuple[RadialField, list]:
    """Damped Newton on the discrete BVP Delta_h u + f(u) = 0 (interior rows).

    Takes the first t in _NEWTON_STEPS whose step cuts the residual sup norm
    by 1 - t/4, and stops at the first direction where none does: rounding
    sets the residual there, or it is exactly 0, which no step cuts. The test
    compares two norms of one step, so it needs no scale. Returns the field
    and the unscaled history of interior residual sup norms, the shot's first.
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
            if rest < res * (1.0 - 0.25 * t):
                break
        else:
            break  # no damped step helps: the residual sits at its rounding floor
        u, F, res = trial, Ft, rest
        hist.append(res)
    return RadialField(g, u, dirichlet=True), hist


def _interior_zeros(u: RadialField) -> np.ndarray:
    """Radii where interior values change sign: exact zeros are skipped, and a change across them sits at the first."""
    r, v = u.grid.nodes, u.values
    j = np.nonzero(v[1:-1])[0] + 1
    sign = np.sign(v[j])
    j = j[:-1][sign[:-1] * sign[1:] < 0]
    return np.where(v[j + 1] == 0.0, r[j + 1], r[j] - v[j] * (r[j + 1] - r[j]) / (v[j + 1] - v[j]))


def _softplus(x: float) -> float:
    """log(1 + e^x), overflow-free."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _log_launch_speed(params: ProblemParams, log_y: float) -> float:
    """log a of the lobe with w_max^{p-1} = m0 (1 + y), from a^2 = (beta w_max)^2 y."""
    p, beta = params.p, params.beta
    m0 = beta * beta * (p + 1.0) / 2.0
    return math.log(beta) + 0.5 * log_y + (math.log(m0) + _softplus(log_y)) / (p - 1.0)


def _lobe_clock(params: ProblemParams, log_y: float) -> tuple:
    """The lobe's clock as a function of log y, on its panel table.

    With w = w_max sin(theta) and q = (1 - sin^{p-1} theta) / cos^2 theta, the
    time from launch to theta is

        sigma(theta) = (1/beta) int_0^theta dtheta' / sqrt(y + (1+y) sin^2(theta') q(theta')),

    every term nonnegative and q running from 1 to (p-1)/2, so a lobe lasts
    T = 2 sigma(pi/2). The substitution theta = sqrt(y) sinh(tau) spreads the
    peak of width sqrt(y) at theta = 0 over tau = O(1), where beta dsigma/dtau
    is rate(tau). The panels are unit steps in tau up to
    tau(pi/2) = asinh(pi / (2 sqrt(y))), the first split into 12 geometric
    ones toward tau = 0, where sin^{p-1} is not smooth. Returns rate, the
    panel edges, beta sigma at the edges from the 16-point Gauss-Legendre
    sums, and per panel the Legendre coefficients (in the panel's x in
    [-1, 1]) of beta sigma past its left edge.
    """
    power = 0.5 * (params.p - 1.0)  # sin^{p-1} = (sin^2)^power
    root_y = math.exp(0.5 * log_y)
    ratio = 1.0 + math.exp(-log_y)  # (1 + y) / y

    def rate(tau):
        theta = root_y * np.sinh(tau)
        s, c2 = np.sin(theta), np.cos(theta) ** 2
        q = (1.0 - np.abs(s) ** (params.p - 1.0)) / c2  # |s|: the shot's Newton steps can land at tau = -6e-17
        near = c2 < 0.5  # near the turn, sin^{p-1} from log1p(-cos^2): 1 - sin^{p-1} cancels there
        q[near] = -np.expm1(power * np.log1p(-c2[near])) / c2[near]
        return np.cosh(tau) / np.sqrt(1.0 + ratio * s * s * q)

    tau_max = math.asinh(0.5 * math.pi / root_y)
    edges = np.unique(np.concatenate((min(1.0, tau_max) * 0.5 ** np.arange(12), np.arange(tau_max), [tau_max])))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    values = rate(mid[:, None] + half[:, None] * _GAUSS_X)
    clock = np.concatenate(([0.0], np.cumsum(half * (values @ _GAUSS_W))))
    return rate, edges, clock, half[:, None] * (values @ _ANTIDERIVATIVE.T)


def _lobe_time(params: ProblemParams, log_y: float) -> float:
    """Duration T of one lobe, as a function of log y: twice the clock's half lobe."""
    return 2.0 / params.beta * _lobe_clock(params, log_y)[2][-1]


def _time_map_slope(params: ProblemParams) -> float:
    """The slope s* = a eps^{-N/2} of the k-lobe orbit: the root of k T = log(1/eps)."""
    N, k, eps = params.N, params.k, params.eps
    case = f"(N, k, eps) = ({N}, {k}, {eps:g})"
    log_inv_eps = -math.log(eps)

    def excess(log_y):
        return k * _lobe_time(params, log_y) - log_inv_eps

    # T falls from infinity to 0 as log y runs over the reals: step outward
    # from log y = 0 with doubling strides until the excess changes sign
    a, fa = 0.0, excess(0.0)
    b = math.copysign(1.0, fa)
    fb = excess(b)
    while fb * fa > 0:
        if abs(b) >= _LOG_Y_MAX:
            raise SolverError(f"no root of k T(a) = log(1/eps) with |log y| <= {_LOG_Y_MAX:g} for {case}")
        a, fa, b = b, fb, 2.0 * b
        fb = excess(b)
    # false position with the Illinois halving: b is the newest point and a the bracket end of
    # the other sign, whose excess halves each time the newest point keeps its sign
    while abs(b - a) > 1e-14 * (1.0 + abs(b)) and fb != 0.0:
        c = b - fb * (b - a) / (fb - fa)
        fc = excess(c)
        if fc * fb < 0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    try:
        return math.exp(_log_launch_speed(params, b) + 0.5 * N * log_inv_eps)
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
    interior zeros, or it collapses: sup|u|^{p-1} < pi^2/(1-eps)^2.

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
    # a nonzero solution has sup|u|^{p-1} >= mu_1(nodal domain) >= mu_1(annulus) >= pi^2/(1-eps)^2 (N >= 3)
    peak, bound = float(np.max(np.abs(u.values))) ** (params.p - 1.0), (math.pi / (1.0 - params.eps)) ** 2
    if peak < bound:
        raise SolverError(f"solution collapsed toward zero: sup|u|^(p-1) = {peak:.3e} < pi^2/(1-eps)^2 = {bound:.3e}")

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
