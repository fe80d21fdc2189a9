"""Time integration of the critical heat equation with blow-up detection.

Every run is driven by one marching engine, `_march`: it advances a state by
a step function at the step sizes its caller picks, yields the time, step,
state, sup norm and dt-collapse count after each step, and raises
IntegratorFailure once a step leaves the floats. Its five callers (`evolve`,
`find_separation_time`, `linearized_evolve`, `linear_nonlinear_consistency`
and `comparison_monitor`) keep only their stopping rules and bookkeeping; the
two lockstep callers march a stacked 2 x n state.

The default integrator is first-order IMEX: backward Euler on the diffusion
and explicit reaction, which keeps the discrete maximum principle
unconditionally on the diffusion side and therefore supports the comparison
diagnostics. The diffusion solve is posed in its symmetric form
(D + dt K) x = D b, with D and K the grid's mass and stiffness
(`RadialGrid.stiffness`); that matrix is symmetric positive definite and
tridiagonal, so it is factored once per time step size (LAPACK dpttrf) and
every step at that size is one dpttrs solve. The reaction step is bounded by
dt <= safety / sup|v|^{p-1}, which resolves the reaction-dominated ramp into
blow-up; blow-up is declared only when the sup norm has crossed the threshold
AND the time step has collapsed to dt_min while the norm keeps growing.

A converged stationary solution is an exact fixed point of the IMEX step by
construction (the grid Newton solver and the stepper share the same discrete
operator), so stationarity holds to roundoff over the usable horizon.

Each step is one allocation-light pass: the stepper builds the reaction and
the right-hand side in scratch arrays it owns and solves in place into a
fresh output, and `evolve` takes the energy and the drift into scratch
arrays of its own, with the same operations in the same order as the plain
array expressions, so every output is bit-identical to theirs. Overflow is
reported by `_march` from the sup norm, not by numpy: each caller runs its
whole loop under one np.errstate, entered outside the generator so that a
loop left early leaves no error state behind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import IntegratorFailure
from .mesh import RadialField
from .params import ProblemParams, sphere_area
from .spectral import EigenPair
from .stationary import StationarySolution, stationary_residual

_INTEGRATORS = ("imex-be", "imex-cn", "reaction-only")
# consecutive steps at dt_min with a growing sup norm that count as a dt collapse
_COLLAPSE_RUN = 5


@dataclass(frozen=True)
class FlowConfig:
    dt_max: float = 1e-5
    dt_min: float = 1e-12
    t_end: float = 2.0
    blow_threshold: float = 1e3
    safety: float = 0.1
    integrator: str = "imex-be"
    stationary_tol: float = 1e-4

    def __post_init__(self) -> None:
        # written as `not (ok)` so that NaN, which fails every comparison, is rejected too
        for name in ("dt_max", "dt_min", "t_end", "safety"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.stationary_tol) and self.stationary_tol >= 0):
            raise ValueError(f"stationary_tol must be finite and >= 0, got {self.stationary_tol}")
        if not (math.isfinite(self.blow_threshold) and self.blow_threshold >= 1e2):
            raise ValueError(f"blow_threshold must be finite and >= 100, got {self.blow_threshold}")
        if not self.dt_min < self.dt_max:
            raise ValueError(f"need dt_min < dt_max, got {self.dt_min} >= {self.dt_max}")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}")


@dataclass
class FlowResult:
    """Classification of one run plus its sampled time series.

    status is one of 'Stationary', 'GlobalBounded', 'BlowUp', 'Undetermined'.
    series columns: t, sup norm, energy, dt. For blow-up runs T_estimate comes
    from fitting sup|v| ~ kappa (T - t)^{-1/(p-1)} over the last decade of
    growth. T_bracket is the detection window: (first threshold crossing,
    detection time) for the threshold + dt-collapse rule, or the single step
    inside which the closed-form reaction map diverged. For reaction-only runs
    the ODE blow-up time lies within the bracket up to the accumulated
    roundoff of the step clock (~ steps * eps_mach * t); the collapse rule can
    also fire a few clamped steps before the map itself diverges, putting T
    just past the right edge by a comparable margin.
    """

    status: str
    series: np.ndarray
    final: RadialField
    sup0: float
    drift: float
    T_estimate: float | None = None
    T_bracket: tuple | None = None
    message: str = ""


def _energy_scratch(grid) -> tuple:
    """Scratch arrays for `_energy_parts` on grid: lengths M, M and M + 1."""
    return np.empty(grid.M), np.empty(grid.M), np.empty(grid.M + 1)


def _energy_parts(v: np.ndarray, grid, p: float, scratch: tuple) -> tuple:
    """(grad2, pot) at nodal values v: sum beta (v_{j+1} - v_j)^2 and sum D |v|^{p+1}.

    The differences, the weighted differences and |v|^{p+1} are written into
    scratch (from `_energy_scratch`), so a caller that evaluates every step
    allocates nothing. Overflow is left to the caller's np.errstate.
    """
    du, fdu, pw = scratch
    np.subtract(v[1:], v[:-1], out=du)
    np.multiply(grid.face_weights, du, out=fdu)
    np.multiply(v, v, out=pw)
    pw **= 0.5 * (p + 1.0)
    return float(np.dot(fdu, du)), float(np.dot(grid.cell_weights, pw))


def energy(u: RadialField, params: ProblemParams) -> float:
    """Dissipated functional: 1/2 |grad u|^2 - |u|^{p+1}/(p+1), weighted volume integral."""
    g = u.grid
    with np.errstate(over="ignore", invalid="ignore"):
        grad2, pot = _energy_parts(u.values, g, params.p, _energy_scratch(g))
    return sphere_area(g.N) * (0.5 * grad2 - pot / (params.p + 1.0))


class _Stepper:
    """One IMEX step on the unknown nodes of a zero-trace field.

    The discrete Laplacian on the unknowns is -D^{-1} K, with D and K the
    mass and the symmetric stiffness matrix of `RadialGrid.stiffness`. The
    implicit solve (I + s D^{-1} K) x = b is done as (D + s K) x = D b, whose
    matrix is symmetric positive definite for s >= 0. Its L D L^T factor
    (dpttrf) is kept until the scale s changes, so a run at a fixed dt factors
    once and then pays one dpttrs solve per step; the linear step likewise
    keeps 1 + dt V until dt or V changes.

    The stepper owns scratch arrays for the reaction, the imex-cn Laplacian
    and the reaction-only map, and fills them with `out=` ufuncs. Each step
    returns a freshly allocated array with zero endpoints, on whose unknown
    slice dpttrs solves in place, so a returned state is never overwritten
    by a later step. The steps enter no np.errstate: overflow becomes inf or
    NaN in the state, which the caller's loop detects.
    """

    def __init__(self, grid, params: ProblemParams, integrator: str):
        self.params = params
        self.integrator = integrator
        self.unknowns = grid.unknowns
        self.mass, self.k_diag, self.k_off = grid.stiffness
        self._scale = None
        self._factor = None
        self._gain_key = None  # (dt, V) of the cached 1 + dt V
        self._gain = None
        n = self.mass.size
        self._react = np.empty(n)  # dt |w|^{p-1} w
        if integrator == "imex-cn":  # Delta_h w, then (dt/2) Delta_h w; off-diagonal products
            self._lap_w, self._off_w = np.empty(n), np.empty(n - 1)
        elif integrator == "reaction-only":  # 1 - (p-1)|v|^{p-1} dt; v |base|^{-1/(p-1)}
            self._base, self._mapped = np.empty(grid.M + 1), np.empty(grid.M + 1)

    def _solve(self, scale: float, out: np.ndarray) -> np.ndarray:
        """Overwrite out's unknowns, which hold rhs, with x: (I + scale D^{-1} K) x = rhs.

        Non-finite rhs entries give non-finite x.
        """
        if scale != self._scale:
            d, e, info = dpttrf(self.mass + scale * self.k_diag, -scale * self.k_off, overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise IntegratorFailure(
                    f"diffusion matrix at scale {scale:.6e} is not positive definite (dpttrf info={info})",
                    {"info": info, "scale": scale},
                )
            self._scale, self._factor = scale, (d, e)
        b = out[self.unknowns]
        b *= self.mass
        dpttrs(*self._factor, b, overwrite_b=1)
        return out

    def _lap(self, w: np.ndarray) -> np.ndarray:
        """Delta_h w = -D^{-1} K w on the unknowns, in the stepper's scratch array."""
        kw, off = self._lap_w, self._off_w
        np.multiply(self.k_diag, w, out=kw)
        kw[:-1] -= np.multiply(self.k_off, w[1:], out=off)
        kw[1:] -= np.multiply(self.k_off, w[:-1], out=off)
        np.negative(kw, out=kw)
        kw /= self.mass
        return kw

    def step(self, v: np.ndarray, dt: float) -> np.ndarray:
        """v holds the full nodal array; endpoints stay pinned to zero."""
        p = self.params.p
        if self.integrator == "reaction-only":
            return self._reaction_map(v, dt)
        w = v[self.unknowns]
        react = self._react
        np.abs(w, out=react)
        react **= p - 1.0
        react *= w
        react *= dt
        out = np.zeros(v.shape)  # calloc'd zeros; np.zeros_like would fill them
        rhs = out[self.unknowns]
        if self.integrator == "imex-be":
            np.add(w, react, out=rhs)
            return self._solve(dt, out)
        # imex-cn
        lap = self._lap(w)
        lap *= 0.5 * dt
        np.add(w, lap, out=rhs)
        rhs += react
        return self._solve(0.5 * dt, out)

    def _reaction_map(self, v: np.ndarray, dt: float) -> np.ndarray:
        """Exact flow of v' = |v|^{p-1} v over dt at every node; +-inf where it diverges within the step."""
        p = self.params.p
        base, mapped = self._base, self._mapped
        np.abs(v, out=base)
        base **= p - 1.0
        base *= p - 1.0
        base *= dt
        np.subtract(1.0, base, out=base)
        np.abs(base, out=mapped)
        mapped **= -1.0 / (p - 1.0)
        mapped *= v
        out = np.sign(v)
        out *= np.inf
        np.copyto(out, mapped, where=base > 0.0)
        return out

    def linear_step(self, z: np.ndarray, dt: float, V: np.ndarray) -> np.ndarray:
        """Backward-Euler diffusion with the explicit frozen potential: z_t = Delta z + V z, V on the unknowns."""
        if self._gain_key is None or self._gain_key[0] != dt or self._gain_key[1] is not V:
            self._gain_key, self._gain = (dt, V), 1.0 + dt * V
        out = np.zeros(z.shape)
        np.multiply(z[self.unknowns], self._gain, out=out[self.unknowns])
        return self._solve(dt, out)


def _march(advance, v: np.ndarray, t_end: float, dt_of, dt_min: float):
    """Step v <- advance(v, dt) from t = 0 while t < t_end, yielding (t, dt, v, sup, collapse) after each step.

    dt_of(sup, t_end - t) picks each step from the sup norm of the state it
    starts from; collapse counts the consecutive steps taken at dt_min that
    grew the sup norm. A step whose state is not finite raises
    IntegratorFailure carrying t, dt and the last finite state.
    """
    t, sup, collapse = 0.0, float(np.max(np.abs(v))), 0
    while t < t_end:
        dt = dt_of(sup, t_end - t)
        v_new = advance(v, dt)
        t += dt
        sup_new = float(np.max(np.abs(v_new)))
        if not np.isfinite(sup_new):
            raise IntegratorFailure(f"overflow at t={t:.6e} (step dt={dt:.6e})", {"t": t, "dt": dt, "last_state": v})
        collapse = collapse + 1 if dt <= dt_min * (1.0 + 1e-9) and sup_new > sup else 0
        v, sup = v_new, sup_new
        yield t, dt, v, sup, collapse


def _adaptive_dt(cfg: FlowConfig, p: float):
    """dt_of for `_march`: safety / sup^{p-1} kept within [dt_min, dt_max], clipped to the horizon."""

    def dt_of(sup: float, remaining: float) -> float:
        try:
            dt = cfg.dt_max if sup == 0.0 else min(cfg.dt_max, cfg.safety / sup ** (p - 1.0))
        except OverflowError:  # sup^(p-1) past the float range: the reaction step will overflow
            dt = cfg.dt_min
        return min(max(dt, cfg.dt_min), remaining)

    return dt_of


def _fit_blowup_time(ts: np.ndarray, sups: np.ndarray, p: float, thr: float) -> float | None:
    finite = np.isfinite(sups)
    if not finite.any():
        return None
    top = np.max(sups[finite])
    # anchor the window at the detection threshold: past it the clamped steps
    # can multiply sup by orders of magnitude per step, leaving fewer than 3
    # samples within a decade of the maximum
    level = min(top, thr)
    # a clamped step can also jump from below the window straight past the
    # threshold (p = 5); widen one decade at a time until 3 samples fit
    lo, bottom = level / 10.0, np.min(sups[finite])
    mask = finite & (sups >= lo)
    while mask.sum() < 3 and lo > bottom:
        lo /= 10.0
        mask = finite & (sups >= lo)
    if mask.sum() < 3:
        return None
    t, y = ts[mask], sups[mask] ** (1.0 - p)
    A = np.vstack([np.ones(t.size), t]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if coef[1] >= 0:
        return None
    return float(-coef[0] / coef[1])


def evolve(v0: RadialField, params: ProblemParams, cfg: FlowConfig) -> FlowResult:
    """Integrate v_t = Delta v + |v|^{p-1}v from v0 and classify the trajectory."""
    if cfg.integrator != "reaction-only" and not v0.dirichlet:
        raise ValueError("diffusive runs need zero-trace initial data")
    g, p = v0.grid, params.p
    stepper = _Stepper(g, params, cfg.integrator)
    sup0 = float(np.max(np.abs(v0.values)))
    thr = cfg.blow_threshold * sup0
    omega, scratch = sphere_area(g.N), _energy_scratch(g)
    lo, hi = v0.values.copy(), v0.values.copy()  # node-wise min and max of the state over the run
    v, series, crossed_at, blowup = v0.values.copy(), [], None, None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t, dt, v, sup, collapse in _march(stepper.step, v, cfg.t_end, _adaptive_dt(cfg, p), cfg.dt_min):
                np.minimum(lo, v, out=lo)
                np.maximum(hi, v, out=hi)
                grad2, pot = _energy_parts(v, g, p, scratch)
                series.append((t, sup, omega * (0.5 * grad2 - pot / (p + 1.0)), dt))
                if sup0 > 0.0 and sup > thr:
                    if crossed_at is None:
                        crossed_at = t
                    if collapse >= _COLLAPSE_RUN:
                        blowup = ((crossed_at, t), "")
                        break
    except IntegratorFailure as exc:
        if cfg.integrator != "reaction-only":
            raise
        # the closed-form map diverges exactly when the ODE blow-up time falls
        # inside this step (in the step clock), so the step brackets T up to
        # accumulated clock roundoff
        t, dt, v = (exc.diagnostics[key] for key in ("t", "dt", "last_state"))
        blowup = ((t - dt, t), "exact reaction map diverged within the step")
    # the drift max_t |v - v0|: rounding of v - v0 is monotone in v, so the
    # extremes of v give the same value as the differences taken every step
    drift = float(max(np.max(hi - v0.values), np.max(v0.values - lo)))
    arr = np.asarray(series) if series else np.zeros((0, 4))
    final = RadialField(v0.grid, v, v0.dirichlet)
    if blowup is not None:
        T = _fit_blowup_time(arr[:, 0], arr[:, 1], params.p, thr) if arr.size else None
        return FlowResult("BlowUp", arr, final, sup0, drift, T, *blowup)
    if crossed_at is not None:
        status, msg = "Undetermined", "threshold crossed without time-step collapse"
    elif sup0 > 0.0 and drift <= cfg.stationary_tol * sup0:
        status, msg = "Stationary", ""
    else:
        status, msg = "GlobalBounded", ""
    return FlowResult(status=status, series=arr, final=final, sup0=sup0, drift=drift, message=msg)


def stationary_horizon(cfg: FlowConfig, pair: EigenPair) -> FlowConfig:
    """cfg with t_end = 10/|lambda_1|, the horizon of the run from phi itself."""
    return replace(cfg, t_end=10.0 / abs(pair.lam))


def lambda_sweep(
    sol: StationarySolution,
    lambdas,
    cfg: FlowConfig,
    pair: EigenPair | None = None,
) -> list[dict]:
    """Classify the flow from lambda * phi for each lambda.

    The lambda = 1 run uses the horizon 10/|lambda_1| when the eigenpair is
    supplied: past a few dozen multiples of 1/|lambda_1| double precision
    necessarily seeds the unstable mode and any discrete stationary run blows
    up spuriously, so stationarity is only a meaningful statement on that
    horizon. Other lambdas keep cfg.t_end.
    """
    rows = []
    for lam in lambdas:
        lam = float(lam)
        run_cfg = cfg
        if lam == 1.0 and pair is not None:
            run_cfg = stationary_horizon(cfg, pair)
        v0 = RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
        try:
            res = evolve(v0, sol.params, run_cfg)
            rows.append(
                {
                    "lambda": lam,
                    "status": res.status,
                    "T_estimate": res.T_estimate,
                    "sup_final": float(np.max(np.abs(res.final.values))),
                    "drift_rel": res.drift / max(res.sup0, 1e-300),
                    "t_end": run_cfg.t_end,
                }
            )
        except IntegratorFailure as exc:
            rows.append({"lambda": lam, "status": "Failed", "message": str(exc)})
    return rows


def linearized_evolve(
    sol: StationarySolution,
    pair: EigenPair,
    z0: RadialField,
    t_end: float | None = None,
    dt: float | None = None,
) -> dict:
    """Evolve z_t = Delta z + p|phi|^{p-1} z and fit the growth rate.

    The projection on the first eigenfunction grows like exp(-lambda_1 t)
    (lambda_1 < 0); growth_rate is the fitted log-slope of that projection
    over the second half of the run, and alignment tracks the angle between
    z(t) and the eigenfunction. norm_rate is the fitted log-slope of the
    field norm itself: for data starting orthogonal to the eigenfunction it
    stays near the second eigenvalue's rate (the projection rate does not,
    because roundoff seeds the first mode and the seed grows coherently).
    The backward-Euler-diffusion step makes the fitted rates first-order
    accurate in dt, so the default dt = 0.002/|lambda_1| keeps the rate error
    well under a percent.
    """
    lam = pair.lam
    if t_end is None:
        t_end = 5.0 / abs(lam)
    if dt is None:
        dt = 0.002 / abs(lam)
    n_steps = int(np.ceil(t_end / dt))
    if n_steps < 3:  # the rate is fitted over the second half of the rows
        raise ValueError(f"t_end={t_end:g} at dt={dt:g} gives {n_steps} steps; the rate fit needs at least 3")
    params = sol.params
    g = sol.field.grid
    stepper = _Stepper(g, params, "imex-be")
    D = g.cell_weights
    omega = sphere_area(g.N)
    buf = np.empty_like(D)  # D z z and D z phi, summed by np.sum

    def wnorm(vals):
        np.multiply(np.multiply(D, vals, out=buf), vals, out=buf)
        return float(np.sqrt(omega * np.sum(buf)))

    def projection(vals):
        np.multiply(np.multiply(D, vals, out=buf), pair.phi.values, out=buf)
        return omega * float(np.sum(buf))

    def advance(z, dt):
        # renormalize every step and keep the log of the growth apart
        nonlocal log_growth
        zn = stepper.linear_step(z, dt, V)
        nn = wnorm(zn)
        if not (np.isfinite(nn) and nn > 0.0):
            return np.full_like(zn, np.nan)  # reported by the engine as a non-finite step
        log_growth += np.log(nn)
        zn /= nn
        return zn

    z = z0.values.copy()
    n0 = wnorm(z)
    if n0 == 0.0:
        raise ValueError("zero initial data for the linearized flow")
    z /= n0
    orthogonal_start = abs(projection(z)) <= 1e-12
    log_growth, rows = 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        V = params.reaction_derivative(sol.field.values)[g.unknowns]
        # exactly ceil(t_end/dt) steps: the accumulated clock may fall just short of t_end
        for t, _, z, _, _ in islice(_march(advance, z, np.inf, lambda sup, rest: dt, 0.0), n_steps):
            pr = projection(z)
            rows.append(
                (
                    t,
                    log_growth + np.log(max(abs(pr), 1e-300)),
                    np.sign(pr),
                    np.arccos(min(1.0, abs(pr))),
                    log_growth,
                )
            )
    arr = np.asarray(rows)
    half = arr.shape[0] // 2
    A = np.vstack([np.ones(arr.shape[0] - half), arr[half:, 0]]).T
    coef, *_ = np.linalg.lstsq(A, arr[half:, 1], rcond=None)
    coef_norm, *_ = np.linalg.lstsq(A, arr[half:, 4], rcond=None)
    return {
        "growth_rate": float(coef[1]),
        "norm_rate": float(coef_norm[1]),
        "alignment": arr[:, [0, 3]],
        "projection_sign": float(arr[-1, 2]),
        "orthogonal_start": orthogonal_start,
        "series": arr,
    }


def linear_nonlinear_consistency(
    sol: StationarySolution,
    pair: EigenPair,
    lam: float = 1.001,
    t_end: float | None = None,
    linear_window: float = 0.02,
) -> dict:
    """Compare (v^lam - phi)/(lam - 1) against the linearized flow z with z0 = phi.

    Both flows take identical lockstep steps (backward-Euler diffusion, the
    nonlinear one with explicit full reaction, the linear one with the frozen
    potential p|phi|^{p-1}), so the difference quotient matches z to first
    order in lam - 1 step by step. The quadratic remainder grows at twice the
    exponential rate of z, so the comparison is meaningful only while the
    perturbation is small; the window ends when sup|v - phi| exceeds
    linear_window * sup|phi|.
    """
    if lam == 1.0:
        raise ValueError("need lam != 1 to form the difference quotient")
    params = sol.params
    g = sol.field.grid
    phi = sol.field.values
    if t_end is None:
        t_end = 8.0 / abs(pair.lam)
    dt = 0.002 / abs(pair.lam)
    stepper = _Stepper(g, params, "imex-be")
    sup_phi = float(np.max(np.abs(phi)))
    t, max_err, rows = 0.0, 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        V = params.reaction_derivative(phi)[g.unknowns]
        steps = _march(
            lambda s, h: np.array([stepper.step(s[0], h), stepper.linear_step(s[1], h, V)]),
            np.array([lam * phi, phi]),
            t_end,
            lambda sup, rest: dt,  # the last step is not clipped to t_end
            0.0,
        )
        for t, _, (v, z), _, _ in steps:
            dv = v - phi
            if float(np.max(np.abs(dv))) > linear_window * sup_phi:
                break
            err = float(np.max(np.abs(dv / (lam - 1.0) - z))) / max(float(np.max(np.abs(z))), 1e-300)
            max_err = max(max_err, err)
            rows.append((t, err))
    return {"max_rel_err": max_err, "t_final": t, "series": np.asarray(rows)}


def find_separation_time(
    sol: StationarySolution,
    pair: EigenPair,
    lam: float,
    cfg: FlowConfig,
) -> dict:
    """Earliest time at which the flow from lam*phi differs from phi with one sign everywhere.

    Checks every accepted step after a 10-step transient, interior nodes only,
    demanding sign + for lam > 1 and - for lam < 1. Returns t0 = None when the
    horizon is reached or the run blows up first; diagnostics then carry the
    best single-signed node fraction achieved, its time, the sign of the
    projection of v - phi on the first eigenfunction (which stabilizes almost
    immediately), and the preempting blow-up time if any.
    """
    if lam == 1.0:
        return {"t0": None, "margin": 0.0, "diagnostics": {"note": "difference identically ~0 at lambda=1"}}
    want = 1.0 if lam > 1.0 else -1.0
    params = sol.params
    g = sol.field.grid
    phi = sol.field.values
    stepper = _Stepper(g, params, cfg.integrator if cfg.integrator != "reaction-only" else "imex-be")
    D = g.cell_weights
    omega = sphere_area(g.N)
    v = lam * phi
    thr = cfg.blow_threshold * float(np.max(np.abs(v)))
    nstep, best_frac, best_t, proj_sign = 0, 0.0, 0.0, 0.0
    reason, blowup = "horizon reached without full separation", {}
    steps = _march(stepper.step, v, cfg.t_end, _adaptive_dt(cfg, params.p), cfg.dt_min)
    with np.errstate(over="ignore", invalid="ignore"):
        for nstep, (t, _, v, sup, collapse) in enumerate(steps, start=1):
            dv = v[1:-1] - phi[1:-1]
            if proj_sign == 0.0:
                proj_sign = float(np.sign(omega * np.sum(D[1:-1] * dv * pair.phi.values[1:-1])))
            if nstep > 10:
                frac = float(np.mean(want * dv > 0.0))
                if frac > best_frac:
                    best_frac, best_t = frac, t
                if frac == 1.0:
                    margin = float(np.min(np.abs(dv))) / max(float(np.max(np.abs(phi))), 1e-300)
                    return {
                        "t0": t,
                        "margin": margin,
                        "diagnostics": {"steps": nstep, "projection_sign": proj_sign},
                    }
            if sup > thr and collapse >= _COLLAPSE_RUN:
                reason, blowup = "blow-up preempted full separation", {"t_blowup": t}
                break
    return {
        "t0": None,
        "margin": 0.0,
        "diagnostics": {
            "reason": reason,
            **blowup,
            "best_fraction": best_frac,
            "best_fraction_time": best_t,
            "projection_sign": proj_sign,
            "steps": nstep,
        },
    }


def subsupersolution_residual(
    psi: RadialField,
    phi1: RadialField,
    eps_prime: float,
    params: ProblemParams,
) -> dict:
    """Stationary residual of psi + eps_prime * phi1 and its wrong-signed part.

    With eps_prime >= 0 the perturbed field should be a subsolution (residual
    <= 0 at interior nodes), so max_wrong_sign is the largest positive
    residual; with eps_prime < 0 the supersolution side is checked and
    max_wrong_sign is the largest negative excursion. Both one-sided maxima
    are reported either way.
    """
    s = RadialField(psi.grid, psi.values + eps_prime * phi1.values)
    res = stationary_residual(s, params)
    interior = res.values[1:-1]
    max_pos = float(np.max(np.maximum(interior, 0.0)))
    max_neg = float(np.max(np.maximum(-interior, 0.0)))
    return {
        "residual": res,
        "max_wrong_sign": max_pos if eps_prime >= 0 else max_neg,
        "max_positive": max_pos,
        "max_negative": max_neg,
    }


def find_onesided_window(
    sol: StationarySolution,
    pair: EigenPair,
    candidates=None,
) -> dict:
    """Scan eps' for values where psi +/- eps' phi1 pass the one-sided residual checks.

    The pass tolerance is twice the eps'=0 residual floor (the converged
    solution's own stationary residual defines what 'numerically zero' means
    on this grid; below that floor one-sidedness is not measurable).
    """
    params = sol.params
    floor = float(np.max(np.abs(stationary_residual(sol.field, params).values[1:-1])))
    tol = 2.0 * floor
    if candidates is None:
        candidates = np.logspace(-7, -2, 11)
    rows = []
    passing = []
    for ep in candidates:
        sub = subsupersolution_residual(sol.field, pair.phi, float(ep), params)
        sup = subsupersolution_residual(sol.field, pair.phi, -float(ep), params)
        ok = sub["max_wrong_sign"] <= tol and sup["max_wrong_sign"] <= tol
        rows.append(
            {
                "eps_prime": float(ep),
                "sub_wrong": sub["max_wrong_sign"],
                "sup_wrong": sup["max_wrong_sign"],
                "pass": ok,
            }
        )
        if ok:
            passing.append(float(ep))
    return {"floor": floor, "tolerance": tol, "rows": rows, "passing": passing}


def comparison_monitor(
    vA0: RadialField,
    vB0: RadialField,
    params: ProblemParams,
    cfg: FlowConfig,
) -> dict:
    """Evolve an ordered pair in lockstep and track the worst ordering violation.

    Both trajectories take the same step sizes (driven by the larger sup
    norm); monitoring stops at the horizon or when either flow crosses the
    blow-up threshold. A step that overflows either flow raises
    IntegratorFailure. The IMEX-BE step is monotone, so the violation should
    sit at roundoff level.
    """
    if float(np.max(vA0.values - vB0.values)) > 0.0:
        raise ValueError("initial data are not ordered: need vA0 <= vB0 pointwise")
    stepper = _Stepper(vA0.grid, params, "imex-be")
    pair0 = np.array([vA0.values, vB0.values])
    thr = cfg.blow_threshold * max(float(np.max(np.abs(pair0))), 1e-300)
    t, violation, rows, stopped = 0.0, 0.0, [], "horizon"
    steps = _march(
        lambda s, h: np.array([stepper.step(s[0], h), stepper.step(s[1], h)]),
        pair0,
        cfg.t_end,
        _adaptive_dt(cfg, params.p),
        cfg.dt_min,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for t, _, (va, vb), sup, _ in steps:
            viol = float(np.max(np.maximum(va - vb, 0.0)))
            violation = max(violation, viol)
            rows.append((t, viol))
            if sup > thr:
                stopped = "blow-up threshold"
                break
    return {"violation": violation, "series": np.asarray(rows), "stopped": stopped, "t_final": t}
