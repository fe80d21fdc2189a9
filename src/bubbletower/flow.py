"""Time integration of the critical heat equation with blow-up detection.

The default integrator is first-order IMEX: backward Euler on the diffusion
and explicit reaction, which keeps the discrete maximum principle
unconditionally on the diffusion side and therefore supports the comparison
diagnostics. The diffusion solve is posed in its symmetric form
(D + dt K) x = D b, with D the cell weights and K the stiffness matrix of the
face weights; that matrix is symmetric positive definite and tridiagonal, so
it is factored once per time step size (LAPACK dpttrf) and every step at that
size is one dpttrs solve. The reaction step is bounded by
dt <= safety / sup|v|^{p-1}, which resolves the reaction-dominated ramp into
blow-up; blow-up is declared only when the sup norm has crossed the threshold
AND the time step has collapsed to dt_min while the norm keeps growing.

A converged stationary solution is an exact fixed point of the IMEX step by
construction (the grid Newton solver and the stepper share the same discrete
operator), so stationarity holds to roundoff over the usable horizon.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import IntegratorFailure
from .mesh import RadialField, integrate_weighted
from .params import ProblemParams, sphere_area
from .spectral import EigenPair
from .stationary import StationarySolution, stationary_residual

_INTEGRATORS = ("imex-be", "imex-cn", "reaction-only")


@dataclass(frozen=True)
class FlowConfig:
    dt_max: float = 1e-5
    dt_min: float = 1e-12
    t_end: float = 2.0
    blow_threshold: float = 1e3
    safety: float = 0.1
    integrator: str = "imex-be"
    stationary_tol: float = 1e-4
    collapse_run: int = 5

    def __post_init__(self) -> None:
        if not self.dt_min < self.dt_max:
            raise ValueError(f"need dt_min < dt_max, got {self.dt_min} >= {self.dt_max}")
        if self.blow_threshold < 1e2:
            raise ValueError(f"blow_threshold must be >= 100, got {self.blow_threshold}")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}")
        if self.safety <= 0 or self.t_end <= 0:
            raise ValueError("safety and t_end must be positive")


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


def energy(u: RadialField, params: ProblemParams) -> float:
    """Dissipated functional: 1/2 |grad u|^2 - |u|^{p+1}/(p+1), weighted volume integral."""
    g = u.grid
    du = np.diff(u.values)
    grad2 = float(np.dot(g.face_weights * du, du))
    with np.errstate(over="ignore", invalid="ignore"):
        pot = float(np.dot(g.cell_weights, (u.values * u.values) ** (0.5 * (params.p + 1.0))))
    return sphere_area(g.N) * (0.5 * grad2 - pot / (params.p + 1.0))


class _Stepper:
    """One IMEX step on the interior unknowns of a zero-trace field.

    The discrete Laplacian on the interior is -D^{-1} K, with D the interior
    cell weights and K the symmetric stiffness matrix of the face weights
    (diagonal beta_{j-1/2} + beta_{j+1/2}, off-diagonal -beta_{j+1/2}). The
    implicit solve (I + s D^{-1} K) x = b is done as (D + s K) x = D b, whose
    matrix is symmetric positive definite for s >= 0. Its L D L^T factor
    (dpttrf) is kept until the scale s changes, so a run at a fixed dt factors
    once and then pays one dpttrs solve per step.
    """

    def __init__(self, grid, params: ProblemParams, integrator: str):
        self.params = params
        self.integrator = integrator
        beta = grid.face_weights
        self.mass = grid.cell_weights[1:-1]
        self.k_diag = beta[:-1] + beta[1:]
        self.k_off = beta[1:-1]
        self._scale = None
        self._factor = None

    def _solve(self, scale: float, rhs: np.ndarray) -> np.ndarray:
        """x with (I + scale D^{-1} K) x = rhs; non-finite rhs entries give non-finite x."""
        if scale != self._scale:
            d, e, info = dpttrf(self.mass + scale * self.k_diag, -scale * self.k_off, overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise IntegratorFailure(
                    f"diffusion matrix at scale {scale:.6e} is not positive definite (dpttrf info={info})",
                    {"info": info, "scale": scale},
                )
            self._scale, self._factor = scale, (d, e)
        x, _ = dpttrs(*self._factor, self.mass * rhs, overwrite_b=1)
        return x

    def _lap(self, w: np.ndarray) -> np.ndarray:
        kw = self.k_diag * w
        kw[:-1] -= self.k_off * w[1:]
        kw[1:] -= self.k_off * w[:-1]
        return -kw / self.mass

    def step(self, v: np.ndarray, dt: float) -> np.ndarray:
        """v holds the full nodal array; endpoints stay pinned to zero."""
        p = self.params.p
        if self.integrator == "reaction-only":
            with np.errstate(over="ignore", invalid="ignore"):
                base = 1.0 - (p - 1.0) * np.abs(v) ** (p - 1.0) * dt
                mapped = np.where(base > 0.0, v * np.abs(base) ** (-1.0 / (p - 1.0)), np.sign(v) * np.inf)
            return mapped
        w = v[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            react = np.abs(w) ** (p - 1.0) * w
            out = np.zeros_like(v)
            if self.integrator == "imex-be":
                out[1:-1] = self._solve(dt, w + dt * react)
            else:  # imex-cn
                out[1:-1] = self._solve(0.5 * dt, w + 0.5 * dt * self._lap(w) + dt * react)
        return out


def _adaptive_dt(sup: float, cfg: FlowConfig, p: float, remaining: float) -> float:
    try:
        dt = cfg.dt_max if sup == 0.0 else min(cfg.dt_max, cfg.safety / sup ** (p - 1.0))
    except OverflowError:  # sup^(p-1) past the float range: the reaction step will overflow
        dt = cfg.dt_min
    dt = max(dt, cfg.dt_min)
    return min(dt, remaining)


def _fit_blowup_time(ts: np.ndarray, sups: np.ndarray, p: float, thr: float | None = None) -> float | None:
    finite = np.isfinite(sups)
    if not finite.any():
        return None
    top = np.max(sups[finite])
    # anchor the window at the detection threshold when known: past it the
    # clamped steps can multiply sup by orders of magnitude per step, leaving
    # fewer than 3 samples within a decade of the maximum
    level = top if thr is None else min(top, thr)
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
    stepper = _Stepper(v0.grid, params, cfg.integrator)
    v = v0.values.copy()
    sup0 = float(np.max(np.abs(v)))
    t = 0.0
    series = []
    drift = 0.0
    collapse = 0
    crossed_at = None
    thr = cfg.blow_threshold * sup0
    sup = sup0
    while t < cfg.t_end:
        dt = _adaptive_dt(sup, cfg, params.p, cfg.t_end - t)
        v_new = stepper.step(v, dt)
        t += dt
        sup_new = float(np.max(np.abs(v_new)))
        if not np.isfinite(sup_new):
            if cfg.integrator == "reaction-only":
                # the closed-form map diverges exactly when the ODE blow-up
                # time falls inside this step (in the step clock), so the step
                # brackets T up to accumulated clock roundoff
                arr = np.asarray(series) if series else np.zeros((0, 4))
                return FlowResult(
                    status="BlowUp",
                    series=arr,
                    final=RadialField(v0.grid, v, v0.dirichlet),
                    sup0=sup0,
                    drift=drift,
                    T_estimate=_fit_blowup_time(arr[:, 0], arr[:, 1], params.p, thr) if arr.size else None,
                    T_bracket=(t - dt, t),
                    message="exact reaction map diverged within the step",
                )
            raise IntegratorFailure(
                f"overflow at t={t:.6e} before detection triggered",
                {"t": t, "last_state": RadialField(v0.grid, v, v0.dirichlet)},
            )
        drift = max(drift, float(np.max(np.abs(v_new - v0.values))))
        J = energy(RadialField(v0.grid, v_new), params)
        series.append((t, sup_new, J, dt))
        if dt <= cfg.dt_min * (1.0 + 1e-9) and sup_new > sup:
            collapse += 1
        else:
            collapse = 0
        if sup0 > 0.0 and sup_new > thr:
            if crossed_at is None:
                crossed_at = t
            if collapse >= cfg.collapse_run:
                arr = np.asarray(series)
                return FlowResult(
                    status="BlowUp",
                    series=arr,
                    final=RadialField(v0.grid, v_new, v0.dirichlet),
                    sup0=sup0,
                    drift=drift,
                    T_estimate=_fit_blowup_time(arr[:, 0], arr[:, 1], params.p, thr),
                    T_bracket=(crossed_at, t),
                )
        v, sup = v_new, sup_new
    arr = np.asarray(series) if series else np.zeros((0, 4))
    final = RadialField(v0.grid, v, v0.dirichlet)
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
    params = sol.params
    g = sol.field.grid
    stepper = _Stepper(g, params, "imex-be")
    V = params.reaction_derivative(sol.field.values)[1:-1]
    D = g.cell_weights
    omega = sphere_area(g.N)

    def wnorm(vals):
        return float(np.sqrt(omega * np.sum(D * vals * vals)))

    z = z0.values.copy()
    n0 = wnorm(z)
    if n0 == 0.0:
        raise ValueError("zero initial data for the linearized flow")
    z /= n0
    pr0 = omega * float(np.sum(D * z * pair.phi.values))
    orthogonal_start = abs(pr0) <= 1e-12
    log_growth = 0.0
    t = 0.0
    rows = []
    nsteps = int(np.ceil(t_end / dt))
    for _ in range(nsteps):
        rhs = z[1:-1] * (1.0 + dt * V)
        zn = np.zeros_like(z)
        zn[1:-1] = stepper._solve(dt, rhs)
        nn = wnorm(zn)
        if not (np.isfinite(nn) and nn > 0.0):
            raise IntegratorFailure(
                f"linearized step at t={t + dt:.6e} gave norm {nn!r}",
                {"t": t + dt, "steps": len(rows)},
            )
        zn /= nn
        log_growth += np.log(nn)
        z = zn
        t += dt
        pr = omega * float(np.sum(D * z * pair.phi.values))
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
    V = params.reaction_derivative(phi)[1:-1]
    v = lam * phi
    z = phi.copy()
    sup_phi = float(np.max(np.abs(phi)))
    t = 0.0
    max_err = 0.0
    rows = []
    while t < t_end:
        v = stepper.step(v, dt)
        zn = np.zeros_like(z)
        zn[1:-1] = stepper._solve(dt, z[1:-1] * (1.0 + dt * V))
        z = zn
        t += dt
        if not (np.isfinite(v).all() and np.isfinite(z).all()):
            raise IntegratorFailure(f"overflow at t={t:.6e} in the linear/nonlinear comparison", {"t": t})
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
    sup0 = float(np.max(np.abs(v)))
    thr = cfg.blow_threshold * sup0
    t = 0.0
    nstep = 0
    collapse = 0
    best_frac = 0.0
    best_t = 0.0
    proj_sign = 0.0
    sup = sup0
    while t < cfg.t_end:
        dt = _adaptive_dt(sup, cfg, params.p, cfg.t_end - t)
        v_new = stepper.step(v, dt)
        t += dt
        nstep += 1
        sup_new = float(np.max(np.abs(v_new)))
        if not np.isfinite(sup_new):
            raise IntegratorFailure(f"overflow at t={t:.6e} in separation search", {"t": t})
        dv = v_new[1:-1] - phi[1:-1]
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
        if dt <= cfg.dt_min * (1.0 + 1e-9) and sup_new > sup:
            collapse += 1
        else:
            collapse = 0
        if sup_new > thr and collapse >= cfg.collapse_run:
            return {
                "t0": None,
                "margin": 0.0,
                "diagnostics": {
                    "reason": "blow-up preempted full separation",
                    "t_blowup": t,
                    "best_fraction": best_frac,
                    "best_fraction_time": best_t,
                    "projection_sign": proj_sign,
                    "steps": nstep,
                },
            }
        v, sup = v_new, sup_new
    return {
        "t0": None,
        "margin": 0.0,
        "diagnostics": {
            "reason": "horizon reached without full separation",
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
    blow-up threshold. The IMEX-BE step is monotone, so the violation should
    sit at roundoff level.
    """
    if float(np.max(vA0.values - vB0.values)) > 0.0:
        raise ValueError("initial data are not ordered: need vA0 <= vB0 pointwise")
    stepper = _Stepper(vA0.grid, params, "imex-be")
    va, vb = vA0.values.copy(), vB0.values.copy()
    sup0 = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 1e-300)
    thr = cfg.blow_threshold * sup0
    t = 0.0
    violation = 0.0
    rows = []
    stopped = "horizon"
    sup = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
    while t < cfg.t_end:
        dt = _adaptive_dt(sup, cfg, params.p, cfg.t_end - t)
        va = stepper.step(va, dt)
        vb = stepper.step(vb, dt)
        t += dt
        viol = float(np.max(np.maximum(va - vb, 0.0)))
        violation = max(violation, viol)
        rows.append((t, viol))
        sup_new = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))))
        if not np.isfinite(sup_new):
            stopped = "integrator overflow"
            break
        if sup_new > thr:
            stopped = "blow-up threshold"
            break
        sup = sup_new
    return {"violation": violation, "series": np.asarray(rows), "stopped": stopped, "t_final": t}
