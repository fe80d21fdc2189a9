"""Independent oracles used by the test suite.

The shooting oracle integrates the radial equation
u'' + (N-1)/r u' + |u|^{p-1} u = 0 in the raw r variable with a hand-written
classical RK4 and geometrically graded fixed steps (no error control, no
library integrator, no change of unknowns), and refines the zero of the
terminal map on a shrinking candidate grid. It shares nothing with the
package's shooting route except the ODE itself.

The flow references are the allocating IMEX-BE step, reaction-only map,
energy and bookkeeping loops: the same operations in the same order as
`bubbletower.flow`, written as plain array expressions and kept verbatim so
that tests can require the package to reproduce them bit for bit. The
separation search has its own loop here, with its own copy of the BlowUp
rule; the package leaves that rule to `evolve`'s loop.

`assert_no_child_process` is the check that no call leaves a child process
behind, running or unreaped, whatever started it.
"""
import os
from functools import partial
from itertools import islice

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from bubbletower.errors import IntegratorFailure
from bubbletower.flow import _COLLAPSE_RUN, FlowResult, _adaptive_dt, _march
from bubbletower.mesh import RadialField, integrate_weighted
from bubbletower.params import sphere_area

_HARD_STEP_CAP = 4_000_000


def assert_no_child_process():
    """This process has no child, running or a zombie: waitpid finds none to wait for.

    Unlike multiprocessing.active_children(), this sees children started by a
    bare os.fork. A zombie found here is reaped by the check.
    """
    try:
        found = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"a child process outlived its call: waitpid(-1, WNOHANG) gave {found}")


def rk4_terminal(N, eps, slopes, steps_per_scale=50.0, h_cap=1e-2):
    """Terminal values u(1) and interior sign-change counts for an array of slopes.

    Step size h = min(r / steps_per_scale, h_cap): fine near the inner
    boundary where the 1/r coefficient varies fast, bounded by h_cap so the
    interior oscillation scale stays resolved.
    """
    p = (N + 2.0) / (N - 2.0)
    slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
    u = np.zeros_like(slopes)
    du = slopes.copy()

    def f(r, u, du):
        return du, -(N - 1.0) / r * du - np.abs(u) ** (p - 1.0) * u

    r = eps
    sign = np.zeros_like(u)
    flips = np.zeros(u.shape, dtype=int)
    n_steps = 0
    while r < 1.0:
        h = min(r / steps_per_scale, h_cap, 1.0 - r)
        k1u, k1d = f(r, u, du)
        k2u, k2d = f(r + 0.5 * h, u + 0.5 * h * k1u, du + 0.5 * h * k1d)
        k3u, k3d = f(r + 0.5 * h, u + 0.5 * h * k2u, du + 0.5 * h * k2d)
        k4u, k4d = f(r + h, u + h * k3u, du + h * k3d)
        u = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        du = du + h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        r += h
        n_steps += 1
        if n_steps > _HARD_STEP_CAP:
            raise RuntimeError("oracle step budget exceeded")
        if r < 0.999:  # endpoint guard: the root has u(1)=0 by construction
            new_sign = np.sign(u)
            flips += (new_sign * sign < 0).astype(int)
            sign = np.where(new_sign != 0, new_sign, sign)
    return u, flips


def oracle_slope(N, k, eps, s_center, span=0.01, m=33, rounds=3, steps_per_scale=50.0):
    """Root of the terminal map near s_center, to about span/32^rounds relative.

    Also returns the interior sign-change count at the root and the shift of
    the final bracket midpoint when the step density is doubled (a built-in
    resolution self-check).
    """
    delta_k = eps ** ((2 * k - 1.0) / (2.0 * k))
    h_cap = delta_k / 40.0
    lo, hi = s_center * (1.0 - span), s_center * (1.0 + span)
    for rnd in range(rounds):
        ss = np.linspace(lo, hi, m)
        term, flips = rk4_terminal(N, eps, ss, steps_per_scale, h_cap)
        change = np.nonzero(term[:-1] * term[1:] < 0)[0]
        if change.size != 1:
            raise RuntimeError(
                f"expected exactly one terminal sign change in [{lo:g}, {hi:g}], "
                f"found {change.size}"
            )
        j = int(change[0])
        lo, hi = float(ss[j]), float(ss[j + 1])
        zeros_at_root = int(flips[j])
    mid = 0.5 * (lo + hi)

    ss = np.array([lo, mid, hi])
    term_fine, _ = rk4_terminal(N, eps, ss, 2.0 * steps_per_scale, h_cap / 2.0)
    change = np.nonzero(term_fine[:-1] * term_fine[1:] < 0)[0]
    if change.size != 1:
        raise RuntimeError("resolution self-check lost the bracket")
    mid_fine = 0.5 * (ss[change[0]] + ss[change[0] + 1])
    self_check = abs(mid_fine - mid) / mid

    return {
        "slope": mid,
        "width_rel": (hi - lo) / mid,
        "zeros": zeros_at_root,
        "self_check_rel": self_check,
    }


def reference_energy(u, params):
    """Dissipated functional: 1/2 |grad u|^2 - |u|^{p+1}/(p+1), weighted volume integral."""
    g = u.grid
    du = np.diff(u.values)
    grad2 = float(np.dot(g.face_weights * du, du))
    with np.errstate(over="ignore", invalid="ignore"):
        pot = float(np.dot(g.cell_weights, (u.values * u.values) ** (0.5 * (params.p + 1.0))))
    return sphere_area(g.N) * (0.5 * grad2 - pot / (params.p + 1.0))


class ReferenceStepper:
    """The allocating IMEX-BE step: every intermediate is a fresh array."""

    def __init__(self, grid, params):
        self.params = params
        self.unknowns = grid.unknowns
        self.mass, self.k_diag, self.k_off = grid.stiffness
        self._scale = None
        self._factor = None

    def _solve(self, scale, rhs):
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

    def step(self, v, dt):
        """v holds the full nodal array; endpoints stay pinned to zero."""
        p = self.params.p
        w = v[self.unknowns]
        with np.errstate(over="ignore", invalid="ignore"):
            react = np.abs(w) ** (p - 1.0) * w
            out = np.zeros_like(v)
            out[self.unknowns] = self._solve(dt, w + dt * react)
        return out

    def linear_step(self, z, dt, gain):
        """Backward-Euler diffusion with the explicit frozen potential: z_t = Delta z + V z,
        where gain = 1 + dt V on the unknowns."""
        out = np.zeros_like(z)
        out[self.unknowns] = self._solve(dt, z[self.unknowns] * gain)
        return out


def reference_reaction_map(v, dt, p):
    """Exact flow of v' = |v|^{p-1} v over dt at every node; +-inf where it diverges within the step."""
    with np.errstate(over="ignore", invalid="ignore"):
        base = 1.0 - (p - 1.0) * np.abs(v) ** (p - 1.0) * dt
        return np.where(base > 0.0, v * np.abs(base) ** (-1.0 / (p - 1.0)), np.sign(v) * np.inf)


def reference_evolve(v0, params, cfg):
    """`bubbletower.evolve` with the allocating step, a drift difference and a RadialField energy per step."""
    reaction_only = cfg.integrator == "reaction-only"
    if not (reaction_only or v0.dirichlet):
        raise ValueError("diffusive runs need zero-trace initial data")
    advance = partial(reference_reaction_map, p=params.p) if reaction_only else ReferenceStepper(v0.grid, params).step
    sup0 = float(np.max(np.abs(v0.values)))
    thr = cfg.blow_threshold * sup0
    v, series, drift, crossed, blowup = v0.values.copy(), [], 0.0, None, None
    try:
        for t, dt, v, sup, collapse in _march(advance, v, cfg.t_end, _adaptive_dt(cfg, params.p), cfg.dt_min):
            drift = max(drift, float(np.max(np.abs(v - v0.values))))
            series.append((t, sup, reference_energy(RadialField(v0.grid, v), params), dt))
            if sup0 > 0.0 and sup > thr:
                if crossed is None:
                    crossed = (t, sup)
                if collapse >= _COLLAPSE_RUN:
                    blowup = ((crossed[0], t), "")
                    break
    except IntegratorFailure as exc:
        if not reaction_only:
            raise
        t, dt, v = (exc.diagnostics[key] for key in ("t", "dt", "last_state"))
        blowup = ((t - dt, t), "exact reaction map diverged within the step")
    arr = np.asarray(series) if series else np.zeros((0, 4))
    final = RadialField(v0.grid, v, v0.dirichlet)
    if blowup is not None:
        # the escape time of v' = v^p from the sup norm at the first crossing, else at the last finite row
        t, sup = crossed or (series[-1][:2] if series else (0.0, sup0))
        T = t + sup ** (1.0 - params.p) / (params.p - 1.0)
        return FlowResult("BlowUp", arr, final, sup0, drift, T, *blowup)
    if crossed is not None:
        status, msg = "Undetermined", "threshold crossed without time-step collapse"
    elif sup0 > 0.0 and drift <= cfg.stationary_tol * sup0:
        status, msg = "Stationary", ""
    else:
        status, msg = "GlobalBounded", ""
    return FlowResult(status=status, series=arr, final=final, sup0=sup0, drift=drift, message=msg)


def reference_separation_time(sol, pair, lam, cfg):
    """`bubbletower.find_separation_time` as its own loop over the allocating step."""
    if lam == 1.0:
        return {"t0": None, "diagnostics": {"note": "difference identically ~0 at lambda=1"}}
    want = 1.0 if lam > 1.0 else -1.0
    g, phi = sol.field.grid, sol.field.values
    v = lam * phi
    thr = cfg.blow_threshold * float(np.max(np.abs(v)))
    nstep, best_frac, proj_sign = 0, 0.0, 0.0
    reason, blowup = "horizon reached without full separation", {}
    steps = _march(ReferenceStepper(g, sol.params).step, v, cfg.t_end, _adaptive_dt(cfg, sol.params.p), cfg.dt_min)
    with np.errstate(over="ignore", invalid="ignore"):
        for nstep, (t, _, v, sup, collapse) in enumerate(steps, start=1):
            dv = v[1:-1] - phi[1:-1]
            if proj_sign == 0.0:
                proj_sign = float(np.sign(integrate_weighted(RadialField(g, v - phi), pair.phi)))
            if nstep > 10:
                frac = float(np.mean(want * dv > 0.0))
                best_frac = max(best_frac, frac)
                if frac == 1.0:
                    return {"t0": t, "diagnostics": {"steps": nstep, "projection_sign": proj_sign}}
            if sup > thr and collapse >= _COLLAPSE_RUN:
                reason, blowup = "blow-up preempted full separation", {"t_blowup": t}
                break
    diagnostics = {"reason": reason, **blowup, "best_fraction": best_frac, "projection_sign": proj_sign, "steps": nstep}
    return {"t0": None, "diagnostics": diagnostics}


def reference_linearized_series(sol, pair, z0, t_end, dt):
    """The series of `bubbletower.linearized_evolve`, with allocating norms, projections and steps."""
    n_steps = int(np.ceil(t_end / dt))
    params = sol.params
    g = sol.field.grid
    stepper = ReferenceStepper(g, params)
    V = params.reaction_derivative(sol.field.values)[g.unknowns]
    D = g.cell_weights
    omega = sphere_area(g.N)

    def wnorm(vals):
        return float(np.sqrt(omega * np.sum(D * vals * vals)))

    z = z0.values.copy()
    z /= wnorm(z)
    log_growth = 0.0

    def advance(z, dt):
        nonlocal log_growth
        zn = stepper.linear_step(z, dt, 1.0 + dt * V)
        nn = wnorm(zn)
        if not (np.isfinite(nn) and nn > 0.0):
            return np.full_like(zn, np.nan)
        log_growth += np.log(nn)
        return zn / nn

    rows = []
    for t, _, z, _, _ in islice(_march(advance, z, np.inf, lambda sup, rest: dt, 0.0), n_steps):
        pr = omega * float(np.sum(D * z * pair.phi.values))
        rows.append((t, log_growth + np.log(max(abs(pr), 1e-300)), np.sign(pr), np.arccos(min(1.0, abs(pr))), log_growth))
    return np.asarray(rows)
