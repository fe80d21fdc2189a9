"""Time integration of the critical heat equation with blow-up detection.

Every run is driven by one marching engine, `_march`: it advances a state by
a step function at the step sizes its caller picks, yields the time, step,
state, sup norm and dt-collapse count after each step, and raises
IntegratorFailure once a step leaves the floats. Three loops drive it:
`_evolve`, the one that classifies a run, which its caller watches or stops
by a per-step probe (the energy of `evolve`, the search of
`find_separation_time`); `linearized_evolve` at a fixed dt; and
`comparison_monitor`, the one lockstep caller, on a 2 x n state. The entry
points that take two fields require both on equal grids (`mesh._same_grid`:
the same N and nodes), those that take params require its N
(`mesh._same_dimension`), and every run requires its starting field finite
and, for the IMEX step, 0 where the step pins it (`mesh._run_data`).

Every diffusive run takes the one IMEX step, `_Stepper`: backward Euler on
the diffusion and explicit reaction. It keeps the discrete maximum principle
on the diffusion side, which `comparison_monitor` needs, and it is first
order in time, as the explicit reaction makes any such scheme. `evolve` alone
also runs `reaction-only`, the closed-form map of v' = |v|^{p-1} v without
diffusion. The diffusion solve (D + dt K) x = D b, with D and K the grid's
mass and stiffness (`RadialGrid.stiffness`), is symmetric positive definite
and tridiagonal: it is factored once per step size (LAPACK dpttrf, from
scipy's compiled module through `_lapack`), and every step at that size is one
dpttrs solve. Each step is bounded by
dt <= safety / sup|v|^{p-1}, which resolves the reaction-dominated ramp into
blow-up; `FlowConfig`'s class constants set the rules that classify a run.

A converged stationary solution is an exact fixed point of the IMEX step by
construction (the grid Newton solver and the stepper share the same discrete
operator), so stationarity holds to roundoff over the usable horizon.

Each IMEX step writes into a fresh output, so no returned state is ever
overwritten. The step and the energy are plain array expressions, with no
scratch arrays kept across steps (docs/decisions.md gives the measurements).
`evolve` takes the drift from node-wise extremes updated in place. Overflow
is reported by `_march` from the sup norm, not by numpy: each caller runs its
whole loop under one np.errstate, entered outside the generator so that a
loop left early leaves no error state behind.

Every run from lambda * phi (the `flow` operation's, each sweep row's and the
separation search's) starts in `_run_from`, the one place that refuses a
non-finite lambda, builds the zero-trace data, gives the lambda = 1 run, phi
itself, its horizon 10/|lambda_1| from the eigenpair, which `lambda_sweep`
therefore requires, and writes the run's record (lambda, status, T_estimate,
drift_rel, t_end), which the `flow` summary and every sweep row carry
unchanged. `_sweep_rows` fans the sweep's independent runs out over the
usable cores (`_fan_out`), bit-identical to a serial sweep's, and no child
outlives the call. A sweep row keeps no energy, so its runs take no probe.

Each of the three per-step row recorders (`evolve`'s series and the rows of
`linearized_evolve` and `comparison_monitor`) appends its floats to an
array("d"), 8 bytes a value, and returns np.frombuffer(rows).reshape(-1,
ncols): a float64 view of the doubles it stored, with no copy at the end of
the run.
"""
from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, replace
from itertools import islice
from typing import ClassVar

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import IntegratorFailure
from .mesh import RadialField, _run_data, _same_dimension, _same_grid, integrate_weighted
from .params import ProblemParams, _require_finite_positive, sphere_area
from .spectral import EigenPair
from .stationary import StationarySolution, stationary_residual

_INTEGRATORS = ("imex-be", "reaction-only")
# consecutive steps at dt_min with a growing sup norm that count as a dt collapse
_COLLAPSE_RUN = 5
_ONESIDED_CANDIDATES = np.logspace(-7, -2, 11)  # the eps' values find_onesided_window scans


@dataclass(frozen=True)
class FlowConfig:
    """Flow settings dt_max, t_end, safety (dt <= safety / sup|v|^{p-1}) and integrator.

    The class constants fix the classification: BlowUp needs the sup norm past
    blow_threshold * sup0 and _COLLAPSE_RUN growing steps at the floor dt_min,
    and Stationary a drift of at most stationary_tol * sup0.
    """

    dt_min: ClassVar[float] = 1e-12
    blow_threshold: ClassVar[float] = 1e3
    stationary_tol: ClassVar[float] = 1e-4

    dt_max: float = 1e-5
    t_end: float = 2.0
    safety: float = 0.1
    integrator: str = "imex-be"

    def __post_init__(self) -> None:
        _require_finite_positive(dt_max=self.dt_max, t_end=self.t_end, safety=self.safety)
        if not self.dt_min < self.dt_max:
            raise ValueError(f"need dt_min < dt_max, got {self.dt_min} >= {self.dt_max}")
        if not self.dt_min < self.t_end:  # a shorter flow would take no step
            raise ValueError(f"need dt_min < t_end, got {self.dt_min} >= {self.t_end}")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}")


@dataclass(eq=False)
class FlowResult:
    """Classification of one run plus its series, a float64 view of the array("d") of its rows.

    status is one of 'Stationary', 'GlobalBounded', 'BlowUp', 'Undetermined'.
    series columns: t, sup norm, the probe's value (`evolve`'s: the energy), dt,
    a row per step. For blow-up runs T_estimate is the escape time
    t + sup^{1-p}/(p-1) of v' = v^p at the first series row past the
    threshold, or, when the closed-form reaction map diverges first, at the
    last finite row (t = 0 and sup0 if there is none). The escape time never
    decreases along an IMEX-BE run, so T_estimate lies in
    [T_bracket[0], T_bracket[1] + dt_min/(safety (p-1))]. T_bracket is the
    detection window: (first threshold crossing, detection time) for the
    threshold + dt-collapse rule, or the single step inside which the
    closed-form reaction map diverged. For reaction-only runs the ODE blow-up
    time lies within the bracket up to the accumulated roundoff of the step
    clock (~ steps * eps_mach * t); the collapse rule can also fire a few
    clamped steps before the map itself diverges, putting T just past the
    right edge by a comparable margin.
    """

    status: str
    series: np.ndarray
    final: RadialField
    sup0: float
    drift: float
    T_estimate: float | None = None
    T_bracket: tuple | None = None
    message: str = ""


def _energy_of(v: np.ndarray, grid, p: float) -> float:
    """The energy of nodal values v: omega (1/2 sum beta (v_{j+1} - v_j)^2 - sum D |v|^{p+1} / (p+1)).

    |v|^{p+1} is taken as (v v)^{(p+1)/2}; |v| ** (p + 1) would round
    differently. Overflow is left to the caller's np.errstate.
    """
    du = v[1:] - v[:-1]
    grad2 = float(np.dot(grid.face_weights * du, du))
    pot = float(np.dot(grid.cell_weights, (v * v) ** (0.5 * (p + 1.0))))
    return sphere_area(grid.N) * (0.5 * grad2 - pot / (p + 1.0))


def _energy_probe(grid, p: float):
    """The `_evolve` probe that fills the series' third column with the energy and never stops the run."""
    return lambda t, v: (_energy_of(v, grid, p), None)


def energy(u: RadialField, params: ProblemParams) -> float:
    """Dissipated functional: 1/2 |grad u|^2 - |u|^{p+1}/(p+1), weighted volume integral."""
    _same_dimension(u.grid, params)
    with np.errstate(over="ignore", invalid="ignore"):
        return _energy_of(u.values, u.grid, params.p)


class _Stepper:
    """The IMEX-BE step on the unknown nodes of a zero-trace field (`mesh._zero_trace`).

    The discrete Laplacian on the unknowns is -D^{-1} K, with D and K the
    mass and the symmetric stiffness matrix of `RadialGrid.stiffness`. The
    implicit solve (I + s D^{-1} K) x = b is done as (D + s K) x = D b, whose
    matrix is symmetric positive definite for s >= 0. Its L D L^T factor
    (dpttrf) is kept until the scale s changes, so a run at a fixed dt factors
    once and then pays one dpttrs solve per step. The linear step takes its
    gain 1 + dt V from the caller, which holds dt and V fixed for a run.

    Each step returns a freshly allocated array, 0 outside the unknowns, on
    whose unknown slice dpttrs solves in place, so a returned state is never
    overwritten by a later step. The steps enter no np.errstate: overflow
    becomes inf or NaN in the state, which the caller's loop detects.
    """

    def __init__(self, grid, params: ProblemParams):
        self.params = params
        self.unknowns = grid.unknowns
        self.mass, self.k_diag, self.k_off = grid.stiffness
        self._scale = None
        self._factor = None

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

    def step(self, v: np.ndarray, dt: float) -> np.ndarray:
        """v holds the full nodal array; the nodes outside `grid.unknowns` stay pinned to zero."""
        w = v[self.unknowns]
        out = np.zeros(v.shape)  # calloc'd zeros; np.zeros_like would fill them
        out[self.unknowns] = w + self.params.reaction(w) * dt
        return self._solve(dt, out)

    def linear_step(self, z: np.ndarray, dt: float, gain: np.ndarray) -> np.ndarray:
        """Backward-Euler diffusion with the explicit frozen potential: z_t = Delta z + V z,
        where gain = 1 + dt V on the unknowns."""
        out = np.zeros(z.shape)
        np.multiply(z[self.unknowns], gain, out=out[self.unknowns])
        return self._solve(dt, out)


def _reaction_map(v: np.ndarray, dt: float, p: float) -> np.ndarray:
    """Exact flow of v' = |v|^{p-1} v over dt at every node; +-inf where it diverges within the step."""
    base = 1.0 - np.abs(v) ** (p - 1.0) * (p - 1.0) * dt
    return np.where(base > 0.0, np.abs(base) ** (-1.0 / (p - 1.0)) * v, np.sign(v) * np.inf)


def _sup_norm(v: np.ndarray) -> float:
    """max |v| without a |v| temporary; the + 0.0 turns an all-zero state's -0.0 into 0.0."""
    return float(max(v.max(), -v.min())) + 0.0


def _march(advance, v: np.ndarray, t_end: float, dt_of, dt_min: float):
    """Step v <- advance(v, dt) from t = 0 until t_end, yielding (t, dt, v, sup, collapse) after each step.

    dt_of(sup, t_end - t) picks each step from the sup norm of the state it
    starts from; collapse counts the consecutive steps taken at dt_min that
    grew the sup norm. The march goes on while t_end - t > dt_min, so no
    step is shorter than dt_min: a clock that falls a rounding short of t_end
    ends the march instead of taking a sliver step.
    A step whose state is not finite raises IntegratorFailure carrying t, dt
    and the last finite state.
    """
    t, sup, collapse = 0.0, _sup_norm(v), 0
    while t_end - t > dt_min:
        dt = dt_of(sup, t_end - t)
        v_new = advance(v, dt)
        t += dt
        sup_new = _sup_norm(v_new)
        if not math.isfinite(sup_new):
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


def evolve(v0: RadialField, params: ProblemParams, cfg: FlowConfig) -> FlowResult:
    """Integrate v_t = Delta v + |v|^{p-1}v from v0 and classify the trajectory."""
    return _evolve(v0, params, cfg, _energy_probe(v0.grid, params.p))


def _evolve(v0: RadialField, params: ProblemParams, cfg: FlowConfig, probe) -> FlowResult:
    """`evolve`'s run: the one loop that classifies a run, watched or stopped by probe.

    probe(t, v) -> (value, stop) is called after each step, before that step's
    threshold and collapse checks; value fills the series' third column, and a
    truthy stop ends the run 'Undetermined' with message stop and no T. With
    probe None no call is made per step and the column is NaN.
    """
    reaction_only = cfg.integrator == "reaction-only"
    _run_data(v0, zero_trace=not reaction_only)
    _same_dimension(v0.grid, params)
    p = params.p
    advance = (lambda v, dt: _reaction_map(v, dt, p)) if reaction_only else _Stepper(v0.grid, params).step
    sup0 = float(np.max(np.abs(v0.values)))
    thr = cfg.blow_threshold * sup0
    lo, hi = v0.values.copy(), v0.values.copy()  # node-wise min and max of the state over the run
    v, series, stop = v0.values.copy(), array("d"), None
    crossed, blowup = None, None  # crossed: (t, sup) at the first crossing
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t, dt, v, sup, collapse in _march(advance, v, cfg.t_end, _adaptive_dt(cfg, p), cfg.dt_min):
                np.minimum(lo, v, out=lo)
                np.maximum(hi, v, out=hi)
                value, stop = (math.nan, None) if probe is None else probe(t, v)
                series.extend((t, sup, value, dt))
                if stop:
                    break
                if sup0 > 0.0 and sup > thr:
                    if crossed is None:
                        crossed = (t, sup)
                    if collapse >= _COLLAPSE_RUN:
                        blowup = ((crossed[0], t), "")
                        break
    except IntegratorFailure as exc:
        if not reaction_only:
            raise
        # the closed-form map diverges exactly when the ODE blow-up time falls
        # inside this step (in the step clock), so the step brackets T up to
        # accumulated clock roundoff
        t, dt, v = (exc.diagnostics[key] for key in ("t", "dt", "last_state"))
        blowup = ((t - dt, t), "exact reaction map diverged within the step")
    # the drift max_t |v - v0|: rounding of v - v0 is monotone in v, so the
    # extremes of v give the same value as the differences taken every step
    drift = float(max(np.max(hi - v0.values), np.max(v0.values - lo)))
    arr = np.frombuffer(series).reshape(-1, 4)
    final = RadialField(v0.grid, v, v0.dirichlet)
    if blowup is not None:
        t, sup = crossed or ((series[-4], series[-3]) if series else (0.0, sup0))
        T = t + sup ** (1.0 - p) / (p - 1.0)  # the escape time of v' = v^p from sup at t
        return FlowResult("BlowUp", arr, final, sup0, drift, T, *blowup)
    if stop or crossed is not None:
        status, msg = "Undetermined", stop or "threshold crossed without time-step collapse"
    elif sup0 > 0.0 and drift <= cfg.stationary_tol * sup0:
        status, msg = "Stationary", ""
    else:
        status, msg = "GlobalBounded", ""
    return FlowResult(status=status, series=arr, final=final, sup0=sup0, drift=drift, message=msg)


def _run_from(
    sol: StationarySolution, pair: EigenPair | None, lam: float, cfg: FlowConfig, probe=None
) -> tuple[FlowResult, dict]:
    """The run from the zero-trace lam * phi (`_evolve`, watched by probe) and its record.

    The record, {lambda, status, T_estimate, drift_rel, t_end}, is what the
    `flow` summary and every sweep row share, so a per-run field is added here.
    At lam = 1 the run is phi itself and its horizon is t_end = 10/|lambda_1|,
    read from pair, which no other lam reads; a missing pair there is a
    ValueError. Past a few dozen multiples of 1/|lambda_1| double precision
    necessarily seeds the unstable mode and any discrete stationary run blows
    up spuriously, so stationarity is only a meaningful statement on that
    horizon. Other lambdas keep cfg.t_end. A pair must live on sol's grid.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if pair is not None:
        _same_grid(pair.phi, sol.field)
    if lam == 1.0:
        if pair is None:
            raise ValueError("lambda = 1 needs the first eigenpair: its horizon is t_end = 10/|lambda_1|")
        cfg = replace(cfg, t_end=10.0 / abs(pair.lam))
    v0 = RadialField(sol.field.grid, lam * sol.field.values, dirichlet=True)
    res = _evolve(v0, sol.params, cfg, probe)
    return res, {
        "lambda": lam, "status": res.status, "T_estimate": res.T_estimate,
        "drift_rel": res.drift / max(res.sup0, 1e-300), "t_end": cfg.t_end,
    }


def _sweep_row(sol: StationarySolution, pair: EigenPair, lam: float, cfg: FlowConfig) -> dict:
    """One `lambda_sweep` row: the record of a run without a probe (`_run_from`) plus
    sup_final, or a 'Failed' row if it overflows. The row keeps no energy, so no step evaluates it."""
    try:
        res, record = _run_from(sol, pair, lam, cfg)
    except IntegratorFailure as exc:
        return {"lambda": lam, "status": "Failed", "message": str(exc)}
    return {**record, "sup_final": float(np.max(np.abs(res.final.values)))}


def _sweep_workers(n_runs: int) -> int:
    """How many processes n_runs sweep runs spread over: one per usable core, at most
    one per run, and 1 (serial) where a fork cannot start them."""
    import multiprocessing

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return 1  # multiprocessing lets no daemon have children: a terminated daemon would orphan them
    return max(1, min(n_runs, cores))


def _fan_out(fn, items: list, workers: int) -> list:
    """[fn(item) for item in items], run by the caller and workers - 1 forked children.

    Every process, the caller included, claims the next index by reading a
    4-byte record from a claim file whose offset they share, which the kernel
    advances atomically. The children inherit fn and items through the fork
    and pickle back only their results and exceptions, one pipe each, then
    leave by os._exit. Returns the results in input order or raises the first
    failed item's exception in input order; a child that ends without a report
    raises RuntimeError with its exit code. If the caller fails, it empties the
    claims, so the children stop after their current item. Every child is
    reaped before the call returns or raises; a child whose caller was killed
    stops after its current item too, since it checks its parent before each claim.
    """
    if workers == 1:
        return [fn(item) for item in items]
    # imported here: at module level, ahead of numpy, they made `import bubbletower` measurably slower
    import pickle
    import tempfile

    results, errors, reports = {}, {}, []
    with tempfile.TemporaryFile(buffering=0) as claims:
        claims.write(np.arange(len(items), dtype="<u4").tobytes())
        claims.seek(0)

        def run_claims(results, errors, caller=None):
            # a child stops claiming once the caller is gone: it has been re-parented
            while (caller is None or os.getppid() == caller) and (record := os.read(claims.fileno(), 4)):
                i = int.from_bytes(record, "little")
                try:
                    results[i] = fn(items[i])
                except Exception as exc:
                    errors[i] = exc

        children, caller = [], os.getpid()  # children: (pid, read end of its report pipe)
        try:
            for _ in range(workers - 1):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child: never returns into the caller's code
                    status = 1
                    try:
                        for fd in [read_end] + [r for _, r in children]:
                            os.close(fd)
                        mine = {}, {}
                        run_claims(*mine, caller)
                        with open(write_end, "wb") as pipe:
                            pickle.dump(mine, pipe)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_end)
                children.append((pid, read_end))
            run_claims(results, errors)
        finally:
            os.lseek(claims.fileno(), 0, os.SEEK_END)  # empties the claims if the caller failed
            for pid, read_end in children:
                with open(read_end, "rb") as pipe:
                    report = pipe.read()
                reports.append((pid, os.waitpid(pid, 0)[1], report))
    # an exit code as subprocess gives it: -9 for a child killed by signal 9
    lost = [f"process {pid}, exit code {os.waitstatus_to_exitcode(status)}" for pid, status, _ in reports if status]
    if lost:
        raise RuntimeError(f"sweep children ended without a report: {'; '.join(lost)}")
    for _, _, report in reports:
        theirs = pickle.loads(report)
        results.update(theirs[0])
        errors.update(theirs[1])
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(items))]


def _sweep_rows(cells: list, cfg: FlowConfig) -> tuple[list[dict], int]:
    """(the `_sweep_row` of each (sol, pair, lam) cell in order, the number of processes
    they fanned out over): `_fan_out` over `_sweep_workers(len(cells))`."""
    workers = _sweep_workers(len(cells))
    return _fan_out(lambda cell: _sweep_row(*cell, cfg), cells, workers), workers


def lambda_sweep(sol: StationarySolution, lambdas, cfg: FlowConfig, pair: EigenPair) -> list[dict]:
    """Classify the flow from lambda * phi for each lambda, one row per lambda in order.

    pair is sol's first eigenpair, and it is required: the lambda = 1 run is
    phi itself, which is stationary only on the horizon 10/|lambda_1|
    (`_run_from`, the one place that sets it). Other lambdas keep cfg.t_end.

    The runs are independent, so they fan out over the usable cores
    (`_sweep_rows`): the caller forks one child per extra core and runs
    lambdas itself, and every child is reaped before the call returns. Each
    run does the same arithmetic as in the caller, so the rows are
    bit-identical to a serial sweep's. A row keeps no energy, so no run
    evaluates it. An overflowing run gives a 'Failed' row; any other
    exception is raised here, the first in lambda order.
    """
    return _sweep_rows([(sol, pair, float(lam)) for lam in lambdas], cfg)[0]


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
    over the second half of the run. norm_rate is the fitted log-slope of the
    field norm itself: for data starting orthogonal to the eigenfunction it
    stays near the second eigenvalue's rate (the projection rate does not,
    because roundoff seeds the first mode and the seed grows coherently).
    series columns: t, log |projection|, its sign, the angle between z(t)
    and the eigenfunction, log norm.
    The backward-Euler-diffusion step makes the fitted rates first-order
    accurate in dt, so the default dt = 0.002/|lambda_1| keeps the rate error
    well under a percent. z0 must lie on sol's grid.
    """
    lam = pair.lam
    if t_end is None:
        t_end = 5.0 / abs(lam)
    if dt is None:
        dt = 0.002 / abs(lam)
    _require_finite_positive(t_end=t_end, dt=dt)
    _same_grid(z0, sol.field)
    _run_data(z0, zero_trace=True)
    if not math.isfinite(t_end / dt):  # checked before ceil, which would overflow on it
        raise ValueError(f"t_end={t_end:g} at dt={dt:g} gives {t_end / dt} steps; the step count must be finite")
    n_steps = int(np.ceil(t_end / dt))
    if n_steps < 3:  # the rate is fitted over the second half of the rows
        raise ValueError(f"t_end={t_end:g} at dt={dt:g} gives {n_steps} steps; the rate fit needs at least 3")
    params = sol.params
    g = sol.field.grid
    stepper = _Stepper(g, params)

    def wnorm(vals):
        field = RadialField(g, vals)
        return float(np.sqrt(integrate_weighted(field, field)))

    def projection(vals):
        return integrate_weighted(RadialField(g, vals), pair.phi)

    def advance(z, dt):
        # renormalize every step and keep the log of the growth apart
        nonlocal log_growth
        zn = stepper.linear_step(z, dt, gain)
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
    log_growth, rows = 0.0, array("d")
    with np.errstate(over="ignore", invalid="ignore"):
        gain = 1.0 + dt * params.reaction_derivative(sol.field.values)[g.unknowns]
        # exactly ceil(t_end/dt) steps: the accumulated clock may fall just short of t_end
        for t, _, z, _, _ in islice(_march(advance, z, np.inf, lambda sup, rest: dt, 0.0), n_steps):
            pr = projection(z)
            rows.extend(
                (t, log_growth + np.log(max(abs(pr), 1e-300)), np.sign(pr), np.arccos(min(1.0, abs(pr))), log_growth)
            )
    arr = np.frombuffer(rows).reshape(-1, 5)
    half = arr.shape[0] // 2
    A = np.vstack([np.ones(arr.shape[0] - half), arr[half:, 0]]).T
    coef, *_ = np.linalg.lstsq(A, arr[half:, 1], rcond=None)
    coef_norm, *_ = np.linalg.lstsq(A, arr[half:, 4], rcond=None)
    return {
        "growth_rate": float(coef[1]),
        "norm_rate": float(coef_norm[1]),
        "projection_sign": float(arr[-1, 2]),
        "orthogonal_start": orthogonal_start,
        "series": arr,
    }


def find_separation_time(
    sol: StationarySolution,
    pair: EigenPair,
    lam: float,
    cfg: FlowConfig,
) -> dict:
    """Earliest time at which the flow from lam*phi differs from phi with one sign everywhere.

    A probe on `_run_from`'s IMEX-BE run checks every step after a 10-step
    transient, at the nodes of grid.unknowns only, demanding sign + for
    lam > 1 and - for lam < 1, and stops the run at the first that passes.
    t0 = None when the horizon or `_evolve`'s blow-up comes first; diagnostics
    then carry the best single-signed node fraction, the sign of the
    projection of v - phi on the first eigenfunction (it stabilizes almost
    immediately) and t_blowup if any. pair must live on sol's grid, at lam = 1 too.
    """
    _same_grid(pair.phi, sol.field)
    if lam == 1.0:
        return {"t0": None, "diagnostics": {"note": "difference identically ~0 at lambda=1"}}
    want = 1.0 if lam > 1.0 else -1.0
    g, phi, unk = sol.field.grid, sol.field.values, sol.field.grid.unknowns
    nstep, best_frac, proj_sign = 0, 0.0, 0.0

    def separation_probe(t, v):
        nonlocal nstep, best_frac, proj_sign
        nstep += 1
        if proj_sign == 0.0:
            proj_sign = float(np.sign(integrate_weighted(RadialField(g, v - phi), pair.phi)))
        if nstep <= 10:
            return math.nan, None
        frac = float(np.mean(want * (v[unk] - phi[unk]) > 0.0))
        best_frac = max(best_frac, frac)
        return frac, "v - phi one-signed at every interior node" if frac == 1.0 else None

    res, _ = _run_from(sol, pair, lam, replace(cfg, integrator="imex-be"), separation_probe)
    if best_frac == 1.0:
        return {"t0": float(res.series[-1, 0]), "diagnostics": {"steps": nstep, "projection_sign": proj_sign}}
    reason, blowup = "horizon reached without full separation", {}
    if res.status == "BlowUp":
        reason, blowup = "blow-up preempted full separation", {"t_blowup": res.T_bracket[1]}
    diagnostics = {"reason": reason, **blowup, "best_fraction": best_frac, "projection_sign": proj_sign, "steps": nstep}
    return {"t0": None, "diagnostics": diagnostics}


def subsupersolution_residual(
    psi: RadialField,
    phi1: RadialField,
    eps_prime: float,
    params: ProblemParams,
) -> dict:
    """One-sided maxima of the stationary residual of psi + eps_prime * phi1.

    With eps_prime >= 0 the perturbed field should be a subsolution (residual
    <= 0 at the nodes of grid.unknowns), so max_wrong_sign is the largest
    positive residual; with eps_prime < 0 the supersolution side is checked and
    max_wrong_sign is the largest negative excursion. Both one-sided maxima
    are reported either way. psi and phi1 must lie on one grid.
    """
    _same_grid(psi, phi1)
    s = RadialField(psi.grid, psi.values + eps_prime * phi1.values)
    res = stationary_residual(s, params).values[psi.grid.unknowns]
    max_pos = float(np.max(np.maximum(res, 0.0)))
    max_neg = float(np.max(np.maximum(-res, 0.0)))
    return {
        "max_wrong_sign": max_pos if eps_prime >= 0 else max_neg,
        "max_positive": max_pos,
        "max_negative": max_neg,
    }


def find_onesided_window(
    sol: StationarySolution,
    pair: EigenPair,
) -> dict:
    """Scan eps' for values where psi +/- eps' phi1 pass the one-sided residual checks.

    The pass tolerance is twice the eps'=0 residual floor (the converged
    solution's own stationary residual defines what 'numerically zero' means
    on this grid; below that floor one-sidedness is not measurable). The
    candidates are _ONESIDED_CANDIDATES.
    """
    params = sol.params
    floor = float(np.max(np.abs(stationary_residual(sol.field, params).values[sol.field.grid.unknowns])))
    tol = 2.0 * floor
    rows = []
    passing = []
    for ep in _ONESIDED_CANDIDATES:
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

    vA0 <= vB0 must be finite zero-trace fields on one grid, as an IMEX
    `evolve` run's data must be (`mesh._run_data`).
    Both trajectories take the same step sizes (driven by the larger sup
    norm); monitoring stops at the horizon or when either flow crosses the
    blow-up threshold. A step that overflows either flow raises
    IntegratorFailure. Both flows always take the IMEX-BE step, which is
    monotone, so the violation should sit at roundoff level; cfg.integrator is
    not read.
    """
    _same_grid(vA0, vB0)
    _same_dimension(vA0.grid, params)
    _run_data(vA0, zero_trace=True)
    _run_data(vB0, zero_trace=True)
    if float(np.max(vA0.values - vB0.values)) > 0.0:
        raise ValueError("initial data are not ordered: need vA0 <= vB0 pointwise")
    stepper = _Stepper(vA0.grid, params)
    pair0 = np.array([vA0.values, vB0.values])
    thr = cfg.blow_threshold * max(float(np.max(np.abs(pair0))), 1e-300)
    t, violation, rows, stopped = 0.0, 0.0, array("d"), "horizon"
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
            rows.extend((t, viol))
            if sup > thr:
                stopped = "blow-up threshold"
                break
    return {"violation": violation, "series": np.frombuffer(rows).reshape(-1, 2), "stopped": stopped, "t_final": t}
