"""Output checks for the benchmark, against oracles computed apart from the program.

Every check returns a list of failure messages; an empty list means the output
passed. The oracles are closed forms (the equal-lobe laws of the Emden-Fowler
oscillator, the first Dirichlet eigenvalue of the unit ball, linear escape
along the first eigenfunction), LAPACK on the same tridiagonal, or properties
the method must have (energy dissipation, a fitted blow-up time inside its
detection window). None compares against a stored copy of earlier output.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jn_zeros

RESIDUAL_TOL = 1e-8  # scaled stationary residual, the solver's default gate
LAPACK_RTOL = 1e-9  # Sturm bisection vs LAPACK stebz on the same tridiagonal
IDENTITY_TOL = 1e-6  # int phi phi1 = -(p-1)/lambda int f(phi) phi1
DECAY_RATE_RTOL = 0.01  # energy log-slope vs the Dirichlet eigenvalue j_{1,1}^2
GROWTH_RATE_RTOL = 0.05  # linearized growth rate vs -lambda_1
ESCAPE_RTOL = 0.10  # blow-up time differences vs linear escape along phi_1
BRACKET_STEPS = 10  # T_estimate may sit this many dt_min steps outside T_bracket
ENERGY_RTOL = 1e-12  # allowed energy increase per step, relative to max |J|


def lapack_lambda1(d: np.ndarray, e: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric tridiagonal (d, e) from LAPACK."""
    return float(eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))[0])


def ball_dirichlet_lambda1(N: int) -> float:
    """First Dirichlet eigenvalue of the unit ball in R^N: j_{N/2-1,1}^2.

    Only integer Bessel orders (even N) are supported by jn_zeros.
    """
    nu = N // 2 - 1
    if 2 * (nu + 1) != N:
        raise ValueError(f"closed form needs even N, got {N}")
    return float(jn_zeros(nu, 1)[0]) ** 2


def _cell_width(nodes: np.ndarray, r: float) -> float:
    j = int(np.clip(np.searchsorted(nodes, r) - 1, 0, nodes.size - 2))
    return float(nodes[j + 1] - nodes[j])


def check_nodal_law(nodal_radii, deltas, nodes, k: int, eps: float) -> list[str]:
    """Nodal radii at eps^(1-j/k) and scales at eps^((2i-1)/(2k)), each within one grid cell."""
    fails = []
    nodes = np.asarray(nodes, dtype=float)
    laws = (
        ("nodal radius", nodal_radii, [eps ** (1.0 - j / k) for j in range(1, k)]),
        ("scale", deltas, [eps ** ((2 * i - 1) / (2 * k)) for i in range(1, k + 1)]),
    )
    for what, measured, law in laws:
        measured = [float(x) for x in measured]
        if len(measured) != len(law):
            fails.append(f"{len(measured)} {what}s, expected {len(law)}")
            continue
        for i, (m, r) in enumerate(zip(measured, law), start=1):
            h = _cell_width(nodes, r)
            if not abs(m - r) <= h:
                fails.append(f"{what} {i}: {m!r} is {abs(m - r) / h:.3g} cells from the law {r!r}")
    return fails


def check_tower(summary: dict, nodes) -> list[str]:
    """A tower summary (the `tower` or `eig` command): residual gate and the equal-lobe laws."""
    fails = []
    res = summary.get("residual_norm")
    if res is None or not res <= RESIDUAL_TOL:
        fails.append(f"scaled residual {res!r} > {RESIDUAL_TOL:g}")
    fails += check_nodal_law(
        summary.get("nodal_radii", []),
        summary.get("deltas_measured", []),
        nodes,
        int(summary["k"]),
        float(summary["eps"]),
    )
    return fails


def check_lambda1(lam, lam_lapack: float) -> list[str]:
    """lambda1 < 0 and equal to LAPACK's smallest eigenvalue of the same tridiagonal."""
    if lam is None or not lam < 0:
        return [f"lambda1 = {lam!r} is not negative"]
    if not abs(lam - lam_lapack) <= LAPACK_RTOL * abs(lam_lapack):
        return [f"lambda1 = {lam!r} vs LAPACK {lam_lapack!r}: rel gap {abs(lam / lam_lapack - 1):.3g}"]
    return []


def check_eigen(summary: dict, lam_lapack: float) -> list[str]:
    """The `eig` command's spectrum: lambda1 against LAPACK, and the sign condition."""
    fails = check_lambda1(summary.get("lambda1"), lam_lapack)
    ip = summary.get("inner_product")
    if ip is None or not ip > 0:
        fails.append(f"int phi phi1 = {ip!r} is not positive")
    ident = summary.get("identity_residual")
    if ident is None or not ident <= IDENTITY_TOL:
        fails.append(f"identity residual {ident!r} > {IDENTITY_TOL:g}")
    return fails


def check_limit(summary: dict) -> list[str]:
    """The `limit` ladder: every rung negative and non-increasing as R grows."""
    ladder = sorted((float(R), float(v)) for R, v in summary.get("lambda_star_R", {}).items())
    if len(ladder) < 2:
        return [f"limit ladder has {len(ladder)} rungs"]
    fails = [f"lambda*_R at R={R:g} is {v!r}, not negative" for R, v in ladder if not v < 0]
    for (R0, v0), (R1, v1) in zip(ladder, ladder[1:]):
        if not v1 <= v0:
            fails.append(f"lambda*_R rises from {v0!r} at R={R0:g} to {v1!r} at R={R1:g}")
    return fails


def check_energy(series) -> list[str]:
    """The energy (column 2 of a flow series) never increases beyond rounding."""
    J = np.asarray(series, dtype=float)[:, 2]
    J = J[np.isfinite(J)]
    if J.size < 2:
        return [f"energy series has {J.size} finite samples"]
    rise = float(np.max(np.diff(J)))
    allowed = ENERGY_RTOL * float(np.max(np.abs(J)))
    return [] if rise <= allowed else [f"energy rises by {rise!r} > {allowed!r}"]


def check_decay(status: str, series, N: int) -> list[str]:
    """Decay from 0.1*phi: GlobalBounded, dissipative, and J ~ exp(-2 mu t) with mu = j^2."""
    fails = [] if status == "GlobalBounded" else [f"status {status!r}, expected 'GlobalBounded'"]
    fails += check_energy(series)
    arr = np.asarray(series, dtype=float)
    t, J = arr[:, 0], arr[:, 2]
    window = (t >= 0.1) & (t <= 0.2) & (J > 0)
    if window.sum() < 10:
        return fails + [f"only {int(window.sum())} positive energy samples in t in [0.1, 0.2]"]
    slope = float(np.polyfit(t[window], np.log(J[window]), 1)[0])
    mu = ball_dirichlet_lambda1(N)
    if not abs(-0.5 * slope - mu) <= DECAY_RATE_RTOL * mu:
        fails.append(f"half energy log-slope {-0.5 * slope!r} vs j^2 = {mu!r}")
    return fails


def check_growth_rate(rate: float, lam_lapack: float) -> list[str]:
    """The linearized flow from phi_1 grows at -lambda_1 (within the first-order dt error)."""
    target = -lam_lapack
    if rate is not None and abs(rate - target) <= GROWTH_RATE_RTOL * abs(target):
        return []
    return [f"linearized growth rate {rate!r} vs -lambda1 = {target!r}"]


def check_flow_row(
    lam: float,
    status: str,
    T_estimate,
    T_bracket,
    series,
    drift_rel,
    dt_min: float,
    stationary_tol: float,
) -> list[str]:
    """One lambda of the sweep: Stationary at 1, BlowUp elsewhere with T in its window."""
    fails = check_energy(series) if series is not None else ["no flow series"]
    if lam == 1.0:
        if status != "Stationary":
            fails.append(f"lambda=1: status {status!r}, expected 'Stationary'")
        if drift_rel is None or not drift_rel <= stationary_tol:
            fails.append(f"lambda=1: drift {drift_rel!r} > {stationary_tol:g}")
        return fails
    if status != "BlowUp":
        return fails + [f"lambda={lam!r}: status {status!r}, expected 'BlowUp'"]
    if T_estimate is None or not (math.isfinite(T_estimate) and T_estimate > 0):
        return fails + [f"lambda={lam!r}: T_estimate {T_estimate!r} is not finite and positive"]
    if T_bracket is None:
        return fails + [f"lambda={lam!r}: no T_bracket"]
    lo, hi = T_bracket[0] - BRACKET_STEPS * dt_min, T_bracket[1] + BRACKET_STEPS * dt_min
    if not lo <= T_estimate <= hi:
        fails.append(f"lambda={lam!r}: T_estimate {T_estimate!r} outside {tuple(T_bracket)!r} widened to ({lo!r}, {hi!r})")
    return fails


def check_escape_times(lam_a: float, T_a: float, lam_b: float, T_b: float, lam1: float) -> list[str]:
    """T(lam_a) - T(lam_b) against the linear escape time log((lam_b-1)/(lam_a-1)) / |lambda1|."""
    predicted = math.log((lam_b - 1.0) / (lam_a - 1.0)) / abs(lam1)
    measured = T_a - T_b
    if abs(measured - predicted) <= ESCAPE_RTOL * abs(predicted):
        return []
    return [f"T({lam_a:.6g}) - T({lam_b:.6g}) = {measured!r} vs linear escape {predicted!r}"]
