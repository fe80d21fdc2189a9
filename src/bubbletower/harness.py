"""Experiment orchestration: config files, run directories, manifests, CSV output.

Config files are flat key=value lines with # comments; unknown keys are
rejected so typos cannot silently fall back to defaults. OPERATIONS lists
each operation's body, flag keys, help and console line, and run() executes
one of them; only `_report` names an operation, to skip its own
directories. Every successful run writes into its own
directory named <operation>-<hash8> where the hash covers the config keys
the operation reads (`_read_keys`) and the artifact version, so re-running
the same configuration lands in the same directory, whatever the keys it does
not read, and reproduces the same data files byte for byte (timestamps live
only in the manifest). The manifest's unread_config_keys lists the keys the
config file sets that the operation does not read. Data files carry 17 significant
digits; console summaries print 6. A numeric table (a 2-D float array) is
written through one row template of "%.17g" fields, one % per block of
_ROW_BLOCK rows, byte-identical to the per-cell rendering that mixed tables
(None, str, bool, int and float cells) take.
"""
from __future__ import annotations

import dataclasses
import datetime
import hashlib
import inspect
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SolverError
from .flow import FlowConfig, _energy_probe, _run_from, _sweep_rows, comparison_monitor, evolve
from .mesh import RadialField, apply_radial_laplacian, build_grid
from .params import ProblemParams
from .profile import Bubble, bubble_eval, ef_peak_height
from .spectral import (
    LinearizedOperator,
    _innermost_scale,
    assemble_linearized,
    assemble_operator,
    eigenvalue_k,
    first_eigenpair,
    limit_overlap,
    limit_scan,
    sign_condition,
)
from .stationary import find_nodal_solution, stationary_residual

# key -> (default, parser); list-valued keys hold comma-separated floats. The solver and
# flow keys take their defaults from find_nodal_solution and FlowConfig; the limit problem
# has no settings besides N (its ladder of radii is spectral._LIMIT_LADDER).
_FLOATS = "floats"
_SOLVER_KEYS = ("M", "residual_tol")
_SCHEMA = {
    "N": (4, int),
    "k": (2, int),
    "eps": (1e-3, float),
    **{
        key: (p.default, type(p.default))
        for key, p in inspect.signature(find_nodal_solution).parameters.items()
        if key in _SOLVER_KEYS
    },
    "lambda": (1.0, float),
    "lambda_list": ((0.1, 0.95, 1.0, 1.05), _FLOATS),
    "eps_list": ((1e-2, 1e-3, 1e-4), _FLOATS),
    **{f.name: (f.default, type(f.default)) for f in dataclasses.fields(FlowConfig)},
}


def parse_value(key: str, raw: str):
    """Parse one raw config value, from a file or a flag, by the schema's parser for key."""
    kind = _SCHEMA[key][1]
    try:
        if kind is not _FLOATS:
            return kind(raw)
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {raw!r}") from exc
    if not values:
        raise ValueError(f"config key {key!r}: empty list")
    return values


def load_config(path) -> tuple[dict, str]:
    """Parse a flat key=value file; unknown, repeated and malformed lines are errors.

    The file is read once, so it may be a pipe. Returns the settings and the
    SHA-256 of the bytes they were parsed from.
    """
    cfg, first_set = {}, {}
    data = Path(path).read_bytes()
    for lineno, line in enumerate(data.decode().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SCHEMA:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_set:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r} (first set on line {first_set[key]})")
        first_set[key] = lineno
        cfg[key] = parse_value(key, raw)
    return cfg, hashlib.sha256(data).hexdigest()


def resolve_config(file_cfg: dict | None = None, overrides: dict | None = None) -> dict:
    """defaults <- file <- CLI flags, then range validation of every value and list entry."""
    cfg = {k: v for k, (v, _) in _SCHEMA.items()}
    for layer in (file_cfg or {}, overrides or {}):
        for key, val in layer.items():
            if key not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = val
    ProblemParams(cfg["N"], cfg["k"], cfg["eps"])
    for eps in cfg["eps_list"]:
        try:
            ProblemParams(cfg["N"], cfg["k"], eps)
        except ValueError as exc:
            raise ValueError(f"eps_list entry {eps}: {exc}") from exc
    _flow_config(cfg)
    if cfg["M"] < 16:
        raise ValueError("grid resolution must be at least 16 cells")
    if not math.isfinite(cfg["lambda"]):
        raise ValueError(f"lambda must be finite, got {cfg['lambda']}")
    if not all(map(math.isfinite, cfg["lambda_list"])):
        raise ValueError(f"lambda_list entries must be finite, got {cfg['lambda_list']}")
    return cfg


def _flow_config(cfg: dict) -> FlowConfig:
    return FlowConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(FlowConfig)})


_ROW_BLOCK = 4096  # rows per formatted block of a numeric table


def _fmt17(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):  # bools too, as True and False
        return str(x)
    return format(float(x), ".17g")


def fmt6(x) -> str:
    try:
        return format(float(x), ".6g")
    except (TypeError, ValueError):
        return str(x)


def write_csv(path, header, rows) -> None:
    """Write a header line and rows: a 2-D float array by one % per block of _ROW_BLOCK
    rows on the "%.17g" row template repeated, so no whole-table string or list is
    held; any other iterable of rows cell by cell through _fmt17. Both give the same
    bytes for a float, since "%.17g" % x == format(x, ".17g") (signed zeros, inf and nan too)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for block in np.split(rows, range(_ROW_BLOCK, rows.shape[0], _ROW_BLOCK)):
                fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))
            return
        for row in rows:
            fh.write(",".join(_fmt17(x) for x in row) + "\n")


def _sanitize(obj):
    """obj as JSON takes it: str keys, lists for tuples, non-finite floats as their repr.
    Operation bodies build Python scalars and lists, so no numpy value reaches it."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _read_keys(op: str) -> set:
    """The config keys op reads: its flags, plus the solver's keys if it solves a tower
    (every operation with an M flag does) and the flow settings if it runs the flow
    (every operation with a t_end flag does)."""
    keys = set(OPERATIONS[op][1])
    if "M" in keys:
        keys.update(_SOLVER_KEYS)
    if "t_end" in keys:
        keys.update(f.name for f in dataclasses.fields(FlowConfig))
    return keys


def _hash8(op: str, cfg: dict) -> str:
    read = {key: cfg[key] for key in _read_keys(op)}
    blob = json.dumps({"op": op, "version": __version__, "config": _sanitize(read)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _start_manifest(op: str, cfg: dict, config_file) -> dict:
    """The manifest before the run: its config holds exactly the keys op reads, its
    tolerances the Newton gate if op solves a tower and the stationarity
    one if it runs the flow, and its grid the annuli op's eps or eps_list flag names."""
    file_cfg, digest = config_file or ({}, None)
    read = _read_keys(op)
    tolerances = {}
    if "M" in read:
        tolerances["residual_tol"] = cfg["residual_tol"]
    if "t_end" in read:
        tolerances["stationary_tol"] = FlowConfig.stationary_tol
    manifest = {
        "version": __version__,
        "operation": op,
        "config": _sanitize({key: cfg[key] for key in sorted(read)}),
        "tolerances": tolerances,
        "input_hashes": {"config_file": digest},
        "unread_config_keys": sorted(set(file_cfg) - read),
        "started": _now(),
    }
    # an operation with an eps flag solves on the log-graded annulus (M, eps), and one
    # with an eps_list flag on one such annulus per entry
    annulus = {"M": cfg["M"], "grading": "log", "outer": 1.0}
    if "eps_list" in read:
        manifest["grid"] = [{**annulus, "inner": float(eps)} for eps in cfg["eps_list"]]
    elif "eps" in read:
        manifest["grid"] = {**annulus, "inner": float(cfg["eps"])}
    return manifest


def _build_solution(cfg: dict):
    params = ProblemParams(cfg["N"], cfg["k"], cfg["eps"])
    return find_nodal_solution(params, **{key: cfg[key] for key in _SOLVER_KEYS})


def _tower_summary(sol) -> dict:
    k, eps = sol.params.k, sol.params.eps
    d_hat = [float(d / eps ** ((2 * i + 1) / (2 * k))) for i, d in enumerate(sol.deltas_measured)]
    return {
        "N": sol.params.N,
        "k": k,
        "eps": eps,
        "shooting_slope": sol.shooting_slope,
        "residual_norm": sol.residual_norm,
        "newton_iterations": sol.newton_iterations,
        "interior_zeros": len(sol.nodal_radii),
        "nodal_radii": [float(r) for r in sol.nodal_radii],
        "deltas_measured": [float(d) for d in sol.deltas_measured],
        "d_hat": d_hat,
    }


def _tower(cfg: dict, root):
    sol = _build_solution(cfg)
    res = stationary_residual(sol.field, sol.params)
    profile = np.column_stack((sol.field.grid.nodes, sol.field.values, res.values))
    return _tower_summary(sol), {"profile.csv": (["r", "u", "residual"], profile)}


def _eig(cfg: dict, root):
    sol = _build_solution(cfg)
    op = assemble_linearized(sol)
    pair = first_eigenpair(op)
    delta_k = _innermost_scale(sol)
    summary = {
        **_tower_summary(sol),
        "lambda1": pair.lam,
        "eigen_residual": pair.residual,
        "lambda_tilde": delta_k * delta_k * pair.lam,
        **sign_condition(sol, pair),
    }
    table = np.column_stack((pair.phi.grid.nodes, pair.phi.values))
    return summary, {"eigenfunction.csv": (["r", "phi1"], table)}


def _limit(cfg: dict, root):
    N = cfg["N"]
    scan = limit_scan(N)
    pair = scan["pair"]
    summary = {
        "N": N,
        "lambda_star_R": {f"{R:g}": v for R, v in scan["lambda_star_R"].items()},
        "lambda_star": scan["lambda_star"],
        "r_convergence": scan["r_convergence"],
        "h_gap": scan["h_gap"],
        "overlap": limit_overlap(pair),
    }
    table = np.column_stack((pair.phi.grid.nodes, pair.phi.values))
    return summary, {"limit_eigenfunction.csv": (["r", "phi_star"], table)}


def _flow(cfg: dict, root):
    fcfg = _flow_config(cfg)  # a bad flow setting fails before the solve
    sol = _build_solution(cfg)
    lam = cfg["lambda"]
    pair = first_eigenpair(assemble_linearized(sol)) if lam == 1.0 else None  # only lambda = 1 reads it
    res, record = _run_from(sol, pair, lam, fcfg, _energy_probe(sol.field.grid, sol.params.p))
    summary = {
        "N": sol.params.N,
        "k": sol.params.k,
        "eps": sol.params.eps,
        **record,
        "T_bracket": list(res.T_bracket) if res.T_bracket else None,
        "sup0": res.sup0,
        "steps": int(res.series.shape[0]),
    }
    return summary, {"series.csv": (["t", "sup", "energy", "dt"], res.series)}


def _sweep(cfg: dict, root):
    """eps x lambda classification table; per-cell failures flagged, not fatal.

    Each eps's tower and eigenpair are solved in turn, and a failed solve
    flags that eps's cells in place. Then the runs of every solved cell fan
    out together (`flow._sweep_rows`), so no eps waits for its own slowest
    run. The number of processes they fan out over depends on the host, so it
    goes to the manifest alone (the summary's "_manifest" block).
    """
    fcfg = _flow_config(cfg)
    table, cells = [], []  # cells: (sol, pair, lambda) per None in table
    for eps in cfg["eps_list"]:
        sub = dict(cfg)
        sub["eps"] = float(eps)
        try:
            sol = _build_solution(sub)
            pair = first_eigenpair(assemble_linearized(sol))
        except SolverError as exc:
            for lam in cfg["lambda_list"]:
                table.append(
                    {"eps": float(eps), "lambda": float(lam), "status": "Failed", "message": str(exc)}
                )
            continue
        for lam in cfg["lambda_list"]:
            cells.append((sol, pair, float(lam)))
            table.append(None)
    rows, workers = _sweep_rows(cells, fcfg)
    runs = ({"eps": sol.params.eps, **row} for (sol, _, _), row in zip(cells, rows))
    table = [next(runs) if row is None else row for row in table]
    counts = dict(Counter(r["status"] for r in table))
    cols = ["eps", "lambda", "status", "T_estimate", "sup_final", "drift_rel"]
    rows = ([r.get(c) for c in cols] for r in table)
    summary = {"cells": len(table), "status_counts": counts, "table": table, "_manifest": {"workers": workers}}
    return summary, {"sweep.csv": (cols, rows)}


def _verify_checks() -> list:
    """Fast invariant suite: grid formulas, discrete operators, a small tower,
    the zero-potential eigenvalue, shift exactness, and flow classification
    sanity. Each entry is (name, passed, detail)."""
    checks = []

    g = build_grid(1e-2, 1.0, 200, grading="log")
    checks.append(
        ("grid-log-midpoint", abs(g.nodes[100] - 0.1) <= 1e-15, f"r_100={g.nodes[100]!r}")
    )
    gu = build_grid(0.5, 1.0, 16, grading="uniform")
    exact = all(gu.nodes[j] == 0.5 + j / 32 for j in range(17))
    checks.append(("grid-uniform-formula", exact, "r_j = 0.5 + j/32"))

    gl = build_grid(0.1, 1.0, 128, grading="log", N=5)
    const = RadialField(gl, np.ones(gl.nodes.size))
    lap = apply_radial_laplacian(const)
    worst = float(np.max(np.abs(lap.values)))
    checks.append(("laplacian-kills-constants", worst == 0.0, f"max |Lap 1| = {worst!r}"))

    w_max = ef_peak_height(4)
    checks.append(("ef-peak-height-N4", abs(w_max - math.sqrt(2.0)) <= 1e-12, f"w_max={w_max!r}"))
    delta, r = 0.37, np.array([0.05, 0.2, 0.9])
    b1 = bubble_eval(Bubble(delta, 5), r)
    b2 = delta ** (-1.5) * bubble_eval(Bubble(1.0, 5), r / delta)
    scale_err = float(np.max(np.abs(b1 - b2) / b1))
    checks.append(
        ("bubble-scaling-identity", scale_err <= 1e-14, f"rel err {scale_err:.2e}")
    )

    g_eig = build_grid(0.5, 1.0, 1024, grading="uniform", N=3)
    zero_pot = RadialField(g_eig, np.zeros(g_eig.nodes.size))
    op0 = assemble_operator(g_eig, zero_pot)
    lam0 = eigenvalue_k(op0)
    target = 4.0 * math.pi**2
    rel = abs(lam0 - target) / abs(target)
    checks.append(("eig-zero-potential", rel <= 1e-4, f"lambda1={lam0:.10g} rel_err={rel:.2e}"))
    n = 31  # tridiag(-1, 2, -1): 2 - 2cos(j pi/(n+1)), checking dstebz; a Sturm count at x = 2 meets zero pivots
    path = LinearizedOperator(None, np.full(n, 2.0), np.full(n - 1, -1.0))
    worst = max(
        abs(eigenvalue_k(path, j) - (2.0 - 2.0 * math.cos(j * math.pi / (n + 1))))
        for j in range(1, n + 1)
    )
    checks.append(("eig-path-laplacian", worst <= 1e-12, f"max |error| over {n} eigenvalues={worst:.2e}"))
    c = 7.25  # adding potential c shifts the spectrum of -Lap - V by -c
    opc = assemble_operator(g_eig, RadialField(g_eig, np.full(g_eig.nodes.size, c)))
    shift_err = abs((eigenvalue_k(opc) - lam0) + c)
    checks.append(("eig-shift-exact", shift_err <= 1e-10, f"|shift error|={shift_err:.2e}"))

    params = ProblemParams(3, 1, 0.1)
    sol = find_nodal_solution(params, M=1024)
    checks.append(
        ("tower-k1", len(sol.nodal_radii) == 0, f"residual={sol.residual_norm:.2e} zeros={len(sol.nodal_radii)}")
    )
    pair = first_eigenpair(assemble_linearized(sol))
    cond = sign_condition(sol, pair)
    ok = pair.lam < 0 and cond["inner_product"] > 0 and cond["identity_residual"] <= 1e-6
    checks.append(
        (
            "eig-sign-condition",
            ok,
            f"lambda1={pair.lam:.6g} ip={cond['inner_product']:.6g} "
            f"identity={cond['identity_residual']:.2e}",
        )
    )

    zero0 = RadialField(sol.field.grid, np.zeros(sol.field.values.size), dirichlet=True)
    rz = evolve(zero0, params, FlowConfig(dt_max=1e-4, t_end=1e-3))
    checks.append(("flow-zero-data", rz.status == "GlobalBounded", f"status={rz.status}"))

    gr = build_grid(0.5, 1.0, 64, grading="uniform", N=3)
    ones = RadialField(gr, np.ones(gr.nodes.size))
    rr = evolve(
        ones,
        ProblemParams(3, 1, 0.5),
        FlowConfig(dt_max=1e-4, t_end=2.0, integrator="reaction-only"),
    )
    T_true = 0.25
    ok = (
        rr.status == "BlowUp"
        and rr.T_estimate is not None
        and abs(rr.T_estimate - T_true) <= 0.02 * T_true
    )
    checks.append(
        ("reaction-blowup-time", ok, f"status={rr.status} T={rr.T_estimate} (exact {T_true})")
    )

    bump_vals = 1e-2 * np.sin(np.pi * (gr.nodes - 0.5) / 0.5)
    bump_vals[0] = bump_vals[-1] = 0.0
    bump = RadialField(gr, bump_vals, dirichlet=True)
    zero_small = RadialField(gr, np.zeros(gr.nodes.size), dirichlet=True)
    mon = comparison_monitor(zero_small, bump, ProblemParams(3, 1, 0.5), FlowConfig(dt_max=1e-4, t_end=1e-2))
    checks.append(
        ("comparison-monotone", mon["violation"] <= 1e-12, f"violation={mon['violation']!r}")
    )
    return checks


def _verify(cfg: dict, root):
    checks = _verify_checks()
    summary = {
        "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in checks],
        "passed": all(p for _, p, _ in checks),
    }
    return summary, {}


def _report(cfg: dict, root):
    """Collate summary.json files under root into report.csv; one version only."""
    rows = []
    versions = set()
    for mpath in sorted(root.glob("*/manifest.json")):
        if mpath.parent.name.startswith("report-"):
            continue
        with open(mpath) as fh:
            manifest = json.load(fh)
        versions.add(manifest.get("version"))
        flat = {"run": mpath.parent.name, "operation": manifest.get("operation")}
        for key, val in sorted(manifest.get("outcome", {}).items()):
            if isinstance(val, (int, float, str, bool)) or val is None:
                flat[key] = val
        rows.append(flat)
    if not rows:
        raise ValueError(f"no run manifests found under {root}")
    if len(versions) > 1:
        raise ValueError(f"refusing to collate mixed artifact versions: {sorted(map(str, versions))}")
    cols = ["run", "operation"] + sorted(set().union(*rows) - {"run", "operation"})
    summary = {"runs": len(rows), "version": versions.pop(), "columns": cols}
    return summary, {"report.csv": (cols, ([row.get(c) for c in cols] for row in rows))}


# operation -> (body, flag keys, help, console line); a body maps (cfg, root) to its
# summary and its CSV tables {filename: (header, rows)}, and the console line maps
# that summary to the text the command prints after "<operation>: "
OPERATIONS = {
    "tower": (
        _tower,
        ("N", "k", "eps", "M"),
        "find the k-layer stationary solution",
        lambda summary: f"slope={fmt6(summary['shooting_slope'])} residual={fmt6(summary['residual_norm'])} "
        f"zeros={summary['interior_zeros']} d_hat={[fmt6(d) for d in summary['d_hat']]}",
    ),
    "eig": (
        _eig,
        ("N", "k", "eps", "M"),
        "first eigenpair and sign condition",
        lambda summary: f"lambda1={fmt6(summary['lambda1'])} residual={fmt6(summary['eigen_residual'])} "
        f"inner_product={fmt6(summary['inner_product'])} identity={fmt6(summary['identity_residual'])}",
    ),
    "limit": (
        _limit,
        ("N",),
        "limit eigenvalue problem on balls",
        lambda summary: f"lambda*={fmt6(summary['lambda_star'])} "
        f"[{' '.join(f'R={R}:{fmt6(v)}' for R, v in summary['lambda_star_R'].items())}] "
        f"overlap={fmt6(summary['overlap'])}",
    ),
    "flow": (
        _flow,
        ("N", "k", "eps", "M", "lambda", "t_end", "dt_max", "integrator"),
        "single parabolic run from lambda*phi",
        lambda summary: f"lambda={fmt6(summary['lambda'])} status={summary['status']}"
        + (f" T={fmt6(summary['T_estimate'])}" if summary.get("T_estimate") else "")
        + f" drift_rel={fmt6(summary['drift_rel'])}",
    ),
    "sweep": (
        _sweep,
        ("N", "k", "M", "eps_list", "lambda_list", "t_end"),
        "eps x lambda classification table",
        lambda summary: f"{summary['cells']} cells "
        f"({', '.join(f'{k}={v}' for k, v in sorted(summary['status_counts'].items()))})",
    ),
    "verify": (
        _verify,
        (),
        "run the fast invariant suite",
        # run() has raised already if a check failed
        lambda summary: f"{len(summary['checks'])}/{len(summary['checks'])} checks passed",
    ),
    "report": (
        _report,
        (),
        "collate run summaries under --out into CSV",
        lambda summary: f"collated {summary['runs']} runs ({summary['version']})",
    ),
}


def run(op: str, cfg: dict, root, config_file=None):
    """Run one operation and return (outdir, summary).

    config_file is what load_config returned for the --config file, if any:
    the manifest records its digest and the keys it sets that op does not read.

    The directory <op>-<hash8> under root is created only once the operation
    has returned, so a failed run leaves nothing behind. It receives the CSV
    tables, manifest.json and summary.json. A "_manifest" block that the
    body puts in its summary goes into manifest.json only. A summary with a
    failed check is still written, then raised as a SolverError naming the
    failed checks.
    """
    root = Path(root)
    manifest = _start_manifest(op, cfg, config_file)
    summary, tables = OPERATIONS[op][0](cfg, root)
    manifest.update(summary.pop("_manifest", {}))
    outdir = root / f"{op}-{_hash8(op, cfg)}"
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(outdir / name, header, rows)
    manifest["finished"] = _now()
    manifest["outcome"] = _sanitize(summary)
    for name, doc in (("manifest.json", manifest), ("summary.json", manifest["outcome"])):
        with open(outdir / name, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failed = [c["name"] for c in summary.get("checks", ()) if not c["passed"]]
    if failed:
        raise SolverError(f"invariant checks failed: {', '.join(failed)}", {"outdir": str(outdir)})
    return outdir, summary
