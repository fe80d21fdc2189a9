#!/usr/bin/env python3
"""Benchmark of bubbletower: tower solves, fixed-step decay and adaptive-step blow-up.

    python3 bench/run.py --workload {towers,flow-decay,flow-blowup} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from `src/` next to this
directory, and run outputs go to `.bench_runs/` at the same root. One process
drives the workload (the import samples below are the only child processes):

1. Set-up, repeated SETUP_REPS times: `import bubbletower` timed in a fresh
   interpreter, plus, for the flow workloads, the (4, 2, 1e-3) tower and its
   first eigenpair. `setup_s` is the median of the repetitions.
2. Passes over the workload's operations until `--seconds` have gone by (at
   least MIN_PASSES). `wall_s` is the median pass time, checks excluded.
   Every operation's output is checked against an independent oracle
   (bench/checks.py); an operation fails when it raises, exits non-zero or
   fails a check.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). `correct`
is false when any operation fails other than the two known `towers` faults.
A traced run also writes its spans to .bench_runs/trace-<workload>-<seed>.json.
"""
from __future__ import annotations

import os

# BLAS thread pools would add idle threads to the one process that runs the
# workload (and to the import samples, which inherit the environment); the
# program's banded and tridiagonal solves do not use them at n = 4096
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Probe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_REPS = 3
MIN_PASSES = 3
TOWER = (4, 2, 1e-3)  # the flow workloads' tower

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, kind, key); kinds are read from Probe.aggregate,
# except "setup" (a set-up component median) and "derived"
PER_LAYER = {
    "stationary.find_nodal_solution.s": ("s", "self", "stationary.find_nodal_solution"),
    "stationary.find_nodal_solution.calls": ("count", "calls", "stationary.find_nodal_solution"),
    "stationary.shoot.s": ("s", "self", "stationary.shoot"),
    "stationary.shoot.calls": ("count", "calls", "stationary.shoot"),
    "stationary.stationary_residual.s": ("s", "self", "stationary.stationary_residual"),
    "stationary.newton_iterations": ("count", "counts", "newton_iterations"),
    "spectral.first_eigenpair.s": ("s", "self", "spectral.first_eigenpair"),
    "spectral.eigenvalue_k.s": ("s", "self", "spectral.eigenvalue_k"),
    "spectral.eigenvalue_k.calls": ("count", "calls", "spectral.eigenvalue_k"),
    "spectral.limit_eigenpair.s": ("s", "self", "spectral.limit_eigenpair"),
    "spectral.limit_eigenpair.calls": ("count", "calls", "spectral.limit_eigenpair"),
    "flow.evolve.s": ("s", "self", "flow.evolve"),
    "flow.steps": ("count", "counts", "steps"),
    "flow.step_us": ("us", "derived", "step_us"),
    "flow.energy.s": ("s", "self", "flow.energy"),
    "flow.energy.calls": ("count", "calls", "flow.energy"),
    "flow.linearized_evolve.s": ("s", "self", "flow.linearized_evolve"),
    "flow.dt_changes": ("count", "counts", "dt_changes"),
    "flow.steps_at_dt_min": ("count", "counts", "steps_at_dt_min"),
    "mesh.apply_radial_laplacian.s": ("s", "self", "mesh.apply_radial_laplacian"),
    "mesh.apply_radial_laplacian.calls": ("count", "calls", "mesh.apply_radial_laplacian"),
    "profile.extract_concentrations.s": ("s", "self", "profile.extract_concentrations"),
    "harness.write_csv.s": ("s", "self", "harness.write_csv"),
    "harness.write_csv.calls": ("count", "calls", "harness.write_csv"),
    "cli.self_s": ("s", "self", "cli.main"),
    "setup.import_s": ("s", "setup", "import"),
    "setup.tower_s": ("s", "setup", "tower"),
    "setup.eig_s": ("s", "setup", "eig"),
    "traced.wall_s": ("s", "derived", "wall"),
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import bubbletower; print(time.perf_counter() - t)"
)


class SetupError(RuntimeError):
    """The program cannot be imported or the workload's set-up is wrong."""


def time_import() -> float:
    """Seconds `import bubbletower` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"import bubbletower failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def load_program():
    if not (SRC / "bubbletower" / "__init__.py").is_file():
        raise SetupError(f"no bubbletower package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bubbletower
    import bubbletower.cli  # noqa: F401  (binds harness and cli for the probe)

    if not Path(bubbletower.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"bubbletower imported from {bubbletower.__file__}, not {SRC}")
    return bubbletower


def blowup_lambdas(seed: int) -> list[float]:
    """lambda = 1 and three values in each band, drawn from the seed.

    Each band is cut in thirds; the outer two values mirror each other about
    the band's centre and the middle one falls anywhere in the middle third,
    so the sweep's cost (which falls as |lambda - 1| grows) varies little
    from seed to seed while the values do.
    """
    rng = random.Random(seed)
    out = [1.0]
    for lo, hi in ((0.95, 0.98), (1.01, 1.05)):
        u, v = rng.random(), rng.random()
        out += [lo + (hi - lo) * x for x in (u / 3, (1 + v) / 3, 1 - u / 3)]
    return sorted(out)


class Tally:
    """Operations attempted and failed, and whether every failure is a known fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, op: str, fails: list, known_fault: bool = False) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(f"{op}: {'; '.join(fails)}")


class Workload:
    """Set-up and one pass; `run_pass` returns the pass's time with checks excluded."""

    CAPTURE = ()  # functions whose results the checks read (see tracer.Probe)

    def __init__(self, bt, probe, tally, seed: int):
        self.bt, self.probe, self.tally = bt, probe, tally
        self.setup_parts = {"import": [], "tower": [], "eig": []}

    def setup(self) -> float:
        return 0.0

    def run_pass(self) -> float:
        raise NotImplementedError

    def timed(self, label: str, fn, *args):
        """Call fn inside a root span; returns (result, seconds, exception or None)."""
        idx = self.probe.begin(f"op:{label}")
        t0 = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - t0, None
        except Exception as exc:  # an operation that raises is a failed operation
            return None, time.perf_counter() - t0, exc
        finally:
            self.probe.end(idx)

    def captured(self, name: str) -> list:
        got = self.probe.captured.get(name, [])
        out = list(got)
        got.clear()
        return out

    def lapack_lambda1(self, sol) -> float:
        op = self.bt.assemble_linearized(sol)
        return checks.lapack_lambda1(op.d, op.e)


class Towers(Workload):
    """CLI commands through bubbletower.cli.main: eig, limit and tower."""

    OPS = (
        ("eig", 3, 2, 1e-3),
        ("eig", 4, 2, 1e-3),
        ("eig", 4, 3, 1e-4),
        ("limit", 4, None, None),
        ("tower", 6, 2, 1e-6),  # known fault: root slope ~2e18 lies past the scan's 1e10
        ("tower", 4, 1, 1e-4),  # known fault: residual floor ~1.5e-8 above residual_tol 1e-8
    )
    KNOWN_FAULTS = {("tower", 6, 2, 1e-6), ("tower", 4, 1, 1e-4)}
    CAPTURE = ("stationary.find_nodal_solution",)

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        idx = self.probe.begin("cli.main")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.bt.cli.main(argv)
        finally:
            self.probe.end(idx)
        return rc, out.getvalue(), err.getvalue()

    def run_pass(self) -> float:
        total = 0.0
        for op in self.OPS:
            cmd, N, k, eps = op
            argv = [cmd, "--N", str(N), "--out", str(OUT)]
            if k is not None:
                argv += ["--k", str(k), "--eps", repr(eps)]
            label = f"{cmd} N={N}" + (f" k={k} eps={eps:g}" if k is not None else "")
            got, dt, exc = self.timed(label, self.cli, argv)
            total += dt
            # a known fault shows as a solver failure (exit 2); any other failure is not it
            solver_failure = exc is None and got[0] == 2
            self.tally.record(label, self.check(op, got, exc), solver_failure and op in self.KNOWN_FAULTS)
        return total

    def check(self, op, got, exc) -> list:
        sols = self.captured("stationary.find_nodal_solution")
        if exc is not None:
            return [f"raised {exc!r}"]
        rc, out, err = got
        if rc != 0:
            return [f"exit {rc}: {err.strip()}"]
        lines = [ln for ln in out.splitlines() if ln.startswith("outputs: ")]
        if not lines:
            return ["no outputs line"]
        outdir = Path(lines[-1][len("outputs: "):])
        summary = json.loads((outdir / "summary.json").read_text())
        cmd, N, k, eps = op
        if cmd == "limit":
            return checks.check_limit(summary)
        csv = outdir / ("eigenfunction.csv" if cmd == "eig" else "profile.csv")
        nodes = np.loadtxt(csv, delimiter=",", skiprows=1, usecols=0)
        fails = checks.check_tower(summary, nodes)
        if cmd == "eig":
            sol = sols[-1] if sols else self.bt.find_nodal_solution(self.bt.ProblemParams(N, k, eps))
            fails += checks.check_eigen(summary, self.lapack_lambda1(sol))
        return fails


class FlowWorkload(Workload):
    """Set-up: the (4, 2, 1e-3) tower and its first eigenpair, checked."""

    def setup(self) -> float:
        bt = self.bt
        t0 = time.perf_counter()
        sol = bt.find_nodal_solution(bt.ProblemParams(*TOWER))
        t1 = time.perf_counter()
        pair = bt.first_eigenpair(bt.assemble_linearized(sol))
        t2 = time.perf_counter()
        self.setup_parts["tower"].append(t1 - t0)
        self.setup_parts["eig"].append(t2 - t1)
        self.sol, self.pair = sol, pair
        self.lam1 = self.lapack_lambda1(sol)
        fails = checks.check_nodal_law(sol.nodal_radii, sol.deltas_measured, sol.field.grid.nodes, TOWER[1], TOWER[2])
        if not sol.residual_norm <= checks.RESIDUAL_TOL:
            fails.append(f"scaled residual {sol.residual_norm!r}")
        fails += checks.check_lambda1(pair.lam, self.lam1)
        if fails:
            raise SetupError(f"set-up tower {TOWER}: {'; '.join(fails)}")
        return t2 - t0


class FlowDecay(FlowWorkload):
    """evolve from 0.1*phi to t_end = 0.2 (fixed dt = dt_max), then linearized_evolve from phi_1."""

    T_END = 0.2

    def run_pass(self) -> float:
        bt, sol, pair = self.bt, self.sol, self.pair
        v0 = bt.RadialField(sol.field.grid, 0.1 * sol.field.values, dirichlet=True)
        res, dt_evolve, exc = self.timed("evolve 0.1*phi", bt.evolve, v0, sol.params, bt.FlowConfig(t_end=self.T_END))
        fails = [f"raised {exc!r}"] if exc else checks.check_decay(res.status, res.series, sol.params.N)
        self.tally.record("evolve 0.1*phi", fails)
        lin, dt_lin, exc = self.timed("linearized_evolve phi_1", bt.linearized_evolve, sol, pair, pair.phi)
        fails = [f"raised {exc!r}"] if exc else checks.check_growth_rate(lin["growth_rate"], self.lam1)
        self.tally.record("linearized_evolve phi_1", fails)
        return dt_evolve + dt_lin


class FlowBlowup(FlowWorkload):
    """lambda_sweep at lambda = 1 and three lambdas on each side of it."""

    CAPTURE = ("flow.evolve",)

    def __init__(self, bt, probe, tally, seed: int):
        super().__init__(bt, probe, tally, seed)
        self.lambdas = blowup_lambdas(seed)

    def run_pass(self) -> float:
        bt, sol = self.bt, self.sol
        cfg = bt.FlowConfig()
        rows, dt, exc = self.timed("lambda_sweep", bt.lambda_sweep, sol, self.lambdas, cfg, self.pair)
        results = self.captured("flow.evolve")
        if exc is not None:
            for lam in self.lambdas:
                self.tally.record(f"lambda={lam:.6g}", [f"raised {exc!r}"])
            return dt
        if len(results) != len(rows):  # lambda_sweep no longer goes through evolve: rerun, untimed
            results = [
                bt.evolve(
                    bt.RadialField(sol.field.grid, r["lambda"] * sol.field.values, dirichlet=True),
                    sol.params,
                    dataclasses.replace(cfg, t_end=r["t_end"]),
                )
                for r in rows
            ]
        fails = {}
        for row, res in zip(rows, results):
            fails[row["lambda"]] = checks.check_flow_row(
                row["lambda"], row["status"], row.get("T_estimate"), res.T_bracket, res.series,
                row.get("drift_rel"), cfg.dt_min, cfg.stationary_tol,
            )
        above = [r for r in rows if r["lambda"] > 1.0 and not fails[r["lambda"]]]
        if len(above) >= 2:
            a, b = above[0], above[-1]
            law = checks.check_escape_times(a["lambda"], a["T_estimate"], b["lambda"], b["T_estimate"], self.lam1)
            fails[a["lambda"]] += law
            fails[b["lambda"]] += law
        for lam in self.lambdas:
            self.tally.record(f"lambda={lam:.6g}", fails.get(lam, ["no row"]))
        return dt


WORKLOADS = {"towers": Towers, "flow-decay": FlowDecay, "flow-blowup": FlowBlowup}


def layer_metrics(agg: dict, setup_parts: dict, pass_times: list) -> dict:
    values = {}
    for name, (unit, kind, key) in PER_LAYER.items():
        if kind == "setup":
            parts = setup_parts[key]
            values[name] = statistics.median(parts) if parts else 0.0
        elif kind == "derived" and key == "wall":
            values[name] = statistics.median(pass_times)
        elif kind == "derived":  # step_us
            steps = agg["counts"]["steps"]
            busy = agg["inclusive"]["flow.evolve"] + agg["inclusive"]["flow.linearized_evolve"]
            values[name] = 1e6 * busy / steps if steps else 0.0
        else:
            values[name] = agg[kind][key]
    return values


def result_line(correct: bool, tally: Tally, values: dict, trace: bool) -> str:
    """The JSON object the benchmark prints last; `values` must hold every metric of the mode."""
    units = {n: u for n, (u, *_) in PER_LAYER.items()} if trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": bool(correct), "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    )


def run(args) -> int:
    bt = load_program()  # untimed: writes bytecode and warms the file cache for the samples
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    trace = bool(args.trace)
    cls = WORKLOADS[args.workload]
    probe = Probe("bubbletower", trace, cls.CAPTURE, dt_min=bt.FlowConfig().dt_min)
    workload = cls(bt, probe, tally, args.seed)
    setup_samples, pass_times = [], []
    with probe:
        for _ in range(SETUP_REPS):
            workload.setup_parts["import"].append(time_import())
            setup_samples.append(workload.setup_parts["import"][-1] + workload.setup())
        probe.phase = "pass"
        start = time.perf_counter()
        while len(pass_times) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            pass_times.append(workload.run_pass())
    for msg in tally.unexpected[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = not tally.unexpected
    if trace:
        agg = probe.aggregate(SETUP_REPS, len(pass_times))
        values = layer_metrics(agg, workload.setup_parts, pass_times)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        t0 = probe.spans[0][2] if probe.spans else 0.0
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "setups": SETUP_REPS, "passes": len(pass_times),
            "absent": probe.absent, "metrics": values,
            "spans": [[n, ph, s - t0, e - t0, parent] for n, ph, s, e, parent in probe.spans],
        }))
        print(f"spans: {path} ({len(probe.spans)}); absent: {probe.absent}", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(pass_times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"{args.workload}: {len(pass_times)} passes {[round(t, 4) for t in pass_times]}, "
          f"set-ups {[round(t, 4) for t in setup_samples]}", file=sys.stderr)
    print(result_line(correct, tally, values, trace))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
