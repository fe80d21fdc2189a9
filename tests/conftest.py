"""Session-scoped fixtures: the expensive solves are shared across test modules."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bubbletower as bt

CASES = ((3, 2, 1e-3), (4, 2, 1e-3), (4, 3, 1e-4))
SWEEP_EPS = (1e-2, 1e-3, 1e-4)


def different_grids(a, b):
    """The exact pattern of the ValueError for inputs on grids a and b: it names each grid by N,
    node count and its first, second and last node."""
    sides = [f"N = {g.N}, {g.M + 1} nodes {g.inner:.6g}, {g.nodes[1]:.6g}, ..., {g.outer:.6g}" for g in (a, b)]
    return "^" + re.escape(f"fields live on different grids: {sides[0]} and {sides[1]}") + "$"


@pytest.fixture(scope="session")
def case_solutions():
    return {
        (N, k, eps): bt.find_nodal_solution(bt.ProblemParams(N, k, eps))
        for (N, k, eps) in CASES
    }


@pytest.fixture(scope="session")
def case_pairs(case_solutions):
    return {
        key: bt.first_eigenpair(bt.assemble_linearized(sol))
        for key, sol in case_solutions.items()
    }


@pytest.fixture(scope="session")
def sweep_solutions(case_solutions):
    out = {}
    for eps in SWEEP_EPS:
        if (4, 2, eps) in case_solutions:
            out[eps] = case_solutions[(4, 2, eps)]
        else:
            out[eps] = bt.find_nodal_solution(bt.ProblemParams(4, 2, eps))
    return out


@pytest.fixture(scope="session")
def sweep_pairs(sweep_solutions, case_pairs):
    out = {}
    for eps, sol in sweep_solutions.items():
        if (4, 2, eps) in case_pairs:
            out[eps] = case_pairs[(4, 2, eps)]
        else:
            out[eps] = bt.first_eigenpair(bt.assemble_linearized(sol))
    return out


@pytest.fixture(scope="session")
def limit4():
    return bt.limit_scan(4)


@pytest.fixture(scope="session")
def limit_pair4(limit4):
    # limit_scan(4) solves the largest rung, (R, M) = (80, 4096), and hands it back
    return limit4["pair"]


@pytest.fixture(scope="session")
def limit_pair3():
    return bt.limit_eigenpair(3, 80.0, 4096)


@pytest.fixture(scope="session")
def solution_hi():
    return bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-3), M=8192)


@pytest.fixture(scope="session")
def pair_hi(solution_hi):
    return bt.first_eigenpair(bt.assemble_linearized(solution_hi))


# none loads with the package, a tower solve, an eigenpair or a run: LAPACK comes from scipy's
# compiled module alone (`bubbletower._lapack`), so scipy's Python package never runs, and the
# solve's quadrature is numpy's, so scipy.integrate, scipy.optimize, scipy.special and
# scipy.signal never load; multiprocessing loads at a sweep, and the process pool never
LAZY_MODULES = ("scipy", "scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special",
                "scipy.signal", "multiprocessing", "concurrent.futures.process")
LAPACK_ROUTINES = ("dgtsv", "dpttrf", "dpttrs", "dstebz")

PROBE = f"ROUTINES = {LAPACK_ROUTINES!r}" + """
import contextlib, io, json, sys
import bubbletower, bubbletower.cli
lazy = set(sys.argv[2:])
loaded = {"import": sorted(lazy & set(sys.modules))}
loaded["registered"] = sys.modules.get("scipy.linalg._flapack") is bubbletower._lapack._flapack
with contextlib.redirect_stdout(io.StringIO()):
    code = bubbletower.cli.main(["limit", "--N", "3", "--out", sys.argv[1]])
loaded["limit"] = [code, sorted(lazy & set(sys.modules))]
params = bubbletower.ProblemParams(3, 2, 1e-2)
sol = bubbletower.find_nodal_solution(params, M=256)  # dgtsv
loaded["solve"] = sorted(lazy & set(sys.modules))
bubbletower.first_eigenpair(bubbletower.assemble_linearized(sol))  # dstebz, dpttrf
loaded["eig"] = sorted(lazy & set(sys.modules))
run = bubbletower.evolve(sol.field, params, bubbletower.FlowConfig(t_end=5e-5))  # dpttrf, dpttrs
loaded["evolve"] = [len(run.series), sorted(lazy & set(sys.modules))]
import scipy.linalg.lapack  # the controls: modules the probe loads itself are seen
loaded["lapack"] = [
    sorted(lazy & set(sys.modules)),
    [getattr(bubbletower._lapack, name) is getattr(scipy.linalg.lapack, name) for name in ROUTINES],
]
import scipy.integrate
loaded["control"] = sorted(lazy & set(sys.modules))
print(json.dumps(loaded))
"""


@pytest.fixture(scope="session")
def import_probe(tmp_path_factory):
    # one fresh interpreter for every import probe: which of LAZY_MODULES are loaded after
    # `import bubbletower` (and whether its LAPACK module is registered under its real name),
    # after an in-process `limit` (with its exit code), after a tower solve, its first eigenpair
    # and a short run from it (with its row count), after the probe imports scipy.linalg.lapack
    # itself (with whether each routine of LAPACK_ROUTINES is its export), and after it imports
    # scipy.integrate
    env = dict(os.environ)
    src = str(Path(bt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("limit")), *LAZY_MODULES],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
