"""Session-scoped fixtures: the expensive solves are shared across test modules."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bubbletower as bt

CASES = ((3, 2, 1e-3), (4, 2, 1e-3), (4, 3, 1e-4))
SWEEP_EPS = (1e-2, 1e-3, 1e-4)


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
def solution_hi():
    return bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-3), M=8192)


@pytest.fixture(scope="session")
def pair_hi(solution_hi):
    return bt.first_eigenpair(bt.assemble_linearized(solution_hi))


# none loads with the package or a tower solve: the solve's quadrature is numpy's, so
# scipy.integrate, scipy.optimize, scipy.special and scipy.signal never load; multiprocessing
# loads at a sweep, and the process pool never
LAZY_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.signal",
                "multiprocessing", "concurrent.futures.process")

PROBE = """
import contextlib, io, json, sys
import bubbletower, bubbletower.cli
lazy = set(sys.argv[2:])
loaded = {"import": sorted(lazy & set(sys.modules))}
with contextlib.redirect_stdout(io.StringIO()):
    code = bubbletower.cli.main(["limit", "--N", "3", "--out", sys.argv[1]])
loaded["limit"] = [code, sorted(lazy & set(sys.modules))]
bubbletower.find_nodal_solution(bubbletower.ProblemParams(3, 2, 1e-2), M=256)
loaded["solve"] = sorted(lazy & set(sys.modules))
import scipy.integrate  # the control: a module the probe loads itself is seen
loaded["control"] = sorted(lazy & set(sys.modules))
print(json.dumps(loaded))
"""


@pytest.fixture(scope="session")
def import_probe(tmp_path_factory):
    # one fresh interpreter for every import probe: which of LAZY_MODULES are loaded after
    # `import bubbletower`, after an in-process `limit` (with its exit code), after a tower solve,
    # and after the probe imports scipy.integrate itself
    env = dict(os.environ)
    src = str(Path(bt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("limit")), *LAZY_MODULES],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
