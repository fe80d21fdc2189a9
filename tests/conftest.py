"""Session-scoped fixtures: the expensive solves are shared across test modules."""
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
