"""One table of refusals, and a check that each raise statement of the package is reached by a row.

A row of ROWS gives the test ID it runs under, the exception type, the whole
message (a string, or a compiled `^...$` pattern where a part such as a
process id cannot be known), the call with bad input, and, where a failure
must be injected, a setup(monkeypatch). The call's parameters without a
default name the fixtures it takes, as a test's do. Each row runs in a fresh
working directory. A row passes when the call raises exactly that type and
message, and the diagnostics the row gives. Rows moved here from the module
tests keep those tests' IDs: `add_refusal_tests(globals())` at the end of
each module defines the tests under their names; new rows run as
`test_refusal[...]`. `test_every_raise_is_reached` traces the rows and names,
as `module.py:LINE`, each raise that no row reaches and each raise of
UNREACHED that one does.
"""
import ast
import contextlib
import functools
import inspect
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import bubbletower as bt
from bubbletower import _lapack, flow, harness, spectral, stationary
from bubbletower.errors import IntegratorFailure, SolverError
from bubbletower.harness import load_config, parse_value, resolve_config

from conftest import bump
from oracles import assert_no_child_process

# numpy's overflow and invalid warnings must not escape an entry point: a row that warns fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _no_child_process_left():
    # the sweep rows fork
    yield
    assert_no_child_process()


class Row(NamedTuple):
    test: str  # the test ID the row runs under, "<module>::<name>" or "<module>::<name>[<parameter>]"
    exc: type
    message: str | re.Pattern
    call: Callable
    setup: Callable | None = None  # setup(monkeypatch), before the call
    diagnostics: dict | None = None  # keys of the exception's diagnostics and their exact values


def rows(test: str, *cases) -> list:
    """Rows that run under test, one for each (exc, message, call, ...)."""
    return [Row(test, *case) for case in cases]


INTEGRATORS, SHORT = "('imex-be', 'reaction-only')", bt.FlowConfig(t_end=1e-3)
ANNULUS, P3 = bt.build_grid(0.5, 1.0, 128, N=3), bt.ProblemParams(3, 1, 0.5)
HOT, P4 = bt.build_grid(0.5, 1.0, 256, N=4), bt.ProblemParams(4, 1, 0.5)  # bump(HOT, 1e110) overflows at once
OVERFLOW = "overflow at t=1.000000e-12 (step dt=1.000000e-12)"  # the reaction overflows on the first step at dt_min
# grids as the different-grids message names them, by N, node count and first, second and last node
TOWER_GRID = {eps: f"N = 4, 4097 nodes {eps:g}, {second}, ..., 1"
              for eps, second in ((1e-2, "0.0100112"), (1e-3, "0.00100169"), (1e-4, "0.000100225"))}
NOT_POSITIVE = "first eigenvector is not positive (an off-diagonal >= 0, or D+ and D- do not overlap)"
NOT_ZERO_TRACE = "dirichlet field must be exactly 0 at every node outside its grid's unknowns"
COARSE = bt.build_grid(0.5, 1.0, 64, N=3)
ZERO_POTENTIAL = bt.assemble_operator(COARSE, bt.RadialField(COARSE, np.zeros(65)))
COLLAPSED = "solution collapsed toward zero: sup|u|^(p-1) = 0.000e+00 < pi^2/(1-eps)^2 = 1.007e+01"


def _twins(g):
    """Grids with g's node count that g must not be combined with: graded uniformly in r where g
    is graded in log r, and g's own nodes in the next dimension (the same nodes, other weights)."""
    return bt.build_grid(g.inner, g.outer, g.M, "uniform", N=g.N), bt.RadialGrid(g.nodes, N=g.N + 1)


def _dstebz_gives(m, w, info):
    """A setup under which dstebz returns m eigenvalues w and info."""
    return lambda monkeypatch: monkeypatch.setattr(spectral, "dstebz", lambda *args: (m, w, None, None, info))


def _forbid(module, name, what):
    """A setup under which a call of module.name fails the row: what must not start."""
    return lambda monkeypatch: monkeypatch.setattr(module, name, lambda *args: pytest.fail(f"{what} started"))


def _shot_of(values_of):
    """A setup under which `stationary.shoot` returns values_of(nodes) with zero ends."""

    def shot(params, s, grid):
        vals = values_of(grid.nodes)
        vals[0] = vals[-1] = 0.0
        return bt.RadialField(grid, vals, dirichlet=True)

    return lambda monkeypatch: monkeypatch.setattr(stationary, "shoot", shot)


def _sweep_in_children(monkeypatch):
    monkeypatch.setattr(flow, "_sweep_workers", lambda n_runs: n_runs)  # one process per lambda


def _no_run_in_children(monkeypatch):
    _sweep_in_children(monkeypatch)
    _forbid(flow, "_evolve", "a run")(monkeypatch)


def _child_dies(monkeypatch):
    """Fan a sweep out over the caller and one child, which ends without a report."""
    caller, real_row = os.getpid(), flow._sweep_row

    def row_or_die(*args):
        if os.getpid() != caller:
            os._exit(7)
        time.sleep(0.1)  # the caller is slow, so the child claims some lambdas
        return real_row(*args)

    monkeypatch.setattr(flow, "_sweep_row", row_or_die)
    monkeypatch.setattr(flow, "_sweep_workers", lambda n_runs: 2)


def _odd_fails(i):
    if i % 2:
        raise ValueError(i)
    return i


def _no_scales(deltas):
    """A solution posed through the public constructor with no measured scales, and its field as a pair."""
    field = bump(bt.build_grid(0.5, 1.0, 64, N=4))
    sol = bt.StationarySolution(P4, field, np.array([]), deltas, 1.0, 0.0)
    return sol, bt.EigenPair(lam=-1.0, phi=field, residual=0.0)


def _load(data: bytes, name="bad.cfg"):
    """load_config of data written to name in the row's working directory."""
    Path(name).write_bytes(data)
    return load_config(name)


def _report(versions):
    """The report operation over runs whose manifests carry versions."""
    for i, version in enumerate(versions):
        Path(f"runs/run-{i}").mkdir(parents=True)
        Path(f"runs/run-{i}/manifest.json").write_text(json.dumps({"version": version}))
    return harness.run("report", resolve_config(), "runs")


# each entry that starts a run from one field, called with it on the (4,2,1e-3) tower's grid
RUN_ENTRIES = {
    "evolve": lambda v, sol, pair: bt.evolve(v, sol.params, SHORT),
    "evolve reaction-only": lambda v, sol, pair: bt.evolve(
        v, sol.params, bt.FlowConfig(t_end=1e-3, integrator="reaction-only")
    ),
    "comparison_monitor": lambda v, sol, pair: bt.comparison_monitor(v, v, sol.params, SHORT),
    "linearized_evolve": lambda v, sol, pair: bt.linearized_evolve(sol, pair, v),
}
# each entry that takes a field and params, called with the field on an N = 4 grid and N = 3 params
ONE_DIMENSION_ENTRIES = {
    "evolve": lambda v, params: bt.evolve(v, params, SHORT),
    "energy": bt.energy,
    "comparison_monitor": lambda v, params: bt.comparison_monitor(v, v, params, SHORT),
}
MISSING_SCALES = {
    "scaled_eigenvalue": lambda sol, pair: bt.scaled_eigenvalue_diagnostic(sol, pair, -4.0),
    "eigenfunction_distance": lambda sol, pair: bt.scaled_eigenfunction_distance(sol, pair, pair),
    "sign_condition": bt.sign_condition,
}

ROWS = [
    # flow
    *rows(
        "test_flow::test_flow_config_validation",
        (ValueError, "need dt_min < dt_max, got 1e-12 >= 1e-12", lambda: bt.FlowConfig(dt_max=1e-12)),
        # a flow no longer than dt_min used to take no step and report Stationary
        (ValueError, "need dt_min < t_end, got 1e-12 >= 1e-12", lambda: bt.FlowConfig(t_end=1e-12)),
        (ValueError, f"integrator must be one of {INTEGRATORS}, got 'rk4'", lambda: bt.FlowConfig(integrator="rk4")),
        (ValueError, "t_end must be finite and positive, got 0.0", lambda: bt.FlowConfig(t_end=0.0)),
        (ValueError, f"integrator must be one of {INTEGRATORS}, got 'imex-cn'",
         lambda: bt.FlowConfig(integrator="imex-cn")),
    ),
    # t_end = inf used to march forever, and t_end = nan to stop at once as Stationary
    *(Row(f"test_flow::test_flow_config_rejects_non_finite_or_non_positive_steps_and_horizon[{name}-{value}]",
          ValueError, f"{name} must be finite and positive, got {value}",
          lambda name=name, value=value: bt.FlowConfig(**{name: value}))
      for name in ("dt_max", "t_end", "safety") for value in (math.inf, math.nan, 0.0, -1e-3)),
    Row("test_flow::test_diffusive_run_requires_zero_trace", ValueError, "diffusive runs need zero-trace initial data",
        lambda: bt.evolve(bt.RadialField(ANNULUS, np.ones(129)), P3, SHORT)),
    # a reaction-only run read one NaN as BlowUp with T = nan and one inf as BlowUp at T = 0,
    # and an IMEX run raised IntegratorFailure "overflow" after its first step
    *(Row(f"test_flow::test_runs_reject_non_finite_data_naming_the_node[{entry}-{bad}]", ValueError,
          f"initial data must be finite, got {bad} at node 700 (r = 0.00325608)",
          lambda tower, tower_pair, entry=entry, bad=bad: RUN_ENTRIES[entry](bt.RadialField(
              tower.field.grid, np.where(np.arange(4097) == 700, bad, 0.1 * tower.field.values)), tower, tower_pair))
      for entry in RUN_ENTRIES for bad in (math.nan, math.inf, -math.inf)),
    *(Row(f"test_flow::test_a_run_from_lambda_phi_rejects_a_non_finite_lambda[{lam}]", ValueError,
          f"lambda must be finite, got {lam}",
          lambda tower, tower_pair, lam=lam: bt.find_separation_time(tower, tower_pair, lam, SHORT))
      for lam in (math.nan, math.inf)),
    # ceil(t_end/dt) < 3 leaves fewer than two rows for the fit over the second half; dt is the
    # default 0.002/|lambda_1|
    *(Row(f"test_flow::test_linearized_rejects_runs_too_short_for_the_rate_fit[{steps}]", ValueError,
          f"t_end={t_end} at dt=1.31121e-08 gives {steps} steps; the rate fit needs at least 3",
          lambda tower, tower_pair, steps=steps: bt.linearized_evolve(
              tower, tower_pair, tower_pair.phi, t_end=steps * 0.002 / -tower_pair.lam, dt=0.002 / -tower_pair.lam))
      for steps, t_end in ((1, "1.31121e-08"), (2, "2.62242e-08"))),
    # these used to raise OverflowError, ZeroDivisionError or a NaN-to-integer error from the step count
    *(Row(f"test_flow::test_linearized_rejects_non_finite_or_non_positive_t_end_and_dt[{name}-{value}]", ValueError,
          f"{name} must be finite and positive, got {value}",
          lambda tower, tower_pair, name=name, value=value: bt.linearized_evolve(
              tower, tower_pair, tower_pair.phi, **{"t_end": 1e-5, "dt": 1e-8, name: value}))
      for name in ("t_end", "dt") for value in (math.inf, math.nan, 0.0, -1e-3)),
    *(Row(f"test_refusals::test_refusal[linearized-step-count-{t_end:g}-{dt:g}]", ValueError,
          f"t_end={t_end:g} at dt={dt:g} gives inf steps; the step count must be finite",
          lambda tower, tower_pair, t_end=t_end, dt=dt: bt.linearized_evolve(
              tower, tower_pair, tower_pair.phi, t_end=t_end, dt=dt))
      for t_end, dt in ((1e300, 1e-300), (1.0, 5e-324))),
    Row("test_flow::test_linearized_rejects_zero_data", ValueError, "zero initial data for the linearized flow",
        lambda tower, tower_pair: bt.linearized_evolve(
            tower, tower_pair, bt.RadialField(tower.field.grid, np.zeros(4097), dirichlet=True))),
    # the NaN violation an overflow leaves must not read as an ordered pair
    Row("test_flow::test_comparison_monitor_overflow_raises", IntegratorFailure, OVERFLOW,
        lambda: bt.comparison_monitor(bump(HOT, 0.5e110), bump(HOT, 1e110), P4, SHORT)),
    Row("test_flow::test_comparison_monitor_rejects_unordered", ValueError,
        "initial data are not ordered: need vA0 <= vB0 pointwise",
        lambda: bt.comparison_monitor(bump(ANNULUS, 1.0), bump(ANNULUS, 0.8), P3, bt.FlowConfig())),
    # as many nodes on both grids, so only the grid check tells them apart
    *(Row("test_flow::test_comparison_monitor_rejects_fields_on_two_grids", ValueError,
          f"fields live on different grids: N = 3, 129 nodes 0.5, 0.502715, ..., 1 and {twin}",
          lambda i=i: bt.comparison_monitor(
              bump(ANNULUS, 0.0), bump(_twins(ANNULUS)[i]), P3, SHORT))
      for i, twin in enumerate(("N = 3, 129 nodes 0.5, 0.503906, ..., 1", "N = 4, 129 nodes 0.5, 0.502715, ..., 1"))),
    # ordered, so only the trace check rejects it, with evolve's message for the same data
    Row("test_flow::test_comparison_monitor_rejects_data_without_zero_trace", ValueError,
        "diffusive runs need zero-trace initial data",
        lambda: bt.comparison_monitor(bt.RadialField(ANNULUS, np.full(129, 0.1)),
                                      bt.RadialField(ANNULUS, 0.1 + bump(ANNULUS).values), P3, SHORT)),
    *(Row(test, ValueError, f"fields live on different grids: {twin} and {TOWER_GRID[1e-3]}", call)
      for i, twin in enumerate(("N = 4, 4097 nodes 0.001, 0.0012439, ..., 1",
                                "N = 5, 4097 nodes 0.001, 0.00100169, ..., 1"))
      for test, call in (
          ("test_flow::test_linearized_rejects_data_on_another_grid",
           lambda tower, tower_pair, i=i: bt.linearized_evolve(tower, tower_pair, bt.RadialField(
               _twins(tower.field.grid)[i], tower_pair.phi.values, dirichlet=True))),
          ("test_flow::test_subsupersolution_residual_rejects_fields_on_two_grids",
           lambda tower, tower_pair, i=i: bt.subsupersolution_residual(bt.RadialField(
               _twins(tower.field.grid)[i], tower.field.values, dirichlet=True), tower_pair.phi, 1e-3, tower.params)))),
    # the weights would carry r^3 and the reaction p = 5
    *(Row(f"test_flow::test_entries_reject_params_of_another_dimension[{entry}]", ValueError,
          "the grid has dimension N = 4 but the params have N = 3",
          lambda entry=entry: ONE_DIMENSION_ENTRIES[entry](bump(bt.build_grid(0.5, 1.0, 128, N=4)), P3))
      for entry in ONE_DIMENSION_ENTRIES),
    # a negative step makes D + dt K indefinite, which dpttrf reports
    Row("test_flow::test_stepper_indefinite_matrix_raises_with_info", IntegratorFailure,
        "diffusion matrix at scale -1.000000e+00 is not positive definite (dpttrf info=1)",
        lambda: flow._Stepper(ANNULUS, P3).step(bump(ANNULUS).values, -1.0), diagnostics={"info": 1, "scale": -1.0}),
    Row("test_flow::test_overflowing_reaction_raises_integrator_failure", IntegratorFailure, OVERFLOW,
        lambda: bt.evolve(bump(HOT, 1e110), P4, SHORT)),
    *(Row(f"test_flow::test_an_error_in_a_sweep_run_is_raised_in_the_caller[lams{i}]", ValueError,
          "lambda must be finite, got nan",
          lambda overflowing_state, lams=lams: bt.lambda_sweep(
              overflowing_state[0], lams, SHORT, overflowing_state[1]))
      for i, lams in enumerate([(1.0, math.nan), (math.nan, 1.0)])),
    Row("test_flow::test_a_child_that_ends_without_a_report_is_an_error", RuntimeError,
        re.compile(r"^sweep children ended without a report: process \d+, exit code 7$"),
        lambda tower, tower_pair: bt.lambda_sweep(tower, (0.5, 0.6, 0.7, 0.8), bt.FlowConfig(t_end=1e-6), tower_pair),
        _child_dies),
    Row("test_flow::test_the_first_failed_item_in_input_order_is_raised", ValueError, "1",
        lambda: flow._fan_out(_odd_fails, list(range(8)), 2)),
    # one process per lambda: the two-lambda sweep raises from the fan-out
    *(Row(f"test_flow::test_a_missing_eigenpair_at_lambda_one_is_named[{ids}]", ValueError,
          "lambda = 1 needs the first eigenpair: its horizon is t_end = 10/|lambda_1|",
          lambda lams=lams, cfg=cfg: bt.lambda_sweep(
              bt.find_nodal_solution(bt.ProblemParams(3, 1, 0.1), M=256), lams, cfg, None), _sweep_in_children)
      for ids, lams, cfg in (("serial", (1.0,), bt.FlowConfig()), ("forked", (0.5, 1.0), SHORT))),
    # the (4,3,1e-4) pair on the (4,2,1e-3) tower: the lambda = 1 horizon read 10/|lambda_1| of the foreign pair,
    # and the run was called Stationary; every run is refused before it starts, and at lambda = 1 a note was
    # returned before any check
    *(Row(f"test_flow::test_runs_from_phi_refuse_the_eigenpair_of_another_tower[{ids}]", ValueError,
          f"fields live on different grids: {TOWER_GRID[1e-4]} and {TOWER_GRID[1e-3]}", call,
          _no_run_in_children)
      for ids, lams in (("serial", (1.0,)), ("forked", (0.5, 1.0)))
      for call in (
          lambda tower, case_pairs, lams=lams: bt.lambda_sweep(
              tower, lams, SHORT, case_pairs[(4, 3, 1e-4)]),
          *(lambda tower, case_pairs, lam=lam: bt.find_separation_time(
              tower, case_pairs[(4, 3, 1e-4)], lam, SHORT) for lam in (lams[0] + 0.02, 1.0)))),
    Row("test_flow::test_overflow_in_separation_search_raises", IntegratorFailure, OVERFLOW,
        lambda overflowing_state: bt.find_separation_time(*overflowing_state, 2.0, SHORT)),
    Row("test_flow::test_overflow_in_linearized_flow_raises", IntegratorFailure,
        "overflow at t=2.000000e-03 (step dt=2.000000e-03)",
        lambda overflowing_state: bt.linearized_evolve(*overflowing_state, overflowing_state[1].phi)),
    # harness
    Row("test_refusals::test_refusal[load-config-slope-scan-key]", ValueError,
        "old.cfg:1: unknown config key 'scan_lo'", lambda: _load(b"scan_lo = 1e-2\n", "old.cfg")),  # gone with the scan
    Row("test_harness::test_load_config_rejects_unknown_key", ValueError, "bad.cfg:2: unknown config key 'wibble'",
        lambda: _load(b"N = 3\nwibble = 7\n")),
    Row("test_refusals::test_refusal[load-config-duplicate-key]", ValueError,
        "bad.cfg:4: duplicate config key 'N' (first set on line 1)",
        lambda: _load(b"N = 3\nk = 1\n# N = 4\nN = 5\n")),
    Row("test_harness::test_load_config_rejects_malformed_line", ValueError, "bad.cfg:1: expected key=value, got 'N 3'",
        lambda: _load(b"N 3\n")),
    Row("test_harness::test_load_config_rejects_unparsable_value", ValueError, "config key 'N': cannot parse 'three'",
        lambda: _load(b"N = three\n")),
    Row("test_refusals::test_refusal[load-config-not-utf-8]", ValueError,
        "bad.cfg:2: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        lambda: _load(b"N = 3\nk = \xff\n")),
    Row("test_refusals::test_refusal[parse-empty-list]", ValueError, "config key 'eps_list': empty list",
        lambda: parse_value("eps_list", " , ")),
    *rows(
        "test_harness::test_resolve_config_validates_ranges",
        (ValueError, "dimension N must be >= 3, got 2", lambda: resolve_config({"N": 2})),
        (ValueError, "M must be >= 16, got 8", lambda: resolve_config({"M": 8})),
        (ValueError, "unknown config key 'scan_lo'", lambda: resolve_config({"scan_lo": 1.0, "scan_hi": 0.1})),
        (ValueError, f"integrator must be one of {INTEGRATORS}, got 'rk4'",
         lambda: resolve_config({"integrator": "rk4"})),
        (ValueError, "unknown config key 'wibble'", lambda: resolve_config(overrides={"wibble": 1})),
    ),
    Row("test_refusals::test_refusal[resolve-eps-list-entry]", ValueError,
        "eps_list entry 1.5: hole radius eps must lie in (0,1), got 1.5", lambda: resolve_config({"eps_list": (1.5,)})),
    Row("test_refusals::test_refusal[resolve-lambda]", ValueError, "lambda must be finite, got nan",
        lambda: resolve_config({"lambda": math.nan})),
    Row("test_refusals::test_refusal[resolve-lambda-list]", ValueError,
        "lambda_list entries must be finite, got (0.5, inf)", lambda: resolve_config({"lambda_list": (0.5, math.inf)})),
    Row("test_refusals::test_refusal[report-of-no-runs]", ValueError, "no run manifests found under runs",
        lambda: _report(())),
    Row("test_refusals::test_refusal[report-of-two-versions]", ValueError,
        "refusing to collate mixed artifact versions: ['0.0.9', '0.1.0']",
        lambda: _report(("0.1.0", "0.0.9"))),
    Row("test_refusals::test_refusal[verify-with-a-failed-check]", SolverError, "invariant checks failed: zero-trace",
        lambda: harness.run("verify", resolve_config(), "runs"),
        lambda monkeypatch: monkeypatch.setattr(harness, "_verify_checks", lambda: [("zero-trace", False, "")])),
    # the LAPACK loader
    Row("test_imports::test_a_missing_extension_names_the_directory_searched", ImportError,
        "no LAPACK extension _flapack in linalg",
        lambda: _lapack._load(Path("linalg"))),
    Row("test_refusals::test_refusal[lapack-without-scipy]", ImportError, "scipy is not installed",
        _lapack._scipy_linalg,
        lambda monkeypatch: monkeypatch.setattr(_lapack.importlib.util, "find_spec", lambda name: None)),
    # mesh
    *rows(
        "test_mesh::test_grid_validation",
        (ValueError, "M must be >= 16, got 8", lambda: bt.build_grid(0.1, 1.0, 8)),
        (ValueError, "need 0 <= inner < outer < inf, got inner=1.0, outer=0.5", lambda: bt.build_grid(1.0, 0.5, 64)),
        (ValueError, "unknown grading 'cubic'", lambda: bt.build_grid(0.1, 1.0, 64, grading="cubic")),
        (ValueError, "unknown grading 'log-uniform'", lambda: bt.build_grid(0.1, 1.0, 64, grading="log-uniform")),
        # four nodes out of order: the node count is refused first
        (ValueError, "need at least 17 nodes (M >= 16), got 4", lambda: bt.RadialGrid([0.1, 0.3, 0.2, 1.0], N=3)),
        (ValueError, "dimension N must be >= 3, got 2", lambda: bt.RadialGrid(np.linspace(0.1, 1.0, 33), N=2)),
        # a fractional M gave a last cell half as wide as the others; N = 4.5 and 4.0 gave grids of a float N
        (ValueError, "N must be an integer, got 4.5", lambda: bt.build_grid(0.5, 1.0, 64, "uniform", 4.5)),
        (ValueError, "N must be an integer, got 4.0", lambda: bt.build_grid(0.5, 1.0, 64, "uniform", 4.0)),
        (ValueError, "M must be an integer, got 64.5", lambda: bt.build_grid(0.5, 1.0, 64.5, "uniform", 4)),
    ),
    *(Row(f"test_refusals::test_refusal[{ids}-to-infinity]", ValueError,
          f"need 0 <= inner < outer < inf, got inner={inner}, outer=inf", call)
      for ids, inner, call in (("log-grid", 0.1, lambda: bt.build_grid(0.1, math.inf, 64)),
                               ("ball-grid", 0.0, lambda: bt.build_grid(0.0, math.inf, 64, "uniform")),
                               ("limit-ball", 0.0, lambda: bt.limit_eigenpair(4, math.inf, 1024)))),
    # enough nodes that only the order check can reject them
    Row("test_mesh::test_grid_rejects_nodes_out_of_order", ValueError, "nodes must be strictly increasing",
        lambda: bt.RadialGrid(np.linspace(0.1, 1.0, 33)[[*range(10), 11, 10, *range(12, 33)]], N=3)),
    Row("test_mesh::test_field_rejects_a_value_count_other_than_the_node_count", ValueError,
        "field has 32 values for 33 nodes", lambda: bt.RadialField(bt.build_grid(0.5, 1.0, 32), np.zeros(32))),
    Row("test_refusals::test_refusal[dirichlet-field-with-rounded-ends]", ValueError, NOT_ZERO_TRACE,  # roundoff, not 0
        lambda: bt.RadialField(ANNULUS, np.sin(np.pi * (ANNULUS.nodes - 0.5) / 0.5), dirichlet=True)),
    # both ends of an annulus; on a ball only the outer node, since r = 0 is an unknown (the regularity row)
    *(Row(f"test_refusals::test_refusal[dirichlet-field-{ids}]", ValueError, NOT_ZERO_TRACE,
          lambda inner=inner, j=j: bt.RadialField(bt.build_grid(inner, 1, 32, "uniform"), np.eye(33)[j], True))
      for ids, inner, j in (("annulus-inner", 0.5, 0), ("annulus-outer", 0.5, 32), ("ball-outer", 0.0, 32))),
    Row("test_refusals::test_refusal[log-grid-from-the-origin]", ValueError,
        "the 'log' grading needs a positive inner radius", lambda: bt.build_grid(0.0, 1.0, 64, "log")),
    Row("test_refusals::test_refusal[negative-radius]", ValueError, "radii must be nonnegative, got r_0 = -0.1",
        lambda: bt.RadialGrid(np.linspace(-0.1, 1.0, 65), 3)),
    # the same nodes in another dimension: the weights carry r^{N-1}, so either order would read
    # its own first argument's weights
    *(Row("test_mesh::test_integrate_rejects_mismatched_grids", ValueError,
          f"fields live on different grids: N = {a[1]}, {a[0] + 1} nodes 0.1, {a[2]}, ..., 1 and "
          f"N = {b[1]}, {b[0] + 1} nodes 0.1, {b[2]}, ..., 1",
          lambda a=a, b=b: bt.integrate_weighted(*(
              bt.RadialField(bt.RadialGrid(np.geomspace(0.1, 1.0, M + 1), N), np.ones(M + 1)) for M, N, _ in (a, b))))
      for a, b in (((64, 3, "0.103663"), (128, 3, "0.101815")), ((64, 3, "0.103663"), (64, 4, "0.103663")),
                   ((64, 4, "0.103663"), (64, 3, "0.103663")))),
    # profile
    *(Row("test_profile::test_bubble_validation", ValueError, message, lambda delta=delta, N=N: bt.Bubble(delta, N))
      for delta, N, message in (
          (0.0, 4, "delta must be finite and positive, got 0.0"),
          (math.nan, 4, "delta must be finite and positive, got nan"),  # every value it gave was NaN
          (math.inf, 4, "delta must be finite and positive, got inf"),
          (1.0, 2, "dimension N must be >= 3, got 2"),
          (1.0, 4.5, "N must be an integer, got 4.5"))),
    Row("test_profile::test_ef_transform_rejects_origin", ValueError, "transform needs strictly positive radii",
        lambda: bt.emden_fowler_transform(bt.RadialField(bt.build_grid(0.0, 1.0, 64, "uniform", 3), np.ones(65)))),
    Row("test_profile::test_extract_concentrations_rejects_flat_profile", ValueError,
        "found 0 concentration peaks, expected 1",
        lambda: bt.extract_concentrations(bt.RadialField(bt.build_grid(0.1, 1.0, 256, N=3), np.ones(257)), 1)),
    # spectral
    *(Row(f"test_spectral::test_dstebz_failure_raises[{ids}]", SolverError,
          f"LAPACK dstebz failed on eigenvalue 1: info = {info}, m = {m}",
          lambda: spectral.eigenvalue_k(ZERO_POTENTIAL, 1), _dstebz_gives(m, np.zeros(63), info),
          {"info": info, "m": m})
      for ids, info, m in (("info-1", 1, 1), ("m-0", 0, 0))),
    # d = 2, e = 1: the lowest mode alternates in sign; e = 0: it is not simple. Either way an
    # off-diagonal is not negative, so Perron-Frobenius does not hold
    *(Row("test_spectral::test_a_sign_changing_first_eigenvector_is_named", SolverError, NOT_POSITIVE,
          lambda e=e: spectral.first_eigenpair(bt.LinearizedOperator(None, np.full(31, 2.0), np.full(30, e))),
          diagnostics={"max_offdiagonal": e, "overlap": overlap})
      for e, overlap in ((1.0, [0, 30]), (0.0, [30, 0]))),
    # at lambda_2 or lambda_3 in place of lambda_1 the top-down pivots turn nonpositive before the
    # bottom-up ones start: no twist holds both, and the error is named, not numpy's argmin's
    *(Row(f"test_spectral::test_factorizations_that_do_not_overlap_are_named[{j}]", SolverError, NOT_POSITIVE,
          lambda: spectral.first_eigenpair(ZERO_POTENTIAL),
          _dstebz_gives(1, np.array([spectral.eigenvalue_k(ZERO_POTENTIAL, j)]), 0), {"overlap": overlap})
      for j, overlap in ((2, [37, 36]), (3, [47, 25]))),
    Row("test_spectral::test_assemble_rejects_negative_potential", ValueError, "potential must be nonnegative",
        lambda: bt.assemble_operator(ANNULUS, bt.RadialField(ANNULUS, -np.ones(129)))),
    # a uniform (0.5, 1) potential on a log (1e-2, 1) grid gave lambda_1 = 13.69
    Row("test_spectral::test_assemble_rejects_a_potential_on_another_grid", ValueError,
        "fields live on different grids: N = 4, 1025 nodes 0.5, 0.500488, ..., 1 and "
        "N = 4, 1025 nodes 0.01, 0.0100451, ..., 1",
        lambda: bt.assemble_operator(bt.build_grid(1e-2, 1.0, 1024, "log", 4),
                                     bt.RadialField(bt.build_grid(0.5, 1.0, 1024, "uniform", 4), np.ones(1025)))),
    *(Row(f"test_spectral::test_assemble_rejects_non_finite_potential[{bad}]", ValueError,
          "potential must be finite (it holds NaN or inf)",
          lambda bad=bad: bt.assemble_operator(
              ANNULUS, bt.RadialField(ANNULUS, np.where(np.arange(129) == 10, bad, 0.0))))
      for bad in (math.nan, math.inf)),
    # j = 1.5 used to give lambda_1
    *(Row(f"test_refusals::test_refusal[eigenvalue-index-{j}]", ValueError,
          f"eigenvalue index j must be an integer in 1..63, got {j}",
          lambda j=j: spectral.eigenvalue_k(ZERO_POTENTIAL, j)) for j in (0, 64, 1.5)),
    Row("test_spectral::test_sign_condition_rejects_zero_eigenvalue", SolverError,
        "eigenvalue is zero within tolerance; identity undefined",
        lambda tower, tower_pair: bt.sign_condition(tower, bt.EigenPair(0.0, tower_pair.phi, 0.0))),
    *rows(
        "test_spectral::test_limit_eigenpair_validation",
        (ValueError, "truncation radius must be >= 20, got 5.0", lambda: bt.limit_eigenpair(4, 5.0, 512)),
        (ValueError, "M must be an integer, got 4096.0", lambda: bt.limit_eigenpair(4, 80.0, 4096.0)),
    ),
    # N = 4.5 returned lambda* = -5.2110
    Row("test_spectral::test_limit_scan_refuses_a_fractional_dimension_before_any_eigen_solve", ValueError,
        "N must be an integer, got 4.5", lambda: bt.limit_scan(4.5), _forbid(spectral, "first_eigenpair", "a solve")),
    *(Row(f"test_spectral::test_diagnostics_name_missing_concentration_scales[{name}-{ids}]", ValueError,
          "solution carries no measured concentration scales",
          lambda name=name, deltas=deltas: MISSING_SCALES[name](*_no_scales(deltas)))
      for name in MISSING_SCALES for ids, deltas in (("empty", np.array([])), ("none", None))),
    # the (4,2,1e-3) pair on the (4,2,1e-2) tower: lambda_tilde read -152.5 instead of -6.518
    *rows(
        "test_spectral::test_diagnostics_refuse_the_eigenpair_of_another_tower",
        (ValueError, f"fields live on different grids: {TOWER_GRID[1e-3]} and {TOWER_GRID[1e-2]}",
         lambda sweep_solutions, sweep_pairs, limit4: bt.scaled_eigenvalue_diagnostic(
             sweep_solutions[1e-2], sweep_pairs[1e-3], limit4["lambda_star"])),
        (ValueError, f"fields live on different grids: {TOWER_GRID[1e-3]} and {TOWER_GRID[1e-2]}",
         lambda sweep_solutions, sweep_pairs, limit_pair4: bt.scaled_eigenfunction_distance(
             sweep_solutions[1e-2], sweep_pairs[1e-3], limit_pair4)),
        (ValueError, f"fields live on different grids: {TOWER_GRID[1e-2]} and {TOWER_GRID[1e-3]}",
         lambda sweep_solutions, sweep_pairs: bt.sign_condition(sweep_solutions[1e-2], sweep_pairs[1e-3])),
    ),
    # the N = 3 limit pair against an N = 4 tower read 0.4529 instead of 0.4359
    Row("test_spectral::test_eigenfunction_distance_refuses_a_limit_pair_of_another_dimension", ValueError,
        "the grid has dimension N = 3 but the params have N = 4",
        lambda sweep_solutions, sweep_pairs, limit_pair3: bt.scaled_eigenfunction_distance(
            sweep_solutions[1e-2], sweep_pairs[1e-2], limit_pair3)),
    # stationary
    Row("test_stationary::test_shoot_rejects_nonfinite_slope", ValueError, "slope must be finite, got nan",
        lambda: bt.shoot(bt.ProblemParams(3, 2, 1e-2), math.nan, bt.build_grid(1e-2, 1.0, 1024, "log", 3))),
    # a launch speed of 1e-123 puts log y near -566, past the table's -512
    Row("test_stationary::test_shoot_rejects_a_launch_below_the_clocks_range", SolverError,
        "launch speed 1e-123 lies below the lobe clock's range log y >= -512",
        lambda: bt.shoot(bt.ProblemParams(3, 2, 1e-2), 1e-120, bt.build_grid(1e-2, 1.0, 1024, "log", 3))),
    *rows(
        "test_stationary::test_scaling_law_input_validation",
        (ValueError, "need >= 3 eps values for a slope fit, got 2",
         lambda sweep_solutions: bt.verify_scaling_law(dict.fromkeys((1e-2, 1e-3), sweep_solutions[1e-2]))),
        (ValueError, "eps values must span at least one decade",
         lambda sweep_solutions: bt.verify_scaling_law(dict.fromkeys((1e-2, 9e-3, 8e-3), sweep_solutions[1e-2]))),
        (ValueError, "towers filed under an eps other than their own: [0.01, 0.001]",
         lambda sweep_solutions: bt.verify_scaling_law(
             {1e-2: sweep_solutions[1e-3], 1e-3: sweep_solutions[1e-2], 1e-4: sweep_solutions[1e-4]})),
        (ValueError, "towers of one (N, k) are needed, got [(3, 2), (4, 2)]",
         lambda sweep_solutions, case_solutions: bt.verify_scaling_law(
             {**sweep_solutions, 1e-3: case_solutions[(3, 2, 1e-3)]})),
    ),
    # a residual gate below the rounding floor cannot be met: the solve reports the stall and its
    # residual instead of returning a field
    Row("test_stationary::test_unconverged_solve_raises_naming_its_cause", SolverError,
        "Newton refinement stalled at scaled residual 1.262e-11 > 1e-30",
        lambda: bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-3), M=1024, residual_tol=1e-30)),
    Row("test_stationary::test_params_reject_a_tower_without_bubbles", ValueError, "tower count k must be >= 1, got 0",
        lambda: bt.ProblemParams(3, 0, 1e-2)),
    Row("test_refusals::test_refusal[params-eps-outside-the-unit-interval]", ValueError,
        "hole radius eps must lie in (0,1), got 1.0", lambda: bt.ProblemParams(4, 2, 1.0)),
    # k = 2.5 used to stall in the Newton polish, and N = 4.5 to solve a tower with p = 2.6
    *(Row(f"test_stationary::test_params_require_an_integer_dimension_and_tower_count[args{i}-{name}-{value}]",
          ValueError, f"{name} must be an integer, got {value}", lambda args=args: bt.ProblemParams(*args))
      for i, (args, name, value) in enumerate([((4, 2.5, 1e-3), "k", "2.5"), ((4.5, 2, 1e-3), "N", "4.5")])),
    # Newton keeps the zero field, a stationary solution with no lobe: too few zeros for k = 2, and
    # for k = 1 no mass, sup|u|^{p-1} = 0 against pi^2/(1 - 0.01)^2
    *(Row(f"test_stationary::test_a_shot_that_collapses_to_zero_is_named[{ids}]", SolverError, message,
          lambda k=k: bt.find_nodal_solution(bt.ProblemParams(3, k, 1e-2), M=256), _shot_of(np.zeros_like))
      for ids, k, message in (
          ("2-^refined solution has 0 interior zeros, expected 1$", 2,
           "refined solution has 0 interior zeros, expected 1"),
          ("1-^solution collapsed toward zero", 1, COLLAPSED))),
    Row("test_stationary::test_the_collapse_message_gives_the_peak_and_its_bound", SolverError, COLLAPSED,
        lambda: bt.find_nodal_solution(bt.ProblemParams(3, 1, 1e-2), M=256), _shot_of(np.zeros_like)),
    Row("test_stationary::test_a_non_finite_shot_is_named", SolverError,
        "non-finite Newton residual nan at the initial field",
        lambda: bt.find_nodal_solution(bt.ProblemParams(3, 2, 1e-2), M=256),
        _shot_of(lambda r: np.full_like(r, np.nan)), {"history": [math.nan]}),
    Row("test_stationary::test_a_singular_newton_system_is_named", SolverError,
        "singular Newton system: zero pivot in row 1",
        lambda: bt.find_nodal_solution(bt.ProblemParams(3, 2, 1e-2), M=256),
        lambda monkeypatch: monkeypatch.setattr(stationary, "dgtsv", lambda dl, d, du, b: (dl, d, du, b, 1))),
    # a root past |log y| = 512, and a root whose slope a eps^{-N/2} overflows
    *(Row(f"test_stationary::test_time_map_out_of_range_raises_naming_the_case[40-{k}-1e-20-{ids}]", SolverError,
          message, lambda k=k: bt.find_nodal_solution(bt.ProblemParams(40, k, 1e-20), M=64))
      for k, ids, message in (
          (1, "no root of k T", "no root of k T(a) = log(1/eps) with |log y| <= 512 for (N, k, eps) = (40, 1, 1e-20)"),
          (4, "shooting slope overflows", "shooting slope overflows for (N, k, eps) = (40, 4, 1e-20)"))),
    # with N = 3 the residual of an N = 4 tower read 2.4e9 instead of rounding
    Row("test_stationary::test_residual_rejects_params_of_another_dimension", ValueError,
        "the grid has dimension N = 4 but the params have N = 3",
        lambda: bt.stationary_residual(bump(bt.build_grid(1e-2, 1.0, 64, "log", 4)), bt.ProblemParams(3, 2, 1e-2))),
    Row("test_stationary::test_shoot_rejects_a_grid_of_another_dimension", ValueError,
        "the grid has dimension N = 4 but the params have N = 3",
        lambda: bt.shoot(bt.ProblemParams(3, 2, 1e-2), 1.0, bt.build_grid(1e-2, 1.0, 64, "log", 4))),
    # eps = 1e-3 on a (1e-2, 1) grid zeroed an end where the orbit reads 125; on (1e-4, 1) the
    # nodes inside the hole took values
    *(Row(f"test_stationary::test_shoot_rejects_a_grid_on_another_interval[{inner}-{outer}]", ValueError,
          f"the grid spans [{inner!r}, {outer!r}] but the params need [0.001, 1.0]",
          lambda inner=inner, outer=outer: bt.shoot(
              bt.ProblemParams(4, 2, 1e-3), 1e6, bt.build_grid(inner, outer, 256, "log", 4)))
      for inner, outer in ((1e-2, 1.0), (1e-4, 1.0), (1e-3, 2.0))),
    # M = 1000.5 solved on a grid whose last cell was half as wide as the others
    Row("test_stationary::test_a_fractional_cell_count_is_refused_before_the_shot", ValueError,
        "M must be an integer, got 1000.5", lambda: bt.find_nodal_solution(bt.ProblemParams(4, 2, 1e-2), M=1000.5),
        _forbid(stationary, "shoot", "a shot")),
]

# the raise statements that no input reaches, by module and a phrase of the statement, each with its reason
UNREACHED = {
    ("spectral.py", "came out nonnegative"): "a guard against a ball mesh too coarse to hold the bubble's bound "
    "state: N = 3..12, R from 20 to 1e12 and M from 16 to 1024 all give lambda* <= -3.63",
}


def _check(row: Row, request, trace=contextlib.nullcontext) -> None:
    """In a fresh working directory, run row's setup, then its call under trace(), and check its refusal."""
    pattern = row.message.pattern if isinstance(row.message, re.Pattern) else "^" + re.escape(row.message) + "$"
    assert pattern.startswith("^") and pattern.endswith("$"), pattern
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(request.getfixturevalue("tmp_path_factory").mktemp("row"))
        if row.setup:
            row.setup(monkeypatch)
        params = inspect.signature(row.call).parameters.values()
        args = {p.name: request.getfixturevalue(p.name) for p in params if p.default is p.empty}
        with pytest.raises(row.exc, match=pattern) as err, trace():
            row.call(**args)
    assert type(err.value) is row.exc
    for key, value in (row.diagnostics or {}).items():
        np.testing.assert_equal(err.value.diagnostics[key], value, err_msg=key)


def check_rows(test: str, request) -> None:
    """Check the rows that run under the test ID test."""
    found = [row for row in ROWS if row.test == test]
    assert found, f"no row runs under {test}"
    for row in found:
        _check(row, request)


def add_refusal_tests(namespace: dict) -> None:
    """Define in a test module's namespace, under each test name its rows carry, the test that checks them."""
    module = namespace["__name__"]
    tests = {}  # name -> the test IDs under it, in the order of ROWS
    for row in ROWS:
        if row.test.startswith(f"{module}::"):
            tests.setdefault(row.test.split("::")[1].split("[")[0], dict.fromkeys(()))[row.test] = None
    for name, ids in tests.items():
        assert name not in namespace, f"{module}.{name} is defined twice"
        namespace[name] = _test_of(list(ids))


def _test_of(ids: list):
    """The test that checks the rows under ids: one test ID, or the IDs of one name's parameters."""
    if "[" not in ids[0]:
        return lambda request: check_rows(ids[0], request)

    @pytest.mark.parametrize("test_id", ids, ids=[test_id[test_id.index("[") + 1 : -1] for test_id in ids])
    def test(test_id, request):
        check_rows(test_id, request)

    return test


@contextlib.contextmanager
def _traced(lines: set):
    """Add to lines the (file, line) of every line run in a frame of the package's modules."""
    package = os.path.dirname(bt.__file__) + os.sep

    def line(frame, event, arg):  # a return or exception event comes from a line already run
        lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(package) else None)
    try:
        yield
    finally:
        sys.settrace(previous)


def test_every_raise_is_reached(request):
    lines = set()
    for row in ROWS:
        _check(row, request, functools.partial(_traced, lines))
    where = {}  # (file, line) of each raise statement in the package, __main__.py's exit aside -> "module.py:LINE: ..."
    for path in sorted(Path(bt.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and path.name != "__main__.py":
                statement = " ".join(ast.get_source_segment(text, node).split())
                where[(str(path), node.lineno)] = f"{path.name}:{node.lineno}: {statement}"
    unreached = {site for site, at in where.items() for module, phrase in UNREACHED
                 if at.startswith(module) and phrase in at}
    assert len(unreached) == len(UNREACHED), unreached  # each entry names one raise
    missed = [at for site, at in sorted(where.items()) if site not in lines | unreached]
    stale = [at for site, at in sorted(where.items()) if site in lines & unreached]
    assert not (missed or stale), "\n".join(
        ["no row reaches these raises:", *missed, "a row reaches these raises of UNREACHED:", *stale]
    )


add_refusal_tests(globals())
