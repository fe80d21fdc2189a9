import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bubbletower
from bubbletower.cli import build_parser, main
from bubbletower.flow import _INTEGRATORS, FlowConfig, _sweep_workers
from bubbletower.harness import (
    _ROW_BLOCK,
    _SCHEMA,
    OPERATIONS,
    _flow_config,
    _fmt17,
    _hash8,
    _read_keys,
    _sanitize,
    _start_manifest,
    fmt6,
    load_config,
    parse_value,
    resolve_config,
    write_csv,
)

from oracles import assert_no_child_process
from test_refusals import add_refusal_tests

CFG_TEXT = """\
# single-layer benchmark problem
N = 3
k = 1
eps = 0.1
M = 1024           # grid cells

dt_max = 1e-4
t_end = 0.5
"""


@pytest.fixture(autouse=True)
def _no_child_process_left():
    yield
    assert_no_child_process()


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(CFG_TEXT)
    return path


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory, cfg_file):
    """A run root holding one tower and one eig run produced through the CLI."""
    root = tmp_path_factory.mktemp("runs")
    assert main(["tower", "--config", str(cfg_file), "--out", str(root)]) == 0
    assert main(["eig", "--config", str(cfg_file), "--out", str(root)]) == 0
    return root


def test_load_config_parses_comments_and_whitespace(cfg_file):
    cfg, digest = load_config(cfg_file)
    assert digest == hashlib.sha256(CFG_TEXT.encode()).hexdigest()
    assert cfg == {
        "N": 3,
        "k": 1,
        "eps": 0.1,
        "M": 1024,
        "dt_max": 1e-4,
        "t_end": 0.5,
    }


def test_load_config_rejects_duplicate_key(tmp_path, capsys):
    # the refusal's message is a row of test_refusals.py; the command exits 1 with it and writes nothing
    path = tmp_path / "bad.cfg"
    path.write_text("N = 3\nk = 1\n# N = 4\nN = 5\n")
    out = tmp_path / "runs"
    assert main(["tower", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:4: duplicate config key 'N' (first set on line 1)\n"
    assert not out.exists()


def test_resolve_config_defaults_and_layering():
    cfg = resolve_config()
    assert (cfg["N"], cfg["k"], cfg["eps"], cfg["M"]) == (4, 2, 1e-3, 4096)
    # CLI flags beat file values
    cfg = resolve_config({"N": 3, "eps": 0.1}, {"eps": 0.2})
    assert cfg["N"] == 3 and cfg["eps"] == 0.2


def test_schema_keys():
    assert list(_SCHEMA) == [
        "N", "k", "eps", "M", "residual_tol", "lambda", "lambda_list", "eps_list",
        "dt_max", "t_end", "safety", "integrator",
    ]
    assert not {"scan_lo", "scan_hi", "per_decade", "collapse_run"} & set(_SCHEMA)
    assert not {"ivp_rtol", "dt_min", "blow_threshold", "stationary_tol"} & set(_SCHEMA)
    assert not {"radii", "M_limit"} & set(_SCHEMA)


def test_every_schema_key_is_read_by_some_operation():
    # a key that no operation reads changes nothing but the manifest: make it a constant
    assert set(_SCHEMA) == set().union(*map(_read_keys, OPERATIONS))


DEFAULTS = {
    "N": 4,
    "k": 2,
    "eps": 1e-3,
    "M": 4096,
    "residual_tol": 1e-8,
    "lambda": 1.0,
    "lambda_list": (0.1, 0.95, 1.0, 1.05),
    "eps_list": (1e-2, 1e-3, 1e-4),
    "dt_max": 1e-5,
    "t_end": 2.0,
    "safety": 0.1,
    "integrator": "imex-be",
}


def test_resolved_defaults_are_pinned():
    cfg = resolve_config()
    assert cfg == DEFAULTS
    assert {k: type(v) for k, v in cfg.items()} == {k: type(v) for k, v in DEFAULTS.items()}


# the flags of each subcommand besides -h, --config and --out
CLI_FLAGS = {
    "tower": "--N --k --eps --M",
    "eig": "--N --k --eps --M",
    "limit": "--N",
    "flow": "--N --k --eps --M --lambda --t-end --dt-max --integrator",
    "sweep": "--N --k --M --eps-list --lambda-list --t-end",
    "verify": "",
    "report": "",
}


def test_cli_flags_are_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(CLI_FLAGS)
    for op, flags in CLI_FLAGS.items():
        got = {opt: a.dest for a in subparsers.choices[op]._actions for opt in a.option_strings}
        want = {"-h": "help", "--help": "help", "--config": "config", "--out": "out"}
        want.update({flag: flag[2:].replace("-", "_") for flag in flags.split()})
        assert got == want, op


@pytest.mark.parametrize("flag, raw", [("--eps", "1e-3"), ("--eps-l", "0.1")])
def test_sweep_takes_no_eps_flag(tmp_path, capsys, flag, raw):
    # a sweep solves only its eps_list annuli, so an eps flag would change nothing but
    # the hash; and no prefix of --eps-list stands for it
    out = tmp_path / "runs"
    assert main(["sweep", flag, raw, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} {raw}" in capsys.readouterr().err
    assert not out.exists()


def test_flag_values_are_parsed_by_the_schema(capsys):
    assert main(["tower", "--N", "three"]) == 1
    assert "config key 'N': cannot parse 'three'" in capsys.readouterr().err


# a valid value other than the default for each FlowConfig field the schema holds
FLOW_VALUES = {
    "dt_max": 2e-5,
    "t_end": 0.25,
    "safety": 0.05,
    "integrator": "reaction-only",
}


def test_flow_config_fields_round_trip_through_resolve_config():
    in_schema = {f.name for f in dataclasses.fields(FlowConfig)} & set(_SCHEMA)
    assert in_schema == set(FLOW_VALUES)
    defaults = FlowConfig()
    for name, value in FLOW_VALUES.items():
        assert getattr(defaults, name) != value
        fcfg = _flow_config(resolve_config({name: value}))
        assert getattr(fcfg, name) == value
        assert dataclasses.replace(fcfg, **{name: getattr(defaults, name)}) == defaults


def test_fmt17_roundtrip():
    for x in (1.0 / 3.0, 1e-300, 3.141592653589793, -2.5e17, 0.1):
        assert float(_fmt17(x)) == x
    assert _fmt17(None) == ""
    assert _fmt17(True) == "True"
    assert _fmt17(42) == "42"
    assert _fmt17("BlowUp") == "BlowUp"


def _assert_per_cell_csv(path, header, rows):
    """The file at path is header plus rows rendered cell by cell through _fmt17."""
    want = [",".join(header)] + [",".join(_fmt17(x) for x in row) for row in rows]
    got = Path(path).read_text().split("\n")
    assert got.pop() == "", "no trailing newline"
    assert len(got) == len(want), (len(got), len(want))
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"


CSV_EDGE_VALUES = (
    0.1, -0.0, math.inf, 1.0 / 3.0, math.nan, 0.0, -math.inf, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -2.5e17, 2.0**53 + 2,
)


@pytest.mark.parametrize("nrows", [0, 1, _ROW_BLOCK + 1])
def test_write_csv_float_table_matches_per_cell_rendering(tmp_path, nrows):
    ncols = 5  # coprime to the 12 edge values, so each column meets all of them
    cells = np.resize(np.array(CSV_EDGE_VALUES), nrows * ncols)
    table = cells.reshape(nrows, ncols)
    header = [f"c{j}" for j in range(ncols)]
    write_csv(tmp_path / "t.csv", header, table)
    _assert_per_cell_csv(tmp_path / "t.csv", header, table)


def test_write_csv_streams_a_long_table(tmp_path):
    # 200,000 rows as one list of lists or one string take tens of MB
    table = np.random.default_rng(0).standard_normal((200_000, 4))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "series.csv", ["t", "sup", "energy", "dt"], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "op, overrides",
    [
        ("tower", {"N": 3, "k": 1, "eps": 0.1, "M": 256}),
        ("eig", {"N": 3, "k": 1, "eps": 0.1, "M": 256}),
        ("limit", {}),
        ("flow", {"N": 3, "k": 1, "eps": 0.1, "M": 256, "lambda": 0.5, "t_end": 1e-3, "dt_max": 1e-4}),
    ],
)
def test_numeric_tables_match_per_cell_rendering(tmp_path, monkeypatch, op, overrides):
    from bubbletower import harness

    body, *rest = harness.OPERATIONS[op]
    tables = {}

    def spy(cfg, root):
        summary, out = body(cfg, root)
        tables.update(out)
        return summary, out

    monkeypatch.setitem(harness.OPERATIONS, op, (spy, *rest))
    outdir, _ = harness.run(op, resolve_config(overrides=overrides), tmp_path)
    assert tables
    for name, (header, rows) in tables.items():
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.shape[1] == len(header)
        _assert_per_cell_csv(outdir / name, header, rows)


def test_fmt6():
    assert fmt6(3.14159265) == "3.14159"
    assert fmt6(None) == "None"


def test_tower_run_outputs(cli_root):
    (towerdir,) = [d for d in cli_root.iterdir() if d.name.startswith("tower-")]
    assert (towerdir / "profile.csv").exists()
    assert (towerdir / "summary.json").exists()
    assert (towerdir / "manifest.json").exists()

    lines = (towerdir / "profile.csv").read_text().splitlines()
    assert lines[0] == "r,u,residual"
    first = lines[1].split(",")
    assert float(first[0]) == 0.1  # inner radius, full precision
    assert len(lines) == 1 + 1025  # header + M+1 nodes

    summary = json.loads((towerdir / "summary.json").read_text())
    assert summary["interior_zeros"] == 0
    assert summary["residual_norm"] <= 1e-8

    manifest = json.loads((towerdir / "manifest.json").read_text())
    assert manifest["operation"] == "tower"
    assert manifest["grid"] == {"M": 1024, "grading": "log", "inner": 0.1, "outer": 1.0}
    assert set(manifest) == {
        "version", "operation", "config", "grid", "tolerances", "input_hashes",
        "unread_config_keys", "started", "finished", "outcome",
    }
    assert manifest["input_hashes"]["config_file"]
    assert manifest["unread_config_keys"] == ["dt_max", "t_end"]  # flow settings the tower does not read
    assert manifest["outcome"]["shooting_slope"] == summary["shooting_slope"]
    assert "started" in manifest and "finished" in manifest


def test_eig_run_outputs(cli_root):
    (eigdir,) = [d for d in cli_root.iterdir() if d.name.startswith("eig-")]
    summary = json.loads((eigdir / "summary.json").read_text())
    assert summary["lambda1"] < 0
    assert summary["inner_product"] > 0
    assert summary["identity_residual"] <= 1e-6
    assert (eigdir / "eigenfunction.csv").read_text().splitlines()[0] == "r,phi1"


def test_tower_rerun_is_byte_identical(cfg_file, tmp_path):
    ra, rb = tmp_path / "a", tmp_path / "b"
    assert main(["tower", "--config", str(cfg_file), "--out", str(ra)]) == 0
    assert main(["tower", "--config", str(cfg_file), "--out", str(rb)]) == 0
    (da,) = list(ra.iterdir())
    (db,) = list(rb.iterdir())
    assert da.name == db.name  # config-hashed directory name
    assert (da / "profile.csv").read_bytes() == (db / "profile.csv").read_bytes()


def test_limit_run_writes_the_largest_rung_of_the_scan(tmp_path, monkeypatch):
    # the written eigenfunction is the largest rung, (80, 4096), which limit_scan
    # already solved: same bytes as a fresh solve, one solve fewer
    from bubbletower import harness, spectral

    calls = []
    real = spectral.limit_eigenpair

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (spectral, harness):  # wherever a caller may look it up
        monkeypatch.setattr(module, "limit_eigenpair", counted, raising=False)
    outdir, summary = harness.run("limit", resolve_config(), tmp_path / "runs")
    assert calls == [(4, 20.0, 1024), (4, 40.0, 2048), (4, 80.0, 4096), (4, 80.0, 8192)]
    pair = real(4, 80.0, 4096)
    write_csv(tmp_path / "fresh.csv", ["r", "phi_star"], zip(pair.phi.grid.nodes, pair.phi.values))
    assert (outdir / "limit_eigenfunction.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert summary["overlap"] == bubbletower.limit_overlap(pair)
    assert json.loads((outdir / "summary.json").read_text())["overlap"] == summary["overlap"]


def test_limit_prints_its_ladder(tmp_path, capsys):
    assert main(["limit", "--N", "4", "--out", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"limit: lambda\*=\S+ \[R=20:\S+ R=40:\S+ R=80:\S+\] overlap=\S+", line), line


def test_limit_manifest_has_no_annulus_grid(tmp_path):
    from bubbletower import harness

    outdir, _ = harness.run("limit", resolve_config(), tmp_path)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["operation"] == "limit"
    assert "grid" not in manifest


def test_flow_run_stationary(cfg_file, tmp_path, capsys):
    code = main(
        ["flow", "--config", str(cfg_file), "--out", str(tmp_path), "--lambda", "1.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status=Stationary" in out
    assert "outputs: " in out
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["status"] == "Stationary"
    assert summary["drift_rel"] <= 1e-4
    lines = (d / "series.csv").read_text().splitlines()
    assert lines[0] == "t,sup,energy,dt"
    assert len(lines) > 2


@pytest.mark.parametrize(
    "lam, status", [(0.5, "GlobalBounded"), (1.0, "Stationary"), (1.5, "BlowUp")], ids=["0.5", "1.0", "1.5"]
)
def test_flow_at_lambda_one_uses_the_sweep_horizon(cfg_file, tmp_path, lam, status):
    # the flow summary and the sweep row carry one record of the run, at every status
    assert main(["flow", "--config", str(cfg_file), "--out", str(tmp_path), "--lambda", str(lam)]) == 0
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    sol = bubbletower.find_nodal_solution(bubbletower.ProblemParams(3, 1, 0.1), M=1024)
    pair = bubbletower.first_eigenpair(bubbletower.assemble_linearized(sol))
    (row,) = bubbletower.lambda_sweep(sol, [lam], _flow_config(resolve_config(load_config(cfg_file)[0])), pair)
    record = ("lambda", "status", "T_estimate", "drift_rel", "t_end")
    assert {key: summary[key] for key in record} == {key: row[key] for key in record}
    assert row["status"] == status
    assert (row["t_end"] != 0.5) == (lam == 1.0)  # only lambda = 1 runs on the horizon 10/|lambda_1|


def test_flow_run_blowup(cfg_file, tmp_path):
    code = main(
        ["flow", "--config", str(cfg_file), "--out", str(tmp_path), "--lambda", "1.5"]
    )
    assert code == 0
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["status"] == "BlowUp"
    assert summary["T_estimate"] > 0
    assert summary["T_bracket"][0] <= summary["T_bracket"][1]


def test_sweep_run(cfg_file, tmp_path):
    code = main(
        [
            "sweep",
            "--config",
            str(cfg_file),
            "--out",
            str(tmp_path),
            "--eps-list",
            "0.1",
            "--lambda-list",
            "0.1,1.5",
        ]
    )
    assert code == 0
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["cells"] == 2
    statuses = {row["lambda"]: row["status"] for row in summary["table"]}
    assert statuses[0.1] == "GlobalBounded"
    assert statuses[1.5] == "BlowUp"
    lines = (d / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,lambda,status,T_estimate,sup_final,drift_rel"
    assert len(lines) == 3
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["workers"] == _sweep_workers(1 * 2)  # one table of 1 eps x 2 lambdas


def test_sweep_manifest_names_the_solved_annuli(tmp_path):
    argv = ["sweep", "--N", "3", "--k", "1", "--M", "256", "--eps-list", "0.1", "--lambda-list", "0.1"]
    assert main(argv + ["--t-end", "0.01", "--out", str(tmp_path)]) == 0
    (d,) = list(tmp_path.iterdir())
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["grid"] == [{"M": 256, "grading": "log", "inner": 0.1, "outer": 1.0}]
    assert "eps" not in manifest["config"]  # the config's eps, which the sweep does not read


def test_sweep_fans_out_one_table_with_the_serial_bytes(tmp_path, monkeypatch):
    argv = ["sweep", "--N", "3", "--k", "1", "--M", "256", "--eps-list", "0.1,0.05", "--lambda-list", "0.9,1.1"]
    argv += ["--t-end", "0.01"]
    assert main(argv + ["--out", str(tmp_path / "fanned")]) == 0
    (d,) = list((tmp_path / "fanned").iterdir())
    table = json.loads((d / "summary.json").read_text())["table"]
    assert json.loads((d / "manifest.json").read_text())["workers"] == _sweep_workers(2 * 2)
    per_eps = []
    for eps in (0.1, 0.05):
        sol = bubbletower.find_nodal_solution(bubbletower.ProblemParams(3, 1, eps), M=256)
        pair = bubbletower.first_eigenpair(bubbletower.assemble_linearized(sol))
        per_eps += [{"eps": eps, **row} for row in bubbletower.lambda_sweep(sol, (0.9, 1.1), FlowConfig(t_end=0.01), pair)]
    assert table == _sanitize(per_eps)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _sweep_workers(4) == 1
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    (d0,) = list((tmp_path / "serial").iterdir())
    assert (d / "sweep.csv").read_bytes() == (d0 / "sweep.csv").read_bytes()
    assert json.loads((d0 / "manifest.json").read_text())["workers"] == 1


@pytest.mark.parametrize("op", OPERATIONS)
def test_manifest_config_is_exactly_the_keys_the_operation_reads(op):
    cfg = resolve_config()
    manifest = _start_manifest(op, cfg, None)
    assert set(manifest["config"]) == _read_keys(op)
    assert manifest["config"] == _sanitize({key: cfg[key] for key in _read_keys(op)})
    expected = set()
    if "M" in _read_keys(op):  # solves a tower: the Newton gate
        expected.add("residual_tol")
    if "t_end" in _read_keys(op):  # runs the flow: the stationarity test
        expected.add("stationary_tol")
    assert set(manifest["tolerances"]) == expected


@pytest.mark.parametrize(
    "op, unread, flags",
    [
        ("sweep", "eps", ["--eps-list", "0.1", "--lambda-list", "0.1", "--t-end", "0.01"]),
        ("tower", "lambda", ["--eps", "0.1"]),
    ],
)
def test_manifest_lists_the_config_file_keys_the_operation_does_not_read(tmp_path, op, unread, flags):
    cfg_path = tmp_path / "a.cfg"
    cfg_path.write_text(f"N = 3\nk = 1\nM = 256\n{unread} = 0.5\n")
    with_file, without = tmp_path / "with", tmp_path / "without"
    assert main([op, "--config", str(cfg_path), "--out", str(with_file)] + flags) == 0
    assert main([op, "--N", "3", "--k", "1", "--M", "256", "--out", str(without)] + flags) == 0
    (d,), (d0,) = list(with_file.iterdir()), list(without.iterdir())
    assert json.loads((d / "manifest.json").read_text())["unread_config_keys"] == [unread]
    assert json.loads((d0 / "manifest.json").read_text())["unread_config_keys"] == []
    # the unread key changes neither the run directory nor its data
    assert d.name == d0.name
    for name in sorted(p.name for p in d.iterdir() if p.name != "manifest.json"):
        assert (d / name).read_bytes() == (d0 / name).read_bytes(), name


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin to pipe a config file through")
def test_a_piped_config_file_is_described_by_the_bytes_the_run_parsed(tmp_path):
    # a pipe can be read only once: the manifest's digest and unread keys come from that read
    text = "N = 3\nk = 1\neps = 0.5\nM = 64\nlambda = 0.5\n"
    proc = subprocess.run(
        [sys.executable, "-m", "bubbletower", "tower", "--config", "/dev/stdin", "--out", str(tmp_path)],
        input=text, capture_output=True, text=True, timeout=60, env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    (d,) = list(tmp_path.iterdir())
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["config"]["N"] == 3
    assert manifest["input_hashes"]["config_file"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["unread_config_keys"] == ["lambda"]


def test_read_keys_are_the_flags_and_what_the_body_reads():
    flow_keys = {f.name for f in dataclasses.fields(FlowConfig)}
    assert _read_keys("tower") == _read_keys("eig") == {"N", "k", "eps", "M", "residual_tol"}
    assert _read_keys("limit") == {"N"}
    assert _read_keys("flow") == {"N", "k", "eps", "M", "residual_tol", "lambda"} | flow_keys
    assert _read_keys("sweep") == {"N", "k", "M", "residual_tol", "eps_list", "lambda_list"} | flow_keys
    assert _read_keys("verify") == _read_keys("report") == set()


@pytest.mark.parametrize("op", OPERATIONS)
def test_run_hash_covers_exactly_the_keys_the_operation_reads(op):
    cfg = resolve_config()
    for key in _SCHEMA:
        changed = _hash8(op, {**cfg, key: "other"}) != _hash8(op, cfg)
        assert changed == (key in _read_keys(op)), key


def test_a_key_the_operation_does_not_read_leaves_the_run_directory(tmp_path):
    # a config file's eps is not read by sweep, which solves on its eps_list
    argv = ["sweep", "--N", "3", "--k", "1", "--M", "256", "--eps-list", "0.1,0.05", "--lambda-list", "0.1"]
    argv += ["--t-end", "0.001", "--out", str(tmp_path / "runs")]
    for eps in ("0.5", "0.001"):
        cfg = tmp_path / f"a-{eps}.cfg"
        cfg.write_text(f"eps = {eps}\n")
        assert main(["sweep", "--config", str(cfg), *argv[1:]]) == 0
    (d,) = list((tmp_path / "runs").iterdir())
    assert (d / "sweep.csv").read_text().count("\n") == 3


def test_sweep_flags_failed_cells(tmp_path):
    # a residual gate below the rounding floor: the solve fails, every
    # lambda cell for that eps is flagged rather than aborting the sweep
    cfg = tmp_path / "fail.cfg"
    cfg.write_text("N = 3\nk = 2\neps = 0.1\nM = 1024\nresidual_tol = 1e-30\n")
    code = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "runs"),
            "--eps-list",
            "0.1",
            "--lambda-list",
            "0.9,1.1",
        ]
    )
    assert code == 0
    (d,) = list((tmp_path / "runs").iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["status_counts"] == {"Failed": 2}
    # no flow run started, so the table ran in this process alone; the count
    # depends on the host and stays out of summary.json
    assert json.loads((d / "manifest.json").read_text())["workers"] == 1
    assert "workers" not in summary and "_manifest" not in summary


def test_verify_run(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["checks"]) == 13
    assert all(c["passed"] for c in summary["checks"])
    # the README's subcommand table states the count
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (row,) = [line for line in readme.splitlines() if line.startswith("| `verify` |")]
    assert int(re.search(r"\((\d+) checks\)", row).group(1)) == len(summary["checks"])


def test_report_collates(cli_root, capsys):
    for _ in range(2):  # the second report does not collate the first
        assert main(["report", "--out", str(cli_root)]) == 0
        assert "collated 2 runs" in capsys.readouterr().out
    (reportdir,) = [d for d in cli_root.iterdir() if d.name.startswith("report-")]
    lines = (reportdir / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["run", "operation"]
    assert "shooting_slope" in header
    assert len(lines) == 3


_NUM = r"(-?(\d+(\.\d*)?(e[-+]\d+)?|inf)|nan)"
_SMALL = ["--N", "3", "--k", "1", "--eps", "0.1", "--M", "256"]


@pytest.mark.parametrize(
    "calls, line",
    [
        ([["tower", *_SMALL]], rf"tower: slope={_NUM} residual={_NUM} zeros=0 d_hat=\['{_NUM}'\]"),
        ([["eig", *_SMALL]], rf"eig: lambda1={_NUM} residual={_NUM} inner_product={_NUM} identity={_NUM}"),
        ([["limit", "--N", "4"]], rf"limit: lambda\*={_NUM} \[R=20:{_NUM} R=40:{_NUM} R=80:{_NUM}\] overlap={_NUM}"),
        (
            [["flow", *_SMALL, "--lambda", "0.5", "--t-end", "1e-3"]],
            rf"flow: lambda=0.5 status=GlobalBounded drift_rel={_NUM}",
        ),
        ([["flow", *_SMALL, "--lambda", "1.5"]], rf"flow: lambda=1.5 status=BlowUp T={_NUM} drift_rel={_NUM}"),
        (
            [["sweep", *_SMALL[:4], "--M", "256", "--eps-list", "0.1", "--lambda-list", "0.1,1.5", "--t-end", "0.5"]],
            r"sweep: 2 cells \(BlowUp=1, GlobalBounded=1\)",
        ),
        ([["verify"]], r"verify: 13/13 checks passed"),
        ([["tower", *_SMALL], ["report"]], rf"report: collated 1 runs \({re.escape(bubbletower.__version__)}\)"),
    ],
    ids=["tower", "eig", "limit", "flow", "flow-T", "sweep", "verify", "report"],
)
def test_every_operation_prints_its_console_line(tmp_path, capsys, calls, line):
    for argv in calls:
        assert main(argv + ["--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()[-2:]
    op = calls[-1][0]
    (outdir,) = [d for d in tmp_path.iterdir() if d.name.startswith(op + "-")]
    assert re.fullmatch(line, printed[0]), printed[0]
    assert printed[1] == f"outputs: {outdir}"


def test_report_refuses_mixed_versions(cli_root, tmp_path):
    root = tmp_path / "mixed"
    shutil.copytree(cli_root, root)
    for d in root.iterdir():
        if d.name.startswith("report-"):
            shutil.rmtree(d)
    victim = next(d for d in root.iterdir() if d.name.startswith("eig-"))
    mpath = victim / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["version"] = "0.0.9"
    mpath.write_text(json.dumps(manifest))
    assert main(["report", "--out", str(root)]) == 1


def test_report_empty_root_is_an_error(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == 1


def test_exit_code_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 1
    assert main(["tower", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 1\n")
    assert main(["tower", "--config", str(bad), "--out", str(tmp_path)]) == 1


def test_exit_code_solver_failure(tmp_path):
    cfg = tmp_path / "unmet.cfg"
    cfg.write_text("N = 3\nk = 2\neps = 0.1\nM = 1024\nresidual_tol = 1e-30\n")
    assert main(["tower", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_a_residual_tol_that_is_not_finite_and_positive_is_refused(tmp_path, capsys, value):
    # (4,1,1e-4) stalls at 2.06e-8: a NaN gate, which fails every comparison, would let it pass
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(f"residual_tol = {value}\n")
    out = tmp_path / "runs"
    out.mkdir()
    argv = ["tower", "--config", str(cfg), "--N", "4", "--k", "1", "--eps", "1e-4", "--out", str(out)]
    assert main(argv) == 1
    assert f"error: residual_tol must be finite and positive, got {float(value)}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_runs_leave_no_directory(tmp_path, capsys):
    cfg = tmp_path / "unmet.cfg"
    cfg.write_text("N = 3\nk = 2\neps = 0.1\nM = 1024\nresidual_tol = 1e-30\n")
    out = tmp_path / "runs"
    out.mkdir()
    assert main(["tower", "--config", str(cfg), "--out", str(out)]) == 2
    # values the parser accepts and validation rejects
    assert main(["limit", "--N", "2", "--out", str(out)]) == 1
    assert main(["limit", "--N", "4.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: dimension N must be >= 3, got 2" in err and "config key 'N': cannot parse '4.5'" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limit", "--radii", "20,40"], "unrecognized arguments: --radii 20,40"),
        (["limit", "--config", "{cfg}"], "bad.cfg:2: unknown config key 'M_limit'"),
    ],
    ids=("flag", "config file"),
)
def test_the_limit_ladder_is_not_a_setting(tmp_path, capsys, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N = 4\nM_limit = 4096\n")
    out = tmp_path / "runs"
    assert main([arg.format(cfg=cfg) for arg in argv] + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("op, flag, key", [("sweep", "--eps-list", "eps_list"), ("sweep", "--lambda-list", "lambda_list")])
def test_empty_list_flag_exits_1_and_leaves_no_directory(tmp_path, capsys, op, flag, key):
    out = tmp_path / "runs"
    assert main([op, flag, ",,", "--out", str(out)]) == 1
    assert f"config key {key!r}: empty list" in capsys.readouterr().err
    assert not out.exists()


def test_empty_list_in_config_file_exits_1_and_leaves_no_directory(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("N = 4\nlambda_list =\n")
    out = tmp_path / "runs"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config key 'lambda_list': empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["flow", "--t-end", "inf"], "t_end"),  # used to march forever
        (["flow", "--t-end", "nan"], "t_end"),  # used to report Stationary after 0 steps
        (["flow", "--dt-max", "nan"], "dt_max"),
        (["flow", "--dt-max", "0"], "dt_max"),
        (["sweep", "--t-end", "-1"], "t_end"),
    ],
)
def test_bad_flow_flag_exits_1_naming_the_field(tmp_path, capsys, argv, field):
    out = tmp_path / "runs"
    assert main([*argv, "--out", str(out)]) == 1
    assert f"error: {field} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("safety = inf", "safety must be finite and positive"),
        # the classification constants and the shooting tolerance are not config keys
        ("dt_min = 0", "bad.cfg:5: unknown config key 'dt_min'"),
        ("stationary_tol = -1e-4", "bad.cfg:5: unknown config key 'stationary_tol'"),
        ("blow_threshold = 1e4", "bad.cfg:5: unknown config key 'blow_threshold'"),
        ("ivp_rtol = 1e-12", "bad.cfg:5: unknown config key 'ivp_rtol'"),
    ],
)
def test_bad_flow_setting_in_config_file_exits_1(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"N = 3\nk = 1\neps = 0.1\nM = 256\n{line}\n")
    out = tmp_path / "runs"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


# (subcommand, flag, value, the message's start); each used to be accepted by
# resolve_config and to fail late, after a solve, or with a message naming no key
BAD_VALUES = [
    ("flow", "lambda", "nan", "lambda must be finite, got nan"),
    ("flow", "lambda", "inf", "lambda must be finite, got inf"),
    ("sweep", "lambda_list", "0.1,nan", "lambda_list entries must be finite, got (0.1, nan)"),
    ("sweep", "eps_list", "1e-2,2", "eps_list entry 2.0: hole radius eps must lie in (0,1)"),
    ("sweep", "eps_list", "1e-2,nan", "eps_list entry nan: hole radius eps must lie in (0,1)"),
    ("flow", "integrator", "imex-cn", "integrator must be one of ('imex-be', 'reaction-only'), got 'imex-cn'"),
    ("flow", "t_end", "1e-13", "need dt_min < t_end"),
    ("tower", "M", "8", "M must be >= 16, got 8"),
]


@pytest.mark.parametrize("op, key, raw, message", BAD_VALUES)
@pytest.mark.parametrize("via", ("flag", "config file"))
def test_bad_value_exits_1_before_any_solve(tmp_path, capsys, op, key, raw, message, via):
    out = tmp_path / "runs"
    if via == "flag":
        argv = [op, "--" + key.replace("_", "-"), raw]
    else:
        cfg = tmp_path / "bad.cfg"
        settings = {"N": "3", "k": "1", "eps": "0.1", "M": "256", key: raw}  # key replaces its base line
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in settings.items()))
        argv = [op, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert "Warning" not in err
    assert not out.exists()


def _readme_config_table() -> dict:
    """key -> (default, meaning, flag-on cell) from the README's table of config keys."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            rows[cells[0].strip("`")] = tuple(cells[1:])
    return rows


def test_readme_config_table_matches_the_schema():
    rows = _readme_config_table()
    assert sorted(rows) == sorted(_SCHEMA)
    defaults = resolve_config()
    for key, (default, _, flag_on) in rows.items():
        assert parse_value(key, default) == defaults[key], key
        ops = [f"`{op}`" for op, (_, keys, *_) in OPERATIONS.items() if key in keys]
        assert flag_on == (", ".join(ops) or "—"), key
    # the one key with a fixed set of values names exactly those values
    assert re.findall(r"`([^`]+)`", rows["integrator"][1]) == list(_INTEGRATORS)


def test_failed_verify_writes_its_directory_then_exits_2(tmp_path, monkeypatch, capsys):
    from bubbletower import harness

    checks = [("grid-log-midpoint", True, "ok"), ("eig-shift-exact", False, "|shift error|=1")]
    monkeypatch.setattr(harness, "_verify_checks", lambda: checks)
    assert main(["verify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "invariant checks failed: eig-shift-exact" in err
    assert "grid-log-midpoint" not in err
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["passed"] is False
    assert [c["passed"] for c in summary["checks"]] == [True, False]


def _package_env() -> dict:
    """The environment with the package under test first on PYTHONPATH."""
    pkg_root = str(Path(bubbletower.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (pkg_root, env.get("PYTHONPATH"))))
    return env


def test_console_entry_point():
    # the declared console command, started in its own process the way the
    # installed wrapper starts it, running the package under test
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "bubbletower" in scripts
    env = _package_env()
    # what the installer-generated wrapper does: set the program name, call
    # the declared entry point, exit with its return value
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'bubbletower'\n"
        f"sys.exit(EntryPoint('bubbletower', {scripts['bubbletower']!r}, 'console_scripts').load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    for op in ("tower", "eig", "limit", "flow", "sweep", "verify", "report"):
        assert op in proc.stdout


def test_module_entry_point():
    # `python -m bubbletower` from a source tree, with the package on PYTHONPATH
    runs = [
        subprocess.run(
            [sys.executable, "-m", "bubbletower", *argv],
            capture_output=True, text=True, timeout=60, env=_package_env(),
        )
        for argv in (["--help"], ["tower", "--bogus"])
    ]
    assert runs[0].returncode == 0
    for op in ("tower", "eig", "limit", "flow", "sweep", "verify", "report"):
        assert op in runs[0].stdout
    assert runs[1].returncode == 1


@pytest.mark.skipif(
    shutil.which("bubbletower") is None,
    reason="no bubbletower console script on PATH (package not installed)",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["bubbletower", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for op in ("tower", "eig", "limit", "flow", "sweep", "verify", "report"):
        assert op in proc.stdout


add_refusal_tests(globals())
