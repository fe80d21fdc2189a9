import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bubbletower
from bubbletower.cli import build_parser, main
from bubbletower.flow import FlowConfig
from bubbletower.harness import (
    _SCHEMA,
    _flow_config,
    _fmt17,
    fmt6,
    load_config,
    resolve_config,
    write_csv,
)

CFG_TEXT = """\
# single-layer benchmark problem
N = 3
k = 1
eps = 0.1
M = 1024           # grid cells

dt_max = 1e-4
t_end = 0.5
"""


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


def test_load_config_parses_comments_and_whitespace(cfg_file, tmp_path):
    cfg = load_config(cfg_file)
    assert cfg == {
        "N": 3,
        "k": 1,
        "eps": 0.1,
        "M": 1024,
        "dt_max": 1e-4,
        "t_end": 0.5,
    }
    # the slope-scan keys are gone with the scan
    old = tmp_path / "old.cfg"
    old.write_text(CFG_TEXT + "scan_lo = 1e-2\n")
    with pytest.raises(ValueError, match="unknown config key 'scan_lo'"):
        load_config(old)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = 3\nwibble = 7\n")
    with pytest.raises(ValueError, match="bad.cfg:2"):
        load_config(path)


def test_load_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N 3\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(path)


def test_load_config_rejects_unparsable_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("N = three\n")
    with pytest.raises(ValueError, match="cannot parse"):
        load_config(path)


def test_resolve_config_defaults_and_layering():
    cfg = resolve_config()
    assert (cfg["N"], cfg["k"], cfg["eps"], cfg["M"]) == (4, 2, 1e-3, 4096)
    # CLI flags beat file values
    cfg = resolve_config({"N": 3, "eps": 0.1}, {"eps": 0.2})
    assert cfg["N"] == 3 and cfg["eps"] == 0.2


def test_resolve_config_validates_ranges():
    with pytest.raises(ValueError):
        resolve_config({"N": 2})
    with pytest.raises(ValueError):
        resolve_config({"M": 8})
    with pytest.raises(ValueError, match="unknown config key 'scan_lo'"):
        resolve_config({"scan_lo": 1.0, "scan_hi": 0.1})
    with pytest.raises(ValueError):
        resolve_config({"integrator": "rk4"})
    with pytest.raises(ValueError):
        resolve_config(overrides={"wibble": 1})


def test_schema_keys():
    assert len(_SCHEMA) == 18
    assert not {"scan_lo", "scan_hi", "per_decade", "collapse_run"} & set(_SCHEMA)


DEFAULTS = {
    "N": 4,
    "k": 2,
    "eps": 1e-3,
    "M": 4096,
    "ivp_rtol": 1e-10,
    "residual_tol": 1e-8,
    "lambda": 1.0,
    "lambda_list": (0.1, 0.95, 1.0, 1.05),
    "eps_list": (1e-2, 1e-3, 1e-4),
    "radii": (20.0, 40.0, 80.0),
    "M_limit": 4096,
    "dt_max": 1e-5,
    "dt_min": 1e-12,
    "t_end": 2.0,
    "blow_threshold": 1e3,
    "safety": 0.1,
    "stationary_tol": 1e-4,
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
    "limit": "--N --radii --M-limit",
    "flow": "--N --k --eps --M --lambda --t-end --dt-max --integrator",
    "sweep": "--N --k --eps --M --eps-list --lambda-list --t-end",
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


def test_flag_values_are_parsed_by_the_schema(capsys):
    assert main(["tower", "--N", "three"]) == 1
    assert "config key 'N': cannot parse 'three'" in capsys.readouterr().err


# a valid value other than the default for each FlowConfig field the schema holds
FLOW_VALUES = {
    "dt_max": 2e-5,
    "dt_min": 1e-13,
    "t_end": 0.25,
    "blow_threshold": 1e4,
    "safety": 0.05,
    "integrator": "imex-cn",
    "stationary_tol": 1e-6,
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
        "started", "finished", "outcome",
    }
    assert manifest["input_hashes"]["config_file"]
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
    # the written eigenfunction is the (R_max, M_limit) pair that limit_scan
    # already solved: same bytes as a fresh solve, one solve fewer
    from bubbletower import harness, spectral

    calls = []
    real = spectral.limit_eigenpair

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (spectral, harness):  # wherever a caller may look it up
        monkeypatch.setattr(module, "limit_eigenpair", counted, raising=False)
    cfg = resolve_config(overrides={"radii": (20.0, 40.0), "M_limit": 512})
    outdir, summary = harness.run("limit", cfg, tmp_path / "runs")
    assert calls == [(4, 20.0, 256), (4, 40.0, 512), (4, 40.0, 1024)]
    pair = real(4, 40.0, 512)
    write_csv(tmp_path / "fresh.csv", ["r", "phi_star"], zip(pair.phi.grid.nodes, pair.phi.values))
    assert (outdir / "limit_eigenfunction.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert summary["overlap"] == bubbletower.limit_overlap(4, pair)
    assert json.loads((outdir / "summary.json").read_text())["overlap"] == summary["overlap"]


def test_limit_manifest_has_no_annulus_grid(tmp_path):
    from bubbletower import harness

    cfg = resolve_config(overrides={"radii": (20.0, 40.0), "M_limit": 256})
    outdir, _ = harness.run("limit", cfg, tmp_path)
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


def test_flow_at_lambda_one_uses_the_sweep_horizon(cfg_file, tmp_path):
    assert main(["flow", "--config", str(cfg_file), "--out", str(tmp_path), "--lambda", "1.0"]) == 0
    (d,) = list(tmp_path.iterdir())
    t_end = json.loads((d / "summary.json").read_text())["t_end"]
    sol = bubbletower.find_nodal_solution(bubbletower.ProblemParams(3, 1, 0.1), M=1024)
    pair = bubbletower.first_eigenpair(bubbletower.assemble_linearized(sol))
    (row,) = bubbletower.lambda_sweep(sol, [1.0], _flow_config(resolve_config(load_config(cfg_file))), pair)
    assert t_end == row["t_end"] != 0.5


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


def test_sweep_manifest_names_the_solved_annuli(tmp_path):
    argv = ["sweep", "--N", "3", "--k", "1", "--M", "256", "--eps-list", "0.1", "--lambda-list", "0.1"]
    assert main(argv + ["--t-end", "0.01", "--out", str(tmp_path)]) == 0
    (d,) = list(tmp_path.iterdir())
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["grid"] == [{"M": 256, "grading": "log", "inner": 0.1, "outer": 1.0}]
    assert manifest["config"]["eps"] == 0.001  # the config's eps, on which nothing was solved


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


def test_verify_run(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    (d,) = list(tmp_path.iterdir())
    summary = json.loads((d / "summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["checks"]) == 13
    assert all(c["passed"] for c in summary["checks"])


def test_report_collates(cli_root, capsys):
    assert main(["report", "--out", str(cli_root)]) == 0
    out = capsys.readouterr().out
    assert "collated 2 runs" in out
    (reportdir,) = [d for d in cli_root.iterdir() if d.name.startswith("report-")]
    lines = (reportdir / "report.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["run", "operation"]
    assert "shooting_slope" in header
    assert len(lines) == 3


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


def test_failed_runs_leave_no_directory(tmp_path):
    cfg = tmp_path / "unmet.cfg"
    cfg.write_text("N = 3\nk = 2\neps = 0.1\nM = 1024\nresidual_tol = 1e-30\n")
    out = tmp_path / "runs"
    out.mkdir()
    assert main(["tower", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["limit", "--radii", "10", "--out", str(out)]) == 1
    assert main(["limit", "--radii", "0", "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flags, R, M",
    [(["--N", "4", "--M-limit", "32"], 20, 8), (["--radii", "20,80", "--M-limit", "60"], 20, 15)],
)
def test_too_coarse_limit_rung_exits_1_naming_M_limit(tmp_path, capsys, flags, R, M):
    # M_limit >= 16 is not enough: the smallest rung gets round(M_limit R / R_max) cells
    out = tmp_path / "runs"
    assert main(["limit", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "M_limit" in err and f"R = {R} with M = {M} cells" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "op, flag, key",
    [("limit", "--radii", "radii"), ("sweep", "--eps-list", "eps_list"), ("sweep", "--lambda-list", "lambda_list")],
)
def test_empty_list_flag_exits_1_and_leaves_no_directory(tmp_path, capsys, op, flag, key):
    out = tmp_path / "runs"
    assert main([op, flag, ",,", "--out", str(out)]) == 1
    assert f"config key {key!r}: empty list" in capsys.readouterr().err
    assert not out.exists()


def test_empty_list_in_config_file_exits_1_and_leaves_no_directory(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("N = 4\nradii =\n")
    out = tmp_path / "runs"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config key 'radii': empty list" in capsys.readouterr().err
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
        ("dt_min = 0", "dt_min must be finite and positive"),
        ("safety = inf", "safety must be finite and positive"),
        ("stationary_tol = -1e-4", "stationary_tol must be finite and >= 0"),
    ],
)
def test_bad_flow_setting_in_config_file_exits_1(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"N = 3\nk = 1\neps = 0.1\nM = 256\n{line}\n")
    out = tmp_path / "runs"
    assert main(["flow", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def test_console_entry_point():
    # the declared console command, started in its own process the way the
    # installed wrapper starts it, running the package under test
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "bubbletower" in scripts
    pkg_root = str(Path(bubbletower.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (pkg_root, env.get("PYTHONPATH"))))
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
