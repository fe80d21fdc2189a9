"""Check that two source trees give the same CLI outputs, byte for byte.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
call in CALLS runs as `python -m bubbletower ...` with PYTHONPATH=<src>, into
one fresh --out root per tree, the calls of a tree in order. For every call
the two trees must agree on:

- the exit code, and stdout and stderr once the out root and the src
  directory are replaced by fixed placeholders;
- the names of the run directories the call created;
- every file in those directories byte for byte, except manifest.json, which
  is compared as JSON without its `started` and `finished` timestamps.

Each difference is printed on its own line, and the exit status is 1 if there
is any, 0 if there is none. Standard library only.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAILING_SOLVE = "residual_tol = 1e-30\n"  # no tower reaches it: every sweep cell is a 'Failed' row

# (label, CLI arguments); "{config}" stands for a config file holding FAILING_SOLVE
CALLS = [
    ("tower (3,2,1e-3)", ["tower", "--N", "3", "--k", "2", "--eps", "1e-3"]),
    ("tower (4,2,1e-3)", ["tower", "--N", "4", "--k", "2", "--eps", "1e-3"]),
    ("eig (3,2,1e-3)", ["eig", "--N", "3", "--k", "2", "--eps", "1e-3"]),
    ("eig (4,2,1e-3)", ["eig", "--N", "4", "--k", "2", "--eps", "1e-3"]),
    ("tower (4,1,1e-4), fails", ["tower", "--N", "4", "--k", "1", "--eps", "1e-4"]),
    ("limit N=4", ["limit", "--N", "4"]),
    *(
        (f"flow (4,2,1e-3) lambda={lam}", ["flow", "--N", "4", "--k", "2", "--eps", "1e-3", "--lambda", lam, "--t-end", "0.01"])
        for lam in ("0.1", "1.0", "1.05")
    ),
    (
        "sweep 2 eps x 3 lambdas",
        ["sweep", "--N", "4", "--k", "2", "--eps-list", "1e-3,1e-4", "--lambda-list", "0.95,1.0,1.05", "--t-end", "0.01"],
    ),
    ("sweep, every solve fails", ["sweep", "--config", "{config}", "--lambda-list", "0.9,1.0", "--t-end", "0.01"]),
    ("verify", ["verify"]),
    ("report", ["report"]),
    # the help texts, which the parser builds from the rows of harness.OPERATIONS
    ("help", ["--help"]),
    ("flow help", ["flow", "--help"]),
]


def run_tree(src: Path, out: Path, config: Path) -> list:
    """Run CALLS from src into out; per call (exit code, stdout, stderr, {dir name: {file: content}})."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for label, args in CALLS:
        print(f"  {label}", file=sys.stderr)
        before = set(out.iterdir()) if out.exists() else set()
        argv = [str(config) if arg == "{config}" else arg for arg in args]
        proc = subprocess.run(
            [sys.executable, "-m", "bubbletower", *argv, "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=out.parent,
        )

        def normal(text):
            return text.replace(str(out), "<out>").replace(str(src), "<src>")

        runs = {}
        for run_dir in sorted(set(out.iterdir()) - before if out.exists() else ()):
            files = {}
            for path in sorted(run_dir.iterdir()):
                if path.name == "manifest.json":
                    manifest = json.loads(path.read_text())
                    manifest.pop("started", None)
                    manifest.pop("finished", None)
                    files[path.name] = manifest
                else:
                    files[path.name] = path.read_bytes()
            runs[run_dir.name] = files
        results.append((proc.returncode, normal(proc.stdout), normal(proc.stderr), runs))
    return results


def differences(parent: list, change: list) -> list:
    """One line per difference between the two trees' results."""
    lines = []
    for (label, _), (code_a, out_a, err_a, runs_a), (code_b, out_b, err_b, runs_b) in zip(CALLS, parent, change):
        if code_a != code_b:
            lines.append(f"{label}: exit code {code_a} != {code_b}")
        if out_a != out_b:
            lines.append(f"{label}: stdout differs: {out_a!r} != {out_b!r}")
        if err_a != err_b:
            lines.append(f"{label}: stderr differs: {err_a!r} != {err_b!r}")
        if sorted(runs_a) != sorted(runs_b):
            lines.append(f"{label}: run directories {sorted(runs_a)} != {sorted(runs_b)}")
        for name in sorted(set(runs_a) & set(runs_b)):
            files_a, files_b = runs_a[name], runs_b[name]
            if sorted(files_a) != sorted(files_b):
                lines.append(f"{label}: {name} holds {sorted(files_a)} != {sorted(files_b)}")
            for fname in sorted(set(files_a) & set(files_b)):
                if files_a[fname] != files_b[fname]:
                    what = "without started/finished" if fname == "manifest.json" else "byte for byte"
                    lines.append(f"{label}: {name}/{fname} differs ({what})")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "failing_solve.cfg"
        config.write_text(FAILING_SOLVE)
        results = []
        for name, src in (("parent", parent_src), ("change", change_src)):
            print(f"{name}: {src}", file=sys.stderr)
            (tmp / name).mkdir()
            results.append(run_tree(src, tmp / name / "out", config))
    lines = differences(*results)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences over {len(CALLS)} calls")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
