"""Check that two source trees give the same CLI outputs, byte for byte, and say by how much they differ.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
call in CALLS runs as `python -m bubbletower ...` with PYTHONPATH=<src>, into
one fresh --out root per tree. The trees take turns: call i runs under both
before call i+1, with the parent first on even i and the change first on odd
i, so a drift of the host's speed falls on both trees alike. For every call
the two trees must agree on:

- the exit code, and stdout and stderr once the out root and the src
  directory are replaced by fixed placeholders;
- the names of the run directories the call created;
- every file in those directories byte for byte, except manifest.json, which
  is compared as JSON without its `started` and `finished` timestamps.

One more item is compared: the modules in sys.modules after a fresh
`python -c "import bubbletower"` under each tree, the part of a cold start's
cost that does not depend on the host's speed. A module that only one tree
loads is a difference that names it.

Each difference is printed on its own line, and the exit status is 1 if there
is any, 0 if there is none. A CSV or JSON file that differs is followed on its
line by the largest relative difference in each CSV column or JSON key that
moved: max |parent - change| over the column's max |parent|, taken over the
entries that are numbers in both trees, where a JSON key inside lists gathers
its values across them (`table[].T_estimate`). A column whose presence,
length or text (an entry that is not a number in both) differs says so. Each call's
peak RSS, CPU seconds and wall seconds under both trees (the child's ru_maxrss
and ru_utime + ru_stime from os.wait4, and time.perf_counter from the child's
start to its reaping) are printed to stderr at the end, and after them each
module's line count in both trees with the net change of the total (the `.py`
files under each src directory, counted as `wc -l` counts them). Both are
for information only: they do not count as differences. Standard library only.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FAILING_SOLVE = "residual_tol = 1e-30\n"  # no tower reaches it: every sweep cell is a 'Failed' row

# (label, CLI arguments); "{config}" stands for a config file holding FAILING_SOLVE
CALLS = [
    ("tower (3,2,1e-3)", ["tower", "--N", "3", "--k", "2", "--eps", "1e-3"]),
    ("tower (4,2,1e-3)", ["tower", "--N", "4", "--k", "2", "--eps", "1e-3"]),
    ("eig (3,2,1e-3)", ["eig", "--N", "3", "--k", "2", "--eps", "1e-3"]),
    ("eig (4,2,1e-3)", ["eig", "--N", "4", "--k", "2", "--eps", "1e-3"]),
    # the tower whose phi_1 tail goes deepest, to about 1e-1419 of its maximum
    ("eig (4,3,1e-4)", ["eig", "--N", "4", "--k", "3", "--eps", "1e-4"]),
    ("tower (4,1,1e-4), fails", ["tower", "--N", "4", "--k", "1", "--eps", "1e-4"]),
    # limit is the one CLI path that builds ball grids
    ("limit N=3", ["limit", "--N", "3"]),
    ("limit N=4", ["limit", "--N", "4"]),
    *(
        (f"flow (4,2,1e-3) lambda={lam}", ["flow", "--N", "4", "--k", "2", "--eps", "1e-3", "--lambda", lam, "--t-end", "0.01"])
        for lam in ("0.1", "1.0", "1.05")
    ),
    # a long run: 20,000 steps at dt_max, whose 20,001-row series.csv spans five CSV blocks
    (
        "flow (4,2,1e-3) lambda=0.1 to t=0.2",
        ["flow", "--N", "4", "--k", "2", "--eps", "1e-3", "--lambda", "0.1", "--t-end", "0.2"],
    ),
    # the closed-form reaction map, whose T_bracket is the single step in which the map diverged
    (
        "flow (3,1,0.1) reaction-only",
        ["flow", "--N", "3", "--k", "1", "--eps", "0.1", "--M", "256", "--lambda", "1.05",
         "--integrator", "reaction-only", "--t-end", "0.5"],
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


def run_call(src: Path, out: Path, config: Path, args: list) -> tuple:
    """Run one call from src into out: (exit code, stdout, stderr, {dir name: {file: content}},
    peak RSS in MB, CPU seconds, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out.mkdir(parents=True, exist_ok=True)
    before = set(out.iterdir())
    argv = [str(config) if arg == "{config}" else arg for arg in args]
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bubbletower", *argv, "--out", str(out)],
            stdout=stdout, stderr=stderr, env=env, cwd=out.parent,
        )
        # reaped by os.wait4, which reports the child's resource usage, not by proc.wait()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # so Popen takes it as reaped
        stdout.seek(0)
        stderr.seek(0)
        text_out, text_err = stdout.read(), stderr.read()

    def normal(text):
        return text.replace(str(out), "<out>").replace(str(src), "<src>")

    runs = {}
    for run_dir in sorted(set(out.iterdir()) - before):
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
    # ru_maxrss is in kilobytes on Linux
    cpu = usage.ru_utime + usage.ru_stime
    return code, normal(text_out), normal(text_err), runs, usage.ru_maxrss / 1024, cpu, wall


def loaded_modules(src: Path) -> list:
    """The names in sys.modules after a fresh `import bubbletower` from src, sorted."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bubbletower; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), cwd=src, check=True,
    )
    return proc.stdout.split()


def module_differences(parent: list, change: list) -> list:
    """One line per module that a fresh `import bubbletower` loads under one tree only."""
    return [
        f"import bubbletower: {name} loaded only by the {'parent' if name in parent else 'change'}"
        for name in sorted(set(parent) ^ set(change))
    ]


def source_lines(src: Path) -> dict:
    """The newline count of each `.py` file under src, by its path relative to src."""
    return {path.relative_to(src).as_posix(): path.read_bytes().count(b"\n") for path in sorted(src.rglob("*.py"))}


def line_report(parent: dict, change: dict) -> list:
    """'module: parent lines, change lines' for each module in either tree ('-' where a tree has
    none), then the two totals and their difference."""
    lines = [f"  {name}: {parent.get(name, '-')}, {change.get(name, '-')}" for name in sorted(set(parent) | set(change))]
    a, b = sum(parent.values()), sum(change.values())
    return lines + [f"  total: {a:,} -> {b:,}, net {b - a:+,} lines"]


def _gather(value, path: str, columns: dict) -> dict:
    """The leaves of a JSON value by key path, each list's entries gathered under `path[]`."""
    if isinstance(value, dict):
        for key, item in value.items():
            _gather(item, f"{path}.{key}" if path else key, columns)
    elif isinstance(value, list):
        for item in value:
            _gather(item, path + "[]", columns)
    else:
        columns.setdefault(path, []).append(value)
    return columns


def _columns(fname: str, content) -> dict | None:
    """A CSV file's columns by header name, or a JSON file's leaves by key path; None for other files."""
    if fname.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(content.decode()))
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if fname.endswith(".json"):
        return _gather(content if isinstance(content, dict) else json.loads(content), "", {})
    return None


def _number(value) -> float | None:
    """value as a finite float, or None: a bool, text, nan or inf counts as text."""
    if isinstance(value, bool):
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def moved(cols_a: dict, cols_b: dict) -> list:
    """'name change' for each column of two versions of one file that differs: change is
    max |a - b| / max |a| over the entries where both are numbers, and a column whose
    presence, length or text (an entry that is not a number in both) differs says so."""
    out = []
    for name in sorted(set(cols_a) | set(cols_b)):
        a, b = cols_a.get(name), cols_b.get(name)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{name} only in the {'change' if a is None else 'parent'}")
            continue
        if len(a) != len(b):
            out.append(f"{name} length {len(a)} != {len(b)}")
            continue
        pairs = [(_number(x), _number(y), x == y) for x, y in zip(a, b)]
        numbers = [(x, y) for x, y, _ in pairs if x is not None and y is not None]
        note = " and text" if any(not same and None in (x, y) for x, y, same in pairs) else ""
        if not numbers:
            out.append(f"{name} text")
            continue
        sup = max(abs(x) for x, _ in numbers)
        diff = max(abs(x - y) for x, y in numbers)
        out.append(f"{name} {diff / sup:.1e}{note}" if sup > 0 else f"{name} {diff:.1e} (absolute; parent all 0){note}")
    return out


def differences(parent: list, change: list) -> list:
    """One line per difference between the two trees' results."""
    lines = []
    for (label, _), (code_a, out_a, err_a, runs_a, *_), (code_b, out_b, err_b, runs_b, *_) in zip(
        CALLS, parent, change
    ):
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
                    line = f"{label}: {name}/{fname} differs ({what})"
                    cols_a, cols_b = _columns(fname, files_a[fname]), _columns(fname, files_b[fname])
                    if cols_a is not None:
                        line += "; largest relative difference: " + ", ".join(moved(cols_a, cols_b))
                    lines.append(line)
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent_src, change_src = (Path(arg).resolve() for arg in argv)
    trees = {"parent": parent_src, "change": change_src}
    results = {name: [] for name in trees}
    modules = {name: loaded_modules(src) for name, src in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "failing_solve.cfg"
        config.write_text(FAILING_SOLVE)
        for i, (label, args) in enumerate(CALLS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            print(f"  {label} ({order[0]} first)", file=sys.stderr)
            for name in order:
                results[name].append(run_call(trees[name], tmp / name / "out", config, args))
    print("peak RSS (MB): parent, change; CPU (s): parent, change; wall (s): parent, change", file=sys.stderr)
    for (label, _), parent, change in zip(CALLS, results["parent"], results["change"]):
        (rss_a, cpu_a, wall_a), (rss_b, cpu_b, wall_b) = parent[-3:], change[-3:]
        print(f"  {label}: {rss_a:.1f}, {rss_b:.1f}; {cpu_a:.2f}, {cpu_b:.2f}; {wall_a:.2f}, {wall_b:.2f}", file=sys.stderr)
    print("src lines: parent, change", file=sys.stderr)
    print(*line_report(*(source_lines(src) for src in trees.values())), sep="\n", file=sys.stderr)
    lines = differences(results["parent"], results["change"]) + module_differences(modules["parent"], modules["change"])
    for line in lines:
        print(line)
    print(f"{len(lines)} differences over {len(CALLS)} calls and the modules of a fresh import")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
