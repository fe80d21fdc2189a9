"""Static checks over the package's modules, since the repo has no linter.

Every name a module imports is read in that module (the package's
__init__.py re-exports what it imports and is exempt, as are
`from __future__` imports). Every defaulted parameter of a module-private
function is passed, by position or by keyword, by some call in the package;
a default no caller overrides is a constant and belongs in the body. And
every such parameter is left at its default by some call; a default every
caller overrides hides a dead branch, and the parameter should be required.
Every defaulted parameter of a public function is passed by some call in the
package or in its tests, for the same reason as a private one. And the
package's `__all__` is exactly the set of names its __init__.py imports from
its submodules, each of which resolves. And `import bubbletower` loads
neither `multiprocessing`, which `lambda_sweep` imports when it asks whether
it may fork, nor the process-pool module, which the package does not use.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bubbletower

PACKAGE = Path(bubbletower.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
TEST_TREES = [ast.parse(p.read_text()) for p in sorted(Path(__file__).resolve().parent.glob("*.py"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = TREES[path.name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert not imported - read, f"{path.name} imports but never reads {sorted(imported - read)}"


def _defaulted(fn: ast.FunctionDef) -> dict:
    """Defaulted parameter name -> its position (None for keyword-only)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None})
    return out


def _passes(call: ast.Call, name: str, pos: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # by keyword, or through **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def _functions(path, private: bool) -> list:
    """(function, calls to it, offset of a bound first parameter) per private or public function.

    Calls to a private function are looked for in the package, and calls to
    a public one in the package and its tests.
    """
    out = []
    for node in ast.walk(TREES[path.name]):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
            continue
        if node.name.startswith("_") == private:
            bound = int(bool(node.args.args) and node.args.args[0].arg in ("self", "cls"))  # not passed by a caller
            trees = list(TREES.values()) if private else list(TREES.values()) + TEST_TREES
            out.append((node, _calls_to(node.name, trees), bound))
    return out


def _calls_to(name: str, trees: list) -> list:
    calls = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name):
                    calls.append(node)
    return calls


def _never_passed(path, private: bool) -> list:
    unused = []
    for node, calls, bound in _functions(path, private):
        for name, pos in _defaulted(node).items():
            if not any(_passes(c, name, None if pos is None else pos - bound) for c in calls):
                unused.append(f"{node.name}({name})")
    return unused


def test_all_is_what_the_package_imports():
    # a deleted name can leave neither a stale export nor an unexported import behind
    imported = [
        a.asname or a.name
        for node in TREES["__init__.py"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    exported = bubbletower.__all__
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert set(imported) == set(exported), (sorted(set(imported) - set(exported)), sorted(set(exported) - set(imported)))
    assert [n for n in exported if not hasattr(bubbletower, n)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_default_is_overridden_by_some_call(path):
    unused = _never_passed(path, private=True)
    assert not unused, f"{path.name}: no call passes the defaulted parameters {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_default_is_overridden_by_some_call(path):
    unused = _never_passed(path, private=False)
    assert not unused, f"{path.name}: no call in the package or its tests passes the defaulted parameters {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_default_is_left_by_some_call(path):
    always = []
    for node, calls, bound in _functions(path, private=True):
        for name, pos in _defaulted(node).items():
            # strict: _passes counts a call through *args or **kwargs as passing
            if all(_passes(c, name, None if pos is None else pos - bound) for c in calls):
                always.append(f"{node.name}({name})")
    assert not always, f"{path.name}: every call passes the defaulted parameters {always}"


def test_import_leaves_the_process_pool_modules_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    probe = "import sys, bubbletower; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_a_process_pool():
    # `lambda_sweep` forks its children itself (`flow._fan_out`)
    imported = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {m for m in imported if m and m.startswith("concurrent")}
