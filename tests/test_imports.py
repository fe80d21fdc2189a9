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
its submodules, each of which resolves. Every module-level private
function, class or constant is read somewhere in the package, by name, as
an attribute or through a from-import. And `import bubbletower` loads
only what its lightest entry points (`limit`, `report`, `--help`) need: not
scipy's Python package, whose compiled LAPACK module `bubbletower._lapack`
loads by its file, nor `scipy.integrate`, `scipy.optimize` or
`scipy.special`; no path of the package loads any of them (a tower solve, an
eigenpair and a run included). Nor does it load `multiprocessing`, which
`lambda_sweep` imports when it asks whether it may fork, nor the
process-pool module, which the package does not use. The LAPACK routines
are the very objects `scipy.linalg.lapack` exports, whichever of the two is
imported first, and a missing extension is an ImportError that names where
it was looked for. And the BlowUp rule's `_COLLAPSE_RUN` is read by
`flow._evolve` alone, the one loop that classifies a run. And no dataclass
that holds an array, directly or through a grid, field or eigenpair, has a
generated `==`: it would compare the arrays and raise on their ambiguous
truth value.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bubbletower
from conftest import LAPACK_ROUTINES
from test_refusals import add_refusal_tests

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


def _module_names(tree) -> list:
    """Names a module binds at its top level: functions, classes and assigned constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def _read_names(trees) -> set:
    """Every name the trees read: as a bare name, as an attribute, or by a from-import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_read(path):
    # a private helper, class or constant that nothing reads is dead code
    private = {n for n in _module_names(TREES[path.name]) if n.startswith("_") and not n.startswith("__")}
    unread = private - _read_names(TREES.values())
    assert not unread, f"{path.name} defines but nothing in the package reads {sorted(unread)}"


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


SCIPY_QUADRATURE = {"scipy.integrate", "scipy.optimize", "scipy.special"}


def test_import_leaves_the_process_pool_modules_out(import_probe):
    pool = {"multiprocessing", "concurrent.futures.process"}
    assert not pool & set(import_probe["import"]), import_probe["import"]
    assert not pool & set(import_probe["limit"][1]), import_probe["limit"]


def test_import_limit_and_a_tower_solve_leave_scipys_quadrature_out(import_probe):
    # the probe's own `import scipy.integrate` must show, so a misspelled name cannot pass
    assert import_probe["import"] == []
    assert import_probe["limit"] == [0, []]
    assert not SCIPY_QUADRATURE & set(import_probe["solve"]), import_probe["solve"]
    assert SCIPY_QUADRATURE <= set(import_probe["control"]), import_probe["control"]


def test_no_path_runs_scipys_python_package(import_probe):
    # the tower solve reaches dgtsv, the eigenpair dstebz and dpttrf, the run dpttrf and dpttrs
    scipy = {"scipy", "scipy.linalg"}
    assert import_probe["registered"], "bubbletower._lapack is not sys.modules['scipy.linalg._flapack']"
    for step in ("import", "solve", "eig"):
        assert not scipy & set(import_probe[step]), (step, import_probe[step])
    assert not scipy & set(import_probe["limit"][1]), import_probe["limit"]
    rows, after_run = import_probe["evolve"]
    assert rows > 1 and not scipy & set(after_run), import_probe["evolve"]
    # the control: the probe's own `import scipy.linalg.lapack` shows, and exports the same objects
    after_lapack, same = import_probe["lapack"]
    assert scipy <= set(after_lapack), after_lapack
    assert same == [True] * len(LAPACK_ROUTINES), dict(zip(LAPACK_ROUTINES, same))


def test_scipy_linalg_first_shares_the_one_extension():
    # the benchmark imports scipy.linalg before the package: no second copy of the extension loads
    code = f"""
import sys
import scipy.linalg.lapack as lapack
import bubbletower._lapack as ours
ext = sys.modules["scipy.linalg._flapack"]
print(ext is ours._flapack is lapack._flapack, [getattr(ours, n) is getattr(lapack, n) for n in {LAPACK_ROUTINES!r}])
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"True {[True] * len(LAPACK_ROUTINES)}"


def test_no_module_imports_scipy():
    # `_lapack` is the one place that locates scipy's extension, and it imports nothing of scipy
    imported = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {m for m in imported if m and m.split(".")[0] == "scipy"}
    assert [name for name, tree in TREES.items() if "find_spec" in ast.dump(tree)] == ["_lapack.py"]


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


def _reads_of(node, name: str) -> int:
    return sum(
        (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
        or (isinstance(n, ast.Attribute) and n.attr == name)
        for n in ast.walk(node)
    )


def test_the_blowup_rule_is_read_by_evolve_alone():
    # a caller that wants its own stopping rule gives `_evolve` a probe, not a copy of the rule
    evolve = next(n for n in TREES["flow.py"].body if isinstance(n, ast.FunctionDef) and n.name == "_evolve")
    readers = [
        f"{path}:{getattr(node, 'name', f'line {node.lineno}')}"
        for path, tree in TREES.items()
        for node in tree.body
        if _reads_of(node, "_COLLAPSE_RUN") and node is not evolve
    ]
    in_evolve = _reads_of(evolve, "_COLLAPSE_RUN")
    assert in_evolve >= 1
    assert sum(_reads_of(tree, "_COLLAPSE_RUN") for tree in TREES.values()) == in_evolve, readers



ARRAY_HOLDERS = {"ndarray", "RadialGrid", "RadialField", "EigenPair"}


def _generates_eq(node: ast.ClassDef) -> bool:
    """True when node is a @dataclass that does not pass eq=False."""
    for dec in node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        name = call.func if call else dec
        if (name.id if isinstance(name, ast.Name) else getattr(name, "attr", None)) == "dataclass":
            eq = next((k.value for k in call.keywords if k.arg == "eq"), None) if call else None
            return not (isinstance(eq, ast.Constant) and eq.value is False)
    return False


def _annotated_names(node: ast.ClassDef) -> set:
    """Every name or attribute in the annotations of the class's fields."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        for n in ast.walk(stmt.annotation)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_no_array_holding_dataclass_generates_eq():
    # `mesh._same_grid` reads RadialGrid's own ==, and every other such type compares by identity
    generated = [
        f"{path}:{node.name}"
        for path, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and _generates_eq(node)
        and _annotated_names(node) & ARRAY_HOLDERS
        and not any(isinstance(s, ast.FunctionDef) and s.name == "__eq__" for s in node.body)
    ]
    assert not generated, f"dataclasses with a generated == over arrays: {generated}"


add_refusal_tests(globals())
