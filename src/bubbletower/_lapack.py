"""The four LAPACK routines the package calls, from scipy's compiled wrapper module.

`dgtsv` (the Newton polish), `dpttrf`/`dpttrs` (the flow's diffusion solve;
`dpttrf` also builds the first eigenvector) and `dstebz` (the eigenvalues) all
live in the one extension `scipy/linalg/_flapack`. Importing it through
`scipy.linalg` would first run that package's `__init__`, most of the import
time of this package, for nothing it uses. So the extension is loaded by its file, next to scipy's
`linalg` package (found without running scipy's `__init__`), and registered
under its real name: a later `import scipy.linalg` reuses it, so these are the
very objects `scipy.linalg.lapack` exports. If that name is already loaded, it
is reused.
"""
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"


def _load(linalg: Path):
    """Load and register the extension `_flapack` from the directory `linalg`."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_NAME, loader))
            loader.exec_module(module)
            sys.modules[_NAME] = module
            return module
    raise ImportError(f"no LAPACK extension _flapack in {linalg}", name=_NAME, path=str(linalg))


def _scipy_linalg() -> Path:
    spec = importlib.util.find_spec("scipy")  # locates the package without importing it
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    return Path(spec.submodule_search_locations[0]) / "linalg"


_flapack = sys.modules.get(_NAME) or _load(_scipy_linalg())
dgtsv, dpttrf, dpttrs, dstebz = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs, _flapack.dstebz
