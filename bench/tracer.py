"""Wrappers around the program's layer functions: result capture and spans.

A `Probe` replaces a function of `bubbletower.<module>` in every
`bubbletower.*` module namespace that binds it, which is where its callers
look it up, and puts the original back on exit. Untraced runs wrap only the
functions whose results the output checks need (`capture`), so they pay one
Python call per wrapped call and no timing. Traced runs wrap every function in
`LAYER_FUNCTIONS` and record a span (name, phase, start, end, parent) per call
in memory; `aggregate` turns the spans into per-layer self times, inclusive
times and call counts. A function that is no longer there is listed in
`absent` and reads as never called.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

LAYER_FUNCTIONS = (
    ("stationary", "find_nodal_solution"),
    ("stationary", "shoot"),
    ("stationary", "stationary_residual"),
    ("spectral", "first_eigenpair"),
    ("spectral", "eigenvalue_k"),
    ("spectral", "limit_eigenpair"),
    ("flow", "evolve"),
    ("flow", "energy"),
    ("flow", "linearized_evolve"),
    ("mesh", "apply_radial_laplacian"),
    ("profile", "extract_concentrations"),
    ("harness", "write_csv"),
)


class Probe:
    """Install with `with Probe(...)`; `phase` tags the spans and counters that follow."""

    def __init__(self, package: str, trace: bool, capture=(), dt_min: float = 0.0):
        self.package = package
        self.trace = trace
        self.capture = tuple(capture)
        self.dt_min = dt_min
        self.phase = "setup"
        self.spans = []  # [name, phase, start, end, parent index or None]
        self.counts = defaultdict(float)  # (phase, counter) -> total
        self.captured = {name: [] for name in self.capture}
        self.absent = []
        self._stack = []
        self._restore = []

    def __enter__(self):
        pkg = self.package
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == pkg or n.startswith(pkg + "."))]
        names = [f"{m}.{f}" for m, f in LAYER_FUNCTIONS] if self.trace else list(self.capture)
        for name in names:
            mod, _, fn = name.rpartition(".")
            orig = getattr(sys.modules.get(f"{pkg}.{mod}"), fn, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()
        return False

    def _wrap(self, name, fn):
        keep = self.captured.get(name)
        if not self.trace:
            def captured(*args, **kwargs):
                out = fn(*args, **kwargs)
                keep.append(out)
                return out

            return captured

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self._count(name, out)
            if keep is not None:
                keep.append(out)
            return out

        return traced

    def begin(self, name: str):
        """Start a span (traced runs only); returns its index for `end`."""
        if not self.trace:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.phase, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx) -> None:
        if idx is None:
            return
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _count(self, name: str, out) -> None:
        c, ph = self.counts, self.phase
        if name == "stationary.find_nodal_solution":
            c[ph, "newton_iterations"] += getattr(out, "newton_iterations", 0) or 0
        elif name == "flow.evolve":
            series = np.asarray(getattr(out, "series", ()))
            if series.ndim == 2 and series.shape[0]:
                dts = series[:, 3]  # columns t, sup, energy, dt
                c[ph, "steps"] += dts.size
                c[ph, "dt_changes"] += 1 + int(np.count_nonzero(dts[1:] != dts[:-1]))
                c[ph, "steps_at_dt_min"] += int(np.count_nonzero(dts <= self.dt_min * (1.0 + 1e-9)))
        elif name == "flow.linearized_evolve":
            c[ph, "steps"] += len(out.get("series", ()))
            c[ph, "dt_changes"] += 1  # one fixed dt per run

    def aggregate(self, n_setup: int, n_pass: int) -> dict:
        """Per-name self time, inclusive time and calls, and the counters, for one set-up plus one pass.

        Set-up totals are divided by the number of set-ups and pass totals by
        the number of passes, so counts that repeat exactly come out whole.
        """
        weight = {"setup": 1.0 / n_setup if n_setup else 0.0, "pass": 1.0 / n_pass if n_pass else 0.0}
        child = [0.0] * len(self.spans)
        for name, phase, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        own, incl, calls = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (name, phase, t0, t1, parent) in enumerate(self.spans):
            w = weight[phase]
            incl[name] += w * (t1 - t0)
            own[name] += w * (t1 - t0 - child[i])
            calls[name] += w
        counts = defaultdict(float)
        for (phase, key), val in self.counts.items():
            counts[key] += weight[phase] * val
        return {"self": own, "inclusive": incl, "calls": calls, "counts": counts}
