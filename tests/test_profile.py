import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bubbletower as bt
from bubbletower.params import bubble_amplitude, critical_exponent
from bubbletower.profile import _find_peaks


def test_bubble_scaling_identity():
    r = np.linspace(0.05, 2.0, 400)
    delta, N = 0.37, 5
    left = bt.bubble_eval(bt.Bubble(delta, N), r)
    right = delta ** (-(N - 2) / 2) * bt.bubble_eval(bt.Bubble(1.0, N), r / delta)
    assert float(np.max(np.abs(left - right) / np.abs(right))) <= 1e-14


def test_bubble_validation():
    with pytest.raises(ValueError):
        bt.Bubble(0.0, 4)
    with pytest.raises(ValueError):
        bt.Bubble(1.0, 2)


def test_linearization_matches_p_upm1():
    r = np.linspace(0.01, 3.0, 500)
    b = bt.Bubble(0.2, 4)
    p = critical_exponent(4)
    direct = bt.bubble_linearization(b, r)
    via_power = p * bt.bubble_eval(b, r) ** (p - 1)
    assert float(np.max(np.abs(direct - via_power) / via_power)) <= 1e-12


def test_ef_peak_height_closed_form_and_measured():
    # N=4: alpha_N = sqrt(8), transformed peak sqrt(8)/2 = sqrt(2)
    assert abs(bt.ef_peak_height(4) - math.sqrt(2.0)) <= 1e-12
    g = bt.build_grid(1e-4, 1e4, 4096, N=4)
    u = bt.RadialField(g, bt.bubble_eval(bt.Bubble(1.0, 4), g.nodes))
    _, w = bt.emden_fowler_transform(u)
    assert abs(float(np.max(w)) - bt.ef_peak_height(4)) <= 1e-6


def test_ef_transform_rejects_origin():
    g = bt.build_ball_grid(1.0, 64, 3)
    u = bt.RadialField(g, np.ones(g.nodes.size))
    with pytest.raises(ValueError):
        bt.emden_fowler_transform(u)


def test_projection_zero_trace_and_interior_deficit():
    g = bt.build_grid(1e-3, 1.0, 512, N=4)
    b = bt.Bubble(0.03, 4)
    proj = bt.project_bubble_annulus(b, g)
    assert proj.values[0] == 0.0
    assert proj.values[-1] == 0.0
    # the harmonic lift is positive inside, so the projection sits strictly below
    U = bt.bubble_eval(b, g.nodes)
    assert np.all(proj.values[1:-1] < U[1:-1])


def test_tower_ansatz_shape_and_roundtrip():
    params = bt.ProblemParams(N=4, k=2, eps=1e-3)
    t = bt.TowerAnsatz.default(params)
    assert t.deltas == (1e-3 ** 0.25, 1e-3 ** 0.75)
    g = bt.build_grid(params.eps, 1.0, 4096, N=4)
    u = bt.build_tower_ansatz(t, g)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    # innermost bubble carries sign (-1)^k: outer lobe negative for k=2... actually
    # i=1 outermost has sign -1, i=2 has +1; near the inner edge the i=2 bubble wins
    inner_zone = g.nodes < 3e-3
    outer_zone = g.nodes > 0.3
    assert np.all(u.values[inner_zone][1:] > 0)
    assert np.any(u.values[outer_zone] < 0)
    got = bt.extract_concentrations(u, 2)
    assert np.all(np.abs(np.log(got) - np.log(np.array(t.deltas))) <= 0.05)


def test_tower_ansatz_separation_guard():
    params = bt.ProblemParams(N=4, k=3, eps=0.5)
    t = bt.TowerAnsatz.default(params)
    g = bt.build_grid(params.eps, 1.0, 128, N=4)
    with pytest.raises(ValueError):
        bt.build_tower_ansatz(t, g)


def test_tower_ansatz_validation():
    params = bt.ProblemParams(N=4, k=2, eps=1e-3)
    with pytest.raises(ValueError):
        bt.TowerAnsatz(params, (0.1,))
    with pytest.raises(ValueError):
        bt.TowerAnsatz(params, (0.001, 0.1))
    with pytest.raises(ValueError):
        bt.TowerAnsatz(params, (0.1, -0.001))


def test_extract_concentrations_single_and_pair():
    g = bt.build_grid(1e-4, 1.0, 4096, N=3)
    u = bt.RadialField(g, bt.bubble_eval(bt.Bubble(0.05, 3), g.nodes))
    got = bt.extract_concentrations(u, 1)
    assert abs(math.log(got[0] / 0.05)) <= 0.02

    params = bt.ProblemParams(N=3, k=2, eps=1e-4)
    t = bt.TowerAnsatz(params, (0.1, 0.001))
    gd = bt.build_grid(1e-4, 1.0, 4096, N=3)
    u2 = bt.build_tower_ansatz(t, gd)
    got2 = bt.extract_concentrations(u2, 2)
    assert got2[0] > got2[1]
    assert np.all(np.abs(np.log(got2 / np.array([0.1, 0.001]))) <= 0.05)


def test_extract_concentrations_rejects_flat_profile():
    g = bt.build_grid(0.1, 1.0, 256, N=3)
    u = bt.RadialField(g, np.ones(g.nodes.size))
    with pytest.raises(ValueError):
        bt.extract_concentrations(u, 1)


def test_amplitude_constant():
    # alpha_N = (N(N-2))^{(N-2)/4}: N=3 -> 3^{1/4}, N=4 -> sqrt(8)
    assert abs(bubble_amplitude(3) - 3.0 ** 0.25) <= 1e-15
    assert abs(bubble_amplitude(4) - math.sqrt(8.0)) <= 1e-15


def test_find_peaks_matches_scipy_on_plateaus():
    signal = pytest.importorskip("scipy.signal")
    rng = np.random.default_rng(7)
    for _ in range(500):
        x = rng.integers(0, 5, size=int(rng.integers(1, 40))).astype(float)
        for prom in (0.0, 0.5, 1.0, 2.0, 3.5):
            assert np.array_equal(_find_peaks(x, prom), signal.find_peaks(x, prominence=prom)[0])


def test_find_peaks_matches_scipy_on_towers(case_solutions):
    signal = pytest.importorskip("scipy.signal")
    for sol in case_solutions.values():
        _, w = bt.emden_fowler_transform(sol.field)
        aw = np.abs(w)
        for prom in (0.0, 0.1 * bt.ef_peak_height(sol.params.N)):
            want = signal.find_peaks(aw, prominence=prom)[0]
            assert np.array_equal(_find_peaks(aw, prom), want)


def test_import_leaves_scipy_signal_out():
    env = dict(os.environ)
    pkg_root = str(Path(bt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (pkg_root, env.get("PYTHONPATH"))))
    probe = "import sys, bubbletower; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
