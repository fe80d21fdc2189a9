import math

import numpy as np
import pytest

import bubbletower as bt
from bubbletower.params import bubble_amplitude, critical_exponent


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
    g = bt.build_grid(0.0, 1.0, 64, "uniform", 3)
    u = bt.RadialField(g, np.ones(g.nodes.size))
    with pytest.raises(ValueError):
        bt.emden_fowler_transform(u)


def test_extract_concentrations_single_and_pair():
    g = bt.build_grid(1e-4, 1.0, 4096, N=3)
    u = bt.RadialField(g, bt.bubble_eval(bt.Bubble(0.05, 3), g.nodes))
    got = bt.extract_concentrations(u, 1)
    assert abs(math.log(got[0] / 0.05)) <= 0.02


def test_extract_concentrations_rejects_flat_profile():
    g = bt.build_grid(0.1, 1.0, 256, N=3)
    u = bt.RadialField(g, np.ones(g.nodes.size))
    with pytest.raises(ValueError):
        bt.extract_concentrations(u, 1)


def test_amplitude_constant():
    # alpha_N = (N(N-2))^{(N-2)/4}: N=3 -> 3^{1/4}, N=4 -> sqrt(8)
    assert abs(bubble_amplitude(3) - 3.0 ** 0.25) <= 1e-15
    assert abs(bubble_amplitude(4) - math.sqrt(8.0)) <= 1e-15


def test_concentrations_match_scipy_peaks(case_solutions):
    # independent oracle: the k highest peaks of |w| that scipy finds at
    # prominence 0.1 h; each measured scale lies within one local log-cell
    signal = pytest.importorskip("scipy.signal")
    for sol in case_solutions.values():
        u, k = sol.field, sol.params.k
        s, w = bt.emden_fowler_transform(u)
        aw = np.abs(w)
        idx = signal.find_peaks(aw, prominence=0.1 * bt.ef_peak_height(u.grid.N))[0]
        idx = np.sort(idx[np.argsort(aw[idx])[::-1][:k]])[::-1]  # k highest, descending in s
        cell = 0.5 * (s[idx + 1] - s[idx - 1])
        got = np.log(bt.extract_concentrations(u, k))
        assert got.size == k
        assert np.all(np.abs(got - s[idx]) <= cell), (got, s[idx], cell)


def test_import_leaves_scipy_signal_out(import_probe):
    assert "scipy.signal" not in import_probe["import"]
