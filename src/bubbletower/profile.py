"""Closed-form bubbles, Emden-Fowler coordinates and the concentration readout."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import RadialField
from .params import bubble_amplitude


@dataclass(frozen=True)
class Bubble:
    """Radial profile alpha_N (delta / (delta^2 + r^2))^{(N-2)/2}, centered at the origin."""

    delta: float
    N: int

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError(f"concentration scale must be positive, got {self.delta}")
        if self.N < 3:
            raise ValueError(f"dimension must be >= 3, got {self.N}")


def bubble_eval(b: Bubble, r: np.ndarray) -> np.ndarray:
    """Pointwise bubble values; exact scaling U_delta(r) = delta^{-(N-2)/2} U_1(r/delta)."""
    r = np.asarray(r, dtype=float)
    beta = (b.N - 2) / 2
    return bubble_amplitude(b.N) * (b.delta / (b.delta**2 + r**2)) ** beta


def bubble_linearization(b: Bubble, r: np.ndarray) -> np.ndarray:
    """f'(U_delta) = p U^{p-1} in closed form: N(N+2) delta^2 / (delta^2 + r^2)^2."""
    r = np.asarray(r, dtype=float)
    return b.N * (b.N + 2) * b.delta**2 / (b.delta**2 + r**2) ** 2


def emden_fowler_transform(u: RadialField) -> tuple[np.ndarray, np.ndarray]:
    """(s, w) with s = log r and w = r^{(N-2)/2} u.

    Every bubble becomes the same fixed profile translated to s = log delta,
    with peak height alpha_N 2^{-(N-2)/2}; multi-scale towers become equal
    height peaks at the log scales. These are the natural coordinates for
    locating concentration scales.
    """
    r = u.grid.nodes
    if u.grid.origin:
        raise ValueError("transform needs strictly positive radii")
    beta = (u.grid.N - 2) / 2
    return np.log(r), r**beta * u.values


def ef_peak_height(N: int) -> float:
    """Universal transformed peak height of a single bubble."""
    return bubble_amplitude(N) * 2.0 ** (-(N - 2) / 2)


def extract_concentrations(u: RadialField, k: int) -> np.ndarray:
    """Measured scales delta_i = exp(s at the i-th peak of |w|), descending.

    Peaks are the interior local maxima of |w| in the transformed variables
    (above the left neighbour, not below the right one) whose height is at
    least 10% of the universal single-bubble height, which rejects ripples;
    the k highest are kept and each location is refined by a local quadratic
    fit. Raises when fewer than k peaks survive.
    """
    s, w = emden_fowler_transform(u)
    aw = np.abs(w)
    mid = aw[1:-1]
    idx = np.flatnonzero((mid > aw[:-2]) & (mid >= aw[2:]) & (mid >= 0.1 * ef_peak_height(u.grid.N))) + 1
    if idx.size < k:
        raise ValueError(f"found {idx.size} concentration peaks, expected {k}")
    # keep the k highest
    order = np.argsort(aw[idx])[::-1][:k]
    idx = np.sort(idx[order])
    peaks_s = []
    for j in idx:
        ya, yb, yc = aw[j - 1], aw[j], aw[j + 1]
        denom = ya - 2 * yb + yc
        ds = 0.0 if denom == 0 else 0.5 * (ya - yc) / denom
        # nonuniform s-spacing is locally smooth; use the mean local step
        step = 0.5 * (s[j + 1] - s[j - 1])
        peaks_s.append(s[j] + ds * step)
    deltas = np.exp(np.array(peaks_s))
    return np.sort(deltas)[::-1]
