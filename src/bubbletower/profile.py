"""Closed-form bubbles, annulus-adapted projections, tower ansatz, concentration readout."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import RadialField, RadialGrid
from .params import ProblemParams, bubble_amplitude


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


@dataclass(frozen=True)
class TowerAnsatz:
    """Alternating-sign superposition data: k scales delta_1 > ... > delta_k > 0."""

    params: ProblemParams
    deltas: tuple

    def __post_init__(self) -> None:
        d = tuple(float(x) for x in self.deltas)
        object.__setattr__(self, "deltas", d)
        if len(d) != self.params.k:
            raise ValueError(f"expected {self.params.k} scales, got {len(d)}")
        if any(x <= 0 for x in d):
            raise ValueError("scales must be positive")
        if any(b >= a for a, b in zip(d, d[1:])):
            raise ValueError("scales must be strictly decreasing")

    @classmethod
    def default(cls, params: ProblemParams) -> "TowerAnsatz":
        """Scales delta_i = eps^{(2i-1)/(2k)}, the leading-order concentration law."""
        k = params.k
        deltas = tuple(params.eps ** ((2 * i - 1) / (2 * k)) for i in range(1, k + 1))
        return cls(params, deltas)


def bubble_eval(b: Bubble, r: np.ndarray) -> np.ndarray:
    """Pointwise bubble values; exact scaling U_delta(r) = delta^{-(N-2)/2} U_1(r/delta)."""
    r = np.asarray(r, dtype=float)
    beta = (b.N - 2) / 2
    return bubble_amplitude(b.N) * (b.delta / (b.delta**2 + r**2)) ** beta


def bubble_linearization(b: Bubble, r: np.ndarray) -> np.ndarray:
    """f'(U_delta) = p U^{p-1} in closed form: N(N+2) delta^2 / (delta^2 + r^2)^2."""
    r = np.asarray(r, dtype=float)
    return b.N * (b.N + 2) * b.delta**2 / (b.delta**2 + r**2) ** 2


def project_bubble_annulus(b: Bubble, g: RadialGrid) -> RadialField:
    """Bubble minus its harmonic lift: U - (A + B r^{2-N}), zero trace at both ends.

    A + B r^{2-N} is the unique radial harmonic function matching U at the two
    boundary radii, so the projection keeps the bubble's Laplacian while
    acquiring an exact zero trace.
    """
    r = g.nodes
    a, bnd = r[0], r[-1]
    u = bubble_eval(b, r)
    ua, ub = float(u[0]), float(u[-1])
    denom = a ** (2 - g.N) - bnd ** (2 - g.N)
    if denom == 0.0:
        raise ValueError("degenerate harmonic correction (coincident boundary radii)")
    B = (ua - ub) / denom
    A = ub - B * bnd ** (2 - g.N)
    vals = u - (A + B * r ** (2 - g.N))
    vals[0] = 0.0
    vals[-1] = 0.0
    return RadialField(g, vals, dirichlet=True)


def build_tower_ansatz(t: TowerAnsatz, g: RadialGrid) -> RadialField:
    """Sum of (-1)^i projected bubbles, i = 1..k; zero trace.

    Raises when consecutive scales are not separated (ratio > 0.5), which
    signals a hole too large for the superposition to make sense.
    """
    for a, b in zip(t.deltas, t.deltas[1:]):
        if b / a > 0.5:
            raise ValueError(
                f"scale ratio {b / a:.3f} > 0.5: hole radius too large for a "
                f"{t.params.k}-bubble superposition"
            )
    vals = np.zeros_like(g.nodes)
    for i, delta in enumerate(t.deltas, start=1):
        sign = -1.0 if i % 2 else 1.0  # (-1)^i
        vals += sign * project_bubble_annulus(Bubble(delta, t.params.N), g).values
    vals[0] = 0.0
    vals[-1] = 0.0
    return RadialField(g, vals, dirichlet=True)


def emden_fowler_transform(u: RadialField) -> tuple[np.ndarray, np.ndarray]:
    """(s, w) with s = log r and w = r^{(N-2)/2} u.

    Every bubble becomes the same fixed profile translated to s = log delta,
    with peak height alpha_N 2^{-(N-2)/2}; multi-scale towers become equal
    height peaks at the log scales. These are the natural coordinates for
    locating concentration scales.
    """
    r = u.grid.nodes
    if r[0] <= 0.0:
        raise ValueError("transform needs strictly positive radii")
    beta = (u.grid.N - 2) / 2
    return np.log(r), r**beta * u.values


def ef_peak_height(N: int) -> float:
    """Universal transformed peak height of a single bubble."""
    return bubble_amplitude(N) * 2.0 ** (-(N - 2) / 2)


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x with at least the given prominence.

    Same rules as scipy.signal.find_peaks(x, prominence=...): a flat maximum is
    reported at its midpoint (rounded down), a plateau touching either end is
    no peak, and the prominence is the height above the higher of the two
    minima taken on each side out to the nearest strictly higher sample (or
    the end of the array).
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    level = x[starts]
    runs = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = []
    for j in (starts[runs] + ends[runs]) // 2:
        higher_left = np.flatnonzero(x[:j] > x[j])
        higher_right = np.flatnonzero(x[j + 1 :] > x[j])
        left = higher_left[-1] + 1 if higher_left.size else 0
        right = j + 1 + higher_right[0] if higher_right.size else x.size
        if x[j] - max(x[left : j + 1].min(), x[j:right].min()) >= prominence:
            peaks.append(j)
    return np.array(peaks, dtype=int)


def extract_concentrations(u: RadialField, k: int) -> np.ndarray:
    """Measured scales delta_i = exp(s at the i-th peak of |w|), descending.

    Peaks are local maxima of |w| in the transformed variables, kept only
    above 10% of the universal single-bubble height to reject ripples; each
    retained peak location is refined by a local quadratic fit. Raises when
    fewer than k peaks survive.
    """
    s, w = emden_fowler_transform(u)
    aw = np.abs(w)
    prominence = 0.1 * ef_peak_height(u.grid.N)
    idx = _find_peaks(aw, prominence)
    if idx.size < k:
        raise ValueError(f"found {idx.size} concentration peaks, expected {k}")
    # keep the k most prominent by height
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
