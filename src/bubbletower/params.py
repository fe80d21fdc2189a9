"""Problem parameters and the constants derived from the dimension."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _require_finite_positive(**values) -> None:
    """Raise ValueError naming the first of values that is not finite and positive."""
    for name, value in values.items():
        # written as `not (ok)` so that NaN, which fails every comparison, is rejected too
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def critical_exponent(N: int) -> float:
    """The Sobolev-critical power (N+2)/(N-2)."""
    return (N + 2) / (N - 2)


def bubble_amplitude(N: int) -> float:
    """The normalizing amplitude [N(N-2)]^{(N-2)/4} of the standard bubble."""
    return (N * (N - 2)) ** ((N - 2) / 4)


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2) / math.gamma(N / 2)


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, tower count, and hole radius, plus derived constants.

    N     : space dimension, >= 3
    k     : number of bubbles in the tower, >= 1
    eps   : inner hole radius of the annulus {eps < |x| < 1}, in (0, 1)
    p     : derived critical exponent (N+2)/(N-2)
    """

    N: int
    k: int = 1
    eps: float = 1e-2
    p: float = field(init=False)

    def __post_init__(self) -> None:
        if self.N < 3:
            raise ValueError(f"dimension N must be >= 3, got {self.N}")
        if self.k < 1:
            raise ValueError(f"tower count k must be >= 1, got {self.k}")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"hole radius eps must lie in (0,1), got {self.eps}")
        object.__setattr__(self, "p", critical_exponent(self.N))

    @property
    def beta(self) -> float:
        """(N-2)/2, the decay/scaling exponent of the radial reduction."""
        return (self.N - 2) / 2

    def reaction(self, u):
        """f(u) = |u|^{p-1} u, the odd critical nonlinearity."""
        return np.abs(u) ** (self.p - 1) * u

    def reaction_derivative(self, u):
        """f'(u) = p |u|^{p-1} (nonnegative)."""
        return self.p * np.abs(u) ** (self.p - 1)
