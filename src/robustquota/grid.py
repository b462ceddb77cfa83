"""Uniform development-level grids and belief grids."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class LevelGrid:
    """Uniform grid on [0, l_max] with n points: l_0 = 0 < ... < l_{n-1} = l_max."""

    l_max: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not float(self.n).is_integer():
            raise DomainError(f"grid size must be an integer, got n={self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise DomainError(f"grid needs at least 2 points, got n={self.n}")
        if not 0 < self.l_max < np.inf:
            raise DomainError(f"l_max must be positive and finite, got {self.l_max}")
        pts = np.linspace(0.0, float(self.l_max), self.n)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def h(self) -> float:
        """Grid spacing l_max / (n - 1)."""
        return self.l_max / (self.n - 1)

    def contains(self, l: float) -> bool:
        return 0.0 <= l <= self.l_max

    def index_of(self, l: float) -> int:
        """Index of the grid point equal to l (within 1e-9 max(h, 1))."""
        if not self.contains(l):
            raise DomainError(f"level {l} outside [0, {self.l_max}]")
        j = int(round(l / self.h))
        j = min(max(j, 0), self.n - 1)
        if abs(self.points[j] - l) > 1e-9 * max(self.h, 1.0):
            raise DomainError(f"level {l} is not a grid point (nearest {self.points[j]})")
        return j


def belief_grid(n_mu: int = 1001) -> np.ndarray:
    """Uniform belief grid on [0, 1]."""
    if n_mu < 2:
        raise DomainError(f"belief grid needs at least 2 points, got {n_mu}")
    return np.linspace(0.0, 1.0, int(n_mu))
