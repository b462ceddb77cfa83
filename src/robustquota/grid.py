"""Uniform development-level grids and belief grids."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, is_real


@dataclass(frozen=True)
class LevelGrid:
    """Uniform grid on [0, l_max] with n points: l_0 = 0 < ... < l_{n-1} = l_max."""

    l_max: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_real(self.n) and float(self.n).is_integer()):
            raise DomainError(f"grid size must be an integer, got n={self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise DomainError(f"grid needs at least 2 points, got n={self.n}")
        if not (is_real(self.l_max) and 0 < self.l_max < np.inf):
            raise DomainError(f"l_max must be positive and finite, got {self.l_max!r}")
        # np.linspace's points without its per-call cost: the counts times
        # the step, the last point l_max; linspace itself where the step
        # underflows to 0
        l_max = float(self.l_max)
        step = l_max / (self.n - 1)
        if step:
            pts = np.arange(self.n, dtype=float)
            pts *= step
            pts[-1] = l_max
        else:
            pts = np.linspace(0.0, l_max, self.n)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def h(self) -> float:
        """Grid spacing l_max / (n - 1)."""
        return self.l_max / (self.n - 1)


def belief_grid(n: int = 1001) -> np.ndarray:
    """Uniform belief grid on [0, 1] with n points: the points of
    LevelGrid(1.0, n), which refuses the n it refuses."""
    return LevelGrid(1.0, n).points.copy()
