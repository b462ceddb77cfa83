"""Bad-news learning processes: conclusive negative signals with increments g."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_real
from .grid import LevelGrid


@dataclass(frozen=True)
class BadNewsProcess:
    """Arrival increments g of conclusive bad news on the grid, total 1 - mu0.

    Conditional on no arrival by level l the belief drifts up along
    lambda(l) = mu0 / (1 - G(l)), G the cumulative arrival mass; an arrival
    drops it to 0.
    """

    grid: LevelGrid
    #: arrival mass at grid points 0..end; a quota-truncated process is
    #: shorter than the grid, and its mass arrives or survives by point end
    g: np.ndarray
    mu0: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if not (is_real(self.mu0) and 0.0 < self.mu0 <= 1.0):
            raise DomainError("bad-news process needs a prior in (0, 1]")
        if g.ndim != 1 or not 1 <= len(g) <= self.grid.n:
            raise DomainError("g must have one value per reachable grid point")
        if (g < -1e-12).any():
            raise DomainError("arrival increments must be nonnegative")
        if abs(g.sum() - (1.0 - self.mu0)) > 1e-12:
            raise DomainError(f"sum(g)={g.sum()} must equal 1-mu0={1.0 - self.mu0}")
        surv = 1.0 - self.G
        lam = self._cont_belief(surv)
        if (lam > 1.0 + 1e-10).any():
            raise DomainError("continuation belief exceeded 1")
        # martingale identity (1-G) * lambda = mu0 holds by construction but
        # is asserted to guard the formula
        if (np.abs(surv * lam - self.mu0) > 1e-10).any():
            raise DomainError("martingale check failed")

    @property
    def end(self) -> int:
        """Index of the last reachable grid point."""
        return len(self.g) - 1

    @property
    def G(self) -> np.ndarray:
        """Cumulative arrival mass at each grid point; G(l_end) = 1 - mu0."""
        G = self.g.cumsum()
        G[-1] = 1.0 - self.mu0
        return G

    def cont_belief(self) -> np.ndarray:
        """lambda(l_j) = mu0 / (1 - G(l_j)); 1 where all bad mass has arrived."""
        return self._cont_belief(1.0 - self.G)

    def _cont_belief(self, surv: np.ndarray) -> np.ndarray:
        lam = np.where(surv > self.mu0 * 1e-15, self.mu0 / np.maximum(surv, 1e-300), 1.0)
        return np.minimum(lam, 1.0)


def obedience_slacks(g: np.ndarray, a1: np.ndarray, a0: np.ndarray,
                     mu0: float) -> np.ndarray:
    """Slack of each level's obedience inequality for arrival increments g.

    Row j:  mu0 (U^phi(1,l_end) - U^phi(1,l_j))
            - sum_{k>=j} (U^phi(0,l_j) - U^phi(0,l_k)) g_k  >= 0
    computed with reverse cumulative sums, O(n).
    """
    return _slacks(g, a0, mu0 * (a1[-1] - a1))[0]


def _slacks(g: np.ndarray, a0: np.ndarray, b: np.ndarray) -> tuple:
    """obedience_slacks on the right-hand sides b_j = mu0 (U^phi(1,l_end) -
    U^phi(1,l_j)), and the mass at or above each level, sum_{k>=j} g_k."""
    mass_above = g[::-1].cumsum()[::-1]             # sum_{k>=j} g_k
    weighted = (a0 * g)[::-1].cumsum()[::-1]        # sum_{k>=j} U0_k g_k
    return b - (a0 * mass_above - weighted), mass_above
