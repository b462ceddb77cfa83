"""Bad-news learning processes: conclusive negative signals with increments g."""

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError
from .grid import LevelGrid
from .mechanisms import Mechanism, adjusted_profiles
from .payoffs import PayoffSpec
from .processes import DiscreteLearningProcess


@dataclass(frozen=True)
class BadNewsProcess:
    """Arrival increments g of conclusive bad news on the grid, total 1 - mu0.

    Conditional on no arrival by level l the belief drifts up along
    lambda(l) = mu0 / (1 - G(l)), G the cumulative arrival mass; an arrival
    drops it to 0.
    """

    grid: LevelGrid
    g: np.ndarray          # arrival mass at each reachable grid point
    mu0: float
    #: levels beyond `end` are unreachable (quota-truncated grids); mass is
    #: forced to arrive or survive by grid point `end`
    end: Optional[int] = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        end = self.grid.n - 1 if self.end is None else int(self.end)
        object.__setattr__(self, "end", end)
        if not 0.0 < self.mu0 <= 1.0:
            raise DomainError("bad-news process needs a prior in (0, 1]")
        if g.shape != (end + 1,):
            raise DomainError("g must have one value per reachable grid point")
        if np.any(g < -1e-12):
            raise DomainError("arrival increments must be nonnegative")
        if abs(g.sum() - (1.0 - self.mu0)) > 1e-12:
            raise DomainError(f"sum(g)={g.sum()} must equal 1-mu0={1.0 - self.mu0}")
        lam = self.cont_belief()
        if np.any(lam > 1.0 + 1e-10):
            raise DomainError("continuation belief exceeded 1")
        # martingale identity (1-G) * lambda = mu0 holds by construction but
        # is asserted to guard the formula
        if np.any(np.abs((1.0 - self.G) * lam - self.mu0) > 1e-10):
            raise DomainError("martingale check failed")

    @property
    def G(self) -> np.ndarray:
        """Cumulative arrival mass at each grid point; G(l_end) = 1 - mu0."""
        G = np.cumsum(self.g)
        G[-1] = 1.0 - self.mu0
        return G

    def cont_belief(self) -> np.ndarray:
        """lambda(l_j) = mu0 / (1 - G(l_j)); 1 where all bad mass has arrived."""
        surv = 1.0 - self.G
        lam = np.where(surv > self.mu0 * 1e-15, self.mu0 / np.maximum(surv, 1e-300), 1.0)
        return np.minimum(lam, 1.0)

    def to_process(self) -> DiscreteLearningProcess:
        """Two-node-per-level compact tree: {bad news (belief 0), surviving}.

        Quota-truncated processes are padded with absorbing nodes so the
        result lives on the full grid (the solver never continues past the
        quota anyway).
        """
        n = self.grid.n
        lam_r = self.cont_belief()
        lam = np.concatenate([lam_r, np.full(n - 1 - self.end, lam_r[-1])])
        G = np.concatenate([self.G, np.full(n - 1 - self.end, 1.0 - self.mu0)])
        surv = 1.0 - G
        beliefs = tuple(np.array([0.0, lam[j]]) for j in range(n))
        kernels = []
        for j in range(n - 1):
            if surv[j] <= 1e-15:
                k = np.array([[1.0, 0.0], [1.0, 0.0]])
            else:
                stay = min(surv[j + 1] / surv[j], 1.0)
                k = np.array([[1.0, 0.0], [1.0 - stay, stay]])
            kernels.append(k)
        g0 = float(G[0])
        root = np.array([g0, 1.0 - g0])
        if g0 > 1e-15:
            return DiscreteLearningProcess(self.grid, beliefs, tuple(kernels),
                                           root, self.mu0)
        return DiscreteLearningProcess(self.grid, beliefs, tuple(kernels),
                                       np.array([0.0, 1.0]), self.mu0)


@dataclass(frozen=True)
class ObedienceReport:
    slacks: np.ndarray = field(repr=False)
    max_violation: float
    binding: np.ndarray = field(repr=False)  # level indices with |slack| <= tol
    ok: bool

    def to_dict(self):
        return {"max_violation": self.max_violation, "ok": self.ok,
                "n_binding": int(len(self.binding))}


def effective_end(m: Mechanism, grid: LevelGrid) -> int:
    """Index of the last non-prohibited grid level."""
    _, proh = m.tax_profile(grid)
    allowed = ~proh
    if not allowed.any():
        raise DomainError("all levels prohibited")
    return int(np.nonzero(allowed)[0][-1])


def obedience_slacks(g: np.ndarray, a1: np.ndarray, a0: np.ndarray,
                     mu0: float) -> np.ndarray:
    """Slack of each level's obedience inequality for arrival increments g.

    Row j:  mu0 (U^phi(1,l_end) - U^phi(1,l_j))
            - sum_{k>=j} (U^phi(0,l_j) - U^phi(0,l_k)) g_k  >= 0
    computed with reverse cumulative sums, O(n).
    """
    mass_above = np.cumsum(g[::-1])[::-1]           # sum_{k>=j} g_k
    weighted = np.cumsum((a0 * g)[::-1])[::-1]      # sum_{k>=j} U0_k g_k
    lhs = mu0 * (a1[-1] - a1)
    rhs = a0 * mass_above - weighted
    return lhs - rhs


def obedience_check(bn: BadNewsProcess, agent: PayoffSpec,
                    m: Mechanism) -> ObedienceReport:
    """Evaluate every level's obedience inequality for the bad-news process,
    to tol = 1e-9 of the payoff scale."""
    grid = bn.grid
    a1, a0, proh = adjusted_profiles(agent, m, "agent", grid)
    end = effective_end(m, grid)
    if bn.end > end:
        raise DomainError("bad-news process extends past the quota")
    e = bn.end
    slacks = obedience_slacks(bn.g, a1[:e + 1], a0[:e + 1], bn.mu0)
    scale = max(1.0, float(np.abs(a0[:e + 1]).max()), float(np.abs(a1[:e + 1]).max()))
    stol = 1e-9 * scale
    binding = np.nonzero(np.abs(slacks) <= stol)[0]
    max_violation = float(max(0.0, -slacks.min()))
    return ObedienceReport(slacks, max_violation, binding, max_violation <= stol)
