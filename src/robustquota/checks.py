"""One-shot levels, pseudo-inverse beliefs, and the model's runtime checkers."""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateDerivativeError, DomainError, EmptyMechanismError
from .grid import LevelGrid, belief_grid
from .mechanisms import Mechanism, Zero, adjusted_profiles
from .payoffs import PayoffSpec


def one_shot_level(p: PayoffSpec, mu: float, grid: LevelGrid,
                   m: Mechanism = Zero(), side: str = "agent") -> float:
    """Largest grid maximizer of the (mechanism-adjusted) indirect utility."""
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"belief {mu} outside [0, 1]")
    return float(one_shot_levels(p, [mu], grid, m, side)[0])


def one_shot_levels(p: PayoffSpec, mus: np.ndarray, grid: LevelGrid,
                    m: Mechanism = Zero(), side: str = "agent") -> np.ndarray:
    """Vectorized one_shot_level over a belief array."""
    a1, a0, proh = adjusted_profiles(p, m, side, grid)
    allowed = ~proh
    if not allowed.any():
        raise EmptyMechanismError("all levels prohibited")
    pts = grid.points[allowed]
    mus = np.asarray(mus, dtype=float)
    vals = np.outer(mus, a1[allowed]) + np.outer(1.0 - mus, a0[allowed])
    # last argmax per row: argmax of the reversed columns finds the first of
    # the reversed ties, i.e. the largest level
    idx = vals.shape[1] - 1 - np.argmax(vals[:, ::-1], axis=1)
    return pts[idx]


def pseudo_inverse_beliefs(p: PayoffSpec, grid: LevelGrid, m: Mechanism = Zero(),
                           side: str = "agent", n_mu: int = 1001) -> np.ndarray:
    """First belief-grid point whose one-shot level reaches each grid level,
    or 1.0 where no belief does.

    The scan reads the running maximum of the one-shot levels over the belief
    grid, so it assumes no monotonicity; `check_assumptions` reports levels
    that are not monotone in the belief.
    """
    mus = belief_grid(n_mu)
    reached = np.maximum.accumulate(one_shot_levels(p, mus, grid, m, side))
    idx = np.searchsorted(reached, grid.points - 1e-12)
    return np.where(idx < len(mus), mus[np.minimum(idx, len(mus) - 1)], 1.0)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the three Assumption-style checks on a payoff pair."""

    single_peaked: bool
    monotone_levels: bool
    agent_develops_more: bool
    witness_single_peaked: Optional[Tuple[float, float]] = None
    witness_monotone: Optional[Tuple[float, float]] = None
    witness_agent_more: Optional[Tuple[float, float]] = None
    #: (mu, jump size) pairs where the one-shot level moves by more than 10%
    #: of l_max in one belief step — a discontinuity flag, not a failure
    jumps: Tuple[Tuple[float, float], ...] = ()

    @property
    def all_pass(self) -> bool:
        return self.single_peaked and self.monotone_levels and self.agent_develops_more

    def to_dict(self):
        return {
            "single_peaked": self.single_peaked,
            "monotone_levels": self.monotone_levels,
            "agent_develops_more": self.agent_develops_more,
            "witness_single_peaked": self.witness_single_peaked,
            "witness_monotone": self.witness_monotone,
            "witness_agent_more": self.witness_agent_more,
            "jumps": [list(j) for j in self.jumps],
            "all_pass": self.all_pass,
        }


def _single_peaked_violation(vals: np.ndarray, tol: float):
    """First (row, col) where a row rises again after having fallen."""
    d = np.diff(vals, axis=1)
    falling = d < -tol
    rising = d > tol
    fall_before = np.zeros_like(falling)
    fall_before[:, 1:] = np.cumsum(falling, axis=1)[:, :-1] > 0
    viol = rising & fall_before
    if not viol.any():
        return None
    rows, cols = np.nonzero(viol)
    return int(rows[0]), int(cols[0] + 1)


def check_assumptions(agent: PayoffSpec, principal: PayoffSpec, grid: LevelGrid,
                      n_mu: int = 1001) -> AssumptionReport:
    """Scan the belief x level grid for the three structural conditions:
    (i) single-peaked indirect utilities, (ii) monotone one-shot levels in the
    belief, (iii) the principal's one-shot level never exceeds the agent's.

    Violations are reported with witnesses, never raised.
    """
    mus = belief_grid(n_mu)
    pts = grid.points
    w_sp = None
    single = True
    for p in (agent, principal):
        vals = np.outer(mus, p.u1(pts)) + np.outer(1.0 - mus, p.u0(pts))
        tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
        hit = _single_peaked_violation(vals, tol)
        if hit is not None and single:
            single = False
            w_sp = (float(mus[hit[0]]), float(pts[hit[1]]))

    lu = one_shot_levels(agent, mus, grid)
    lv = one_shot_levels(principal, mus, grid)

    monotone = True
    w_mono = None
    for lh in (lu, lv):
        d = np.diff(lh)
        bad = np.nonzero(d < -1e-12)[0]
        if bad.size and monotone:
            monotone = False
            w_mono = (float(mus[bad[0] + 1]), float(lh[bad[0] + 1]))

    jumps = []
    jump_tol = 0.1 * grid.l_max
    for k in np.nonzero(np.abs(np.diff(lu)) > jump_tol)[0]:
        jumps.append((float(mus[k + 1]), float(lu[k + 1] - lu[k])))

    later = lv <= lu + 1e-12
    agent_more = bool(later.all())
    w_more = None
    if not agent_more:
        k = int(np.argmin(later))
        w_more = (float(mus[k]), float(lv[k]))

    return AssumptionReport(single, monotone, agent_more, w_sp, w_mono, w_more,
                            tuple(jumps))


@dataclass(frozen=True)
class RatioReport:
    """Monotonicity report for r(l) = |dV^phi(0,l)/dl / dU^phi(0,l)/dl|."""

    nondecreasing: bool
    witness: Optional[Tuple[float, float]]  # (level, r drop) at first violation
    levels: np.ndarray = field(repr=False, compare=False)
    ratio: np.ndarray = field(repr=False, compare=False)

    def to_dict(self):
        return {"nondecreasing": self.nondecreasing,
                "witness": list(self.witness) if self.witness else None}


def risk_ratio_condition(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
                         grid: LevelGrid) -> RatioReport:
    """Check that the bad-state marginal-payoff ratio is nondecreasing.

    Central finite differences on the grid interior; quota mechanisms are
    evaluated on their allowed prefix.  Families singular at the origin skip
    the first interior point.
    """
    a1, a0, proh = adjusted_profiles(agent, m, "agent", grid)
    p1, p0, _ = adjusted_profiles(principal, m, "principal", grid)
    allowed = ~proh
    if allowed.sum() < 3:
        raise DomainError("too few allowed levels for finite differences")
    nT = int(allowed.sum())
    pts = grid.points[:nT]
    dU = (a0[2:nT] - a0[:nT - 2]) / (2.0 * grid.h)
    dV = (p0[2:nT] - p0[:nT - 2]) / (2.0 * grid.h)
    start = 1 if (agent.singular_at_zero or principal.singular_at_zero) else 0
    dU, dV = dU[start:], dV[start:]
    levels = pts[1 + start:nT - 1]
    scale_dU = float(np.abs(dU).max())
    if np.any(np.abs(dU) <= 1e-14 * max(scale_dU, 1.0)):
        k = int(np.argmax(np.abs(dU) <= 1e-14 * max(scale_dU, 1.0)))
        raise DegenerateDerivativeError(
            f"agent bad-state marginal vanishes at l={levels[k]}")
    r = np.abs(dV / dU)
    tol = 1e-9 * max(1.0, float(np.abs(r).max()))
    d = np.diff(r)
    bad = np.nonzero(d < -tol)[0]
    if bad.size:
        k = int(bad[0])
        return RatioReport(False, (float(levels[k + 1]), float(d[k])), levels, r)
    return RatioReport(True, None, levels, r)


@dataclass(frozen=True)
class AmbiguitySet:
    """Finite family of candidate agent payoffs for joint robustness."""

    members: tuple

    def __post_init__(self):
        if len(self.members) == 0:
            raise DomainError("ambiguity set must be nonempty")

    def validate(self, principal: PayoffSpec, grid: LevelGrid,
                 n_mu: int = 201) -> List[AssumptionReport]:
        return [check_assumptions(mem, principal, grid, n_mu=n_mu)
                for mem in self.members]
