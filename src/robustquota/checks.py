"""One-shot levels, pseudo-inverse beliefs, and the model's runtime checkers."""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateDerivativeError, DomainError, EmptyMechanismError
from .grid import LevelGrid, belief_grid
from .mechanisms import Mechanism, Zero, adjusted_profiles
from .payoffs import PayoffSpec

_EPS = float(np.finfo(float).eps)


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


def _one_shot_pieces(p: PayoffSpec, m: Mechanism, grid: LevelGrid,
                     side: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot level on [0, 1] as pieces of the upper envelope of the lines
    mu -> a0[j] + mu (a1[j] - a0[j]) over the allowed levels: the ascending
    starts of the pieces (the first is 0), the level of each, and a bound on
    the rounding error of each start."""
    a1, a0, proh = adjusted_profiles(p, m, side, grid)
    allowed = np.flatnonzero(~proh)
    slope, icpt = (a1 - a0)[allowed], a0[allowed]
    # ascending slope; of equal slopes only the last (largest intercept, then
    # largest level) can be on top
    order = np.lexsort((allowed, icpt, slope))
    order = order[np.append(slope[order][1:] != slope[order][:-1], True)]
    s, c = slope.tolist(), icpt.tolist()
    hull, starts, errs = [], [], []   # errs: rounding bound of each start
    for k in order.tolist():
        x = e = 0.0
        while hull:
            j = hull[-1]
            d = s[k] - s[j]
            x = (c[j] - c[k]) / d
            if x > starts[-1]:
                e = 4 * _EPS * (abs(c[j]) + abs(c[k]) + abs(s[j]) + abs(s[k])) / d
                break
            del hull[-1], starts[-1], errs[-1]
            x = 0.0
        if x < 1.0:
            hull.append(k)
            starts.append(x)
            errs.append(e)
    return np.array(starts), grid.points[allowed[hull]], np.array(errs)


def one_shot_intervals(agent: PayoffSpec, principal: PayoffSpec,
                       m: Mechanism, grid: LevelGrid
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoints of the belief intervals on which both one-shot levels are
    constant, with the agent's and the principal's level on each; breakpoints
    that agree within their rounding errors bound no interval."""
    su, pu, eu = _one_shot_pieces(agent, m, grid, "agent")
    sv, pv, ev = _one_shot_pieces(principal, m, grid, "principal")
    cuts = np.concatenate([su, sv, [1.0]])
    err = np.concatenate([eu, ev, [0.0]])
    order = np.argsort(cuts)
    cuts, err = cuts[order], err[order]
    mids = 0.5 * (cuts[:-1] + cuts[1:])[np.diff(cuts) > err[:-1] + err[1:]]
    lu = pu[np.searchsorted(su, mids, side="right") - 1]
    lv = pv[np.searchsorted(sv, mids, side="right") - 1]
    return mids, lu, lv


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
    """Check (i) single-peaked indirect utilities and (ii) one-shot levels
    monotone in the belief on the n_mu-point belief grid, and (iii) the
    principal's one-shot level never above the agent's on every interval of
    one_shot_intervals, as principal_prefers_earlier reads it.

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

    mids, lu_mid, lv_mid = one_shot_intervals(agent, principal, Zero(), grid)
    bad = np.flatnonzero(lv_mid > lu_mid + 1e-12)
    w_more = (float(mids[bad[0]]), float(lv_mid[bad[0]])) if bad.size else None

    return AssumptionReport(single, monotone, w_more is None, w_sp, w_mono,
                            w_more, tuple(jumps))


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
