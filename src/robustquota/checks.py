"""One-shot levels, pseudo-inverse beliefs, and the model's runtime checkers."""

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateDerivativeError, DomainError
from .grid import LevelGrid
from .mechanisms import Mechanism, Zero, adjusted_profiles
from .payoffs import PayoffSpec

_EPS = float(np.finfo(float).eps)


def one_shot_levels(p: PayoffSpec, mus: np.ndarray, grid: LevelGrid,
                    m: Mechanism = Zero(), side: str = "agent") -> np.ndarray:
    """The one-shot level at each belief of an array: the largest grid
    maximizer of the (mechanism-adjusted) indirect utility, read off the
    upper envelope of `_one_shot_pieces`.

    A belief within the rounding bound of a piece's start is settled by
    evaluating U^phi(mu, .) = mu a1 + (1 - mu) a0 on every line that can be
    on top there (the pieces on both sides of that start and the lines
    between them in slope order), the largest level winning ties. At mu = 0
    and mu = 1 the result is the largest argmax of a0 and of a1.  A belief
    that is not a number, or is NaN or outside [0, 1], raises DomainError.
    """
    try:
        mus = np.asarray(mus, dtype=float)
    except (TypeError, ValueError) as e:
        raise DomainError(f"beliefs must be real numbers ({e})") from None
    bad = ~((mus >= 0.0) & (mus <= 1.0))
    if bad.any():
        raise DomainError(f"belief {mus[bad][0]} outside [0, 1]")
    a1, a0 = adjusted_profiles(p, m, side, grid)
    return grid.points[_top_lines(a1, a0, _one_shot_pieces(a1, a0), mus)]


def _top_lines(a1: np.ndarray, a0: np.ndarray, pieces: tuple,
               mus: np.ndarray) -> np.ndarray:
    """Grid index of the one-shot level at each belief in [0, 1], read off
    pieces = _one_shot_pieces(a1, a0) as one_shot_levels says."""
    starts, errs, lines, pos = pieces
    # candidates lines[lo..hi]: the piece holding mu, widened across every
    # start that lies within its rounding bound of mu (the running max and
    # min keep the bounds sorted); the first start is 0 with bound 0, so
    # mu = 0 reaches back to the first line
    lo = np.concatenate(([0], pos))[
        np.maximum.accumulate(starts + errs).searchsorted(mus)]
    hi = pos[np.minimum.accumulate((starts - errs)[::-1])[::-1]
             .searchsorted(mus, side="right") - 1]
    cnt = hi - lo + 1
    first = cnt.cumsum() - cnt
    row = np.arange(len(mus)).repeat(cnt)
    j = lines[np.arange(cnt.sum()) + (lo - first).repeat(cnt)]
    v = mus[row] * a1[j] + (1.0 - mus[row]) * a0[j]
    top = v == np.maximum.reduceat(v, first)[row]
    return np.maximum.reduceat(np.where(top, j, -1), first)


def _one_shot_pieces(a1: np.ndarray, a0: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-shot level on [0, 1] as pieces of the upper envelope of the lines
    mu -> a0[j] + mu (a1[j] - a0[j]) over the allowed levels j < len(a1).

    No line after the top one at mu = 1 in slope order is on top in [0, 1];
    `lines` holds the level indices of the lines up to it in ascending slope
    order. Returns the ascending starts of the pieces (the first is 0), a
    bound on the rounding error of each start, `lines`, and the position in
    `lines` of each piece. The last piece is the largest argmax of a1; its
    start may round past 1, within its bound.

    The hull is built by elimination in whole-array passes, with no loop
    over lines.  Lines before the top one at mu = 0 go first.  Then each
    line's start is where it overtakes its left neighbour (0 for the first
    line), and every line that lies below two others (its neighbours, or
    the first line and its right neighbour, or its left neighbour and the
    last line) is dropped, until none is.  In exact arithmetic this is the
    upper envelope on [0, 1].  In floats it may differ from a
    one-line-at-a-time stack only by pieces no wider than the rounding
    bounds of their two starts.
    """
    slope = a1 - a0
    # ascending slope, then a1, then level (lexsort is stable), so that the
    # top line at mu = 1 (the largest argmax of a1) ends its run of equal
    # slopes
    order = np.lexsort((a1, slope))
    top1 = len(a1) - 1 - a1[::-1].argmax()
    order = order[:(order == top1).nonzero()[0][0] + 1]
    s = slope[order]
    # of equal slopes only the last (largest a1, then largest level) can be
    # on top
    hull = np.concatenate((s[1:] != s[:-1], [True])).nonzero()[0]
    s, c = s[hull], a0[order][hull]
    # nor can a line before the top one at mu = 0 (the last of the largest
    # a0): its slope is smaller and its a0 no larger
    top0 = len(c) - 1 - c[::-1].argmax()
    hull, s, c = hull[top0:], s[top0:], c[top0:]
    while True:
        d = s[1:] - s[:-1]
        starts = np.zeros(len(s))
        np.divide(c[:-1] - c[1:], d, out=starts[1:])
        # a line whose right neighbour starts no later is below its two
        # neighbours; testing against the first and the last line as well
        # removes a long run under either in one pass instead of one line
        # per pass
        keep = np.concatenate((starts[:-1] < starts[1:], [True]))
        if keep.all():
            break
        keep[1:-1] &= (
            (starts[1:-1] < (c[1:-1] - c[-1]) / (s[-1] - s[1:-1]))
            & ((c[0] - c[1:-1]) / (s[1:-1] - s[0]) < starts[2:]))
        hull, s, c = hull[keep], s[keep], c[keep]
    # rounding bound of each start
    errs = np.zeros(len(s))
    a, b = np.abs(c), np.abs(s)
    np.divide(4 * _EPS * (a[:-1] + a[1:] + b[:-1] + b[1:]), d, out=errs[1:])
    return starts, errs, order, hull


def one_shot_intervals(u: tuple, v: tuple, grid: LevelGrid
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The belief intervals (lo, hi) on which both one-shot levels are
    constant, in ascending order, with the agent's and the principal's level
    on each, read from their adjusted_profiles u and v; breakpoints that
    agree within their rounding errors bound no interval."""
    su, eu, lines, pos = _one_shot_pieces(*u)
    pu = grid.points[lines[pos]]
    sv, ev, lines, pos = _one_shot_pieces(*v)
    pv = grid.points[lines[pos]]
    cuts = np.concatenate([su, sv, [1.0]])
    err = np.concatenate([eu, ev, [0.0]])
    order = cuts.argsort()
    cuts, err = cuts[order], err[order]
    wide = cuts[1:] - cuts[:-1] > err[:-1] + err[1:]
    lo, hi = cuts[:-1][wide], cuts[1:][wide]
    mids = 0.5 * (lo + hi)
    lu = pu[su.searchsorted(mids, side="right") - 1]
    lv = pv[sv.searchsorted(mids, side="right") - 1]
    return lo, hi, lu, lv


def pseudo_inverse_beliefs(p: PayoffSpec, grid: LevelGrid, m: Mechanism = Zero(),
                           side: str = "agent") -> np.ndarray:
    """mu_hat(l) = inf{mu : one-shot level at mu >= l} for each grid level l:
    the start, clipped to [0, 1], of the first envelope piece on which or at
    whose start the running-max level reaches l, or 1.0 where none does.
    The level at a start counts because lines that tie there only (a piece
    of width 0) win it when their level is the largest.

    The running maximum assumes no monotonicity; `check_assumptions` reports
    levels that are not monotone in the belief.
    """
    a1, a0 = adjusted_profiles(p, m, side, grid)
    pieces = _one_shot_pieces(a1, a0)
    starts, _, lines, pos = pieces
    starts = np.minimum(starts, 1.0)
    top = np.maximum(lines[pos], _top_lines(a1, a0, pieces, starts))
    reached = np.maximum.accumulate(grid.points[top])
    return np.concatenate((starts, [1.0]))[reached.searchsorted(grid.points)]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the three Assumption-style checks on a payoff pair."""

    single_peaked: bool
    monotone_levels: bool
    agent_develops_more: bool
    witness_single_peaked: Optional[Tuple[float, float]] = None
    witness_monotone: Optional[Tuple[float, float]] = None
    witness_agent_more: Optional[Tuple[float, float]] = None
    #: (breakpoint, jump size) pairs where the agent's one-shot level jumps
    #: by more than 10% of l_max -- a discontinuity flag, not a failure
    jumps: Tuple[Tuple[float, float], ...] = ()

    @property
    def all_pass(self) -> bool:
        return self.single_peaked and self.monotone_levels and self.agent_develops_more

    def to_dict(self):
        return {**asdict(self), "all_pass": self.all_pass}


def _below(d1: np.ndarray, d0: np.ndarray, c: float
           ) -> Tuple[np.ndarray, np.ndarray]:
    """The beliefs where mu d1 + (1 - mu) d0 < c, per entry, as the open
    interval (lo, hi): one end is infinite, as the set holds 0 or 1 when it
    is not empty."""
    s = d1 - d0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (c - d0) / s
    flat = np.where(d0 < c, np.inf, -np.inf)
    hi = np.where(s > 0, x, np.where(s < 0, np.inf, flat))
    lo = np.where(s < 0, x, -np.inf)
    return lo, hi


def _single_peaked_witness(u1: np.ndarray, u0: np.ndarray, grid: LevelGrid
                           ) -> Optional[Tuple[float, float]]:
    """A (belief, level) at which U(mu, .) rises by more than tol onto
    `level` after falling by more than tol at a lower level, or None when no
    belief in [0, 1] has one.

    Step j, U(mu, l_j+1) - U(mu, l_j), is linear in mu, so the beliefs where
    it falls form one interval holding 0 or 1, and so do those where it
    rises.  The falls before step k cover [0, a_k) and (b_k, 1], a_k a
    running max and b_k a running min; the witness is the middle of the
    widest overlap of a rise with them.
    """
    pts = grid.points
    # the largest |U| over beliefs is reached at mu = 0 or mu = 1
    tol = 1e-9 * max(1.0, float(np.abs(u1).max()), float(np.abs(u0).max()))
    d1, d0 = u1[1:] - u1[:-1], u0[1:] - u0[:-1]
    flo, fhi = _below(d1, d0, -tol)
    rlo, rhi = _below(-d1, -d0, -tol)
    a = np.maximum.accumulate(np.where(flo == -np.inf, fhi, -np.inf))
    b = np.minimum.accumulate(np.where(fhi == np.inf, flo, np.inf))
    # a fall before step k: [0, a_k) and (b_k, 1]; k = 0 has none
    lo = np.stack([rlo[1:], np.maximum(b[:-1], rlo[1:])])
    hi = np.stack([np.minimum(a[:-1], rhi[1:]), rhi[1:]])
    width = np.minimum(hi, 1.0) - np.maximum(lo, 0.0)
    if width.size == 0 or width.max() <= 0.0:
        return None
    i, k = np.unravel_index(width.argmax(), width.shape)
    mu = 0.5 * (max(lo[i, k], -1.0) + min(hi[i, k], 2.0))
    return float(np.clip(mu, 0.0, 1.0)), float(pts[k + 2])


def check_assumptions(agent: PayoffSpec, principal: PayoffSpec,
                      grid: LevelGrid) -> AssumptionReport:
    """Check at every belief in [0, 1] (i) single-peaked indirect utilities,
    (ii) one-shot levels monotone in the belief and (iii) the principal's
    one-shot level never above the agent's, the last two on the intervals
    of one_shot_intervals, as principal_prefers_earlier reads them.

    Violations are reported with witnesses, never raised.
    """
    u = adjusted_profiles(agent, Zero(), "agent", grid)
    v = adjusted_profiles(principal, Zero(), "principal", grid)
    w_sp = _single_peaked_witness(*u, grid) or _single_peaked_witness(*v, grid)

    lo, hi, lu, lv = one_shot_intervals(u, v, grid)
    mids = 0.5 * (lo + hi)
    w_mono = None
    for lh in (lu, lv):
        bad = (lh[1:] - lh[:-1] < -1e-12).nonzero()[0]
        if bad.size:
            w_mono = (float(mids[bad[0] + 1]), float(lh[bad[0] + 1]))
            break

    d = lu[1:] - lu[:-1]
    jumps = tuple((float(lo[k + 1]), float(d[k]))
                  for k in (np.abs(d) > 0.1 * grid.l_max).nonzero()[0])

    bad = (lv > lu + 1e-12).nonzero()[0]
    w_more = (float(mids[bad[0]]), float(lv[bad[0]])) if bad.size else None

    return AssumptionReport(w_sp is None, w_mono is None, w_more is None,
                            w_sp, w_mono, w_more, jumps)


@dataclass(frozen=True)
class RatioReport:
    """Monotonicity report for risk_ratio_condition's marginal ratio r."""

    nondecreasing: bool
    witness: Optional[Tuple[float, float]]  # (level, r drop) at first violation

    def to_dict(self):
        return asdict(self)


def _steps(a0: np.ndarray, a0_max: float) -> tuple:
    """The fall a0_j - a0_j+1 of the agent's bad-state profile a0 on each
    step, and the mask of the flat steps, where it falls by at most
    1e-15 max(1, a0_max): read no ratio on them."""
    step = a0[:-1] - a0[1:]
    return step, step <= 1e-15 * max(1.0, a0_max)


def _step_ratios(x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The marginal ratio (x_j - x_j+1) / step_j of a profile x over a0's
    falls (_steps) on each step."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x[:-1] - x[1:]) / step


def risk_ratio_condition(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
                         grid: LevelGrid) -> RatioReport:
    """Check that the bad-state marginal-payoff ratio r is nondecreasing.

    r = |_step_ratios(V^phi(0,.), step)| on the allowed levels, step the
    falls of U^phi(0,.) (_steps), whose running value is the bad-news dual's
    multiplier Lambda; families singular at the origin skip the first step.
    The witness is (l_k+1, r_k+1 - r_k) at the first fall beyond
    1e-9 max(1, max r).  A flat step raises
    DegenerateDerivativeError, and levels that leave no step DomainError.
    """
    _, a0 = adjusted_profiles(agent, m, "agent", grid)
    _, p0 = adjusted_profiles(principal, m, "principal", grid)
    start = 1 if (agent.singular_at_zero or principal.singular_at_zero) else 0
    if len(a0) < start + 2:
        raise DomainError("no step of the allowed levels to read the ratio on")
    step, flat = _steps(a0[start:], np.abs(a0[start:]).max())
    r = _step_ratios(p0[start:], step)
    ends = grid.points[start + 1:len(a0)]   # the level each step ends at
    if flat.any():
        raise DegenerateDerivativeError("agent bad-state payoff does not fall "
                                        f"on the step to l={ends[flat][0]}")
    r = np.abs(r)
    d = r[1:] - r[:-1]
    bad = (d < -1e-9 * max(1.0, float(r.max()))).nonzero()[0]
    if bad.size:
        k = int(bad[0])
        return RatioReport(False, (float(ends[k]), float(d[k])))
    return RatioReport(True, None)
