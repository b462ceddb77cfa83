"""Worst-case learning: the bad-news LP, whose construction and HiGHS
answers pass one certification step (dual certificate and obedience; the
certificate also tells whether the value is the worst case over all
learning processes), the binding-obedience construction, and the tree
oracle (one obedience LP over the histories of a small belief tree)."""

from contextlib import suppress
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .badnews import BadNewsProcess, obedience_slacks
from .checks import _step_ratios, one_shot_intervals
from .errors import (BudgetExceededError, ConditionViolatedError, DomainError,
                     InfeasibleLPError, UnboundedLPError, is_real)
from .grid import LevelGrid
from .mechanisms import Mechanism, adjusted_profiles
from .payoffs import PayoffSpec
from .simplex import solve_lp


def principal_prefers_earlier(agent: PayoffSpec, principal: PayoffSpec,
                              m: Mechanism, grid: LevelGrid) -> bool:
    """Check l_hat_{V^phi} <= l_hat_{U^phi}, strict wherever the agent's
    one-shot level is interior (boundary-clamped beliefs are exempt).

    Read once on every belief interval where both one-shot levels are
    constant, so no violation is too narrow to be seen."""
    return _prefers_earlier(adjusted_profiles(agent, m, "agent", grid),
                            adjusted_profiles(principal, m, "principal", grid),
                            grid)


def _prefers_earlier(u: tuple, v: tuple, grid: LevelGrid) -> bool:
    """principal_prefers_earlier on the adjusted_profiles u and v."""
    _, _, lu, lv = one_shot_intervals(u, v, grid)
    interior = (lu > 1e-12) & (lu < grid.points[len(u[0]) - 1] - 1e-12)
    return bool((lv <= lu + 1e-12).all()
                and (lv[interior] < lu[interior] - 1e-15).all())


def stop_rule_at_zero(a0: np.ndarray) -> np.ndarray:
    """stop_idx[j] = largest argmax of U^phi(0, .) over levels >= j: the last
    index of the run of equal suffix maxima that j lies in."""
    top = np.maximum.accumulate(a0[::-1])[::-1]
    ends = np.concatenate((top[:-1] != top[1:], [True])).nonzero()[0]
    return ends[ends.searchsorted(np.arange(len(a0)))]


@dataclass(frozen=True)
class BadNewsLPResult:
    """The worst bad-news process, its value and the weak-duality evidence
    for that value."""
    bn: BadNewsProcess
    value: float
    iterations: int
    #: "construction" (certified binding-obedience process) or "highs"
    #: (sparse LP, where the construction is not certified)
    route: str
    #: value minus the dual objective of the multipliers below
    gap: float
    lbar_index: int             # support start of the worst process
    lbar: float
    dual_value: float           # -(y @ b), the obedience rows' dual term
    comp_slack_max: float       # worst |slack| on levels carrying mass
    binding: np.ndarray = field(repr=False)  # binding obedience rows at the optimum
    #: the dual-feasible multipliers (y, t) of the obedience rows and the
    #: mass row that gap is certified with (the exact dual on the
    #: construction route, HiGHS's on the highs route); cumsum(y) is the
    #: nondecreasing multiplier Lambda of the paper
    multipliers: Tuple[np.ndarray, float] = field(repr=False)
    #: the adjusted profiles (a1, a0, p1, p0) on the allowed levels that the
    #: LP was solved on, which premise_ok and all_processes read
    profiles: Tuple[np.ndarray, ...] = field(repr=False)

    @property
    def premise_ok(self) -> bool:
        """The earlier-stopping premise (principal_prefers_earlier) on the
        solve's profiles, O(n) on each read.  True makes bad news the worst
        case only for single-peaked payoffs: all_processes is the
        certificate for this instance."""
        a1, a0, p1, p0 = self.profiles
        return _prefers_earlier((a1, a0), (p1, p0), self.bn.grid)

    @property
    def all_processes(self) -> bool:
        """Whether the multipliers also certify the value as the minimum
        over every obedient learning process on the grid, participation
        aside (_all_processes); where False it is the minimum over bad-news
        processes only.  O(n) on each read."""
        y, t = self.multipliers
        return _all_processes(y, t, *self.profiles)

    @property
    def dual_bound(self) -> float:
        """A lower bound on the LP optimum: the value minus the gap."""
        return self.value - self.gap

    def certificate(self) -> dict:
        return {"lbar": self.lbar, "dual_value": self.dual_value,
                "dual_bound": self.dual_bound, "primal_value": self.value,
                "gap": self.gap, "comp_slack_max": self.comp_slack_max}


def _lp_data(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
             grid: LevelGrid, mu0: float):
    """The stop rule at belief 0, the profiles on the allowed levels, the
    belief-0 stop payoffs c and the obedience right-hand sides
    b = mu0 (U^phi(1,l_end) - U^phi(1,l))."""
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    stop = stop_rule_at_zero(a0)
    return stop, a1, a0, p1, p0, p0[stop], mu0 * (a1[-1] - a1)


def _binding_construction(a0: np.ndarray, b: np.ndarray, mu0: float,
                          a0_max: float) -> Optional[np.ndarray]:
    """Arrival increments with obedience binding from the top level down.

    Where rows j and j+1 bind, the mass still to arrive above level j is the
    ratio M_j = (b_j - b_{j+1}) / (a0_j - a0_{j+1}) (M_end = 0).  The
    support start L_low lies just above the highest row with M_j >= 1-mu0
    (at level 0 when there is none) and takes the rest of the mass 1-mu0.
    Above it the mass can only grow going down, so the increments are the
    rises of the running maximum of M from the top.  None when a0 does not
    fall on a step at or above the support start, or when M falls below
    that maximum by more than 1e-9 of the mass 1-mu0 (a negative increment).
    """
    target = 1.0 - mu0
    M, flat = _step_ratios(b, a0, a0_max)
    M = np.concatenate((M, [0.0]))
    rows = ((M[:-1] >= target) | flat).nonzero()[0]
    s = int(rows[-1]) + 1 if rows.size else 0
    top = np.maximum.accumulate(M[s:][::-1])[::-1]
    if (s and flat[s - 1]) or (M[s:] < top - 1e-9 * target).any():
        return None
    g = np.zeros(len(a0))
    g[s + 1:] = top[:-1] - top[1:]
    g[s] = target - g.sum()
    return g


def _support_start(g: np.ndarray) -> int:
    """First level carrying arrival mass (the last level when none does)."""
    pos = (g > 1e-12).nonzero()[0]
    return int(pos[0]) if pos.size else len(g) - 1


def _exact_dual(c: np.ndarray, a0: np.ndarray, jbar: int,
                a0_max: float) -> Tuple[np.ndarray, float]:
    """Multipliers (y, t) of the obedience rows and the mass row that are
    complementary to a process whose support starts at jbar and whose rows
    jbar..end bind.

    With the mass-row multiplier t = c[jbar] and y = 0 below jbar, the
    reduced cost r_k = c_k - t + sum_{j<=k} y_j (a0_j - a0_k) vanishes on
    every level k >= jbar exactly when the running multiplier is the ratio
    Lambda_k = sum_{j<=k} y_j = (c_k - c_{k+1}) / (a0_k - a0_{k+1}) for
    k = jbar..end-1, so y is the difference of Lambda.
    """
    lam = _step_ratios(c[jbar:], a0[jbar:], a0_max)[0]
    y = np.zeros(len(a0))
    y[jbar:-1] = lam - np.concatenate(([0.0], lam[:-1]))
    return y, float(c[jbar])


def _reduced(x: np.ndarray, t: float, y: np.ndarray, a: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The reduced costs x_k - t + sum_{j<=k} y_j (a_j - a_k) and the sizes
    of their terms, in quarters (exact, and finite where the payoffs are),
    each sum a cumsum less a product."""
    y4 = y / 4
    ya = y4 * a
    return (x / 4 - t / 4 + ya.cumsum() - a * y4.cumsum(),
            np.abs(x) / 4 + abs(t) / 4 + np.abs(ya).cumsum()
            + np.abs(a) * np.abs(y4).cumsum())


def _certified_gap(value: float, y: np.ndarray, t: float, c: np.ndarray,
                   b: np.ndarray, mu0: float, a0: np.ndarray, p1: np.ndarray
                   ) -> Optional[float]:
    """Primal value minus the dual objective of multipliers (y, t) of the
    obedience rows and the mass row; None unless they are dual feasible:
    y >= 0 and every reduced cost r_k = c_k - t + sum_{j<=k} y_j (a0_j -
    a0_k) >= 0, each to 1e-9 of the size of the terms it is computed from
    (payoffs that span e^48 leave rounding noise far above any absolute
    tolerance)."""
    r, size = _reduced(c, t, y, a0)
    if y.min() < -1e-9 * np.abs(y).max() or (r < -1e-9 * size).any():
        return None
    return value - float(mu0 * p1[-1] + (1.0 - mu0) * t - y @ b)


def _all_processes(y: np.ndarray, t: float, a1: np.ndarray, a0: np.ndarray,
                   p1: np.ndarray, p0: np.ndarray) -> bool:
    """Whether dual-feasible bad-news multipliers (y, t) (_certified_gap)
    certify their value over all learning processes.

    The recommendation-form LP (Myerson 1986; Makris & Renou 2023) over the
    mass x_theta,j stopping at level j in state theta, with two mass rows, a
    continue-obedience row per level and stop obedience relaxed to the next
    level: the posterior at a stop at j lies in [lo_j, hi_j], where
    U^phi(mu, l_j) >= U^phi(mu, l_j+1) ([0, 1] at the last allowed level).
    The bad-news process is feasible there, so (y, t) with alpha1 setting
    r1_end = 0 certify its value as the minimum when mu r1_j + (1 - mu) r0_j
    >= 0 at both ends of every [lo_j, hi_j], with r1_j = p1_j - alpha1 +
    sum_{i<j} y_i (a1_i - a1_j) and r0_j likewise from p0 and t: Farkas's
    lemma on each level's two columns then gives a stop-row multiplier, and
    the dual objective is unchanged.  The interval holds every belief at
    which stopping at j beats all later levels, so this is sound for any
    payoffs, and exact where they are single-peaked.  Each test holds to
    1e-9 of its terms, in quarters, as in _certified_gap."""
    # r0 and r1 plus their tolerance, in quarters; alpha1 / 4 is the end
    # entry of s1, taken off with its size z1[-1]
    r0, z0 = _reduced(p0, t, y, a0)
    R0 = r0 + 1e-9 * z0
    s1, z1 = _reduced(p1, 0.0, y, a1)
    R1 = s1 + 1e-9 * z1 + (1e-9 * z1[-1] - s1[-1])
    # the ends of [lo_j, hi_j] for j < end: mu = 0 where a0 does not rise
    # on the step, mu = 1 where a1 does not, and where exactly one rises
    # the belief |e0| / (|e0| + |e1|) at which the step pays nothing,
    # tested times |e0| + |e1| > 0 (an overflow to inf keeps its sign, and a
    # NaN fails); where both rise the interval is empty.  At the end r1 = 0,
    # and r0 is the bad-news reduced cost held above (c_end = p0_end)
    with np.errstate(over="ignore", invalid="ignore"):
        e0, e1 = a0[1:] - a0[:-1], a1[1:] - a1[:-1]
        mid = np.abs(e0) * R1[:-1] + np.abs(e1) * R0[:-1] >= 0.0
    up0, up1 = e0 > 0.0, e1 > 0.0
    ok = ((up0 | (R0[:-1] >= 0.0)) & (up1 | (R1[:-1] >= 0.0))
          & ((up0 == up1) | mid))
    return bool(ok.all())


def _obedience(g: np.ndarray, a1: np.ndarray, a0: np.ndarray, b: np.ndarray,
               mu0: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Obedience slacks of g, each row's size of terms in quarters (as in
    _certified_gap), and the rows that break obedience by 1e-9 of it."""
    slacks = obedience_slacks(g, a1, a0, mu0)
    a0_4 = np.abs(a0) / 4
    size = (np.abs(b) / 4 + (a0_4 * g)[::-1].cumsum()[::-1]
            + a0_4 * g[::-1].cumsum()[::-1])
    return slacks, size, slacks / 4 < -1e-9 * size


def _sparse_lp(c: np.ndarray, a0: np.ndarray, a1: np.ndarray, b: np.ndarray,
               mu0: float) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """The bad-news LP in cumulative form, solved by HiGHS.

    Variables g, M_j = sum_{k>=j} g_k and W_j = sum_{k>=j} a0_k g_k turn each
    obedience row into a0_j M_j - W_j <= b_j, so the model has O(n)
    nonzeros.  Payoffs are divided by max|a0|, |a1| and the objective by
    max|c|; both leave the argmin unchanged.  Returns the increments, the
    multipliers of the obedience rows and of the mass row (M_0 = 1-mu0) in
    the original units, and the iteration count.
    """
    from scipy import sparse
    from scipy.optimize import linprog
    n = len(a0)
    sa = float(max(np.abs(a0).max(), np.abs(a1).max())) or 1.0
    sc = float(np.abs(c).max()) or 1.0
    a0s = a0 / sa
    eye = sparse.identity(n, format="csr")
    diff = eye - sparse.eye(n, n, k=1, format="csr")   # M_j - M_{j+1}
    first = sparse.csr_matrix(([1.0], ([0], [0])), shape=(1, n))
    A_eq = sparse.bmat([[-eye, diff, None],             # M_j - M_{j+1} = g_j
                        [-sparse.diags(a0s), None, diff],
                        [None, first, None]], format="csr")  # M_0 = 1 - mu0
    b_eq = np.zeros(2 * n + 1)
    b_eq[-1] = 1.0 - mu0
    A_ub = sparse.hstack([sparse.csr_matrix((n, n)), sparse.diags(a0s), -eye],
                         format="csr")
    bounds = np.zeros((3 * n, 2))
    bounds[:, 1] = np.inf
    bounds[n:, 0] = -np.inf
    res = linprog(np.concatenate([c / sc, np.zeros(2 * n)]), A_ub=A_ub,
                  b_ub=b / sa, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        raise InfeasibleLPError(f"infeasible bad-news LP: {res.message}")
    if not res.success:
        raise InfeasibleLPError(f"LP solver failed: {res.message}")
    y = -res.ineqlin.marginals * (sc / sa)
    t = float(res.eqlin.marginals[-1]) * sc
    return res.x[:n], y, t, int(res.nit)


def solve_badnews_lp(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
                     grid: LevelGrid, mu0: float) -> BadNewsLPResult:
    """Minimize the principal's value over obedient bad-news processes.

    Objective: mu0 V^phi(1, l_end) + sum_j V^phi(0, stop_level(l_j)) g_j over
    arrival increments g >= 0 with total mass 1-mu0, subject to the
    upper-triangular obedience rows.  Quota mechanisms truncate the grid at
    the last allowed level (mass is forced to stop there).

    Certify-first and O(n): an obedience row that no g >= 0 satisfies
    raises InfeasibleLPError naming its level.  Otherwise the process with
    binding obedience is built from marginal ratios (_step_ratios) with its
    complementary-slackness dual, itself a ratio, and kept where it passes
    the certification step below with relative gap <= 1e-9.  Elsewhere the
    LP is solved in sparse cumulative form with HiGHS, whose answer must pass
    the same step or raise ConditionViolatedError.  The step: clip g and
    rescale it to 1-mu0, certify the multipliers' gap (dual feasible), and
    hold every obedience row to 1e-9 of its terms.  The result carries that
    certificate and the profiles it was solved on, from which premise_ok
    and all_processes are computed when read.
    """
    if not (is_real(mu0) and 0.0 < mu0 < 1.0):
        raise DomainError("worst-case search needs an interior prior")
    stop, a1, a0, p1, p0, c, b = _lp_data(agent, principal, m, grid, mu0)
    a0_max = float(np.abs(a0).max())
    scale = max(1.0, a0_max, float(np.abs(a1).max()))

    # row j fails for every g >= 0 when b_j < 0 and the stop rule at belief
    # 0 stays at j: the agent at belief 1 prefers level j to the end
    bad = ((b[:-1] < 0.0) & (a0[:-1] == a0[stop[:-1]])).nonzero()[0]
    if bad.size:
        j = int(bad[-1])
        raise InfeasibleLPError(
            f"infeasible bad-news LP: obedience fails at level index {j} "
            f"(l = {grid.points[j]:.6g}) for every bad-news process; at "
            f"belief 1 the agent loses {-b[j] / mu0:.3g} going on from "
            "there to the last allowed level, and no later level pays "
            "more at belief 0", most_binding=j)

    def certify(g, dual):
        # the step of the docstring, with multipliers dual(jbar) at the
        # support start; only HiGHS's refusals leave, so they name HiGHS
        g = np.maximum(g, 0.0)
        total = g.sum()
        if total > 0:
            g *= (1.0 - mu0) / total
        value, jbar = _value(g, mu0, p1, c), _support_start(g)
        y, t = dual(jbar)
        gap = _certified_gap(value, y, t, c, b, mu0, a0, p1)
        if gap is None:
            raise ConditionViolatedError(
                "HiGHS multipliers are not dual feasible; the LP value is not "
                "certified at this payoff range")
        slacks, size, bad = _obedience(g, a1, a0, b, mu0)
        if bad.any():
            j = int(bad.argmax())
            raise ConditionViolatedError(
                f"highs solution violates obedience at level index {j} by "
                f"{-slacks[j]:.3g}, beyond 1e-9 of its terms "
                f"({4 * float(size[j]):.3g}); the "
                "value is not trustworthy at this payoff range")
        return g, value, jbar, y, t, gap, slacks

    route, iters, cert = "construction", 0, None
    g = _binding_construction(a0, b, mu0, a0_max)
    if g is not None:
        with suppress(ConditionViolatedError):
            cert = certify(g, lambda j: _exact_dual(c, a0, j, a0_max))
    # kept where its gap (cert[5]) is within 1e-9 of its value (cert[1])
    if cert is None or abs(cert[5]) > 1e-9 * max(1.0, abs(cert[1])):
        route = "highs"
        g, y, t, iters = _sparse_lp(c, a0, a1, b, mu0)
        cert = certify(g, lambda j: (y, t))
    g, value, jbar, y, t, gap, slacks = cert
    binding = (np.abs(slacks) <= 1e-7 * scale).nonzero()[0]
    carrying = g > 1e-12
    comp = float(np.abs(slacks[carrying]).max()) if carrying.any() else 0.0
    return BadNewsLPResult(BadNewsProcess(grid, g, mu0), value, iters, route,
                           float(gap), jbar, float(grid.points[jbar]),
                           float(-(y @ b)), comp, binding, (y, float(t)),
                           (a1, a0, p1, p0))


def _value(g: np.ndarray, mu0: float, p1: np.ndarray, c: np.ndarray) -> float:
    """mu0 V^phi(1, l_end) plus the belief-0 stop payoffs c of arrivals g."""
    return float(mu0 * p1[-1] + c @ g)


def badnews_value(bn: BadNewsProcess, agent: PayoffSpec, principal: PayoffSpec,
                  m: Mechanism) -> float:
    """Principal value of a bad-news process under the belief-0 stop rule.
    A process that does not end at the mechanism's last allowed level raises
    DomainError."""
    _, _, _, p1, _, c, _ = _lp_data(agent, principal, m, bn.grid, bn.mu0)
    if bn.end != len(p1) - 1:
        raise DomainError(f"process ends at level index {bn.end}, the "
                          f"mechanism's last allowed level is {len(p1) - 1}")
    return _value(bn.g, bn.mu0, p1, c)


@dataclass(frozen=True)
class IndifferenceResult:
    bn: BadNewsProcess
    used_lp_fallback: bool


def indifference_G(agent: PayoffSpec, m: Mechanism, grid: LevelGrid,
                   mu0: float, principal: PayoffSpec) -> IndifferenceResult:
    """Construct the bad-news process with binding obedience on [L_low, l_max).

    Where rows j and j+1 bind, the mass still to arrive above level j is a
    marginal ratio of the agent's payoff steps; the level just above the
    highest row where it reaches 1-mu0 is L_low.  Falls back to the LP when
    an increment goes negative or a row breaks obedience by more than 1e-9
    of its terms; the construction itself is not certified optimal.
    """
    if not (is_real(mu0) and 0.0 < mu0 < 1.0):
        raise DomainError("construction needs an interior prior")
    _, a1, a0, _, _, _, b = _lp_data(agent, principal, m, grid, mu0)
    g = _binding_construction(a0, b, mu0, float(np.abs(a0).max()))
    fallback = g is None or _obedience(g, a1, a0, b, mu0)[2].any()
    bn = (solve_badnews_lp(agent, principal, m, grid, mu0).bn if fallback
          else BadNewsProcess(grid, g, mu0))
    return IndifferenceResult(bn, fallback)


def dual_certificate(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
                     grid: LevelGrid, mu0: float) -> BadNewsLPResult:
    """solve_badnews_lp under its older name, which the rqbench workloads
    call; the result carries the certificate."""
    return solve_badnews_lp(agent, principal, m, grid, mu0)


@dataclass(frozen=True)
class OracleResult:
    value: float
    #: rows (level, belief, mass) of the worst process's stopping
    #: distribution, summed per (level, belief)
    stop_mass: tuple
    n_lps: int                  # LPs solved: always 1

    def pre_terminal_offzero_mass(self, l_end: float) -> float:
        return sum(m for (l, b, m) in self.stop_mass
                   if l < l_end - 1e-12 and b > 1e-9)


def tree_oracle_worst_case(agent: PayoffSpec, principal: PayoffSpec, m: Mechanism,
                           small_grid: LevelGrid, belief_support: Sequence[float],
                           mu0: float) -> OracleResult:
    """Worst case over layered belief trees on a fixed support.

    One LP over the stop mass s(h) of every history h = (b_0, ..., b_j): the
    adversary's signals are stop/continue recommendations, so the mass that
    continues at h is the sum of the stops strictly below it.  s(h) is a
    variable where stopping at (j, b_j) beats freezing the belief and
    developing to any later level, and at the last allowed level.  Rows:
    total mass 1 with prior mean mu0, a martingale and an obedience row per
    continuing history, and participation.  The LP covers history-dependent
    and randomised stopping, so every per-(level, belief) stop/continue
    pattern is a restriction of it.

    Histories that move off belief 0 or 1 once they reach it get neither a
    variable nor a row.  At a continuing history h with belief 0 the
    martingale row reads sum_k s_k b_next(k) = 0 over the stops k below h,
    where b_next(k) is k's belief one level after h; with s >= 0 and
    distinct support points it forces s_k = 0 wherever b_next(k) > 0 (a
    forcing row: Andersen & Andersen, Presolving in linear programming,
    Math. Prog. 71, 1995), and at belief 1 the same holds with the sign
    flipped.  Applied level by level, this zeroes every stop below a move off
    0 or 1, and a dropped continuing history has only dropped stops below it,
    so its rows are empty.  The feasible set is unchanged but for
    coordinates forced to zero, and so is the optimum.

    Above 4 levels or 5 beliefs the instance is refused; an empty support,
    or a support or prior that is not finite or not in [0, 1], raises
    DomainError.  An LP past float64 for the simplex, an "unbounded" one
    included (the mass rows bound it), raises ConditionViolatedError.
    """
    B = np.asarray(sorted(set(float(b) for b in belief_support)))
    if not len(B):
        raise DomainError("belief support is empty")
    if not ((B >= 0) & (B <= 1)).all():
        raise DomainError("belief support must be finite and lie in [0, 1]")
    if not (is_real(mu0) and 0.0 <= mu0 <= 1.0):
        raise DomainError(f"prior {mu0!r} does not lie in [0, 1]")
    if small_grid.n > 4 or len(B) > 5:
        raise BudgetExceededError(
            f"instance too large: {small_grid.n} levels, {len(B)} beliefs")
    a1, a0 = adjusted_profiles(agent, m, "agent", small_grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", small_grid)
    end, nb = len(a1) - 1, len(B)

    U = a1[:, None] * B + a0[:, None] * (1 - B)  # (level, belief)
    V = p1[:, None] * B + p0[:, None] * (1 - B)
    outside = float(agent.indirect(mu0, 0.0))
    scale = max(1.0, float(np.abs(U).max()))

    # stopping at (j, b) is only consistent with optimal play when it beats
    # freezing the belief and developing to any later level; at the end it
    # is forced
    later = np.maximum.accumulate(U[:0:-1], axis=0)[::-1]  # max of U[j + 1:]
    stop_ok = np.concatenate((U[:-1] >= later - 1e-12 * scale, [[True] * nb]))

    # history (b_0, ..., b_L) has code sum_i b_i nb^(L-i); its ancestor at
    # level i <= L has code anc[., i] = code // nb^(L-i), last digit b_i
    level = np.arange(end + 1).repeat(nb ** np.arange(1, end + 2))
    code = np.concatenate([np.arange(nb ** (j + 1)) for j in range(end + 1)])
    up = level[:, None] - np.arange(end + 1)
    anc = code[:, None] // (nb ** np.arange(end + 1))[np.maximum(up, 0)]
    digit = anc % nb
    # a history that moves off belief 0 or 1 once there has its mass forced
    # to zero (see above) and gets no variable or row
    leaves = ((up[:, :-1] > 0) & ((B == 0) | (B == 1))[digit[:, :-1]]
              & (digit[:, 1:] != digit[:, :-1]))
    live = ~leaves.any(axis=1)
    cols = stop_ok[level, code % nb] & live
    L, q = level[cols], code[cols]
    u, v = U[L, q % nb], V[L, q % nb]
    cont = (level < end) & live
    j, p = level[cont], code[cont]
    # (continuing h, stop k): k is below h when its ancestor at h's level is h
    below = (L > j[:, None]) & (anc[cols].T[j] == p[:, None])
    b_next = B[digit[cols].T[j + 1]]
    mart = np.where(below, b_next - B[p % nb, None], 0.0)
    obey = np.where(below, U[j, p % nb, None] - u, 0.0)  # <= 0: continuing pays

    A_eq = np.concatenate(([[1.0] * len(q), B[anc[cols, 0]]], mart))
    b_eq = np.concatenate(([1.0, mu0], np.zeros(len(p))))
    A_ub = np.concatenate((obey, -u[None]))
    b_ub = np.concatenate((np.zeros(len(p)), [-outside]))
    try:
        res = solve_lp(v, A_ub, b_ub, A_eq, b_eq)
    except UnboundedLPError:        # s >= 0 with total mass 1 bounds it
        raise ConditionViolatedError(
            "the oracle LP is bounded by its mass rows, but the simplex "
            "found it unbounded") from None

    mass = np.zeros((end + 1, nb))
    np.add.at(mass, (L, q % nb), res.x)
    rows = tuple((float(small_grid.points[lj]), float(B[bi]), float(mass[lj, bi]))
                 for lj, bi in zip(*(mass > 1e-12).nonzero()))
    return OracleResult(res.fun, rows, 1)
