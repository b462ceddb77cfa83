"""Worst-case learning: the bad-news LP with its dual certificate, the
binding-obedience construction, the tree oracle (one obedience LP over the
histories of a small belief tree), and payoff gaps."""

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .badnews import BadNewsProcess, obedience_slacks
from .checks import one_shot_intervals
from .errors import (BudgetExceededError, ConditionViolatedError, DomainError,
                     InfeasibleLPError)
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
    _, _, lu, lv = one_shot_intervals(agent, principal, m, grid)
    end_level = grid.points[len(m.tax_profile(grid)) - 1]
    interior = (lu > 1e-12) & (lu < end_level - 1e-12)
    return bool(np.all(lv <= lu + 1e-12)
                and np.all(lv[interior] < lu[interior] - 1e-15))


def stop_rule_at_zero(a0: np.ndarray) -> np.ndarray:
    """stop_idx[j] = largest argmax of U^phi(0, .) over levels >= j: the last
    index of the run of equal suffix maxima that j lies in."""
    top = np.maximum.accumulate(a0[::-1])[::-1]
    ends = np.flatnonzero(np.append(top[:-1] != top[1:], True))
    return ends[np.searchsorted(ends, np.arange(len(a0)))]


@dataclass(frozen=True)
class BadNewsLPResult:
    """The worst bad-news process, its value and the weak-duality evidence
    for that value."""
    bn: BadNewsProcess
    value: float
    premise_ok: bool            # False => bound valid within the bad-news class only
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
    """The last allowed level, the profiles through it, the belief-0 stop
    payoffs c and the obedience right-hand sides
    b = mu0 (U^phi(1,l_end) - U^phi(1,l))."""
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    c = p0[stop_rule_at_zero(a0)]
    b = mu0 * (a1[-1] - a1)
    return len(a1) - 1, a1, a0, p1, p0, c, b


def _binding_construction(a0: np.ndarray, b: np.ndarray,
                          mu0: float) -> Optional[np.ndarray]:
    """Arrival increments with obedience binding from the top level down.

    The row at level j pins the increment at level j+1; mass accumulates
    going down until it reaches 1-mu0 (the support start L_low), else the
    rest lands on level 0.  None when a payoff step is flat or an increment
    would go negative.
    """
    a0l, bl = a0.tolist(), b.tolist()
    scale = max(1.0, float(np.abs(a0).max()))
    target = 1.0 - mu0
    g = np.zeros(len(a0l))
    A = 0.0   # mass strictly above the current row
    C = 0.0   # payoff-weighted mass strictly above
    for j in range(len(a0l) - 2, -1, -1):
        denom = a0l[j] - a0l[j + 1]
        if denom <= 1e-15 * scale:
            return None
        gnext = (bl[j] - a0l[j] * A + C) / denom
        if gnext < -1e-9 * scale:
            return None
        gnext = max(gnext, 0.0)
        if A + gnext >= target:
            g[j + 1] = target - A
            return g
        g[j + 1] = gnext
        A += gnext
        C += a0l[j + 1] * gnext
    g[0] = target - A
    return g


def _obedient_construction(a1: np.ndarray, a0: np.ndarray, b: np.ndarray,
                           mu0: float) -> Optional[np.ndarray]:
    """The binding-obedience increments, or None where the construction
    fails or breaks obedience by more than 1e-8 of the payoff scale."""
    g = _binding_construction(a0, b, mu0)
    scale = max(1.0, float(np.abs(a0).max()), float(np.abs(a1).max()))
    if g is not None and obedience_slacks(g, a1, a0, mu0).min() >= -1e-8 * scale:
        return g
    return None


def _support_start(g: np.ndarray) -> int:
    """First level carrying arrival mass (the last level when none does)."""
    pos = np.nonzero(g > 1e-15)[0]
    return int(pos[0]) if pos.size else len(g) - 1


def _exact_dual(c: np.ndarray, a0: np.ndarray,
                jbar: int) -> Tuple[np.ndarray, float]:
    """Multipliers (y, t) of the obedience rows and the mass row that are
    complementary to a process whose support starts at jbar and whose rows
    jbar..end bind.

    With the mass-row multiplier t = c[jbar] and y = 0 below jbar, the
    reduced cost r_k = c_k - t + sum_{j<=k} y_j (a0_j - a0_k) vanishes on
    every level k > jbar exactly when y_{k-1} solves it, so the multipliers
    follow by forward substitution with running sums of y and y a0.
    """
    cl, a0l = c.tolist(), a0.tolist()
    y = np.zeros(len(a0l))
    t = cl[jbar]
    S = 0.0   # sum of y so far
    W = 0.0   # sum of y a0 so far
    for k in range(jbar + 1, len(a0l)):
        yk = (a0l[k] * S - W - cl[k] + t) / (a0l[k - 1] - a0l[k])
        y[k - 1] = yk
        S += yk
        W += yk * a0l[k - 1]
    return y, t


def _certified_gap(value: float, y: np.ndarray, t: float, c: np.ndarray,
                   a0: np.ndarray, b: np.ndarray, mu0: float,
                   p1_end: float) -> Optional[float]:
    """Primal value minus the dual objective of multipliers (y, t) of the
    obedience rows and the mass row, or None unless they are dual feasible:
    y >= 0 and every reduced cost r_k = c_k - t + sum_{j<=k} y_j (a0_j - a0_k)
    >= 0, each to 1e-9 of the size of the terms it is computed from (payoffs
    that span e^48 leave rounding noise far above any absolute tolerance)."""
    ya0 = y * a0
    r = c - t + np.cumsum(ya0) - a0 * np.cumsum(y)
    size = (np.abs(c) + abs(t) + np.cumsum(np.abs(ya0))
            + np.abs(a0) * np.cumsum(np.abs(y)))
    if y.min() < -1e-9 * np.abs(y).max() or np.any(r < -1e-9 * size):
        return None
    return value - float(mu0 * p1_end + (1.0 - mu0) * t - y @ b)


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

    Certify-first and O(n): the process with binding obedience is built,
    checked obedient, and proved optimal with the complementary-slackness
    dual (dual feasible, relative gap <= 1e-9).  Where that proof fails the
    LP is solved in sparse cumulative form with HiGHS.  Every result is
    certified: a solution that breaks an obedience row by more than 1e-9 of
    the row's terms, or a HiGHS solution whose multipliers are not dual
    feasible, raises ConditionViolatedError.  The result carries that
    certificate.
    """
    if not 0.0 < mu0 < 1.0:
        raise DomainError("worst-case search needs an interior prior")
    _, a1, a0, p1, _, c, b = _lp_data(agent, principal, m, grid, mu0)
    premise_ok = principal_prefers_earlier(agent, principal, m, grid)
    scale = max(1.0, float(np.abs(a0).max()), float(np.abs(a1).max()))

    def finish(g):
        g = np.clip(g, 0.0, None)
        total = g.sum()
        if total > 0:
            g *= (1.0 - mu0) / total
        return g, _value(g, mu0, p1, c)

    route, iters, gap = "construction", 0, None
    g = _obedient_construction(a1, a0, b, mu0)
    if g is not None:
        g, value = finish(g)
        y, t = _exact_dual(c, a0, _support_start(g))
        gap = _certified_gap(value, y, t, c, a0, b, mu0, p1[-1])
    if gap is None or abs(gap) > 1e-9 * max(1.0, abs(value)):
        route = "highs"
        g, y, t, iters = _sparse_lp(c, a0, a1, b, mu0)
        g, value = finish(g)
        gap = _certified_gap(value, y, t, c, a0, b, mu0, p1[-1])
        if gap is None:
            raise ConditionViolatedError(
                "HiGHS multipliers are not dual feasible; the LP value is not "
                "certified at this payoff range")

    slacks = obedience_slacks(g, a1, a0, mu0)
    # each row to 1e-9 of the size of its terms, as in _certified_gap
    size = (np.abs(b) + np.cumsum((np.abs(a0) * g)[::-1])[::-1]
            + np.abs(a0) * np.cumsum(g[::-1])[::-1])
    bad = slacks < -1e-9 * size
    if bad.any():
        j = int(np.argmax(bad))
        raise ConditionViolatedError(
            f"{route} solution violates obedience at level index {j} by "
            f"{-slacks[j]:.3g}, beyond 1e-9 of its terms ({size[j]:.3g}); the "
            "value is not trustworthy at this payoff range")
    binding = np.nonzero(np.abs(slacks) <= 1e-7 * scale)[0]
    carrying = g > 1e-12
    comp = float(np.abs(slacks[carrying]).max()) if carrying.any() else 0.0
    jbar = _support_start(g)
    return BadNewsLPResult(BadNewsProcess(grid, g, mu0), value, premise_ok,
                           iters, route, float(gap), jbar,
                           float(grid.points[jbar]), float(-(y @ b)), comp,
                           binding, (y, float(t)))


def _value(g: np.ndarray, mu0: float, p1: np.ndarray, c: np.ndarray) -> float:
    """mu0 V^phi(1, l_end) plus the belief-0 stop payoffs c of arrivals g."""
    return float(mu0 * p1[-1] + c @ g)


def badnews_value(bn: BadNewsProcess, agent: PayoffSpec, principal: PayoffSpec,
                  m: Mechanism) -> float:
    """Principal value of a bad-news process under the belief-0 stop rule.
    A process that does not end at the mechanism's last allowed level raises
    DomainError."""
    end, _, _, p1, _, c, _ = _lp_data(agent, principal, m, bn.grid, bn.mu0)
    if bn.end != end:
        raise DomainError(f"process ends at level index {bn.end}, the "
                          f"mechanism's last allowed level is {end}")
    return _value(bn.g, bn.mu0, p1, c)


@dataclass(frozen=True)
class IndifferenceResult:
    bn: BadNewsProcess
    lbar: float                 # support start L_low
    lbar_index: int
    used_lp_fallback: bool


def indifference_G(agent: PayoffSpec, m: Mechanism, grid: LevelGrid,
                   mu0: float, principal: PayoffSpec) -> IndifferenceResult:
    """Construct the bad-news process with binding obedience on [L_low, l_max).

    Solves the triangular system top-down: the row at level j pins the
    arrival increment at level j+1.  Mass accumulates going down; the level
    where it reaches 1-mu0 is L_low.  Falls back to the LP when increments go
    negative or the result is disobedient.
    """
    if not 0.0 < mu0 < 1.0:
        raise DomainError("construction needs an interior prior")
    _, a1, a0, _, _, _, b = _lp_data(agent, principal, m, grid, mu0)
    g = _obedient_construction(a1, a0, b, mu0)
    if g is None:
        bn = solve_badnews_lp(agent, principal, m, grid, mu0).bn
    else:
        bn = BadNewsProcess(grid, g, mu0)
    jbar = _support_start(bn.g)
    return IndifferenceResult(bn, float(grid.points[jbar]), jbar, g is None)


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

    Above 4 levels or 5 beliefs the instance is refused; a support or prior
    that is not finite or not in [0, 1] raises DomainError.
    """
    B = np.asarray(sorted(set(float(b) for b in belief_support)))
    if not (np.all(np.isfinite(B)) and np.all((B >= 0) & (B <= 1))):
        raise DomainError("belief support must be finite and lie in [0, 1]")
    if not 0.0 <= mu0 <= 1.0:
        raise DomainError(f"prior {mu0} does not lie in [0, 1]")
    if small_grid.n > 4 or len(B) > 5:
        raise BudgetExceededError(
            f"instance too large: {small_grid.n} levels, {len(B)} beliefs")
    a1, a0 = adjusted_profiles(agent, m, "agent", small_grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", small_grid)
    end, nb = len(a1) - 1, len(B)

    U = np.outer(a1, B) + np.outer(a0, 1 - B)  # (level, belief)
    V = np.outer(p1, B) + np.outer(p0, 1 - B)
    outside = float(agent.indirect(mu0, 0.0))
    scale = max(1.0, float(np.abs(U).max()))

    # stopping at (j, b) is only consistent with optimal play when it beats
    # freezing the belief and developing to any later level; at the end it
    # is forced
    stop_ok = np.ones((end + 1, nb), dtype=bool)
    for j in range(end):
        stop_ok[j] = U[j] >= U[j + 1:].max(axis=0) - 1e-12 * scale

    # history (b_0, ..., b_L) has code sum_i b_i nb^(L-i); the histories
    # below code p at level j are those whose code // nb^(L-j) is p
    level = np.repeat(np.arange(end + 1), nb ** np.arange(1, end + 2))
    code = np.concatenate([np.arange(nb ** (j + 1)) for j in range(end + 1)])
    # a history that moves off belief 0 or 1 once there has its mass forced
    # to zero (see above) and gets no variable or row; digit i of a level-L
    # code is code // nb^(L-i) % nb
    shift = level[:, None] - np.arange(end)
    digit = code[:, None] // nb ** np.maximum(shift, 0) % nb
    after = code[:, None] // nb ** np.maximum(shift - 1, 0) % nb
    leaves = (shift > 0) & ((B == 0) | (B == 1))[digit] & (after != digit)
    live = ~leaves.any(axis=1)
    cols = stop_ok[level, code % nb] & live
    L, q = level[cols], code[cols]
    u, v = U[L, q % nb], V[L, q % nb]
    cont = (level < end) & live
    j, p = level[cont, None], code[cont, None]
    d = L - j                                       # (continuing h, stop k)
    below = (d > 0) & (q // nb ** np.maximum(d, 0) == p)
    b_next = B[q // nb ** np.maximum(d - 1, 0) % nb]
    mart = np.where(below, b_next - B[p % nb], 0.0)
    obey = np.where(below, U[j, p % nb] - u, 0.0)   # <= 0: continuing pays

    A_eq = np.vstack([np.ones(len(q)), B[q // nb ** L], mart])
    b_eq = np.concatenate([[1.0, mu0], np.zeros(len(p))])
    A_ub = np.vstack([obey, -u])
    b_ub = np.concatenate([np.zeros(len(p)), [-outside]])
    res = solve_lp(v, A_ub, b_ub, A_eq, b_eq)

    mass = np.zeros((end + 1, nb))
    np.add.at(mass, (L, q % nb), res.x)
    rows = tuple((float(small_grid.points[lj]), float(B[bi]), float(mass[lj, bi]))
                 for lj, bi in zip(*np.nonzero(mass > 1e-12)))
    return OracleResult(res.fun, rows, 1)


@dataclass(frozen=True)
class GapResult:
    delta: float
    guarantee: float
    worst_value: float
    route: str                  # "badnews_lp" or "tree_oracle"
    premise_ok: bool


def payoff_gap(m: Mechanism, agent: PayoffSpec, principal: PayoffSpec,
               grid: LevelGrid, mu0: float) -> GapResult:
    """Delta(phi) = ADV guarantee minus the worst-case value of mechanism m.
    Without the earlier-stopping premise the tree oracle also attacks m, on 0
    and three of the LP's continuation beliefs, on at most 4 levels spanning
    [0, last allowed level] so that its agent meets the same quota."""
    from .robust import compute_robust
    guarantee = compute_robust(agent, principal, mu0, grid).guarantee
    lp = solve_badnews_lp(agent, principal, m, grid, mu0)
    if lp.premise_ok:
        return GapResult(guarantee - lp.value, guarantee, lp.value,
                         "badnews_lp", True)
    # earlier-stopping premise failed (never with one allowed level, where
    # both one-shot levels are 0): bound via the small tree oracle
    end = lp.bn.end
    small = LevelGrid(float(grid.points[end]), min(end + 1, 4))
    lam = lp.bn.cont_belief()
    idx = np.linspace(0, len(lam) - 1, 3).astype(int)
    beliefs = sorted({0.0, *(float(lam[i]) for i in idx)})
    oracle = tree_oracle_worst_case(agent, principal, m, small, beliefs, mu0)
    worst = min(lp.value, oracle.value)
    return GapResult(guarantee - worst, guarantee, worst, "tree_oracle", False)
