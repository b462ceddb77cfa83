"""Dense two-phase tableau simplex for the small LPs in this package.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0;  input that
is not finite raises DomainError.  A point that breaks a given row by more
than 1e-9 of max(|A_i| |x| + |b_i|, 1), or a ratio test that finds no
leaving row, raises ConditionViolatedError: the data spans more than
float64 resolves.

Pivoting uses Dantzig's rule for speed with Bland's anti-cycling rule engaged
after a streak of degenerate pivots, which guarantees termination in exact
arithmetic; a phase that runs past max_iter pivots raises IterationLimitError.
max_iter is 20 times the tableau's rows plus columns: the most any LP of the
tests, the acceptance battery or the benchmark needs is 1.6 times (585
pivots on 122 rows and 243 columns, the dense bad-news LP at 121 levels that
the tests solve as a reference; no tree oracle LP needs more than 0.52
times), so a run past the limit has stalled and fails in seconds, not
minutes.  Under Dantzig's rule the ratio test is Harris's two-pass test: a
basic variable may go below zero by at most the feasibility tolerance, so
that the largest pivot among nearly tied rows can be taken, since a tiny
pivot at a degenerate vertex blows the tableau up.  Column entries below
1e-9 of the column's largest are treated as zero in both rules.

Artificial columns are not stored (max_iter counts them): never eligible,
each entry updated on its own, no rule reads them, and the basis marks the
rows they hold.  Basic columns stay exact unit vectors, so phase 2 subtracts
each costed basic row times its cost from c in row order.  A pivot updates
only the rows with a nonzero entry in its column.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConditionViolatedError, DomainError, InfeasibleLPError,
                     IterationLimitError, UnboundedLPError)


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    n_iter: int


_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-11
_REL_PIVOT_TOL = 1e-9
_DEGEN_STREAK = 12
_PIVOTS_PER_SIZE = 20
_RESIDUAL_TOL = 1e-9


def _pivot(T, basis, row, col):
    pivot = T[row]
    pivot /= pivot[col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    rows = colvals.nonzero()[0]
    T[rows] -= colvals[rows, None] * pivot
    # re-orthogonalize the pivot column exactly
    T[:, col] = 0.0
    pivot[col] = 1.0
    basis[row] = col


def _run(T, basis, n_cols_active, max_iter):
    """Drive the tableau to optimality.  Objective row is T[-1], right-hand
    side T[:, -1]; active (eligible) columns are 0..n_cols_active-1.  A
    largest or smallest entry is read at its argmax or argmin, which costs
    a fraction of a ufunc reduction on arrays this small."""
    n_iter = degen = 0
    m = T.shape[0] - 1
    red, rhs, ratios = T[-1, :n_cols_active], T[:m, -1], np.empty(m)
    while True:
        if degen < _DEGEN_STREAK:
            col = red.argmin()
            if red[col] >= -_PIVOT_TOL:
                return n_iter
        else:
            # Bland: first improving column
            neg = (red < -_PIVOT_TOL).nonzero()[0]
            if neg.size == 0:
                return n_iter
            col = neg[0]
        colvec = T[:m, col]
        # entries far below the column's largest are rounding noise
        size = np.abs(colvec)
        pos = colvec > max(_PIVOT_TOL, _REL_PIVOT_TOL * size[size.argmax()])
        at = pos.nonzero()[0]
        if not at.size:
            raise UnboundedLPError("objective unbounded below")
        if degen < _DEGEN_STREAK:
            # Harris: the largest pivot among rows whose step stays within
            # the feasibility tolerance of the shortest one, on the rows
            # `at` where the column is positive
            piv, lim = colvec[at], rhs[at]
            steps = (lim + _FEAS_TOL) / piv
            theta = steps[steps.argmin()]
            cand = (lim <= theta * piv).nonzero()[0]
            if not cand.size:       # theta * colvec rounded below rhs
                raise ConditionViolatedError(
                    "Harris ratio test found no leaving row")
            row = at[cand[piv[cand].argmax()]]
        else:
            ratios.fill(np.inf)
            np.divide(rhs, colvec, out=ratios, where=pos)
            cand = (ratios <= ratios[ratios.argmin()] + 1e-15).nonzero()[0]
            # Bland tie-break: leave the smallest basis index
            row = cand[basis[cand].argmin()]
        # a step never goes backwards: a row below zero within the
        # tolerance leaves at zero
        lead = rhs[row] = max(rhs[row], 0.0)
        degen = degen + 1 if lead / colvec[row] <= _FEAS_TOL else 0
        _pivot(T, basis, row, col)
        n_iter += 1
        if n_iter > max_iter:
            raise IterationLimitError(
                f"simplex iteration limit {max_iter} exceeded")


def _block(A, b, n):
    """Constraint rows A and bounds b as float arrays, (0, n) and (0,)
    where there are none."""
    if A is None or not len(A):
        return np.zeros((0, n)), np.zeros(0)
    A = np.array(A, dtype=float, ndmin=2)
    b = np.array(b, dtype=float, ndmin=1)
    if len(b) != len(A):
        raise ValueError(f"{len(A)} constraint rows but {len(b)} bounds")
    return A, b


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub, b_ub = _block(A_ub, b_ub, n)
    A_eq, b_eq = _block(A_eq, b_eq, n)
    n_slack, m = len(b_ub), len(b_ub) + len(b_eq)
    if m == 0:
        raise InfeasibleLPError("no constraints")

    # tableau: [A | slack | b], last row = phase objective.  Rows with b < 0
    # are negated, so the slack coefficient is -1 on negated <= rows (they
    # became >=); those and the equality rows need an artificial
    A, b = np.concatenate((A_ub, A_eq)), np.concatenate((b_ub, b_eq))
    width = n + n_slack + 1
    T = np.zeros((m + 1, width))
    T[:m, :n], T[:m, -1], T[-1, :n] = A, b, c
    finite = np.isfinite(T).reshape(-1)
    if not finite[finite.argmin()]:
        raise DomainError("LP data must be finite")
    art = T[:m, -1] < 0
    sign = np.where(art, -1.0, 1.0)
    T[:m, :n] *= sign[:, None]
    T[:m, -1] *= sign
    # the slack diagonal, T[i, n + i], as a strided view of the flat tableau
    T.reshape(-1)[n:n + n_slack * (width + 1):width + 1] = sign[:n_slack]
    art[n_slack:] = True
    art_rows = art.nonzero()[0]
    n_art, n_active = art_rows.size, n + n_slack

    # starting basis: plain slack where possible, artificial otherwise
    basis = np.arange(n, n + m)
    basis[art_rows] = np.arange(n_active, n_active + n_art)
    max_iter = _PIVOTS_PER_SIZE * (m + n_active + n_art)

    total_iters = 0
    if n_art:
        # phase 1: minimize the sum of artificials
        np.negative(np.add.reduce(T[art_rows], axis=0), out=T[-1])
        total_iters += _run(T, basis, n_active, max_iter)
        if T[-1, -1] < -_FEAS_TOL:
            worst = int(np.where(basis >= n_active, T[:m, -1],
                                 -np.inf).argmax())
            raise InfeasibleLPError(
                f"infeasible: residual {-T[-1, -1]:.3e}", most_binding=worst)
        # drive remaining artificials out of the basis where possible, each
        # on its row's largest entry: a tiny one blows the tableau up (a
        # pivot at row i changes only basis[i])
        for i in (basis >= n_active).nonzero()[0]:
            col = np.abs(T[i, :n_active]).argmax()
            if abs(T[i, col]) > _PIVOT_TOL:
                _pivot(T, basis, i, col)
                total_iters += 1

    # phase 2 objective: c less each basic row with nonzero cost times that
    # cost, subtracted in row order
    cost = np.zeros(n_active + n_art + 1)
    cost[:n] = c
    T[-1] = cost[:width]
    priced = cost[basis].nonzero()[0]
    T[-1] = np.subtract.reduce(np.concatenate(
        (T[-1:], cost[basis[priced], None] * T[priced])))
    total_iters += _run(T, basis, n_active, max_iter)

    x = np.zeros(n_active + n_art)
    x[basis] = T[:m, -1]
    x = x[:n]
    # each given row holds to _RESIDUAL_TOL of max(|A_i| |x| + |b_i|, 1)
    excess = A @ x - b
    excess[n_slack:] = np.abs(excess[n_slack:])
    share = excess / np.maximum(np.abs(A) @ np.abs(x) + np.abs(b), 1.0)
    worst = share.argmax()
    if share[worst] > _RESIDUAL_TOL:
        raise ConditionViolatedError(f"simplex point breaks row {worst} by "
                                     f"{share[worst]:.1e} of its size")
    return SimplexResult(x, float(c @ x), total_iters)
