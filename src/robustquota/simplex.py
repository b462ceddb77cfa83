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
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    rows = colvals.nonzero()[0]
    T[rows] -= colvals[rows, None] * T[row]
    # re-orthogonalize the pivot column exactly
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T, basis, n_cols_active, max_iter):
    """Drive the tableau to optimality.  Objective row is T[-1], right-hand
    side T[:, -1]; active (eligible) columns are 0..n_cols_active-1."""
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
        pos = colvec > max(_PIVOT_TOL,
                           _REL_PIVOT_TOL * np.maximum.reduce(np.abs(colvec)))
        if not np.logical_or.reduce(pos):
            raise UnboundedLPError("objective unbounded below")
        ratios.fill(np.inf)
        if degen < _DEGEN_STREAK:
            # Harris: the largest pivot among rows whose step stays within
            # the feasibility tolerance of the shortest one
            np.divide(rhs + _FEAS_TOL, colvec, out=ratios, where=pos)
            theta = np.minimum.reduce(ratios)
            cand = (pos & (rhs <= theta * colvec)).nonzero()[0]
            if not cand.size:       # theta * colvec rounded below rhs
                raise ConditionViolatedError(
                    "Harris ratio test found no leaving row")
            row = cand[colvec[cand].argmax()]
        else:
            np.divide(rhs, colvec, out=ratios, where=pos)
            cand = (ratios <= np.minimum.reduce(ratios) + 1e-15).nonzero()[0]
            # Bland tie-break: leave the smallest basis index
            row = cand[basis[cand].argmin()]
        # a step never goes backwards: a row below zero within the
        # tolerance leaves at zero
        T[row, -1] = max(T[row, -1], 0.0)
        degen = degen + 1 if T[row, -1] / colvec[row] <= _FEAS_TOL else 0
        _pivot(T, basis, row, col)
        n_iter += 1
        if n_iter > max_iter:
            raise IterationLimitError(
                f"simplex iteration limit {max_iter} exceeded")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size

    def block(A, b):
        if A is None or not len(A):
            return np.zeros((0, n)), np.zeros(0)
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if len(b) != len(A):
            raise ValueError(f"{len(A)} constraint rows but {len(b)} bounds")
        return A, b

    A_ub, b_ub = block(A_ub, b_ub)
    A_eq, b_eq = block(A_eq, b_eq)
    n_slack, m = len(b_ub), len(b_ub) + len(b_eq)
    if m == 0:
        raise InfeasibleLPError("no constraints")

    # tableau: [A | slack | b], last row = phase objective.  Rows with b < 0
    # are negated, so the slack coefficient is -1 on negated <= rows (they
    # became >=); those and the equality rows need an artificial
    A, b = np.concatenate((A_ub, A_eq)), np.concatenate((b_ub, b_eq))
    T = np.zeros((m + 1, n + n_slack + 1))
    T[:m, :n], T[:m, -1], T[-1, :n] = A, b, c
    if not np.logical_and.reduce(np.isfinite(T), axis=None):
        raise DomainError("LP data must be finite")
    sign = np.where(T[:m, -1] < 0, -1.0, 1.0)
    T[:m, :n] *= sign[:, None]
    T[:m, -1] *= sign
    T[np.arange(n_slack), n + np.arange(n_slack)] = sign[:n_slack]
    art_rows = ((sign < 0) | (np.arange(m) >= n_slack)).nonzero()[0]
    n_art, n_active = art_rows.size, n + n_slack

    # starting basis: plain slack where possible, artificial otherwise
    basis = n + np.arange(m)
    basis[art_rows] = n_active + np.arange(n_art)
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
    cost = np.concatenate((c, np.zeros(n_slack + n_art + 1)))
    T[-1] = cost[:n_active + 1]
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
