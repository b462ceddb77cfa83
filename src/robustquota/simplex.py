"""Dense two-phase tableau simplex for the small LPs in this package.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Pivoting uses Dantzig's rule for speed with Bland's anti-cycling rule engaged
after a streak of degenerate pivots, which guarantees termination in exact
arithmetic; a phase that runs past max_iter pivots raises IterationLimitError.
By default max_iter is 20 times the tableau's rows plus columns: the most any
LP of the tests, the acceptance battery or the benchmark needs is 1.6 times
(585 pivots on 122 rows and 243 columns, the dense bad-news LP at 121
levels; no tree oracle LP needs more than 0.52 times), so a run past the
limit has stalled and fails in seconds, not minutes.  Under Dantzig's rule
the ratio test is Harris's two-pass test: a basic variable may go below zero
by at most the feasibility tolerance, so that the largest pivot among nearly
tied rows can be taken, since a tiny pivot at a degenerate vertex blows the
tableau up.  Column entries below 1e-9 of the column's largest are treated
as zero in both rules.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLPError, IterationLimitError, UnboundedLPError


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


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    # re-orthogonalize the pivot column exactly
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T, basis, n_cols_active, max_iter):
    """Drive the tableau to optimality.  Objective row is T[-1]; active
    (eligible) columns are 0..n_cols_active-1."""
    n_iter = 0
    degen = 0
    m = T.shape[0] - 1
    while True:
        red = T[-1, :n_cols_active]
        if degen < _DEGEN_STREAK:
            col = int(np.argmin(red))
            if red[col] >= -_PIVOT_TOL:
                return n_iter
        else:
            # Bland: first improving column
            neg = np.nonzero(red < -_PIVOT_TOL)[0]
            if neg.size == 0:
                return n_iter
            col = int(neg[0])
        colvec = T[:m, col]
        # entries far below the column's largest are rounding noise
        pos = colvec > max(_PIVOT_TOL, _REL_PIVOT_TOL * np.abs(colvec).max())
        if not pos.any():
            raise UnboundedLPError("objective unbounded below")
        rhs = T[:m, -1]
        if degen < _DEGEN_STREAK:
            # Harris: the largest pivot among rows whose step stays within
            # the feasibility tolerance of the shortest one
            theta = np.min((rhs[pos] + _FEAS_TOL) / colvec[pos])
            cand = np.nonzero(pos & (rhs <= theta * colvec))[0]
            row = int(cand[np.argmax(colvec[cand])])
        else:
            ratios = np.full(m, np.inf)
            ratios[pos] = rhs[pos] / colvec[pos]
            cand = np.nonzero(ratios <= ratios.min() + 1e-15)[0]
            # Bland tie-break: leave the smallest basis index
            row = int(cand[np.argmin(basis[cand])])
        # a step never goes backwards: a row below zero within the
        # tolerance leaves at zero
        T[row, -1] = max(T[row, -1], 0.0)
        degen = degen + 1 if T[row, -1] / colvec[row] <= _FEAS_TOL else 0
        _pivot(T, basis, row, col)
        n_iter += 1
        if n_iter > max_iter:
            raise IterationLimitError(
                f"simplex iteration limit {max_iter} exceeded")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             max_iter=None) -> SimplexResult:
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
    A = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    m, n_slack = len(b), len(b_ub)
    if m == 0:
        raise InfeasibleLPError("no constraints")

    # normalize to b >= 0
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    # surplus rows (flipped <= rows) and equality rows need an artificial
    needs_art = flip | (np.arange(m) >= n_slack)
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.size

    # tableau: [A | slack | artificial | b], last row = phase objective;
    # the slack coefficient is -1 on flipped <= rows (they became >=)
    T = np.zeros((m + 1, n + n_slack + n_art + 1))
    T[:m, :n] = A
    T[np.arange(n_slack), n + np.arange(n_slack)] = np.where(flip[:n_slack],
                                                            -1.0, 1.0)
    T[art_rows, n + n_slack + np.arange(n_art)] = 1.0
    T[:m, -1] = b

    # starting basis: plain slack where possible, artificial otherwise
    basis = np.where(needs_art, n + n_slack + np.cumsum(needs_art) - 1,
                     n + np.arange(m))

    n_active = n + n_slack  # artificials are never re-entered in phase 2
    if max_iter is None:
        max_iter = _PIVOTS_PER_SIZE * (m + n_active + n_art)

    total_iters = 0
    if n_art:
        # phase 1: minimize the sum of artificials
        T[-1] = -T[art_rows].sum(axis=0)
        T[-1, n + n_slack:n + n_slack + n_art] = 0.0
        total_iters += _run(T, basis, n_active, max_iter)
        if T[-1, -1] < -_FEAS_TOL:
            worst = int(np.argmax(np.where(basis >= n + n_slack, T[:m, -1],
                                           -np.inf)))
            raise InfeasibleLPError(
                f"infeasible: residual {-T[-1, -1]:.3e}", most_binding=worst)
        # drive remaining artificials out of the basis where possible
        # (a pivot at row i changes only basis[i])
        for i in np.flatnonzero(basis >= n + n_slack):
            cand = np.flatnonzero(np.abs(T[i, :n_active]) > _PIVOT_TOL)
            if cand.size:
                _pivot(T, basis, i, cand[0])
                total_iters += 1

    # phase 2 objective
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in np.flatnonzero(basis < n_active):
        if abs(T[-1, basis[i]]) > 0:
            T[-1, :] -= T[-1, basis[i]] * T[i, :]
    total_iters += _run(T, basis, n_active, max_iter)

    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = T[:m, -1][real]
    return SimplexResult(x, float(c @ x), total_iters)
