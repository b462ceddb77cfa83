"""The dense two-phase tableau simplex as the package ran it before phase 2
dropped the artificial columns: every pivot updates the whole tableau,
phase 2 keeps the artificial columns, and its objective is priced row by
row; the phase-1 drive-out pivots on each row's largest entry, as the
package's does.  `robustquota.simplex.solve_lp` must match it pivot for
pivot (same `x`, `fun` and `n_iter`, or the same error and `most_binding`)
on finite input."""

import numpy as np

from robustquota.errors import InfeasibleLPError, IterationLimitError, UnboundedLPError
from robustquota.simplex import SimplexResult

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
        # drive remaining artificials out of the basis where possible, each
        # on its row's largest entry (a pivot at row i changes only basis[i])
        for i in np.flatnonzero(basis >= n + n_slack):
            col = int(np.argmax(np.abs(T[i, :n_active])))
            if abs(T[i, col]) > _PIVOT_TOL:
                _pivot(T, basis, i, col)
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
