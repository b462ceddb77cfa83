"""Dense two-phase tableau simplex for the small LPs in this package.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Pivoting uses Dantzig's rule for speed with Bland's anti-cycling rule engaged
after a streak of degenerate pivots, which guarantees termination in exact
arithmetic; a run past max_iter pivots raises IterationLimitError.  Under
Dantzig's rule the ratio test is Harris's two-pass test: a basic variable may
go below zero by at most the feasibility tolerance, so that the largest pivot
among nearly tied rows can be taken, since a tiny pivot at a degenerate
vertex blows the tableau up.  Column entries below 1e-9 of the column's
largest are treated as zero in both rules.
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
            row = int(cand[np.argmin(np.asarray(basis)[cand])])
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
             max_iter=200000) -> SimplexResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    kinds = []  # 'ub' or 'eq'
    if A_ub is not None and len(A_ub):
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        for r, b in zip(A_ub, np.atleast_1d(b_ub)):
            rows.append(r)
            rhs.append(float(b))
            kinds.append("ub")
    if A_eq is not None and len(A_eq):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        for r, b in zip(A_eq, np.atleast_1d(b_eq)):
            rows.append(r)
            rhs.append(float(b))
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        raise InfeasibleLPError("no constraints")
    A = np.vstack(rows)
    b = np.array(rhs)

    # normalize to b >= 0
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    n_slack = sum(1 for k in kinds if k == "ub")
    # slack coefficient is -1 on flipped <= rows (they became >=)
    slack_cols = []
    art_rows = []
    S = np.zeros((m, n_slack))
    si = 0
    for i, k in enumerate(kinds):
        if k == "ub":
            S[i, si] = -1.0 if flip[i] else 1.0
            slack_cols.append(si)
            if flip[i]:
                art_rows.append(i)  # surplus rows need an artificial
            si += 1
        else:
            art_rows.append(i)

    n_art = len(art_rows)
    Art = np.zeros((m, n_art))
    for j, i in enumerate(art_rows):
        Art[i, j] = 1.0

    # tableau: [A | S | Art | b], last row = phase objective
    T = np.zeros((m + 1, n + n_slack + n_art + 1))
    T[:m, :n] = A
    T[:m, n:n + n_slack] = S
    T[:m, n + n_slack:n + n_slack + n_art] = Art
    T[:m, -1] = b

    # starting basis: plain slack where possible, artificial otherwise
    basis = [-1] * m
    si = 0
    aj = 0
    for i in range(m):
        if kinds[i] == "ub" and not flip[i]:
            basis[i] = n + si
            si += 1
        else:
            if kinds[i] == "ub":
                si += 1
            basis[i] = n + n_slack + aj
            aj += 1

    n_active = n + n_slack  # artificials are never re-entered in phase 2

    total_iters = 0
    if n_art:
        # phase 1: minimize the sum of artificials
        T[-1, :] = 0.0
        for j, i in enumerate(art_rows):
            T[-1, :] -= T[i, :]
        T[-1, n + n_slack:n + n_slack + n_art] = 0.0
        total_iters += _run(T, basis, n_active, max_iter)
        if T[-1, -1] < -_FEAS_TOL:
            worst = int(np.argmax([T[i, -1] if basis[i] >= n + n_slack else -np.inf
                                   for i in range(m)]))
            raise InfeasibleLPError(
                f"infeasible: residual {-T[-1, -1]:.3e}", most_binding=worst)
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n + n_slack:
                row = T[i, :n_active]
                cand = np.nonzero(np.abs(row) > _PIVOT_TOL)[0]
                if cand.size:
                    _pivot(T, basis, i, int(cand[0]))
                    total_iters += 1

    # phase 2 objective
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if basis[i] < n_active and abs(T[-1, basis[i]]) > 0:
            T[-1, :] -= T[-1, basis[i]] * T[i, :]
    total_iters += _run(T, basis, n_active, max_iter)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i, -1]
    return SimplexResult(x, float(c @ x), total_iters)
