"""Discrete learning processes: belief martingales on the level grid.

A process is a layered DAG: one finite belief support per grid level, a
row-stochastic kernel between consecutive levels, and a root distribution
over the level-0 support whose mean is the prior.  Kernels are stored
sparse (`CSRKernel`): a binomial row has 2 nonzeros and a refined row at
most 4, so building, checking and applying a tree's kernels is O(nnz).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .grid import LevelGrid

#: entries handled by one array pass over a run of levels: few numpy calls
#: per run, and temporaries of a few MB however large the tree
CHUNK = 1 << 16


class CSRKernel:
    """Transition kernel between consecutive levels in compressed sparse row
    form: row i holds data[indptr[i]:indptr[i+1]] in columns
    indices[indptr[i]:indptr[i+1]], increasing within the row.

    `K @ v` and `x @ K` take vectors and sum each row's (column's) terms in
    stored order with np.bincount.  `__array_ufunc__ = None` makes
    `ndarray @ K` defer to `__rmatmul__`; `K.toarray()` is the dense
    matrix.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_rows")
    __array_ufunc__ = None

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = None

    @classmethod
    def from_dense(cls, a) -> "CSRKernel":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise DomainError("a kernel must be a matrix")
        rows, cols = np.nonzero(a)
        indptr = np.zeros(a.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=indptr[1:])
        return cls(indptr, cols, a[rows, cols], a.shape)

    def row_ids(self) -> np.ndarray:
        """Row of each stored entry (kept from validation, or built on first
        use, then kept)."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._rows

    def __matmul__(self, v):
        v = np.asarray(v)
        if v.ndim != 1:
            return NotImplemented
        return np.bincount(self.row_ids(), weights=self.data * v[self.indices],
                           minlength=self.shape[0])

    def __rmatmul__(self, x):
        x = np.asarray(x)
        if x.ndim != 1:
            return NotImplemented
        return np.bincount(self.indices, weights=x[self.row_ids()] * self.data,
                           minlength=self.shape[1])

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape)
        a[self.row_ids(), self.indices] = self.data
        return a


def level_runs(sizes):
    """Runs [j0, j1) of consecutive levels whose sizes add up to at most
    CHUNK, or a single level that alone holds more."""
    ends = np.cumsum(sizes)
    j0 = 0
    while j0 < len(ends):
        base = ends[j0 - 1] if j0 else 0
        j1 = max(j0 + 1, int(np.searchsorted(ends, base + CHUNK, side="right")))
        yield j0, j1
        j0 = j1


def stack_kernels(kernels):
    """Consecutive kernels as one CSR block whose rows are each kernel's rows
    in turn: (indptr, indices, data), columns left local to each kernel."""
    nnz = np.array([k.data.size for k in kernels])
    rows = np.array([k.shape[0] for k in kernels])
    indptr = np.concatenate([[0], *(k.indptr[1:] for k in kernels)])
    indptr[1:] += np.repeat(np.cumsum(nnz) - nnz, rows)
    return (indptr, np.concatenate([k.indices for k in kernels]),
            np.concatenate([k.data for k in kernels]))


@dataclass(frozen=True)
class DiscreteLearningProcess:
    grid: LevelGrid
    beliefs: tuple      # per level: np.ndarray of node beliefs
    kernels: tuple      # per step: (m_j, m_{j+1}) row-stochastic CSRKernel
    root_dist: np.ndarray
    mu0: float
    #: optional per-level map from this process's nodes to the nodes of a
    #: coarser process it refines (used by the adaptive module)
    parent_map: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self):
        """Kernels may be given dense (any 2-d array) or as CSRKernel."""
        beliefs = tuple(np.asarray(b, dtype=float) for b in self.beliefs)
        kernels = tuple(k if isinstance(k, CSRKernel) else CSRKernel.from_dense(k)
                        for k in self.kernels)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "root_dist", np.asarray(self.root_dist, dtype=float))
        self._validate()

    def _validate(self):
        n = self.grid.n
        if len(self.beliefs) != n or len(self.kernels) != n - 1:
            raise DomainError("process must have one support per level and one "
                              "kernel per step")
        if not 0.0 <= self.mu0 <= 1.0:
            raise DomainError(f"prior {self.mu0} outside [0, 1]")
        if any(b.ndim != 1 for b in self.beliefs):
            raise DomainError("node beliefs must lie in [0, 1]")
        flat = np.concatenate(self.beliefs)
        if not np.all((flat >= -1e-12) & (flat <= 1 + 1e-12)):
            raise DomainError("node beliefs must lie in [0, 1]")
        if self.root_dist.shape != self.beliefs[0].shape:
            raise DomainError("root distribution must match the level-0 support")
        if np.any(self.root_dist < -1e-12) or abs(self.root_dist.sum() - 1.0) > 1e-12:
            raise DomainError("root distribution must be a probability vector")
        root_mean = float(self.root_dist @ self.beliefs[0])
        if abs(root_mean - self.mu0) > 1e-10:
            raise DomainError(f"root mean belief {root_mean} != prior {self.mu0}")
        sizes = [len(b) for b in self.beliefs]
        for j, k in enumerate(self.kernels):
            if k.shape != (sizes[j], sizes[j + 1]) \
                    or k.indptr.shape != (sizes[j] + 1,) or k.indptr[0] != 0 \
                    or k.indptr[-1] != k.data.size \
                    or k.indices.shape != k.data.shape:
                raise DomainError(f"kernel {j} has wrong shape")
        for j0, j1 in level_runs([k.data.size for k in self.kernels]):
            self._validate_run(j0, j1, sizes)
        if self.parent_map is not None and len(self.parent_map) != n:
            raise DomainError("parent_map must have one entry per level")

    def _validate_run(self, j0, j1, sizes):
        """Sign, row sums, column order and martingale drift of kernels
        j0..j1-1, checked on their stacked block, whose rows are the nodes of
        levels j0..j1-1 in turn."""
        indptr, cols, data = stack_kernels(self.kernels[j0:j1])
        beliefs = np.concatenate(self.beliefs[j0:j1 + 1])
        row_ends = np.cumsum(sizes[j0:j1])
        nnz = [k.data.size for k in self.kernels[j0:j1]]
        nnz_ends = np.cumsum(nnz)
        n_rows = int(row_ends[-1])

        def level(bad, ends):
            """Level of the first flagged row or entry."""
            return j0 + int(np.searchsorted(ends, np.argmax(bad), side="right"))

        deg = np.diff(indptr)
        if np.any(deg < 0):
            raise DomainError(f"kernel {level(deg < 0, row_ends)} has wrong shape")
        rows = np.repeat(np.arange(n_rows), deg)
        bad = (cols < 0) | (cols >= np.repeat(sizes[j0 + 1:j1 + 1], nnz))
        if bad.any():
            raise DomainError(f"kernel {level(bad, nnz_ends)} has wrong shape")
        bad = (np.diff(cols) <= 0) & (np.diff(rows) == 0)
        if bad.any():
            raise DomainError(f"kernel {level(bad, nnz_ends)} columns must "
                              "increase within each row")
        bad = ~(data >= -1e-12)
        if bad.any():
            raise DomainError(f"kernel {level(bad, nnz_ends)} has negative entries")
        row_sums = np.bincount(rows, weights=data, minlength=n_rows)
        bad = ~(np.abs(row_sums - 1.0) <= 1e-12)
        if bad.any():
            raise DomainError(f"kernel {level(bad, row_ends)} rows must sum to 1")
        # level j+1 starts where the rows of level j end
        succ = beliefs[cols + np.repeat(row_ends, nnz)]
        drift = np.abs(np.bincount(rows, weights=data * succ, minlength=n_rows)
                       - beliefs[:n_rows])
        bad = ~(drift <= 1e-10)
        if bad.any():
            j = level(bad, row_ends)
            lo = row_ends[j - j0 - 1] if j > j0 else 0
            raise DomainError(f"martingale violated at level {j}: max drift "
                              f"{drift[lo:row_ends[j - j0]].max():.3e}")
        # the kernels passed: each keeps its rows, made local, as row_ids()
        for k, e0, e1, r0 in zip(self.kernels[j0:j1], (nnz_ends - nnz).tolist(),
                                 nnz_ends.tolist(),
                                 (row_ends - sizes[j0:j1]).tolist()):
            if k._rows is None:
                k._rows = rows[e0:e1] - r0


def no_learning(mu0: float, grid: LevelGrid) -> DiscreteLearningProcess:
    """Constant martingale: one node with belief mu0 at every level."""
    beliefs = tuple(np.array([mu0]) for _ in range(grid.n))
    kernels = (CSRKernel([0, 1], [0], [1.0], (1, 1)),) * (grid.n - 1)
    return DiscreteLearningProcess(grid, beliefs, kernels, np.array([1.0]), mu0)


def full_revelation(mu0: float, grid: LevelGrid) -> DiscreteLearningProcess:
    """The state is learned at level 0; beliefs are 0 or 1 forever after."""
    support = np.array([0.0, 1.0])
    beliefs = tuple(support.copy() for _ in range(grid.n))
    kernels = (CSRKernel.from_dense(np.eye(2)),) * (grid.n - 1)
    return DiscreteLearningProcess(grid, beliefs, kernels,
                                   np.array([1.0 - mu0, mu0]), mu0)


def single_split(mu0: float, grid: LevelGrid, lo: float, hi: float) -> DiscreteLearningProcess:
    """One binary signal at level 0 splitting the prior into {lo, hi}; no
    further learning."""
    if not (0.0 <= lo <= mu0 <= hi <= 1.0) or lo == hi:
        raise DomainError("split must straddle the prior: lo <= mu0 <= hi")
    p_lo = (hi - mu0) / (hi - lo)
    support = np.array([lo, hi])
    beliefs = tuple(support.copy() for _ in range(grid.n))
    kernels = (CSRKernel.from_dense(np.eye(2)),) * (grid.n - 1)
    return DiscreteLearningProcess(grid, beliefs, kernels,
                                   np.array([p_lo, 1.0 - p_lo]), mu0)


def binomial_tree(mu0: float, grid: LevelGrid, p_good: float = 0.6,
                  p_bad: float = 0.4) -> DiscreteLearningProcess:
    """Recombining binary-signal tree: each step emits a signal with
    P(up | safe) = p_good, P(up | unsafe) = p_bad; nodes are indexed by the
    up-count and beliefs follow Bayes' rule.  All levels are built in one
    array pass; node u of level j moves to node u (down) or u + 1 (up)."""
    if not (0.0 < p_bad < p_good < 1.0):
        raise DomainError("need 0 < p_bad < p_good < 1")
    if not (0.0 < mu0 < 1.0):
        raise DomainError("binomial tree needs an interior prior")
    n = grid.n
    first = np.arange(n + 1) * np.arange(1, n + 2) // 2   # level j starts here
    level = np.repeat(np.arange(n), np.arange(1, n + 1))
    u = np.arange(first[n]) - first[level]
    # posterior from u up-signals out of j, via log-likelihoods
    log_lr = (u * np.log(p_good / p_bad)
              + (level - u) * np.log((1 - p_good) / (1 - p_bad)))
    # odds past the float range give belief 1.0, as does any finite odds
    # above e^37 once rounded
    with np.errstate(over="ignore"):
        odds = mu0 / (1.0 - mu0) * np.exp(log_lr)
    flat = np.divide(odds, 1.0 + odds, out=np.ones_like(odds),
                     where=odds < np.inf)
    beliefs = np.split(flat, first[1:n])

    mu = flat[:first[n - 1]]
    p_up = mu * p_good + (1.0 - mu) * p_bad
    data = np.stack([1.0 - p_up, p_up], axis=1).ravel()
    cols = np.stack([u[:mu.size], u[:mu.size] + 1], axis=1).ravel()
    indptr = 2 * np.arange(n + 1)
    edges = [slice(2 * first[j], 2 * first[j + 1]) for j in range(n - 1)]
    kernels = tuple(CSRKernel(indptr[:j + 2], cols[e], data[e], (j + 1, j + 2))
                    for j, e in enumerate(edges))
    return DiscreteLearningProcess(grid, tuple(beliefs), kernels,
                                   np.array([1.0]), mu0)


def random_tree(mu0: float, grid: LevelGrid, seed: int,
                max_beliefs: int = 4) -> DiscreteLearningProcess:
    """Seeded random layered martingale with at most max_beliefs per level.

    Each level's support is a random set containing 0 and 1 (so any node can
    split); each node either stays put or splits onto its bracketing support
    points with martingale-consistent probabilities.

    A node draws `rng.random()` only when a support point lies within 1e-13
    of its belief, then one index into each bracketing run of support points
    with `rng.integers`, the stream `Generator.choice` draws from such a run.
    Kernel rows go straight into CSR lists, zero weights left out.
    """
    if max_beliefs < 2:
        raise DomainError(f"max_beliefs must be at least 2, got {max_beliefs}")
    if not 0.0 <= mu0 <= 1.0:
        raise DomainError(f"prior {mu0} outside [0, 1]")
    rng = np.random.default_rng(seed)
    beliefs = [np.array([mu0])]
    kernels = []
    prev = beliefs[0].tolist()
    for _ in range(1, grid.n):
        interior = rng.uniform(0.0, 1.0, size=rng.integers(0, max_beliefs - 1))
        support = sorted({0.0, 1.0, *interior.tolist()})
        m = len(support)
        indptr, indices, data = [0], [], []
        for mu in prev:
            below = bisect_right(support, mu)    # support[:below] <= mu
            above = bisect_left(support, mu)     # support[above:] >= mu
            # the support points within 1e-13 of mu are a run; take its first
            first = above
            while first > 0 and abs(support[first - 1] - mu) <= 1e-13:
                first -= 1
            if (first < m and abs(support[first] - mu) <= 1e-13
                    and rng.random() < 0.5):
                indices.append(first)
                data.append(1.0)
            else:
                lo_col = int(rng.integers(0, below))
                hi_col = above + int(rng.integers(0, m - above))
                lo, hi = support[lo_col], support[hi_col]
                if hi - lo <= 1e-13:
                    indices.append(below - 1)
                    data.append(1.0)
                else:
                    p_lo = (hi - mu) / (hi - lo)
                    for col, w in ((lo_col, p_lo), (hi_col, 1.0 - p_lo)):
                        if w != 0.0:
                            indices.append(col)
                            data.append(w)
            indptr.append(len(indices))
        kernels.append(CSRKernel(indptr, indices, data, (len(prev), m)))
        beliefs.append(np.array(support))
        prev = support
    return DiscreteLearningProcess(grid, tuple(beliefs), tuple(kernels),
                                   np.array([1.0]), mu0)
