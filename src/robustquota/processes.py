"""Discrete learning processes: belief martingales on the level grid.

A process is a layered DAG: one finite belief support per grid level, a
row-stochastic kernel between consecutive levels, and a root distribution
over the level-0 support whose mean is the prior.  The levels are stored
back to back: level j holds nodes first[j]..first[j+1]-1 of one `belief`
array, and one CSR block holds every kernel, its rows the nodes of levels
0..n-2 in turn (`indptr`), each entry with its column local to the next
level (`indices`), its weight (`data`) and its row local to its level
(`rows`).  A binomial row has 2 entries and a refined row at most 4, so
building, checking and applying a tree's kernels is O(nnz), and every stage
but the level-by-level inductions reads the arrays whole.  Nothing in the
package reads a level on its own: `beliefs` and `kernels`, per-level views
built on access, are kept only for rqbench's tracer.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np

from .errors import DomainError, is_int, is_real
from .grid import LevelGrid

#: entries handled by one array pass over a run of levels: 128 KB per float
#: temporary, so the allocator reuses a pass's pages from run to run; below
#: 1 << 13 numpy's fixed cost per call shows
CHUNK = 1 << 14

#: one level's kernel in CSR form: row i holds data[indptr[i]:indptr[i+1]]
#: in columns indices[indptr[i]:indptr[i+1]], increasing within the row
Kernel = namedtuple("Kernel", "indptr indices data shape")


def level_runs(ends):
    """Runs [j0, j1) of consecutive levels whose sizes add up to at most
    CHUNK, or a single level that alone holds more; `ends` lists the size of
    levels 0..j together for each level j."""
    j0 = 0
    while j0 < len(ends):
        base = ends[j0 - 1] if j0 else 0
        j1 = max(j0 + 1, bisect_right(ends, base + CHUNK))
        yield j0, j1
        j0 = j1


def _index_array(a, what: str) -> np.ndarray:
    """`a` as a 1-d intp array, without a copy where it is one; DomainError
    unless it is a 1-d array of integers."""
    a = np.asarray(a)
    if a.ndim != 1 or not np.issubdtype(a.dtype, np.integer):
        raise DomainError(f"{what} must be a 1-d array of integers")
    return a.astype(np.intp, copy=False)


class DiscreteLearningProcess:
    """A learning process in its stored form (see the module docstring):
    the levels' starts `first`, the node beliefs `belief`, the kernel block
    `indptr`, `indices`, `data`, the root distribution over level 0 and the
    prior mu0.  The arrays are kept without a copy where their dtype fits,
    and validated."""

    __slots__ = ("grid", "mu0", "root_dist", "first", "belief", "indptr",
                 "indices", "data", "rows")

    def __init__(self, grid: LevelGrid, first, belief, indptr, indices, data,
                 root_dist, mu0: float):
        self.grid = grid
        self.mu0 = mu0
        self.first = _index_array(first, "first")
        self.belief = np.asarray(belief, dtype=float)
        self.indptr = _index_array(indptr, "kernel indptr")
        self.indices = _index_array(indices, "kernel indices")
        self.data = np.asarray(data, dtype=float)
        self.root_dist = np.asarray(root_dist, dtype=float)
        self._validate()

    @property
    def beliefs(self) -> list:
        """Level j's node beliefs as a view of `belief`, a list over the
        levels.  Read only by rqbench's tracer, which counts a refinement's
        nodes, until the benchmark change (ROADMAP item 5)."""
        return np.split(self.belief, self.first[1:-1])

    @property
    def kernels(self) -> tuple:
        """Kernel j, from level j to level j + 1, as a `Kernel` of its rows
        of the block (`indices` and `data` views, `indptr` made local), a
        tuple over levels 0..n-2.  Read only by rqbench's tracer, which
        sums their bytes, until the benchmark change (ROADMAP item 5)."""
        first = self.first.tolist()
        at = self.indptr[self.first[:-1]].tolist()
        return tuple(Kernel(self.indptr[r0:r1 + 1] - e0, self.indices[e0:e1],
                            self.data[e0:e1], (r1 - r0, r2 - r1))
                     for r0, r1, r2, e0, e1
                     in zip(first, first[1:], first[2:], at, at[1:]))

    def _validate(self):
        first, n = self.first, self.grid.n
        if self.belief.ndim != 1 or first.shape != (n + 1,) \
                or first[0] != 0 or first[-1] != self.belief.size \
                or (first[1:] < first[:-1]).any():
            raise DomainError("first must hold the start of each level and the "
                              "node count, from 0 and never decreasing")
        if not is_real(self.mu0):
            raise DomainError(f"prior must be a real number, got {self.mu0!r}")
        if not 0.0 <= self.mu0 <= 1.0:
            raise DomainError(f"prior {self.mu0} outside [0, 1]")
        if not np.all((self.belief >= -1e-12) & (self.belief <= 1 + 1e-12)):
            raise DomainError("node beliefs must lie in [0, 1]")
        m0 = int(first[1])
        if self.root_dist.shape != (m0,):
            raise DomainError("root distribution must match the level-0 support")
        if not (np.all(self.root_dist >= -1e-12)
                and abs(self.root_dist.sum() - 1.0) <= 1e-12):
            raise DomainError("root distribution must be a probability vector")
        root_mean = float(self.root_dist @ self.belief[:m0])
        if not abs(root_mean - self.mu0) <= 1e-10:
            raise DomainError(f"root mean belief {root_mean} != prior {self.mu0}")
        if self.indptr.shape != (first[n - 1] + 1,) or self.indptr[0] != 0 \
                or self.indptr[-1] != self.data.size \
                or self.indices.shape != self.data.shape \
                or (self.indptr[1:] < self.indptr[:-1]).any():
            raise DomainError("kernels have wrong shape")
        self.rows = np.empty(self.data.size, dtype=np.intp)
        at = self.indptr[first[:n]]             # first entry of each kernel
        nnz = at[1:] - at[:-1]
        for j0, j1 in level_runs(at[1:].tolist()):
            self._validate_run(j0, j1, nnz[j0:j1])

    def _validate_run(self, j0, j1, nnz):
        """Sign, row sums, column order and martingale drift of kernels
        j0..j1-1, which hold `nnz` entries each, checked on their rows of the
        block together; the entries' rows, made local to their levels, are
        kept in `rows`."""
        first, indptr = self.first, self.indptr
        r0, r1 = first[j0], first[j1]
        e0, e1 = indptr[r0], indptr[r1]
        row_ends = first[j0 + 1:j1 + 1] - r0
        nnz_ends = nnz.cumsum()

        def level(bad, ends):
            """Level of the first flagged row or entry."""
            return j0 + int(np.searchsorted(ends, np.argmax(bad), side="right"))

        rows = np.arange(r1 - r0).repeat(indptr[r0 + 1:r1 + 1] - indptr[r0:r1])
        cols, data = self.indices[e0:e1], self.data[e0:e1]
        # each entry's head, level j+1 starting where the rows of level j end
        heads = cols + first[j0 + 1:j1 + 1].repeat(nnz)
        bad = (cols < 0) | (heads >= first[j0 + 2:j1 + 2].repeat(nnz))
        if bad.any():
            raise DomainError(f"kernel {level(bad, nnz_ends)} has wrong shape")
        # a column at or below its left neighbour, cleared at row starts (two
        # spare flags take those at the run's end and, as index -1, its start)
        bad = np.zeros(cols.size + 1, dtype=bool)
        np.less_equal(cols[1:], cols[:-1], out=bad[:-2])
        bad[indptr[r0 + 1:r1 + 1] - (e0 + 1)] = False
        if bad.any():
            raise DomainError(f"kernel {level(bad, nnz_ends)} columns must "
                              "increase within each row")
        if not (data >= -1e-12).all():
            bad = ~(data >= -1e-12)
            raise DomainError(f"kernel {level(bad, nnz_ends)} has negative entries")
        row_sums = np.bincount(rows, weights=data, minlength=r1 - r0)
        bad = ~(np.abs(row_sums - 1.0) <= 1e-12)
        if bad.any():
            raise DomainError(f"kernel {level(bad, row_ends)} rows must sum to 1")
        drift = np.abs(np.bincount(rows, weights=data * self.belief[heads],
                                   minlength=r1 - r0) - self.belief[r0:r1])
        bad = ~(drift <= 1e-10)
        if bad.any():
            j = level(bad, row_ends)
            lo = row_ends[j - j0 - 1] if j > j0 else 0
            raise DomainError(f"martingale violated at level {j}: max drift "
                              f"{drift[lo:row_ends[j - j0]].max():.3e}")
        np.subtract(rows, (first[j0:j1] - r0).repeat(nnz), out=self.rows[e0:e1])


def _fixed_support(grid: LevelGrid, support, root_dist,
                   mu0: float) -> DiscreteLearningProcess:
    """The same support at every level, each node moving to itself."""
    n, m = grid.n, len(support)
    return DiscreteLearningProcess(
        grid, m * np.arange(n + 1), np.tile(support, n),
        np.arange(m * (n - 1) + 1), np.tile(np.arange(m), n - 1),
        np.ones(m * (n - 1)), root_dist, mu0)


def no_learning(mu0: float, grid: LevelGrid) -> DiscreteLearningProcess:
    """Constant martingale: one node with belief mu0 at every level."""
    return _fixed_support(grid, [mu0], [1.0], mu0)


def single_split(mu0: float, grid: LevelGrid, lo: float, hi: float) -> DiscreteLearningProcess:
    """One binary signal at level 0 splitting the prior into {lo, hi}; no
    further learning."""
    if not all(is_real(x) for x in (mu0, lo, hi)):
        raise DomainError(f"prior and split points must be real numbers, "
                          f"got {mu0!r}, {lo!r}, {hi!r}")
    if not (0.0 <= lo <= mu0 <= hi <= 1.0) or lo == hi:
        raise DomainError("split must straddle the prior: lo <= mu0 <= hi")
    p_lo = (hi - mu0) / (hi - lo)
    return _fixed_support(grid, [lo, hi], [p_lo, 1.0 - p_lo], mu0)


def _posterior(b, w, m, p, q):
    """Belief b after w up-signals out of m, elementwise, where P(up |
    theta=1) = p and P(up | theta=0) = q: the odds b/(1-b) exp(w log(p/q) +
    (m-w) log((1-p)/(1-q))), and belief 1.0 where they overflow.  A history
    impossible under one state (decided exactly: an up-signal where its
    probability is 0, a down-signal where it is 1) sends the belief to the
    other state, also from b = 0 or 1; one impossible under both keeps b,
    and otherwise beliefs 0 and 1 stay fixed."""
    b, down = np.asarray(b, dtype=float), m - w
    # impossible where P(up) = 0 after an up-signal, where it is 1 after a
    # down-signal; a scalar False where P(up) is neither
    never1, never0 = ((w if x == 0.0 else down if x == 1.0 else 0) > 0
                      for x in (p, q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a log ratio past the float range stands at +-max and a NaN one
        # (p == q in {0, 1}) at 0: times a count of 0 either adds 0, and
        # times any other count it overflows, as the odds should, or is
        # a count of an impossible history, decided above
        up, dn = np.nan_to_num(np.log(np.divide([p, 1 - p], [q, 1 - q])))
        odds = b / (1.0 - b) * np.exp(w * up + down * dn)
        post = np.divide(odds, 1.0 + odds, out=np.ones_like(odds),
                         where=odds < np.inf)
    np.copyto(post, b, where=(b <= 0.0) | (b >= 1.0) | (never0 & never1))
    np.copyto(post, never0, where=never0 != never1)
    return post


def binomial_tree(mu0: float, grid: LevelGrid, p_good: float = 0.6,
                  p_bad: float = 0.4) -> DiscreteLearningProcess:
    """Recombining binary-signal tree: each step emits a signal with
    P(up | safe) = p_good, P(up | unsafe) = p_bad; nodes are indexed by the
    up-count and beliefs follow Bayes' rule.  All levels are built flat in
    one array pass; node u of level j moves to node u (down) or u + 1 (up)."""
    if not all(is_real(x) for x in (mu0, p_good, p_bad)):
        raise DomainError(f"prior and signal probabilities must be real "
                          f"numbers, got {mu0!r}, {p_good!r}, {p_bad!r}")
    if not (0.0 < p_bad < p_good < 1.0):
        raise DomainError("need 0 < p_bad < p_good < 1")
    if not (0.0 < mu0 < 1.0):
        raise DomainError("binomial tree needs an interior prior")
    n = grid.n
    first = np.arange(n + 1) * np.arange(1, n + 2) // 2   # level j starts here
    level = np.repeat(np.arange(n), np.arange(1, n + 1))
    u = np.arange(first[n]) - first[level]
    belief = _posterior(mu0, u, level, p_good, p_bad)   # u up-signals of j

    mu = belief[:first[n - 1]]
    p_up = mu * p_good + (1.0 - mu) * p_bad
    data = np.stack([1.0 - p_up, p_up], axis=1).ravel()
    cols = np.stack([u[:mu.size], u[:mu.size] + 1], axis=1).ravel()
    return DiscreteLearningProcess(grid, first, belief,
                                   2 * np.arange(mu.size + 1), cols, data,
                                   [1.0], mu0)


def random_tree(mu0: float, grid: LevelGrid, seed: int,
                max_beliefs: int = 4) -> DiscreteLearningProcess:
    """Seeded random layered martingale with at most max_beliefs per level.

    Each level's support is a random set containing 0 and 1 (so any node can
    split); each node either stays put or splits onto its bracketing support
    points with martingale-consistent probabilities.

    A node draws `rng.random()` only when a support point lies within 1e-13
    of its belief, then one index into each bracketing run of support points
    with `rng.integers`, the stream `Generator.choice` draws from such a run.
    Each level's support and kernel rows are appended to one flat belief
    list and one CSR block, zero weights left out.
    """
    if not is_int(max_beliefs) or max_beliefs < 2:
        raise DomainError(f"max_beliefs must be an integer >= 2, got {max_beliefs!r}")
    if not is_real(mu0) or not 0.0 <= mu0 <= 1.0:
        raise DomainError(f"prior {mu0!r} outside [0, 1]")
    if not is_int(seed) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    prev = [float(mu0)]
    belief, first = list(prev), [0, 1]
    indptr, indices, data = [0], [], []
    for _ in range(1, grid.n):
        interior = rng.uniform(0.0, 1.0, size=rng.integers(0, max_beliefs - 1))
        support = sorted({0.0, 1.0, *interior.tolist()})
        m = len(support)
        for mu in prev:
            below = bisect_right(support, mu)    # support[:below] <= mu
            above = bisect_left(support, mu)     # support[above:] >= mu
            # the support points within 1e-13 of mu are a run; take its first
            at = above
            while at > 0 and abs(support[at - 1] - mu) <= 1e-13:
                at -= 1
            if at < m and abs(support[at] - mu) <= 1e-13 and rng.random() < 0.5:
                indices.append(at)
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
        belief += support
        first.append(len(belief))
        prev = support
    return DiscreteLearningProcess(grid, first, belief, indptr, indices, data,
                                   [1.0], mu0)
