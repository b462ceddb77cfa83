"""The layered-DAG stopping engine (backward induction and forward stopped
mass), the agent's optimal stopping problem, principal evaluation, and seeded
path simulation.  Everything reads the process's flat arrays whole but the
inductions and the path walk, which step level by level.  A level of an
induction carries only its recursion, one sparse product on its rows of the
kernel block, O(nnz): `backward` compares for its stops after its loop, and
`forward` zeroes the weights of stopping rows once per run of levels and
returns the stopped mass alone, which its callers weigh.  A solution's
values and stops are flat over the nodes, as the process's beliefs are."""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (DomainError, RobustQuotaError, UnreachableLevelError,
                     is_int)
from .mechanisms import Mechanism, adjusted_profiles
from .payoffs import PayoffSpec
from . import processes
from .processes import DiscreteLearningProcess


def backward(proc: DiscreteLearningProcess, end: int, stop_payoff, forced=None,
             tie_eps: float = 1e-9):
    """Backward induction over levels 0..end of `proc`, on flat arrays over
    their nodes.

    A node stops when its stop payoff beats the expected value of the next
    level by more than tie_eps, so ties go to continuing.  `forced` (a
    boolean per node) stops nodes regardless of the comparison and values
    them at the stop payoff.  The last level is a forced stop.  A level
    carries only the recursion: its continuation, one gather, multiply and
    bincount on its rows of the kernel block, -inf at forced nodes, and its
    values, the larger of stop payoff and continuation.  The continuations
    are kept in one flat array and the stops are one comparison against
    them after the loop.  Returns the flat (values, stop) arrays.
    """
    first = proc.first[:end + 2]
    at = proc.indptr[first[:-1]].tolist()      # first entry of each level
    first = first.tolist()
    rows, data, indices = proc.rows, proc.data, proc.indices
    values = np.empty(first[end + 1])
    values[first[end]:] = stop_payoff[first[end]:]
    cont = np.empty(first[end])                 # the continuations
    for j in range(end - 1, -1, -1):
        r0, r1, r2 = first[j:j + 3]
        e = slice(at[j], at[j + 1])
        c = np.bincount(rows[e], weights=data[e] * values[r1:r2][indices[e]],
                        minlength=r1 - r0)
        if forced is not None:
            c[forced[r0:r1]] = -np.inf
        np.maximum(stop_payoff[r0:r1], c, out=values[r0:r1])
        cont[r0:r1] = c
    cont += tie_eps
    stop = np.empty(values.size, dtype=bool)
    np.greater(stop_payoff[:first[end]], cont, out=stop[:first[end]])
    stop[first[end]:] = True
    if forced is not None:
        stop |= forced[:values.size]     # also at a -inf or NaN stop payoff
    return values, stop


def forward(proc: DiscreteLearningProcess, end: int, stop):
    """Mass that stops at each node of levels 0..end (zero at continuing
    nodes), a flat array like `stop`, pushed from the root distribution
    through the kernels.

    Before each run of levels (`processes.level_runs` over their entries),
    the kernel weights of the rows that stop are set to zero, so a level
    carries only the push: one gather, multiply and bincount."""
    first = proc.first[:end + 2]
    indptr, rows, data, indices = proc.indptr, proc.rows, proc.data, proc.indices
    at = indptr[first[:-1]]                     # first entry of each level
    go = ~stop
    stopped = np.empty(stop.size)       # the mass reaching each node, ...
    mass = proc.root_dist
    f, a = first.tolist(), at.tolist()
    for j0, j1 in processes.level_runs(a[1:]):
        r0, r1, e0, e1 = f[j0], f[j1], a[j0], a[j1]
        # the run's kernel weights, zero in the rows that stop
        moves = data[e0:e1] * go[r0:r1].repeat(indptr[r0 + 1:r1 + 1]
                                               - indptr[r0:r1])
        masses = []
        for j in range(j0, j1):
            masses.append(mass)
            e = slice(a[j], a[j + 1])
            mass = np.bincount(indices[e], weights=mass[rows[e]]
                               * moves[a[j] - e0:a[j + 1] - e0],
                               minlength=f[j + 2] - f[j + 1])
        np.concatenate(masses, out=stopped[r0:r1])
    stopped[f[end]:] = mass
    stopped[go] = 0.0                   # ... zero where it continues
    return stopped


def node_payoff(proc: DiscreteLearningProcess, end: int, x1, x0):
    """mu x1[j] + (1 - mu) x0[j] at every node of levels 0..end, mu its
    belief and j its level: the per-level values repeated over the nodes."""
    first = proc.first
    mu = proc.belief[:first[end + 1]]
    sizes = first[1:end + 2] - first[:end + 1]
    out = 1.0 - mu
    out *= x0[:end + 1].repeat(sizes)
    pay = x1[:end + 1].repeat(sizes)
    pay *= mu
    pay += out
    return pay


@dataclass(frozen=True)
class StoppingSolution:
    """Backward-induction solution of the agent's problem.

    `node_value`/`node_stop` are flat over the nodes of levels 0..end (the
    last allowed level under the mechanism's quota), node i at level j for
    proc.first[j] <= i < proc.first[j + 1]; `joint` is the induced
    distribution over (stopping belief, stopping level) as parallel arrays,
    with the grid index of each stopping level in `joint_index`.
    """

    proc: DiscreteLearningProcess = field(repr=False)
    end: int
    node_value: np.ndarray = field(repr=False)
    node_stop: np.ndarray = field(repr=False)
    joint_belief: np.ndarray
    joint_level: np.ndarray
    joint_mass: np.ndarray
    joint_index: np.ndarray
    root_value: float
    participation: bool


def solve_stopping(proc: DiscreteLearningProcess, agent: PayoffSpec,
                   m: Mechanism, forced=None) -> StoppingSolution:
    """Solve sup over stopping times of E[U^phi] on the process tree.

    Indifference (within 1e-9) goes to continuing; levels past the quota
    are excluded from the continuation max, so the last allowed level is a
    forced stop.  `forced` (one boolean per node of the process, any other
    shape or dtype a DomainError) also stops those nodes, as in `backward`;
    an adaptive quota passes the planner's stops this way.
    Participation compares the root value to U(mu0, 0), within 1e-9.
    """
    grid = proc.grid
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    end = len(a1) - 1
    if forced is not None:
        forced = np.asarray(forced)
        if forced.dtype != bool or forced.shape != proc.belief.shape:
            raise DomainError("forced must be one boolean per node of the "
                              "process")

    values, stop = backward(proc, end, node_payoff(proc, end, a1, a0), forced,
                            tie_eps=1e-9)
    root_value = float(proc.root_dist @ values[:proc.first[1]])
    participation = root_value >= float(agent.indirect(proc.mu0, 0.0)) - 1e-9

    # atoms in (level, node) order: the nodes of levels 0..end back to back
    stopped = forward(proc, end, stop)
    atoms = np.nonzero(stopped > 0)[0]
    joint_index = proc.first.searchsorted(atoms, side="right") - 1
    joint_belief = proc.belief[atoms]
    joint_mass = stopped[atoms]
    total = joint_mass.sum()
    if abs(total - 1.0) > 1e-12:
        raise RobustQuotaError(f"joint stopping mass {total} != 1")

    return StoppingSolution(proc, end, values, stop, joint_belief,
                            grid.points[joint_index], joint_mass, joint_index,
                            root_value, participation)


def principal_value(sol: StoppingSolution, principal: PayoffSpec, m: Mechanism) -> float:
    """E[V^phi] over the stopping distribution; the outside option V(mu0, 0)
    when the agent does not participate.  Stopping mass on a level that m
    prohibits raises UnreachableLevelError."""
    grid = sol.proc.grid
    if not sol.participation:
        return float(principal.indirect(sol.proc.mu0, 0.0))
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    idx = sol.joint_index
    if idx.max() >= len(p1):
        raise UnreachableLevelError("stopping mass on a prohibited level")
    vals = sol.joint_belief * p1[idx] + (1.0 - sol.joint_belief) * p0[idx]
    return float(vals @ sol.joint_mass)


def simulate(proc: DiscreteLearningProcess, sol: StoppingSolution, n_paths: int,
             seed: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo draw of (stopping belief, stopping level) pairs.

    The draws are one counter-based stream, numpy's
    `Generator(Philox(key=seed))`, read in order as rows of end + 1
    uniforms: path p reads row p, whose first draw picks the root node and
    whose draw j + 1 the step out of level j.  A path's draws therefore do
    not depend on n_paths or on how many rows a walk block holds, and
    `Philox.advance` reaches any row in O(1), so the sample does not depend
    on how paths are scheduled either.  All paths of a block are walked
    together one level at a time; a step goes to the first stored column
    whose running row sum reaches the draw, the running sums of the rows of
    levels 0..end-1 taken before the walk, one pass per entry position over
    all of them.  A draw above the row's total raises DomainError, as do a
    seed outside [0, 2**64), an n_paths that is not an integer >= 1 and a
    `sol` whose stop sets do not fit `proc`'s supports.  Returns aggregated
    (stop_level, stop_belief, mass) arrays.
    """
    if not is_int(seed) or not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not is_int(n_paths) or n_paths < 1:
        raise DomainError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    n_paths = int(n_paths)
    end = sol.end
    first, indptr = proc.first, proc.indptr
    if not (np.array_equal(sol.proc.first[:end + 2], first[:end + 2])
            and sol.node_stop.shape == (first[end + 1],)):
        raise DomainError("the stopping solution's stop sets do not fit the "
                          "process's supports: it solves another process")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    root_cdf = np.cumsum(proc.root_dist)
    # each entry's running sum over its row, in stored order: the row's CDF
    # at its stored columns, for the rows of levels 0..end-1, one pass per
    # entry position over all of them
    n_rows = first[end]
    deg = indptr[1:n_rows + 1] - indptr[:n_rows]
    cdf = proc.data[:indptr[n_rows]].copy()
    for t in range(1, int(deg.max(initial=0))):
        at = indptr[:n_rows][deg > t] + t
        cdf[at] += cdf[at - 1]
    # a step reads its row's CDF padded on the right with the row total, to
    # the widest row of its level
    width = np.maximum.reduceat(deg, first[:end]) if end else deg
    steps = np.arange(int(width.max(initial=0)))
    stop_level = np.empty(n_paths, dtype=np.intp)
    stop_node = np.empty(n_paths, dtype=np.intp)
    # draws held at once: 8 MB
    block = max(1, (1 << 20) // (end + 1))
    for p0 in range(0, n_paths, block):
        u = rng.random((min(block, n_paths - p0), end + 1))
        node = np.searchsorted(root_cdf, u[:, 0])     # level 0 starts at node 0
        if np.any(node >= root_cdf.size):
            raise DomainError("a draw exceeds the root distribution's total")
        active = np.arange(len(u))
        for j in range(end + 1):
            st = sol.node_stop[node]
            stop_level[p0 + active[st]] = j
            stop_node[p0 + active[st]] = node[st]
            active, node = active[~st], node[~st]
            if not active.size:
                break
            at, d = indptr[node], deg[node]
            row = at[:, None] + np.minimum(steps[:width[j]], d[:, None] - 1)
            k = np.count_nonzero(cdf[row] < u[active, j + 1, None], axis=1)
            if np.any(k >= d):
                raise DomainError(f"a draw exceeds the total of a kernel {j} row")
            node = proc.indices[at + k] + first[j + 1]

    levels = proc.grid.points[stop_level]
    bels = proc.belief[stop_node]
    order = np.lexsort((bels, levels))
    levels, bels = levels[order], bels[order]
    new = np.ones(n_paths, dtype=bool)
    new[1:] = (levels[1:] != levels[:-1]) | (bels[1:] != bels[:-1])
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, n_paths))
    return levels[starts], bels[starts], counts / n_paths
