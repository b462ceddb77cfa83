"""The layered-DAG stopping engine (backward induction and forward stopped
mass), the agent's optimal stopping problem, principal evaluation, and seeded
path simulation.  Each level costs one sparse kernel product, O(nnz)."""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import (DomainError, RobustQuotaError, UnreachableLevelError,
                     is_int)
from .mechanisms import Mechanism, adjusted_profiles
from .payoffs import PayoffSpec
from .processes import CSRKernel, DiscreteLearningProcess


def backward(proc: DiscreteLearningProcess, stop_payoff, forced=None,
             tie_eps: float = 1e-9):
    """Backward induction over levels 0..end = len(stop_payoff) - 1.

    A node stops when its stop payoff beats the expected value of the next
    level by more than tie_eps, so ties go to continuing.  `forced` (per
    level boolean arrays) stops nodes regardless of the comparison and values
    them at the stop payoff.  The last level is a forced stop.  Returns the
    per-level tuples (values, stop_set).
    """
    end = len(stop_payoff) - 1
    values = [None] * (end + 1)
    stop_set = [None] * (end + 1)
    values[end] = np.array(stop_payoff[end], dtype=float)
    stop_set[end] = np.ones(len(values[end]), dtype=bool)
    for j in range(end - 1, -1, -1):
        s = stop_payoff[j]
        cont = proc.kernels[j] @ values[j + 1]
        stop_set[j] = s > cont + tie_eps
        values[j] = np.maximum(s, cont)
        if forced is not None:
            stop_set[j] |= forced[j]
            values[j] = np.where(forced[j], s, values[j])
    return tuple(values), tuple(stop_set)


def forward(proc: DiscreteLearningProcess, stop_set) -> List[np.ndarray]:
    """Mass that stops at each node of levels 0..len(stop_set) - 1 (zero at
    continuing nodes), pushed from the root distribution through the
    kernels."""
    stopped = []
    mass = proc.root_dist
    for j, st in enumerate(stop_set):
        stopped.append(np.where(st, mass, 0.0))
        if j + 1 < len(stop_set):
            mass = np.where(st, 0.0, mass) @ proc.kernels[j]
    return stopped


@dataclass(frozen=True)
class StoppingSolution:
    """Backward-induction solution of the agent's problem.

    `values`/`stop_set` run over levels 0..end (the last allowed level under
    the mechanism's quota); `joint` is the induced distribution over
    (stopping belief, stopping level) as parallel arrays, with the grid index
    of each stopping level in `joint_index`.
    """

    proc: DiscreteLearningProcess = field(repr=False)
    end: int
    values: tuple = field(repr=False)
    stop_set: tuple = field(repr=False)
    joint_belief: np.ndarray
    joint_level: np.ndarray
    joint_mass: np.ndarray
    joint_index: np.ndarray
    root_value: float
    outside_option: float
    participation: bool
    mu0: float


def solve_stopping(proc: DiscreteLearningProcess, agent: PayoffSpec,
                   m: Mechanism, forced=None) -> StoppingSolution:
    """Solve sup over stopping times of E[U^phi] on the process tree.

    Indifference (within 1e-9) goes to continuing; levels past the quota
    are excluded from the continuation max, so the last allowed level is a
    forced stop.  `forced` (per level boolean arrays over the process's
    nodes) also stops those nodes, as in `backward`; an adaptive quota passes
    the planner's stops this way.  Participation compares the root value to
    U(mu0, 0), within 1e-9.
    """
    grid = proc.grid
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    end = len(a1) - 1

    # the stop payoffs, one float per node, are freed before the forward pass
    values, stop_set = backward(
        proc, [proc.beliefs[j] * a1[j] + (1.0 - proc.beliefs[j]) * a0[j]
               for j in range(end + 1)], forced, tie_eps=1e-9)

    root_value = float(proc.root_dist @ values[0])
    outside = float(agent.indirect(proc.mu0, 0.0))
    participation = root_value >= outside - 1e-9

    # atoms in (level, node) order: the supports of levels 0..end back to back
    stopped = np.concatenate(forward(proc, stop_set))
    atoms = np.nonzero(stopped > 0)[0]
    joint_index = np.repeat(np.arange(end + 1), [len(s) for s in stop_set])[atoms]
    joint_belief = np.concatenate(proc.beliefs[:end + 1])[atoms]
    joint_mass = stopped[atoms]
    total = joint_mass.sum()
    if abs(total - 1.0) > 1e-12:
        raise RobustQuotaError(f"joint stopping mass {total} != 1")

    return StoppingSolution(proc, end, values, stop_set, joint_belief,
                            grid.points[joint_index], joint_mass, joint_index,
                            root_value, outside, participation, proc.mu0)


def principal_value(sol: StoppingSolution, principal: PayoffSpec, m: Mechanism) -> float:
    """E[V^phi] over the stopping distribution; the outside option V(mu0, 0)
    when the agent does not participate.  Stopping mass on a level that m
    prohibits raises UnreachableLevelError."""
    grid = sol.proc.grid
    if not sol.participation:
        return float(principal.indirect(sol.mu0, 0.0))
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    idx = sol.joint_index
    if idx.max() >= len(p1):
        raise UnreachableLevelError("stopping mass on a prohibited level")
    vals = sol.joint_belief * p1[idx] + (1.0 - sol.joint_belief) * p0[idx]
    return float(vals @ sol.joint_mass)


def _running_sums(k: CSRKernel):
    """Per-row running sums of a kernel's nonzeros, padded on the right with
    the row total: the row's CDF over its stored columns."""
    deg = np.diff(k.indptr)
    pad = np.zeros((k.shape[0], int(deg.max(initial=0))))
    at = np.arange(k.data.size) - np.repeat(k.indptr[:-1], deg)
    pad[k.row_ids(), at] = k.data
    return np.cumsum(pad, axis=1), deg


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
    whose running row sum reaches the draw.  A draw above the row's total
    raises DomainError, as do a seed outside [0, 2**64), an n_paths that is
    not an integer >= 1 and a `sol` whose stop sets do not fit `proc`'s
    supports.  Returns aggregated (stop_level, stop_belief, mass) arrays.
    """
    if not is_int(seed) or not 0 <= int(seed) < 2 ** 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not is_int(n_paths) or n_paths < 1:
        raise DomainError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    n_paths = int(n_paths)
    end = sol.end
    if len(proc.beliefs) <= end or any(
            len(s) != len(b) for s, b in zip(sol.stop_set, proc.beliefs)):
        raise DomainError("the stopping solution's stop sets do not fit the "
                          "process's supports: it solves another process")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    root_cdf = np.cumsum(proc.root_dist)
    cdfs = [_running_sums(k) for k in proc.kernels[:end]]
    stop_level = np.empty(n_paths, dtype=np.intp)
    stop_node = np.empty(n_paths, dtype=np.intp)
    # draws held at once: 8 MB
    block = max(1, (1 << 20) // (end + 1))
    for p0 in range(0, n_paths, block):
        u = rng.random((min(block, n_paths - p0), end + 1))
        node = np.searchsorted(root_cdf, u[:, 0])
        if np.any(node >= root_cdf.size):
            raise DomainError("a draw exceeds the root distribution's total")
        active = np.arange(len(u))
        for j in range(end + 1):
            st = sol.stop_set[j][node]
            stop_level[p0 + active[st]] = j
            stop_node[p0 + active[st]] = node[st]
            active, node = active[~st], node[~st]
            if not active.size:
                break
            cdf, deg = cdfs[j]
            k = np.count_nonzero(cdf[node] < u[active, j + 1, None], axis=1)
            if np.any(k >= deg[node]):
                raise DomainError(f"a draw exceeds the total of a kernel {j} row")
            node = proc.kernels[j].indices[proc.kernels[j].indptr[node] + k]

    first = np.cumsum([0] + [len(b) for b in proc.beliefs[:end]])
    levels = proc.grid.points[stop_level]
    bels = np.concatenate(proc.beliefs[:end + 1])[first[stop_level] + stop_node]
    order = np.lexsort((bels, levels))
    levels, bels = levels[order], bels[order]
    new = np.ones(n_paths, dtype=bool)
    new[1:] = (levels[1:] != levels[:-1]) | (bels[1:] != bels[:-1])
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, n_paths))
    return levels[starts], bels[starts], counts / n_paths
