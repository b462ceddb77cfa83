"""Per-level references for the flat stopping engine: kernel products on one
`CSRKernel` at a time, backward and forward induction level by level, and
the agent's problem, the adaptive quota and its evaluation built on them,
as the package computed them before its processes were stored flat;
`flat_process`, which stores a process given level by level; `by_level`
and `kernel`, which read one level back out of the flat arrays; and
`planner_nodes`, which expands a refinement's layout level by level."""

import numpy as np

from robustquota import (DiscreteLearningProcess, FixedTaxHardQuota,
                         adjusted_profiles)


class CSRKernel:
    """Transition kernel between consecutive levels in compressed sparse row
    form: row i holds data[indptr[i]:indptr[i+1]] in columns
    indices[indptr[i]:indptr[i+1]], increasing within the row.
    `K.toarray()` is the dense matrix.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))

    def row_ids(self) -> np.ndarray:
        """Row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape)
        a[self.row_ids(), self.indices] = self.data
        return a


def by_level(flat, first):
    """Per-level views of a flat node array (node values or stops): level j
    is flat[first[j]:first[j+1]]."""
    return np.split(flat, first[1:-1])


def planner_nodes(agent_proc, t_sizes):
    """Each agent node's planner node, local to its level, a list over the
    levels, read from the layout `refine_process` writes: at level j, where
    the planner has t_sizes[j] nodes, each planner node owns the same number
    of consecutive agent nodes, in planner order."""
    return [np.arange(a) // (a // t)
            for a, t in zip(np.diff(agent_proc.first).tolist(), t_sizes)]


def kernel(proc, j):
    """Kernel j of `proc`, from level j to level j + 1: a CSRKernel of its
    rows of the block, `indptr` made local to them."""
    r0, r1, r2 = proc.first[j:j + 3].tolist()
    e0, e1 = proc.indptr[r0], proc.indptr[r1]
    return CSRKernel(proc.indptr[r0:r1 + 1] - e0, proc.indices[e0:e1],
                     proc.data[e0:e1], (r1 - r0, r2 - r1))


def csr(a):
    """A dense matrix as a CSRKernel: its nonzeros in row order."""
    a = np.asarray(a, dtype=float)
    rows, cols = np.nonzero(a)
    indptr = np.zeros(a.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=a.shape[0]), out=indptr[1:])
    return CSRKernel(indptr, cols, a[rows, cols], a.shape)


def flat_process(grid, beliefs, kernels, root_dist, mu0):
    """The process with one belief array per level and one dense kernel per
    step: the levels, and the kernels' nonzeros in row order, stored back
    to back."""
    ks = [csr(k) for k in kernels]
    deg = np.concatenate([np.diff(k.indptr) for k in ks])
    return DiscreteLearningProcess(
        grid, np.cumsum([0, *map(len, beliefs)]), np.concatenate(beliefs),
        np.cumsum([0, *deg]), np.concatenate([k.indices for k in ks]),
        np.concatenate([k.data for k in ks]), root_dist, mu0)


def kernel_times(k, v):
    """K @ v: each row's terms summed in stored order."""
    return np.bincount(k.row_ids(), weights=k.data * np.asarray(v)[k.indices],
                       minlength=k.shape[0])


def times_kernel(x, k):
    """x @ K: each column's terms summed in stored order."""
    return np.bincount(k.indices, weights=np.asarray(x)[k.row_ids()] * k.data,
                       minlength=k.shape[1])


def backward_by_levels(proc, stop_payoff, forced=None, tie_eps=1e-9):
    """Backward induction over levels 0..len(stop_payoff) - 1 on per-level
    lists; returns the per-level tuples (values, stop_set)."""
    end = len(stop_payoff) - 1
    values = [None] * (end + 1)
    stop_set = [None] * (end + 1)
    values[end] = np.array(stop_payoff[end], dtype=float)
    stop_set[end] = np.ones(len(values[end]), dtype=bool)
    for j in range(end - 1, -1, -1):
        s = stop_payoff[j]
        cont = kernel_times(kernel(proc, j), values[j + 1])
        stop_set[j] = s > cont + tie_eps
        values[j] = np.maximum(s, cont)
        if forced is not None:
            stop_set[j] |= forced[j]
            values[j] = np.where(forced[j], s, values[j])
    return tuple(values), tuple(stop_set)


def forward_by_levels(proc, stop_set):
    """Per-level stopped mass, zero at continuing nodes."""
    stopped = []
    mass = proc.root_dist
    for j, st in enumerate(stop_set):
        stopped.append(np.where(st, mass, 0.0))
        if j + 1 < len(stop_set):
            mass = times_kernel(np.where(st, 0.0, mass), kernel(proc, j))
    return stopped


def solve_stopping_by_levels(proc, agent, m, forced=None):
    """The agent's problem level by level: (values, stop_set, joint_belief,
    joint_mass, joint_index, root_value, participation)."""
    a1, a0 = adjusted_profiles(agent, m, "agent", proc.grid)
    end = len(a1) - 1
    beliefs = by_level(proc.belief, proc.first)
    values, stop_set = backward_by_levels(
        proc, [beliefs[j] * a1[j] + (1.0 - beliefs[j]) * a0[j]
               for j in range(end + 1)], forced, tie_eps=1e-9)
    root_value = float(proc.root_dist @ values[0])
    participation = root_value >= float(agent.indirect(proc.mu0, 0.0)) - 1e-9
    stopped = np.concatenate(forward_by_levels(proc, stop_set))
    atoms = np.nonzero(stopped > 0)[0]
    joint_index = np.repeat(np.arange(end + 1), [len(s) for s in stop_set])[atoms]
    joint_belief = np.concatenate(beliefs[:end + 1])[atoms]
    return (values, stop_set, joint_belief, stopped[atoms], joint_index,
            root_value, participation)


def adaptive_quota_by_levels(tree, agent, principal):
    """The planner's DP level by level: (stop_set, lambda, value)."""
    grid = tree.grid
    mu0 = tree.mu0
    a1, a0 = agent.u1(grid.points), agent.u0(grid.points)
    p1, p0 = principal.u1(grid.points), principal.u0(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])
    beliefs = by_level(tree.belief, tree.first)
    U = [mu * a1[j] + (1.0 - mu) * a0[j] for j, mu in enumerate(beliefs)]
    surplus = [(U[j] - outside) + (mu * p1[j] + (1.0 - mu) * p0[j])
               for j, mu in enumerate(beliefs)]
    values, stop_set = backward_by_levels(tree, surplus, tie_eps=0.0)
    exp_u = sum(float((m[st] * u[st]).sum()) for m, st, u
                in zip(forward_by_levels(tree, stop_set), stop_set, U))
    return stop_set, exp_u - outside, float(tree.root_dist @ values[0])


def evaluate_by_levels(stop_set, lam, agent_proc, agent, principal):
    """The adaptive quota's value against `agent_proc`, level by level: the
    planner's per-level `stop_set` forced through the refinement's layout
    under a flat tax `lam`, valued as `principal_value` values it."""
    grid = agent_proc.grid
    planner = planner_nodes(agent_proc, [len(st) for st in stop_set])
    forced = [np.asarray(stop_set[j])[planner[j]] for j in range(grid.n)]
    m = FixedTaxHardQuota(lam, grid.l_max)
    *_, belief, mass, idx, _, participation = solve_stopping_by_levels(
        agent_proc, agent, m, forced)
    if not participation:
        return float(principal.indirect(agent_proc.mu0, 0.0))
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    return float((belief * p1[idx] + (1.0 - belief) * p0[idx]) @ mass)
