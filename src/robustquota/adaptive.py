"""Adaptive quotas on principal belief trees: DP stopping rule, the adaptive
fixed tax, and evaluation against agent processes that refine the tree.
Refined processes are built directly as sparse kernels, in O(nnz)."""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import AlignmentError, DomainError, NotARefinementError
from .payoffs import PayoffSpec
from .processes import (CSRKernel, DiscreteLearningProcess, level_runs,
                        stack_kernels)
from .stopping import backward, forward


@dataclass(frozen=True)
class AdaptivePolicy:
    """Per-node stopping region of the planner's DP plus the fixed tax.

    The quota is a stopping region rather than a level function because on a
    tree the binding level is a per-history object.
    """

    tree: DiscreteLearningProcess = field(repr=False)
    stop_set: tuple = field(repr=False)   # per level: boolean array over nodes
    lambda_adaptive: float
    value: float
    mu0: float
    outside: float                        # U(mu0, 0)


def solve_adaptive_quota(tree: DiscreteLearningProcess, agent: PayoffSpec,
                         principal: PayoffSpec) -> AdaptivePolicy:
    """Backward induction on the planner's tree with stop payoff
    (U(mu, l) - U(mu0, 0)) + V(mu, l); exact ties go to continuing.

    The tax equals the expected agent surplus at the induced stopping nodes,
    so on a degenerate (one-path) tree this reproduces the static mechanism
    bitwise: same quota level, same tax, same value.
    """
    grid = tree.grid
    mu0 = tree.mu0
    a1 = agent.u1(grid.points)
    a0 = agent.u0(grid.points)
    p1 = principal.u1(grid.points)
    p0 = principal.u0(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])
    U = [mu * a1[j] + (1.0 - mu) * a0[j] for j, mu in enumerate(tree.beliefs)]
    surplus = [(U[j] - outside) + (mu * p1[j] + (1.0 - mu) * p0[j])
               for j, mu in enumerate(tree.beliefs)]

    values, stop_set = backward(tree, surplus, tie_eps=0.0)
    value = float(tree.root_dist @ values[0])
    # lambda = E[U at stopping] - U(mu0, 0)
    exp_u = sum(float((m[st] * u[st]).sum())
                for m, st, u in zip(forward(tree, stop_set), stop_set, U))
    return AdaptivePolicy(tree, stop_set, exp_u - outside, value, mu0, outside)


@dataclass(frozen=True)
class BinaryExperiment:
    """A conditionally independent binary signal the agent observes on top of
    the planner's tree: P(up | theta=1) = p_given_good, P(up | theta=0) =
    p_given_bad, observed on arrival at each level in `levels`."""

    p_given_good: float
    p_given_bad: float
    levels: Tuple[int, ...]

    def __post_init__(self):
        if not (0.0 <= self.p_given_bad <= 1.0 and 0.0 <= self.p_given_good <= 1.0):
            raise DomainError("signal probabilities must lie in [0, 1]")
        object.__setattr__(self, "levels", tuple(sorted(set(int(l) for l in self.levels))))

    @property
    def informative(self) -> bool:
        return abs(self.p_given_good - self.p_given_bad) > 1e-15


def random_experiment(rng: np.random.Generator, n: int) -> BinaryExperiment:
    """Seeded stress-test experiment on an n-level grid: signal accuracies
    drawn from [0.05, 0.95] at least 0.05 apart (else q is nudged up), on 1
    to min(4, n) - 1 distinct levels."""
    p = float(rng.uniform(0.05, 0.95))
    q = float(rng.uniform(0.05, 0.95))
    if abs(p - q) < 0.05:
        q = min(0.95, q + 0.1)
    levels = rng.choice(n, size=int(rng.integers(1, min(4, n))), replace=False)
    return BinaryExperiment(p, q, tuple(int(l) for l in levels))


def _posterior(b, pw, pmw, den):
    """Beliefs b after w up-signals out of m (P(up | theta=1) = p,
    P(up | theta=0) = q), by Bayes' rule in odds form, given per entry
    pw = p^w, pmw = (1-p)^(m-w) and den = q^w (1-q)^(m-w).

    Beliefs 0 and 1 stay fixed; a signal history impossible under theta = 0
    sends the belief to 1, and one impossible under theta = 1 to 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = b / (1.0 - b) * pw * pmw
        odds = num / den
        post = np.where(num == 0.0, np.where(den == 0.0, b, 0.0),
                        np.where((den == 0.0) | ~np.isfinite(odds), 1.0,
                                 odds / (1.0 + odds)))
    return np.where((b <= 0.0) | (b >= 1.0), b, post)


def _agent_steps(b, bn, base, mu, fire, p, q):
    """Agent transition weights along planner edges b -> bn of probability
    base, out of an agent node with belief mu: to the same signal count w,
    and, only where a signal fires on arrival, to w + 1."""
    # planner transition probability given each state
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = np.where(b > 0, base * (bn / b), base)
        k0 = np.where(b < 1, base * ((1 - bn) / (1 - b)), base)
    pr1 = mu * np.where(base > 0, k1, 0.0)          # joint with theta = 1
    pr0 = (1 - mu) * np.where(base > 0, k0, 0.0)
    # x * 1.0 == x, so where nothing fires this is exactly pr1 + pr0
    same = pr1 * np.where(fire, 1 - p, 1.0) + pr0 * np.where(fire, 1 - q, 1.0)
    return same, pr1[fire] * p + pr0[fire] * q


def refine_process(tree: DiscreteLearningProcess,
                   experiment: BinaryExperiment) -> DiscreteLearningProcess:
    """Agent process that observes the planner's tree plus an extra signal.

    Agent nodes at level j are pairs (planner node i, up-signal count w),
    numbered i * (m_j + 1) + w; beliefs combine the planner posterior with
    the signal likelihood ratio, and kernels reweight the planner's
    transitions by the agent's sharper belief (Bayes-consistent, so the
    martingale property is preserved).  parent_map records i per agent node
    for quota alignment.

    Each planner edge i -> i' gives one agent entry per signal count w (two,
    to w and w + 1, where a signal fires on arrival), so the kernels are
    built sparse in O(nnz), a run of levels per array pass, and each row is
    renormalised by the sum of its entries in column order.
    """
    if not experiment.informative:
        ident = tuple(np.arange(len(b)) for b in tree.beliefs)
        return DiscreteLearningProcess(tree.grid, tree.beliefs, tree.kernels,
                                       tree.root_dist, tree.mu0, ident)
    p, q = experiment.p_given_good, experiment.p_given_bad
    n = tree.grid.n
    fires = np.isin(np.arange(n), experiment.levels)
    m_at = np.cumsum(fires)                 # signals observed by level j
    s = m_at + 1                            # agent nodes per planner node
    # Bayes factors of w up-signals out of m, indexed [w, m]
    pw, pmw, den = (np.zeros((s[-1], s[-1])) for _ in range(3))
    for m in range(s[-1]):
        for w in range(m + 1):
            pw[w, m], pmw[w, m] = p ** w, (1 - p) ** (m - w)
            den[w, m] = q ** w * (1 - q) ** (m - w)

    planner_sizes = np.array([len(b) for b in tree.beliefs])
    sizes = planner_sizes * s
    first = np.concatenate([[0], np.cumsum(planner_sizes)])
    agent_first = np.concatenate([[0], np.cumsum(sizes)])
    planner = np.concatenate(tree.beliefs)
    t_ptr, t_col, t_val = stack_kernels(tree.kernels)    # rows: planner nodes
    fire_next = np.append(fires[1:], False)
    entries = np.append([k.data.size for k in tree.kernels], 0) * s \
        * (1 + fire_next)

    beliefs, parent, kernels = [], [], []
    for j0, j1 in level_runs(sizes + entries):
        # the agent nodes of levels j0..j1-1
        lev = np.repeat(np.arange(j0, j1), sizes[j0:j1])
        local = np.arange(agent_first[j0], agent_first[j1]) - agent_first[lev]
        i = local // s[lev]
        w = local - i * s[lev]
        node = first[lev] + i                   # planner node
        mw = (w, m_at[lev])
        post = _posterior(planner[node], pw[mw], pmw[mw], den[mw])
        cut = agent_first[j0 + 1:j1] - agent_first[j0]
        beliefs += np.split(post, cut)
        parent += np.split(i, cut)

        # their kernel rows, one entry per planner edge node -> nxt
        j_end = min(j1, n - 1)
        n_rows = agent_first[j_end] - agent_first[j0]
        node, w, lev = node[:n_rows], w[:n_rows], lev[:n_rows]
        deg = t_ptr[node + 1] - t_ptr[node]
        row = np.repeat(np.arange(n_rows), deg)
        edge = np.arange(row.size) \
            + np.repeat(t_ptr[node] - np.cumsum(deg) + deg, deg)
        nxt, lv = t_col[edge], lev[row] + 1
        fire = fire_next[lev[row]]
        same, up = _agent_steps(planner[node[row]], planner[first[lv] + nxt],
                                t_val[edge], post[row], fire, p, q)
        col = nxt * s[lv] + w[row]
        width = 1 + fire
        at = np.cumsum(width) - width
        data = np.empty(int(width.sum()))
        cols = np.empty(data.size, dtype=np.intp)
        data[at], cols[at] = same, col
        data[at[fire] + 1], cols[at[fire] + 1] = up, col[fire] + 1
        rows = np.repeat(row, width)
        # rows sum to 1 analytically; renormalise away float drift
        rs = np.bincount(rows, weights=data, minlength=n_rows)
        if np.any(rs <= 1e-12):
            raise NotARefinementError("refinement produced an empty kernel row")
        data /= rs[rows]
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        for j in range(j0, j_end):
            r0, r1 = agent_first[[j, j + 1]] - agent_first[j0]
            e0, e1 = indptr[r0], indptr[r1]
            kernels.append(CSRKernel(indptr[r0:r1 + 1] - e0, cols[e0:e1],
                                     data[e0:e1], (sizes[j], sizes[j + 1])))

    if fires[0]:
        b = tree.beliefs[0]
        pr_up = b * p + (1 - b) * q
        root = np.stack([tree.root_dist * (1 - pr_up),
                         tree.root_dist * pr_up], axis=1).ravel()
    else:
        root = tree.root_dist.copy()
    try:
        return DiscreteLearningProcess(tree.grid, tuple(beliefs), tuple(kernels),
                                       root, tree.mu0, tuple(parent))
    except DomainError as e:
        raise NotARefinementError(f"refinement is not Bayes-consistent: {e}")


def evaluate_adaptive(policy: AdaptivePolicy, agent_proc: DiscreteLearningProcess,
                      agent: PayoffSpec, principal: PayoffSpec) -> float:
    """Principal's expected value when the agent best-responds to the adaptive
    mechanism: transfer lambda everywhere, development prohibited past the
    planner's per-history stopping node.  The agent's ties within 1e-9 go to
    continuing, and it participates unless it loses more than 1e-9."""
    tree = policy.tree
    grid = agent_proc.grid
    if grid.n != tree.grid.n or abs(grid.l_max - tree.grid.l_max) > 1e-12:
        raise AlignmentError("agent process and planner tree use different grids")
    if agent_proc.parent_map is None:
        if all(len(a) == len(b) for a, b in zip(agent_proc.beliefs, tree.beliefs)):
            parent = tuple(np.arange(len(b)) for b in tree.beliefs)
        else:
            raise AlignmentError("agent process lacks a parent_map onto the tree")
    else:
        parent = agent_proc.parent_map
    for j in range(grid.n):
        if len(parent[j]) != len(agent_proc.beliefs[j]) or \
                np.any(parent[j] >= len(tree.beliefs[j])):
            raise AlignmentError(f"parent_map at level {j} is inconsistent")

    mu0 = agent_proc.mu0
    lam = policy.lambda_adaptive
    a1, a0 = agent.u1(grid.points), agent.u0(grid.points)
    p1, p0 = principal.u1(grid.points), principal.u0(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])

    stop_u = [mu * a1[j] + (1.0 - mu) * a0[j] - lam
              for j, mu in enumerate(agent_proc.beliefs)]
    forced = [np.asarray(policy.stop_set[j])[parent[j]] for j in range(grid.n)]
    values, stops = backward(agent_proc, stop_u, forced, tie_eps=1e-9)
    if float(agent_proc.root_dist @ values[0]) < outside - 1e-9:
        return float(mu0 * p1[0] + (1.0 - mu0) * p0[0])
    total = 0.0
    for j, (mass, st) in enumerate(zip(forward(agent_proc, stops), stops)):
        mu = agent_proc.beliefs[j][st]
        total += float((mass[st] * (mu * p1[j] + (1.0 - mu) * p0[j] + lam)).sum())
    return total
