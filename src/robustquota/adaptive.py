"""Adaptive quotas on principal belief trees: DP stopping rule, the adaptive
fixed tax, and evaluation against agent processes that refine the tree.
Refined processes are built directly as sparse kernels, in O(nnz)."""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (AlignmentError, DomainError, NotARefinementError, is_int,
                     is_real)
from .mechanisms import FixedTaxHardQuota
from .payoffs import PayoffSpec
from .processes import (CSRKernel, DiscreteLearningProcess, level_runs,
                        stack_kernels)
from .stopping import backward, forward, principal_value, solve_stopping


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
    return AdaptivePolicy(tree, stop_set, exp_u - outside, value, mu0)


@dataclass(frozen=True)
class BinaryExperiment:
    """A conditionally independent binary signal the agent observes on top of
    the planner's tree: P(up | theta=1) = p_given_good, P(up | theta=0) =
    p_given_bad, observed on arrival at each level in `levels`, a collection
    of grid indices that `refine_process` checks against its tree."""

    p_given_good: float
    p_given_bad: float
    levels: Tuple[int, ...]

    def __post_init__(self):
        if not all(is_real(x) and 0.0 <= x <= 1.0
                   for x in (self.p_given_good, self.p_given_bad)):
            raise DomainError("signal probabilities must be numbers in [0, 1]")
        try:
            levels = tuple(self.levels)
        except TypeError:
            raise DomainError(f"signal levels must be a collection, got "
                              f"{self.levels!r}") from None
        if not all(is_int(l) and l >= 0 for l in levels):
            raise DomainError(f"signal levels must be nonnegative integers, "
                              f"got {self.levels!r}")
        object.__setattr__(self, "levels", tuple(sorted({int(l) for l in levels})))

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

    A signal history impossible under theta = 0 sends the belief to 1, and
    one impossible under theta = 1 to 0, also where b has rounded to 0 or 1;
    otherwise beliefs 0 and 1 stay fixed.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = b / (1.0 - b) * pw * pmw
        odds = num / den
        post = np.where(num == 0.0, 0.0,
                        np.where(np.isfinite(odds), odds / (1.0 + odds), 1.0))
    post = np.where((b <= 0.0) | (b >= 1.0), b, post)
    return np.where(pw * pmw == 0.0, np.where(den == 0.0, b, 0.0),
                    np.where(den == 0.0, 1.0, post))


def _agent_steps(k1, k0, mu, fire, p, q):
    """Agent transition weights along planner edges whose probabilities
    given theta = 1 and theta = 0 are k1 and k0, out of an agent node with
    belief mu: to the same signal count w, and, only where a signal fires on
    arrival, to w + 1."""
    pr1 = mu * k1                               # joint with theta = 1
    pr0 = (1 - mu) * k0
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
    renormalised by the sum of its entries in column order.  A signal level
    past the tree's last level raises DomainError.
    """
    n = tree.grid.n
    if experiment.levels and experiment.levels[-1] >= n:
        raise DomainError(f"signal level {experiment.levels[-1]} is past the "
                          f"last level {n - 1} of the tree")
    if not experiment.informative:
        ident = tuple(np.arange(len(b)) for b in tree.beliefs)
        return DiscreteLearningProcess(tree.grid, tree.beliefs, tree.kernels,
                                       tree.root_dist, tree.mu0, ident)
    p, q = experiment.p_given_good, experiment.p_given_bad
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
    t_nnz = np.array([k.data.size for k in tree.kernels], dtype=np.intp)
    fire_next = np.append(fires[1:], False)
    entries = np.append(t_nnz, 0) * s * (1 + fire_next)

    def run(j0, j1):
        """Beliefs, parent maps and outgoing kernels of the agent nodes of
        levels j0..j1-1, in one array pass whose temporaries go on return."""
        lev = np.repeat(np.arange(j0, j1), sizes[j0:j1])
        local = np.arange(agent_first[j0], agent_first[j1]) - agent_first[lev]
        i = local // s[lev]
        w = local - i * s[lev]
        node = first[lev] + i                   # planner node
        mw = (w, m_at[lev])
        post = _posterior(planner[node], pw[mw], pmw[mw], den[mw])
        cut = (agent_first[j0:j1 + 1] - agent_first[j0]).tolist()
        beliefs = [post[lo:hi] for lo, hi in zip(cut, cut[1:])]
        parent = [i[lo:hi] for lo, hi in zip(cut, cut[1:])]
        j_end = min(j1, n - 1)
        if j_end == j0:
            return beliefs, parent, []          # the last level has no kernel

        # the planner edges out of levels j0..j_end-1, stacked with one row
        # per planner node: their probabilities given each state, zero off
        # the support, and the agent column of signal count 0 at their heads
        t_ptr, nxt, base = stack_kernels(tree.kernels[j0:j_end])
        b = np.repeat(planner[first[j0]:first[j_end]], np.diff(t_ptr))
        lv = np.repeat(np.arange(j0 + 1, j_end + 1), t_nnz[j0:j_end])
        bn = planner[first[lv] + nxt]
        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.where(base > 0, np.where(b > 0, base * (bn / b), base), 0.0)
            k0 = np.where(base > 0,
                          np.where(b < 1, base * ((1 - bn) / (1 - b)), base), 0.0)
        fire_e, col0 = fire_next[lv - 1], nxt * s[lv]

        # their kernel rows, one entry per agent node and planner edge
        n_rows = cut[j_end - j0]
        node, w = node[:n_rows] - first[j0], w[:n_rows]
        deg = t_ptr[node + 1] - t_ptr[node]
        row = np.repeat(np.arange(n_rows), deg)
        edge = np.arange(row.size) \
            + np.repeat(t_ptr[node] - np.cumsum(deg) + deg, deg)
        fire = fire_e[edge]
        same, up = _agent_steps(k1[edge], k0[edge], post[row], fire, p, q)
        col = col0[edge] + w[row]
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
        e_cut = indptr[cut[:j_end - j0 + 1]].tolist()
        kernels = [CSRKernel(indptr[r0:r1 + 1] - e0, cols[e0:e1], data[e0:e1],
                             (sizes[j], sizes[j + 1]))
                   for j, r0, r1, e0, e1 in zip(range(j0, j_end), cut, cut[1:],
                                                e_cut, e_cut[1:])]
        return beliefs, parent, kernels

    beliefs, parent, kernels = [], [], []
    for j0, j1 in level_runs(sizes + entries):
        run_beliefs, run_parent, run_kernels = run(j0, j1)
        beliefs += run_beliefs
        parent += run_parent
        kernels += run_kernels

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
    mechanism: the static problem of `solve_stopping` and `principal_value`
    under a flat tax lambda with no quota, where each agent node whose
    planner node stops is a forced stop.  The agent's ties within 1e-9 go
    to continuing, and it participates unless it loses more than 1e-9."""
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

    m = FixedTaxHardQuota(policy.lambda_adaptive, grid.l_max)
    forced = [policy.stop_set[j][parent[j]] for j in range(grid.n)]
    return principal_value(solve_stopping(agent_proc, agent, m, forced),
                           principal, m)
