"""Adaptive quotas on principal belief trees: DP stopping rule, the adaptive
fixed tax, and evaluation against agent processes that refine the tree.
Refined processes are written straight into flat arrays, in O(nnz), and
the planner's stops are one flat mask over the tree's nodes.  The tax sums
`stopping.forward`'s stopped mass; a refinement shares the tree's grid."""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import (AlignmentError, DomainError, NotARefinementError, is_int,
                     is_real)
from .mechanisms import FixedTaxHardQuota
from .payoffs import PayoffSpec
from .processes import DiscreteLearningProcess, _posterior, level_runs
from .stopping import (backward, forward, node_payoff, principal_value,
                       solve_stopping)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Per-node stopping region of the planner's DP plus the fixed tax.

    The quota is a stopping region rather than a level function because on a
    tree the binding level is a per-history object.  `node_stop` is flat
    over the tree's nodes, node i at level j for
    tree.first[j] <= i < tree.first[j + 1].
    """

    tree: DiscreteLearningProcess = field(repr=False)
    node_stop: np.ndarray = field(repr=False)
    lambda_adaptive: float
    value: float


def solve_adaptive_quota(tree: DiscreteLearningProcess, agent: PayoffSpec,
                         principal: PayoffSpec) -> AdaptivePolicy:
    """Backward induction on the planner's tree with stop payoff
    (U(mu, l) - U(mu0, 0)) + V(mu, l); exact ties go to continuing.

    The tax equals the expected agent surplus at the induced stopping nodes,
    so on a degenerate (one-path) tree this reproduces the static mechanism
    bitwise: same quota level, same tax, same value.
    """
    grid = tree.grid
    end = grid.n - 1
    mu0 = tree.mu0
    a1, a0 = agent.profile(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])
    U = node_payoff(tree, end, a1, a0)
    surplus = U - outside
    surplus += node_payoff(tree, end, *principal.profile(grid.points))

    values, stop = backward(tree, end, surplus, tie_eps=0.0)
    value = float(tree.root_dist @ values[:tree.first[1]])
    # lambda = E[U at stopping] - U(mu0, 0): each level's products over its
    # stopping nodes summed alone, then in level order
    stopped = forward(tree, end, stop)
    idx = np.flatnonzero(stop)
    terms = stopped[idx] * U[idx]
    ends = idx.searchsorted(tree.first[1:]).tolist()
    exp_u = 0.0
    for t0, t1 in zip([0] + ends, ends):
        exp_u += float(terms[t0:t1].sum())
    return AdaptivePolicy(tree, stop, exp_u - outside, value)


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
    p and q drawn from [0.05, 0.95], q moved up by 0.1 and capped at 0.95
    where the two are less than 0.05 apart (so after the cap they can still
    be), on 1 to min(4, n) - 1 distinct levels."""
    p = float(rng.uniform(0.05, 0.95))
    q = float(rng.uniform(0.05, 0.95))
    if abs(p - q) < 0.05:
        q = min(0.95, q + 0.1)
    levels = rng.choice(n, size=int(rng.integers(1, min(4, n))), replace=False)
    return BinaryExperiment(p, q, tuple(int(l) for l in levels))


def refine_process(tree: DiscreteLearningProcess,
                   experiment: BinaryExperiment) -> DiscreteLearningProcess:
    """Agent process that observes the planner's tree plus an extra signal.

    Agent nodes at level j are pairs (planner node i, up-signal count w),
    numbered i * (m_j + 1) + w; beliefs update the planner posterior by the
    signal's log-likelihood ratio (`processes._posterior`, the update
    `binomial_tree` makes), and kernels reweight the planner's
    transitions by the agent's sharper belief (Bayes-consistent, so the
    martingale property is preserved).  This layout is the alignment
    `evaluate_adaptive` reads.

    Each planner edge i -> i' gives one agent entry per signal count w, to
    w, or a pair of entries, to w and w + 1, on a step where a signal fires
    on arrival.  The refinement is written straight into its flat arrays,
    per run of levels: the beliefs in one pass per block of levels with one
    signal count m, then the kernel rows in one pass over all m + 1 counts
    per block with one m and one entry count c, each row renormalised by
    the sum of its entries in column order.
    A signal level past the tree's last level raises DomainError.
    """
    n = tree.grid.n
    if experiment.levels and experiment.levels[-1] >= n:
        raise DomainError(f"signal level {experiment.levels[-1]} is past the "
                          f"last level {n - 1} of the tree")
    t_first, t_ptr = tree.first, tree.indptr
    t_sizes = np.diff(t_first)
    if not experiment.informative:
        return tree
    p, q = experiment.p_given_good, experiment.p_given_bad
    fires = np.isin(np.arange(n), experiment.levels)
    m_at = np.cumsum(fires)                 # signals observed by level j
    s = m_at + 1                            # agent nodes per planner node
    sizes = t_sizes * s
    first = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(sizes, out=first[1:])
    t_nnz = np.diff(t_ptr[t_first[:n]])     # planner edges out of each level
    nnz = t_nnz * s[:-1] * (1 + fires[1:])  # a pair per edge into a signal
    e_first = np.zeros(n, dtype=np.intp)    # first entry of each kernel
    np.cumsum(nnz, out=e_first[1:])
    belief = np.empty(first[n])
    indptr = np.zeros(first[n - 1] + 1, dtype=np.intp)
    indices = np.empty(e_first[-1], dtype=np.intp)
    data = np.empty(e_first[-1])

    def block(j0, j1, c):
        """Kernel rows of the agent nodes of levels j0..j1-1, where the agent
        has seen the same m signals, in place, c entries per planner edge
        and signal count w: to w, and to w + 1 where c = 2."""
        m = int(m_at[j0])
        t0, t1 = t_first[j0], t_first[j1]
        # the planner edges out of levels j0..j1-1: their probabilities
        # given each state, zero off the support, and the agent column of
        # signal count 0 at their heads
        e0, e1 = t_ptr[t0], t_ptr[t1]
        nxt, base = tree.indices[e0:e1], tree.data[e0:e1]
        t_deg = t_ptr[t0 + 1:t1 + 1] - t_ptr[t0:t1]
        b = np.repeat(tree.belief[t0:t1], t_deg)
        bn = tree.belief[nxt + np.repeat(t_first[j0 + 1:j1 + 1],
                                         t_nnz[j0:j1])]
        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.where(base > 0, np.where(b > 0, base * (bn / b), base), 0.0)
            k0 = np.where(base > 0,
                          np.where(b < 1, base * ((1 - bn) / (1 - b)), base), 0.0)
        col0 = nxt * np.repeat(s[j0 + 1:j1 + 1], t_nnz[j0:j1])

        # agent row (i, w) holds the c entries of each planner edge e out of
        # i from o0 + c (e + m tp_i + w deg_i) on, tp_i the first edge out of
        # i.  Each entry's row sum is a bin, summed in column order
        o0, t = e_first[j0], t1 - t0
        indptr[first[j0] + 1:first[j1] + 1] = o0 + (c * t_deg).repeat(
            m + 1).cumsum()
        row = np.arange(t).repeat(t_deg)
        at, deg = np.arange(e1 - e0) + m * (t_ptr[t0:t1] - e0)[row], t_deg[row]
        w = np.arange(m + 1)[:, None]
        bins = (w * t + row).repeat(c)
        post = belief[first[j0]:first[j1]].reshape(-1, m + 1)
        mu = post.T.repeat(t_deg, axis=1)
        pr1, pr0 = mu * k1, (1 - mu) * k0       # joint with theta = 1, 0
        joint = pr1 + pr0 if c == 1 else np.stack(
            (pr1 * (1 - p) + pr0 * (1 - q), pr1 * p + pr0 * q), axis=-1)
        # rows sum to 1 analytically; renormalise away float drift
        rs = np.bincount(bins, weights=joint.ravel(), minlength=(m + 1) * t)
        if (rs <= 1e-12).any():
            raise NotARefinementError("refinement produced an empty kernel row")
        pos = (c * (at + w * deg))[..., None] + np.arange(o0, o0 + c)
        data[pos.ravel()] = joint.ravel() / rs[bins]
        indices[pos] = (col0 + w)[..., None] + np.arange(c)

    # per run of levels, the beliefs a block of one signal count m at a
    # time, then the kernel rows a block of one m and one entry count c at a
    # time: a kernel block starts at a signal level, where m grows, and on
    # the step into one, where c is 2; the last level has no kernel
    new_k = fires[:-1] | fires[1:]
    for j0, j1 in level_runs(np.cumsum(sizes + np.append(nnz, 0)).tolist()):
        cuts = [j0, *(np.flatnonzero(fires[j0 + 1:j1]) + j0 + 1).tolist(), j1]
        for c0, c1 in zip(cuts, cuts[1:]):
            m = int(m_at[c0])
            # signal counts down the rows, so each row is one contiguous pass
            belief[first[c0]:first[c1]].reshape(-1, m + 1)[:] = _posterior(
                tree.belief[t_first[c0]:t_first[c1]],
                np.arange(m + 1)[:, None], m, p, q).T
        j_end = min(j1, n - 1)
        cuts = [j0, *(np.flatnonzero(new_k[j0 + 1:j_end]) + j0 + 1).tolist(),
                j_end]
        for c0, c1 in zip(cuts, cuts[1:]):
            if c0 < c1:
                block(c0, c1, 1 + int(fires[c0 + 1]))

    if fires[0]:
        b = tree.belief[:t_first[1]]
        pr_up = b * p + (1 - b) * q
        root = np.stack([tree.root_dist * (1 - pr_up),
                         tree.root_dist * pr_up], axis=1).ravel()
    else:
        root = tree.root_dist.copy()
    try:
        return DiscreteLearningProcess(tree.grid, first, belief, indptr,
                                       indices, data, root, tree.mu0)
    except DomainError as e:
        raise NotARefinementError(f"refinement is not Bayes-consistent: {e}")


def evaluate_adaptive(policy: AdaptivePolicy, agent_proc: DiscreteLearningProcess,
                      agent: PayoffSpec, principal: PayoffSpec) -> float:
    """Principal's expected value when the agent best-responds to the adaptive
    mechanism: the static problem of `solve_stopping` and `principal_value`
    under a flat tax lambda with no quota, where each agent node whose
    planner node stops is a forced stop.  The agent's ties within 1e-9 go
    to continuing, and it participates unless it loses more than 1e-9.

    Planner nodes are read from `refine_process`'s layout: at level j each
    planner node owns s_j consecutive agent nodes, in planner order.  So
    any process on the tree's grid and prior whose levels are whole
    multiples of the tree's is accepted; against a `no_learning` planner
    every node of a level stops where the planner stops."""
    tree = policy.tree
    if agent_proc.grid != tree.grid:
        raise AlignmentError("agent process and planner tree use different grids")
    if agent_proc.mu0 != tree.mu0:
        raise AlignmentError(f"agent process has prior {agent_proc.mu0}, the "
                             f"planner tree {tree.mu0}")
    t_sizes = np.diff(tree.first)
    s, rem = np.divmod(np.diff(agent_proc.first), t_sizes)
    bad = (rem != 0) | (s == 0)
    if bad.any():
        raise AlignmentError(f"agent level {int(np.argmax(bad))} is not a "
                             f"whole multiple of the planner's level")
    forced = policy.node_stop.repeat(s.repeat(t_sizes))
    m = FixedTaxHardQuota(policy.lambda_adaptive, tree.grid.l_max)
    sol = solve_stopping(agent_proc, agent, m, forced)
    return principal_value(sol, principal, m)
