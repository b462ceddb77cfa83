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
from .processes import DiscreteLearningProcess, level_runs
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
    a1 = agent.u1(grid.points)
    a0 = agent.u0(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])
    U = node_payoff(tree, end, a1, a0)
    surplus = U - outside
    surplus += node_payoff(tree, end, principal.u1(grid.points),
                           principal.u0(grid.points))

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
    drawn from [0.05, 0.95] at least 0.05 apart (else q is nudged up), on 1
    to min(4, n) - 1 distinct levels."""
    p = float(rng.uniform(0.05, 0.95))
    q = float(rng.uniform(0.05, 0.95))
    if abs(p - q) < 0.05:
        q = min(0.95, q + 0.1)
    levels = rng.choice(n, size=int(rng.integers(1, min(4, n))), replace=False)
    return BinaryExperiment(p, q, tuple(int(l) for l in levels))


def _posteriors(b, m, p, q, out):
    """Beliefs b after w up-signals out of m, for w = 0..m, into column w of
    `out`: Bayes' rule in odds form with the factors p^w (1-p)^(m-w) and
    q^w (1-q)^(m-w), where P(up | theta=1) = p and P(up | theta=0) = q.

    A signal history impossible under theta = 0 sends the belief to 1, and
    one impossible under theta = 1 to 0, also where b has rounded to 0 or 1;
    otherwise beliefs 0 and 1 stay fixed.
    """
    with np.errstate(divide="ignore"):
        prior_odds = b / (1.0 - b)
    fixed = (b <= 0.0) | (b >= 1.0)
    for w in range(m + 1):
        pw, pmw = p ** w, (1 - p) ** (m - w)
        den = q ** w * (1 - q) ** (m - w)
        if pw * pmw == 0.0:
            out[:, w] = b if den == 0.0 else 0.0
        elif den == 0.0:
            out[:, w] = 1.0
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                num = prior_odds * pw * pmw
                odds = num / den
                post = np.where(num == 0.0, 0.0,
                                np.where(np.isfinite(odds), odds / (1.0 + odds), 1.0))
            out[:, w] = np.where(fixed, b, post)


def refine_process(tree: DiscreteLearningProcess,
                   experiment: BinaryExperiment) -> DiscreteLearningProcess:
    """Agent process that observes the planner's tree plus an extra signal.

    Agent nodes at level j are pairs (planner node i, up-signal count w),
    numbered i * (m_j + 1) + w; beliefs combine the planner posterior with
    the signal likelihood ratio, and kernels reweight the planner's
    transitions by the agent's sharper belief (Bayes-consistent, so the
    martingale property is preserved).  `parent` records i per agent node
    for quota alignment.

    Each planner edge i -> i' gives one agent entry per signal count w, to
    w, or a pair of entries, to w and w + 1, on a step where a signal fires
    on arrival.  The refinement is written straight into its flat arrays, in
    one array pass per block of levels that share a run and a signal count,
    and each row is renormalised by the sum of its entries in column order.
    A signal level past the tree's last level raises DomainError.
    """
    n = tree.grid.n
    if experiment.levels and experiment.levels[-1] >= n:
        raise DomainError(f"signal level {experiment.levels[-1]} is past the "
                          f"last level {n - 1} of the tree")
    t_first, t_ptr = tree.first, tree.indptr
    t_sizes = np.diff(t_first)
    if not experiment.informative:
        ident = np.arange(t_first[n]) - np.repeat(t_first[:n], t_sizes)
        return DiscreteLearningProcess(tree.grid, t_first, tree.belief, t_ptr,
                                       tree.indices, tree.data, tree.root_dist,
                                       tree.mu0, ident)
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
    parent = np.empty(first[n], dtype=np.intp)
    indptr = np.zeros(first[n - 1] + 1, dtype=np.intp)
    indices = np.empty(e_first[-1], dtype=np.intp)
    data = np.empty(e_first[-1])

    def block(j0, j1):
        """Beliefs, parent map and outgoing kernel rows of the agent nodes of
        levels j0..j1-1, where the agent has seen the same m signals, written
        in place in one array pass whose temporaries go on return."""
        m = int(m_at[j0])
        t0, t1 = t_first[j0], t_first[j1]
        post = belief[first[j0]:first[j1]]
        _posteriors(tree.belief[t0:t1], m, p, q, post.reshape(-1, m + 1))
        t_local = np.arange(t1 - t0) - np.repeat(t_first[j0:j1] - t0,
                                                 t_sizes[j0:j1])
        parent[first[j0]:first[j1]] = np.repeat(t_local, m + 1)
        j_end = min(j1, n - 1)
        if j_end == j0:
            return                              # the last level has no kernel

        # the planner edges out of levels j0..j_end-1: their probabilities
        # given each state, zero off the support, and the agent column of
        # signal count 0 at their heads
        t_end = t_first[j_end]
        e0, e1 = t_ptr[t0], t_ptr[t_end]
        nxt, base = tree.indices[e0:e1], tree.data[e0:e1]
        t_deg = np.diff(t_ptr[t0:t_end + 1])
        b = np.repeat(tree.belief[t0:t_end], t_deg)
        bn = tree.belief[nxt + np.repeat(t_first[j0 + 1:j_end + 1],
                                         t_nnz[j0:j_end])]
        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.where(base > 0, np.where(b > 0, base * (bn / b), base), 0.0)
            k0 = np.where(base > 0,
                          np.where(b < 1, base * ((1 - bn) / (1 - b)), base), 0.0)
        col0 = nxt * np.repeat(s[j0 + 1:j_end + 1], t_nnz[j0:j_end])

        # one agent edge per agent row (i, w) and planner edge i -> i': row
        # (i, w) holds the agent edges from (m + 1) tp_i + w deg_i on, where
        # tp_i is the first planner edge out of i
        tp = t_ptr[t0:t_end] - e0
        w = np.tile(np.arange(m + 1), t_end - t0)
        deg = np.repeat(t_deg, m + 1)
        edge = np.arange((m + 1) * (e1 - e0)) - np.repeat(
            np.repeat(m * tp, m + 1) + w * deg, deg)
        mu = np.repeat(post[:deg.size], deg)
        pr1 = mu * k1[edge]                     # joint with theta = 1
        pr0 = (1 - mu) * k0[edge]
        col = col0[edge] + np.repeat(w, deg)
        # an entry per agent edge, or a pair, to w and w + 1, on the step
        # into a level where a signal fires
        j_pair = j_end - 1 if fires[j_end] else j_end
        x = (m + 1) * (t_ptr[t_first[j_pair]] - e0)
        o0, o_pair, o1 = e_first[j0], e_first[j_pair], e_first[j_end]
        np.add(pr1[:x], pr0[:x], out=data[o0:o_pair])
        indices[o0:o_pair] = col[:x]
        pair = data[o_pair:o1].reshape(-1, 2)
        pair[:, 0] = pr1[x:] * (1 - p) + pr0[x:] * (1 - q)
        pair[:, 1] = pr1[x:] * p + pr0[x:] * q
        indices[o_pair:o1].reshape(-1, 2)[:] = col[x:, None] + (0, 1)
        row_nnz = deg.copy()
        row_nnz[(t_first[j_pair] - t0) * (m + 1):] *= 2
        indptr[first[j0] + 1:first[j_end] + 1] = o0 + np.cumsum(row_nnz)
        # rows sum to 1 analytically; renormalise away float drift
        rows = np.repeat(np.arange(deg.size), row_nnz)
        rs = np.bincount(rows, weights=data[o0:o1], minlength=deg.size)
        if np.any(rs <= 1e-12):
            raise NotARefinementError("refinement produced an empty kernel row")
        data[o0:o1] /= rs[rows]

    # a block per run of levels and signal count
    for j0, j1 in level_runs(np.cumsum(sizes + np.append(nnz, 0)).tolist()):
        cuts = [j0, *(np.flatnonzero(fires[j0 + 1:j1]) + j0 + 1).tolist(), j1]
        for c0, c1 in zip(cuts, cuts[1:]):
            block(c0, c1)

    if fires[0]:
        b = tree.belief[:t_first[1]]
        pr_up = b * p + (1 - b) * q
        root = np.stack([tree.root_dist * (1 - pr_up),
                         tree.root_dist * pr_up], axis=1).ravel()
    else:
        root = tree.root_dist.copy()
    try:
        return DiscreteLearningProcess(tree.grid, first, belief, indptr,
                                       indices, data, root, tree.mu0, parent)
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
    if agent_proc.grid != tree.grid:
        raise AlignmentError("agent process and planner tree use different grids")
    first, t_first = agent_proc.first, tree.first
    parent = agent_proc.parent
    if parent is None:
        if not np.array_equal(first, t_first):
            raise AlignmentError("agent process lacks a parent map onto the tree")
        forced = policy.node_stop
    else:
        t_sizes = np.diff(t_first)
        bad = (np.maximum.reduceat(parent, first[:-1]) >= t_sizes) \
            | (np.minimum.reduceat(parent, first[:-1]) < 0)
        if bad.any():
            raise AlignmentError(f"parent map at level {int(np.argmax(bad))} "
                                 f"is inconsistent")
        # the planner's stops through the parent map, a run of levels at a
        # time
        sizes = np.diff(first)
        forced = np.empty(first[-1], dtype=bool)
        for j0, j1 in level_runs(first[1:].tolist()):
            planner = parent[first[j0]:first[j1]] \
                + np.repeat(t_first[j0:j1], sizes[j0:j1])
            forced[first[j0]:first[j1]] = policy.node_stop[planner]

    m = FixedTaxHardQuota(policy.lambda_adaptive, tree.grid.l_max)
    sol = solve_stopping(agent_proc, agent, m, forced)
    return principal_value(sol, principal, m)
