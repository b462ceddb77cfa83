import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustquota import (AlignmentError, BinaryExperiment, DomainError,
                         FixedTaxHardQuota, LevelGrid, NotARefinementError,
                         Zero, adaptive, binomial_tree, cara_pair,
                         compute_robust, evaluate_adaptive, no_learning,
                         principal_value, processes, quadratic_pair,
                         random_tree, refine_process, simulate, single_split,
                         solve_adaptive_quota, solve_stopping)
from robustquota.adaptive import random_experiment
from robustquota.processes import DiscreteLearningProcess
from robustquota.stopping import forward

from level_reference import (adaptive_quota_by_levels, backward_by_levels,
                             by_level, evaluate_by_levels, forward_by_levels,
                             kernel, planner_nodes, times_kernel)

AGENT, PRINCIPAL = quadratic_pair(1.0, 1.0, 1.0)
GRID = LevelGrid(2.0, 9)


def test_degenerate_tree_reproduces_static_bitwise():
    grid = LevelGrid(2.0, 2001)
    static = compute_robust(AGENT, PRINCIPAL, 0.6, grid)
    pol = solve_adaptive_quota(no_learning(0.6, grid), AGENT, PRINCIPAL)
    first_stop = next(grid.points[j] for j in range(grid.n)
                      if pol.node_stop[pol.tree.first[j]])
    assert first_stop == static.L_star
    assert pol.lambda_adaptive == static.lambda_star
    assert pol.value == static.guarantee


def test_dp_value_dominates_static():
    tree = binomial_tree(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    static = compute_robust(AGENT, PRINCIPAL, 0.6, GRID)
    assert pol.value >= static.guarantee - 1e-12


def test_full_revelation_tree_decouples():
    tree = single_split(0.6, GRID, 0.0, 1.0)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    # good branch: maximize U(1,.) + V(1,.) = 2l (monotone) -> stop at l_max;
    # bad branch: U(0,.) + V(0,.) - U(mu0, 0) peaks at 0
    stops = by_level(pol.node_stop, tree.first)
    assert stops[0][0]                   # belief-0 node stops immediately
    assert not stops[0][1]
    assert all(not stops[j][1] for j in range(GRID.n - 1))


def test_evaluate_on_tree_itself_matches_dp():
    tree = binomial_tree(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    val = evaluate_adaptive(pol, tree, AGENT, PRINCIPAL)
    assert val == pytest.approx(pol.value, abs=1e-10)


def test_uninformative_experiment_returns_tree():
    tree = binomial_tree(0.6, GRID)
    ref = refine_process(tree, BinaryExperiment(0.5, 0.5, (1, 2)))
    assert ref is tree


def test_refinement_is_valid_and_aligned():
    """Constructor validation enforces the martingale; each planner node of
    level j owns m_j + 1 agent nodes, m_j the signals seen by level j."""
    tree = binomial_tree(0.6, GRID)
    ref = refine_process(tree, BinaryExperiment(0.8, 0.3, (0, 3)))
    m_at = np.cumsum(np.isin(np.arange(GRID.n), (0, 3)))
    assert np.diff(ref.first).tolist() == \
        (np.diff(tree.first) * (m_at + 1)).tolist()


def test_full_revelation_experiment_reveals_state():
    tree = no_learning(0.6, GRID)
    ref = refine_process(tree, BinaryExperiment(1.0, 0.0, (0,)))
    root = ref.belief[:ref.first[1]]
    assert sorted(root.tolist()) == [0.0, 1.0]
    assert float(ref.root_dist @ root) == pytest.approx(0.6)


def test_conclusive_signal_wins_where_belief_rounds_to_one():
    """At 0.7/0.3 binomial-tree beliefs round to exactly 1.0 from level 44
    on. An agent whose perfectly revealing signal said theta = 0 keeps belief
    0 there, so the refinement stays a martingale at every depth."""
    for n in (47, 60, 101):
        tree = binomial_tree(0.6, LevelGrid(2.0, n), 0.7, 0.3)
        assert by_level(tree.belief, tree.first)[44].max() == 1.0
        ref = refine_process(tree, BinaryExperiment(1.0, 0.0, (1,)))
        assert np.isin(ref.belief[ref.first[1]:], (0.0, 1.0)).all()


def test_refinements_never_undercut_dp(subtests=None):
    tree = binomial_tree(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, q = sorted(rng.uniform(0.1, 0.9, size=2))
        if q - p < 0.05:
            q = min(0.95, q + 0.1)
        levels = tuple(int(x) for x in rng.choice(GRID.n, size=2,
                                                  replace=False))
        ref = refine_process(tree, BinaryExperiment(q, p, levels))
        assert evaluate_adaptive(pol, ref, AGENT, PRINCIPAL) \
            >= pol.value - 1e-8


def test_mismatched_grid_rejected():
    """Any grid that is not the tree's LevelGrid is refused, one whose l_max
    is an ulp off included."""
    tree = binomial_tree(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    for grid in (LevelGrid(2.0, 5), LevelGrid(math.nextafter(2.0, 3.0), 9)):
        other = binomial_tree(0.6, grid)
        with pytest.raises(AlignmentError):
            evaluate_adaptive(pol, other, AGENT, PRINCIPAL)


_SIGNAL_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


@given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
       mu0=st.floats(0.05, 0.95), p=_SIGNAL_PROB, q=_SIGNAL_PROB,
       levels=st.lists(st.integers(0, 11), max_size=3))
@settings(max_examples=80, deadline=None)
def test_refinement_projects_onto_tree(seed, n, mu0, p, q, levels):
    """Random trees hold beliefs 0 and 1, so every edge rule of the Bayes
    update runs.  Summing the refined level masses over each planner node
    gives the tree's level masses, and the refined agent never leaves the
    principal below the DP value.  Signal levels are taken mod n, onto the
    tree."""
    grid = LevelGrid(2.0, n)
    tree = random_tree(mu0, grid, seed)
    ref = refine_process(tree, BinaryExperiment(p, q, tuple(l % n for l in levels)))
    tree_mass, ref_mass = tree.root_dist, ref.root_dist
    parent = planner_nodes(ref, np.diff(tree.first))
    for j in range(n):
        if j:
            tree_mass = times_kernel(tree_mass, kernel(tree, j - 1))
            ref_mass = times_kernel(ref_mass, kernel(ref, j - 1))
        proj = np.bincount(parent[j], weights=ref_mass,
                           minlength=len(tree_mass))
        np.testing.assert_allclose(proj, tree_mass, rtol=0, atol=1e-12)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    assert evaluate_adaptive(pol, ref, AGENT, PRINCIPAL) >= pol.value - 1e-8


def _refine_by_loops(tree, p, q, levels):
    """Node-by-node reference for refine_process: scalar Bayes updates and
    one kernel entry per (node, signal count, successor)."""
    n = tree.grid.n
    m_at = np.cumsum([j in levels for j in range(n)])
    t_beliefs = by_level(tree.belief, tree.first)

    def belief(b, w, m):
        never1 = (p == 0.0 and w > 0) or (p == 1.0 and w < m)
        never0 = (q == 0.0 and w > 0) or (q == 1.0 and w < m)
        # a history impossible under one state settles the belief, also
        # where b is 0 or 1
        if never1 != never0:
            return 1.0 if never0 else 0.0
        if never1 or b <= 0.0 or b >= 1.0:
            return b
        # the log-likelihood ratio, each signal kind counted where it occurs
        log_lr = ((w * np.log(p / q) if w else 0.0)
                  + ((m - w) * np.log((1 - p) / (1 - q)) if m > w else 0.0))
        with np.errstate(over="ignore"):
            odds = b / (1.0 - b) * np.exp(log_lr)
        return odds / (1.0 + odds) if odds < np.inf else 1.0

    beliefs = [np.array([belief(float(b), w, int(m)) for b in bl
                         for w in range(m + 1)])
               for bl, m in zip(t_beliefs, m_at)]
    root = tree.root_dist.copy()
    if 0 in levels:
        pr_up = t_beliefs[0] * p + (1 - t_beliefs[0]) * q
        root = np.ravel([(r * (1 - u), r * u)
                         for r, u in zip(tree.root_dist, pr_up)])
    kernels = []
    for j in range(n - 1):
        s, sn = m_at[j] + 1, m_at[j + 1] + 1
        K = np.zeros((len(beliefs[j]), len(beliefs[j + 1])))
        base = kernel(tree, j).toarray()
        for i, b in enumerate(t_beliefs[j]):
            for w in range(s):
                mu = beliefs[j][i * s + w]
                for ip in np.nonzero(base[i] > 0)[0]:
                    bp = float(t_beliefs[j + 1][ip])
                    k1 = base[i, ip] * (bp / b) if b > 0 else base[i, ip]
                    k0 = base[i, ip] * ((1 - bp) / (1 - b)) if b < 1 else base[i, ip]
                    pr1, pr0 = mu * k1, (1 - mu) * k0
                    if sn > s:
                        K[i * s + w, ip * sn + w + 1] = pr1 * p + pr0 * q
                        K[i * s + w, ip * sn + w] = pr1 * (1 - p) + pr0 * (1 - q)
                    else:
                        K[i * s + w, ip * sn + w] = pr1 + pr0
        # each row is renormalised by the left-to-right sum of its nonzeros
        kernels.append(K / np.array([sum(r[r != 0]) for r in K])[:, None])
    parent = [np.repeat(np.arange(len(bl)), m + 1)
              for bl, m in zip(t_beliefs, m_at)]
    return beliefs, kernels, root, parent


@pytest.mark.parametrize("make_tree", [
    lambda g: binomial_tree(0.6, g), lambda g: random_tree(0.6, g, 3),
    lambda g: random_tree(0.3, g, 8), lambda g: no_learning(0.6, g)],
    ids=["binomial", "random3", "random8", "no_learning"])
@pytest.mark.parametrize("p,q,levels", [(0.8, 0.3, (0, 3)), (1.0, 0.0, (2,)),
                                        (0.6, 0.0, (1, 5, 6)),
                                        (0.3, 0.9, (0,))])
def test_refinement_matches_loop_reference_bitwise(make_tree, p, q, levels):
    tree = make_tree(GRID)
    ref = refine_process(tree, BinaryExperiment(p, q, levels))
    beliefs, kernels, root, parent = _refine_by_loops(tree, p, q, levels)
    got_kernels = [kernel(ref, j).toarray() for j in range(ref.grid.n - 1)]
    for got, want in [(by_level(ref.belief, ref.first), beliefs),
                      (got_kernels, kernels),
                      ((ref.root_dist,), (root,)),
                      (planner_nodes(ref, np.diff(tree.first)), parent)]:
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p,q,levels", [(0.8, 0.3, (0, 3)),
                                        (0.6, 0.0, (1, 5, 6))])
def test_refinement_over_several_level_runs_matches_loop_reference(
        monkeypatch, p, q, levels):
    """With CHUNK at 30 entries the refinements of the bitwise test above
    are built in several level runs, some of several levels, each cut into
    its levels at offsets; they still equal the loop reference bitwise."""
    runs = []

    def recorded(ends):
        for run in processes.level_runs(ends):
            runs.append(run)
            yield run

    monkeypatch.setattr(processes, "CHUNK", 30)
    monkeypatch.setattr(adaptive, "level_runs", recorded)
    for make_tree in (lambda g: binomial_tree(0.6, g),
                      lambda g: random_tree(0.6, g, 3)):
        runs.clear()
        test_refinement_matches_loop_reference_bitwise(make_tree, p, q, levels)
        assert len(runs) > 1 and max(j1 - j0 for j0, j1 in runs) > 1


def _faults(proc):
    """Copies of proc's arrays with one fault each, in the first kernel j of
    its last level run at CHUNK = 30, with the refusal each must meet: a
    column past the next level, a row's first two columns swapped (where a
    row there has two), a negative entry, an entry off its row sum, and a
    node belief moved 1e-6 off its successors' mean (which its parents at
    level j - 1 may see first, or at level 0 the root's mean)."""
    first, indptr = proc.first, proc.indptr
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "CHUNK", 30)
        j = list(processes.level_runs(indptr[first[1:-1]].tolist()))[-1][0]
    e = indptr[first[j]]
    two = [r for r in range(first[j], first[j + 1])
           if indptr[r + 1] - indptr[r] >= 2]
    for fault, match in (
            ("column", f"kernel {j} has wrong shape"),
            ("order", f"kernel {j} columns must increase"),
            ("sign", f"kernel {j} has negative entries"),
            ("sum", f"kernel {j} rows must sum to 1"),
            ("drift", f"martingale violated at level ({j}|{j - 1}):"
                      "|root mean belief")):
        if fault == "order" and not two:
            continue
        belief, indices, data = (a.copy() for a in (proc.belief, proc.indices,
                                                    proc.data))
        if fault == "column":
            indices[e] = first[j + 2] - first[j + 1]
        elif fault == "order":
            at = indptr[two[0]]
            indices[at:at + 2] = indices[at:at + 2][::-1]
        elif fault == "sign":
            data[e] = -0.5
        elif fault == "sum":
            data[e] += 1e-6
        else:
            b = belief[first[j]]
            belief[first[j]] = b + 1e-6 if b < 0.5 else b - 1e-6
        yield fault, match, (proc.grid, first, belief, indptr, indices,
                             data, proc.root_dist, proc.mu0)


def _tree_layer(make_tree, experiment):
    """What the tree layer makes of a tree and its refinement, as bytes and
    messages: the refinement's arrays (checked against the loop reference
    bitwise) with both processes' `rows`, the agent's stopping solution,
    its forward stopped mass and a simulated sample, and the DomainError
    of each of `_faults`.  A refinement refused is its message."""
    tree = make_tree()
    try:
        ref = refine_process(tree, experiment)
    except NotARefinementError as e:
        return (str(e),)
    if experiment.informative:                  # else ref is the tree
        beliefs, kernels, root, _ = _refine_by_loops(
            tree, experiment.p_given_good, experiment.p_given_bad,
            experiment.levels)
        got = [*by_level(ref.belief, ref.first), ref.root_dist,
               *(kernel(ref, j).toarray() for j in range(ref.grid.n - 1))]
        for a, b in zip(got, [*beliefs, root, *kernels], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    sol = solve_stopping(ref, AGENT, Zero())
    out = [a.tobytes() for a in (
        ref.first, ref.belief, ref.indptr, ref.indices, ref.data, ref.rows,
        ref.root_dist, tree.rows, sol.node_value, sol.node_stop,
        sol.joint_mass, forward(ref, sol.end, sol.node_stop),
        *simulate(ref, sol, 200, 3))]
    for fault, match, arrays in _faults(ref):
        with pytest.raises(DomainError, match=match) as err:
            DiscreteLearningProcess(*arrays)
        out.append((fault, str(err.value)))
    return out


@given(kind=st.sampled_from(["binomial", "random", "no_learning"]),
       n=st.integers(2, 12), mu0=st.floats(0.05, 0.95),
       seed=st.integers(0, 10_000), every=st.sampled_from([None, 1, 2]))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_tree_layer_does_not_depend_on_chunk(kind, n, mu0, seed, every):
    """Refinements of binomial, random and no-learning trees by a random
    experiment, or by signals at every level or every other one, equal the
    loop reference bitwise, and the tree layer gives the same bytes and
    refusals at the default CHUNK and with CHUNK at 30 entries: validation,
    the refinement, stopping, forward masses and simulated paths; each
    fault, in a level of a later run, raises the same DomainError."""
    grid = LevelGrid(2.0, n)
    make_tree = {"binomial": lambda: binomial_tree(mu0, grid, 0.7, 0.3),
                 "random": lambda: random_tree(mu0, grid, seed),
                 "no_learning": lambda: no_learning(mu0, grid)}[kind]
    experiment = random_experiment(np.random.default_rng(seed), n)
    if every:
        experiment = BinaryExperiment(experiment.p_given_good,
                                      experiment.p_given_bad,
                                      range(seed % 2, n, every))
    default = _tree_layer(make_tree, experiment)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "CHUNK", 30)
        assert _tree_layer(make_tree, experiment) == default


@pytest.mark.parametrize("n", [151, 1001])
def test_refinement_temporaries_stay_under_1_5_mb(n):
    """A two-signal refinement of the benchmark's largest tree (n=151) and
    of the n=1001 tree holds at most 1.5 MB beyond its result while it is
    built and validated: each pass, over a block of levels of one signal
    count and one entry count or over a run of levels, is bounded by the
    run, however large the tree (0.68 and 0.72 MB measured; 1.80 and 2.25
    MB when runs held 64K entries)."""
    tree = binomial_tree(0.6, LevelGrid(2.0, n))
    experiment = BinaryExperiment(0.7, 0.3, (n // 4, 3 * n // 4))
    tracemalloc.start()
    try:
        ref = refine_process(tree, experiment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for a in (ref.first, ref.belief, ref.indptr,
                                    ref.indices, ref.data, ref.rows,
                                    ref.root_dist))
    assert peak - result <= 1.5e6, f"{(peak - result) / 1e6:.2f} MB"


@pytest.mark.xfail(strict=True, raises=NotARefinementError,
                   reason="planner beliefs near 1 keep too few digits of "
                          "1 - b; see ROADMAP")
@pytest.mark.parametrize("n", [42, 201])
def test_signal_dense_refinement_of_a_binomial_tree_from_42_levels(n):
    """A binomial tree refined by the same signal at every level past 0 is
    refused for n >= 42 ("martingale violated at level 40"): at its node of
    belief 1 - 6.0e-8 there, the planner's own kernel given theta = 0 sums
    to 1 + 1.2e-9 on the stored floats, and the agent's sharper belief
    turns that into a drift of 2.9e-10.  At n = 201 it is refused before
    validation ("empty kernel row"): at level 167 a planner node of belief
    1 - 1.1e-16 has both successors at belief 1.0, so its kernel given
    theta = 0 is all zeros, and the row of the agent who saw 167 down
    signals there sums to its belief, 3.5e-14.  A fix shows up as an
    unexpected pass."""
    grid = LevelGrid(2.0, n)
    refine_process(binomial_tree(0.6, grid, 0.6, 0.4),
                   BinaryExperiment(0.6, 0.4, range(1, n)))


@pytest.mark.parametrize("p,q,levels", [
    (0.7, 0.3, (-1,)), (0.7, 0.3, (2.7,)), (0.7, 0.3, (True,)),
    (0.7, 0.3, 3), ("x", 0.3, (1,)), (0.7, None, (1,)),
    (1.5, 0.3, (1,))])
def test_experiment_refuses_what_it_cannot_use(p, q, levels):
    with pytest.raises(DomainError):
        BinaryExperiment(p, q, levels)


@pytest.mark.parametrize("levels", [(10,), (2, 6)])
def test_refinement_refuses_signal_levels_past_the_tree(levels):
    """A 6-level tree has levels 0..5; a signal past them is refused, not
    dropped."""
    tree = binomial_tree(0.6, LevelGrid(2.0, 6))
    for p, q in ((0.7, 0.3), (0.5, 0.5)):
        with pytest.raises(DomainError, match="past the last level 5"):
            refine_process(tree, BinaryExperiment(p, q, levels))


def _refined_no_learning_is_binomial(n, mu0, p, q, rel):
    """A no-learning tree refined by a (p, q) signal on arrival at every
    level past 0 is the binomial tree: the beliefs bitwise, and the
    no-learning planner's value against either agent within `rel`."""
    grid = LevelGrid(2.0, n)
    tree = no_learning(mu0, grid)
    ref = refine_process(tree, BinaryExperiment(p, q, range(1, n)))
    binomial = binomial_tree(mu0, grid, p, q)
    assert ref.belief.tobytes() == binomial.belief.tobytes()
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    assert evaluate_adaptive(pol, ref, AGENT, PRINCIPAL) == pytest.approx(
        evaluate_adaptive(pol, binomial, AGENT, PRINCIPAL), rel=rel, abs=0)


_INTERIOR = st.floats(0.001, 0.999)


@given(n=st.integers(2, 80), mu0=_INTERIOR, p=_INTERIOR, q=_INTERIOR)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_refined_no_learning_tree_is_the_binomial_tree(n, mu0, p, q):
    assume(abs(p - q) > 1e-15)      # closer, the experiment is uninformative
    _refined_no_learning_is_binomial(n, mu0, max(p, q), min(p, q), 1e-13)


def test_refined_no_learning_tree_is_the_binomial_tree_at_1001_levels():
    """Past about 600 signals the raw likelihood powers underflowed, and
    this refinement was refused at level 928."""
    _refined_no_learning_is_binomial(1001, 0.6, 0.7, 0.3, 1e-12)


def _loop_evaluate(policy, agent_proc, agent, principal):
    """Per-level reference for evaluate_adaptive: the agent's stop payoffs
    U(mu, l) - lambda, the planner's stops forced through the refinement's
    layout, the participation test against U(mu0, 0) and the principal's
    value summed level by level."""
    grid = agent_proc.grid
    parent = planner_nodes(agent_proc, np.diff(policy.tree.first))
    planner_stops = by_level(policy.node_stop, policy.tree.first)
    mu0 = agent_proc.mu0
    lam = policy.lambda_adaptive
    a1, a0 = agent.profile(grid.points)
    p1, p0 = principal.profile(grid.points)
    outside = float(mu0 * a1[0] + (1.0 - mu0) * a0[0])

    beliefs = by_level(agent_proc.belief, agent_proc.first)
    stop_u = [mu * a1[j] + (1.0 - mu) * a0[j] - lam
              for j, mu in enumerate(beliefs)]
    forced = [planner_stops[j][parent[j]] for j in range(grid.n)]
    values, stops = backward_by_levels(agent_proc, stop_u, forced, tie_eps=1e-9)
    if float(agent_proc.root_dist @ values[0]) < outside - 1e-9:
        return float(mu0 * p1[0] + (1.0 - mu0) * p0[0])
    total = 0.0
    for j, (mass, st) in enumerate(zip(forward_by_levels(agent_proc, stops),
                                       stops)):
        mu = beliefs[j][st]
        total += float((mass[st] * (mu * p1[j] + (1.0 - mu) * p0[j] + lam)).sum())
    return total


_EDGE_EXPERIMENTS = [BinaryExperiment(1.0, 0.0, (1,)),
                     BinaryExperiment(0.0, 1.0, (0, 4)),
                     BinaryExperiment(1.0, 0.4, (2, 5)),
                     BinaryExperiment(0.7, 0.0, (0,)),
                     BinaryExperiment(0.0, 0.6, (3,))]


@pytest.mark.parametrize("pair", [(AGENT, PRINCIPAL), cara_pair(1.0, 3.0)],
                         ids=["quadratic", "cara"])
@pytest.mark.parametrize("make_tree", [
    lambda mu0, g, seed: binomial_tree(mu0, g),
    lambda mu0, g, seed: random_tree(mu0, g, seed)],
    ids=["binomial", "random"])
def test_evaluate_matches_loop_reference(make_tree, pair):
    """evaluate_adaptive puts the tax inside the agent's and the
    principal's profiles, the reference adds it afterwards; the two agree
    to rounding on trees and their refinements, signals of accuracy 0 and 1
    included."""
    agent, principal = pair
    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 12, 31):
        grid = LevelGrid(2.0, n)
        for _ in range(4):
            # below 1/2 both pairs mostly stop at the root
            mu0 = float(rng.uniform(0.5, 0.95))
            tree = make_tree(mu0, grid, int(rng.integers(10_000)))
            pol = solve_adaptive_quota(tree, agent, principal)
            experiments = [random_experiment(rng, n) for _ in range(4)]
            experiments += [dataclasses.replace(
                e, levels=tuple(l for l in e.levels if l < n))
                for e in _EDGE_EXPERIMENTS]
            for ex in experiments:
                ref = refine_process(tree, ex)
                got = evaluate_adaptive(pol, ref, agent, principal)
                want = _loop_evaluate(pol, ref, agent, principal)
                assert got == pytest.approx(want, rel=1e-14, abs=0)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       mu0=st.floats(0.05, 0.95), binomial=st.booleans(), p=_SIGNAL_PROB,
       q=_SIGNAL_PROB, levels=st.lists(st.integers(0, 39), max_size=3),
       cara=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_adaptive_quota_and_evaluation_match_per_level_reference_bitwise(
        seed, n, mu0, binomial, p, q, levels, cara):
    """The planner's stop sets, tax and value, and the value of the quota
    against a refinement of the tree (or the tree itself, where the signal
    tells nothing), equal the per-level reference bitwise.  With CHUNK at 30
    entries, validation, the refinement and the forced masks span several
    level runs."""
    agent, principal = cara_pair(1.0, 3.0) if cara else (AGENT, PRINCIPAL)
    grid = LevelGrid(2.0, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "CHUNK", 30)
        tree = binomial_tree(mu0, grid, 0.7, 0.3) if binomial \
            else random_tree(mu0, grid, seed)
        pol = solve_adaptive_quota(tree, agent, principal)
        stop_set, lam, value = adaptive_quota_by_levels(tree, agent, principal)
        for a, b in zip(by_level(pol.node_stop, tree.first), stop_set,
                        strict=True):
            assert a.tobytes() == b.tobytes()
        assert (pol.lambda_adaptive, pol.value) == (lam, value)
        ref = refine_process(tree, BinaryExperiment(
            p, q, tuple(l % n for l in levels)))
        assert evaluate_adaptive(pol, ref, agent, principal) == \
            evaluate_by_levels(stop_set, lam, ref, agent, principal)


@pytest.mark.parametrize("n", [101, 151])
@pytest.mark.parametrize("mu0", [0.55, 0.7])
@pytest.mark.parametrize("pair", [quadratic_pair(1.0, 1.0, 1.0),
                                  cara_pair(1.0, 3.0)],
                         ids=["quadratic", "cara"])
def test_adaptive_quota_and_evaluation_match_reference_bitwise_at_trees_sizes(
        n, mu0, pair):
    """As the property above, on binomial trees of the benchmark's sizes:
    levels of up to n stopping nodes, whose weighted sums for the tax run
    through numpy's unrolled and blocked pairwise summation, and
    refinements with one and two signal levels."""
    agent, principal = pair
    tree = binomial_tree(mu0, LevelGrid(2.0, n), 0.7, 0.3)
    pol = solve_adaptive_quota(tree, agent, principal)
    stop_set, lam, value = adaptive_quota_by_levels(tree, agent, principal)
    assert pol.node_stop.tobytes() == np.concatenate(stop_set).tobytes()
    assert (pol.lambda_adaptive, pol.value) == (lam, value)
    for levels in ((n // 2,), (n // 4, 3 * n // 4)):
        ref = refine_process(tree, BinaryExperiment(0.7, 0.3, levels))
        assert evaluate_adaptive(pol, ref, agent, principal) == \
            evaluate_by_levels(stop_set, lam, ref, agent, principal)


def test_evaluate_refuses_a_level_that_is_not_a_whole_multiple():
    """A single split has 2 nodes at level 2, where the binomial planner has
    3: no layout puts each planner node over the same number of them."""
    pol = solve_adaptive_quota(binomial_tree(0.6, GRID), AGENT, PRINCIPAL)
    with pytest.raises(AlignmentError, match="agent level 2 "):
        evaluate_adaptive(pol, single_split(0.6, GRID, 0.2, 0.9), AGENT,
                          PRINCIPAL)


def test_evaluate_refuses_a_process_with_another_prior():
    """A tree on the same grid from another prior, or a refinement of it,
    is not aligned with the planner's tree, whatever its level sizes."""
    pol = solve_adaptive_quota(binomial_tree(0.6, GRID), AGENT, PRINCIPAL)
    other = binomial_tree(0.3, GRID)
    for proc in (other,
                 refine_process(other, BinaryExperiment(0.8, 0.3, (2,)))):
        with pytest.raises(AlignmentError, match="prior"):
            evaluate_adaptive(pol, proc, AGENT, PRINCIPAL)


def test_no_learning_planner_forces_every_node_of_a_level():
    """Against a one-node-per-level planner each agent level is a whole
    multiple of the planner's, so a binomial agent is accepted, and every
    node of a level is forced to stop where the planner stops."""
    tree = no_learning(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    assert pol.node_stop.any() and not pol.node_stop.all()
    agent_proc = binomial_tree(0.6, GRID)
    forced = pol.node_stop.repeat(np.diff(agent_proc.first))
    m = FixedTaxHardQuota(pol.lambda_adaptive, GRID.l_max)
    want = principal_value(solve_stopping(agent_proc, AGENT, m, forced),
                           PRINCIPAL, m)
    assert evaluate_adaptive(pol, agent_proc, AGENT, PRINCIPAL) == want


def test_declining_agent_leaves_principal_outside_option():
    """Once the tax exceeds what learning is worth to the agent, it does not
    participate and the principal gets V(mu0, 0) exactly."""
    tree = binomial_tree(0.6, GRID)
    pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
    ref = refine_process(tree, BinaryExperiment(0.8, 0.3, (0, 3)))
    outside = PRINCIPAL.indirect(0.6, 0.0)
    assert evaluate_adaptive(pol, ref, AGENT, PRINCIPAL) != outside
    forced = np.concatenate([s[p] for s, p in zip(
        by_level(pol.node_stop, tree.first),
        planner_nodes(ref, np.diff(tree.first)))])
    lam = pol.lambda_adaptive
    while True:
        lam += 0.05
        high = dataclasses.replace(pol, lambda_adaptive=lam)
        sol = solve_stopping(ref, AGENT, FixedTaxHardQuota(lam, GRID.l_max),
                             forced)
        if not sol.participation:
            break
        assert evaluate_adaptive(high, ref, AGENT, PRINCIPAL) != outside
    assert evaluate_adaptive(high, ref, AGENT, PRINCIPAL) == outside
    assert _loop_evaluate(high, ref, AGENT, PRINCIPAL) == \
        pytest.approx(outside, rel=1e-14)


def test_adaptive_pipeline_at_1001_levels_within_memory_budget():
    """The n=1001 binomial tree, its planner DP and one two-signal refinement
    (1.19 M agent nodes) with its evaluation peak at 139.8 MB under
    tracemalloc with the levels stored flat (dense kernels would take 2.7 GB
    for the tree and 18 GB for the refinement); the evaluation sets the
    peak, backward's continuations (one float per agent node) included,
    and building the refinement, whose validation keeps each entry's row,
    peaks at 109.5 MB.  The budget leaves about 30% headroom."""
    grid = LevelGrid(2.0, 1001)
    tracemalloc.start()
    try:
        tree = binomial_tree(0.6, grid)
        pol = solve_adaptive_quota(tree, AGENT, PRINCIPAL)
        ref = refine_process(tree, BinaryExperiment(0.7, 0.3, (250, 750)))
        value = evaluate_adaptive(pol, ref, AGENT, PRINCIPAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value >= pol.value - 1e-8
    assert peak <= 180e6, f"peak {peak / 1e6:.1f} MB"
