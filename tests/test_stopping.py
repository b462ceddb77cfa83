from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (CARA, BinaryExperiment, DomainError,
                         EmptyMechanismError, FixedTaxHardQuota, LevelGrid,
                         TabulatedMechanism, UnreachableLevelError, Zero,
                         adjusted_profiles, binomial_tree, cara_pair,
                         compute_robust, no_learning, one_shot_levels,
                         principal_value, quadratic_pair, random_tree,
                         refine_process, simulate, single_split,
                         solve_stopping)
from robustquota import processes
from robustquota.adversary import indifference_G
from robustquota.stopping import backward, forward

from badnews_tree import bad_news_tree
from level_reference import (backward_by_levels, by_level, forward_by_levels,
                             kernel, solve_stopping_by_levels)


def test_no_learning_under_robust_mechanism_binds():
    """Defining property of the constructed mechanism: the uninformed agent
    stops at the quota with value exactly U(mu0, 0) = 0."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 2001)
    m = FixedTaxHardQuota(0.1, 0.5)
    sol = solve_stopping(no_learning(0.6, grid), agent, m)
    assert sol.joint_level.tolist() == [0.5]
    assert sol.joint_mass.tolist() == [1.0]
    assert sol.root_value == pytest.approx(0.0, abs=1e-12)
    assert sol.participation
    assert principal_value(sol, principal, m) == pytest.approx(0.1, abs=1e-9)


def test_full_revelation_branches_decouple():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 101)
    sol = solve_stopping(single_split(0.6, grid, 0.0, 1.0), agent, Zero())
    stops = dict(zip(sol.joint_belief, sol.joint_level))
    assert [stops[1.0], stops[0.0]] == one_shot_levels(agent, [1.0, 0.0],
                                                       grid).tolist()
    expected = 0.6 * principal.indirect(1.0, stops[1.0]) \
        + 0.4 * principal.indirect(0.0, stops[0.0])
    assert principal_value(sol, principal, Zero()) == pytest.approx(expected)


def test_all_prohibited_raises():
    grid = LevelGrid(1.0, 5)
    m = TabulatedMechanism(grid, tuple([float("inf")] * 5))
    with pytest.raises(EmptyMechanismError):
        solve_stopping(no_learning(0.5, grid), CARA(1.0), m)


def test_principal_value_refuses_mass_past_the_quota():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 41)
    sol = solve_stopping(no_learning(0.6, grid), agent, Zero())
    assert sol.joint_level.max() > 0.5
    with pytest.raises(UnreachableLevelError):
        principal_value(sol, principal, FixedTaxHardQuota(0.0, 0.5))


def test_joint_mass_sums_to_one_and_conserves_belief():
    grid = LevelGrid(2.0, 15)
    tree = random_tree(0.6, grid, seed=7)
    sol = solve_stopping(tree, CARA(1.0), Zero())
    assert sol.joint_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(sol.joint_belief @ sol.joint_mass) == pytest.approx(0.6,
                                                                     abs=1e-9)


def test_nonparticipation_returns_outside_option():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(1.0, 11)
    m = FixedTaxHardQuota(5.0, 1.0)  # punitive flat tax
    sol = solve_stopping(no_learning(0.6, grid), agent, m)
    assert not sol.participation
    assert principal_value(sol, principal, m) == pytest.approx(
        principal.indirect(0.6, 0.0))


@given(seed=st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_learning_never_hurts_the_agent(seed):
    """Agent root value under any process dominates the no-learning value."""
    agent, _ = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 8)
    m = FixedTaxHardQuota(0.05, 1.5)
    tree = random_tree(0.6, grid, seed)
    base = solve_stopping(no_learning(0.6, grid), agent, m).root_value
    assert solve_stopping(tree, agent, m).root_value >= base - 1e-10


def test_value_nonincreasing_in_tax():
    agent, _ = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 21)
    tree = random_tree(0.6, grid, seed=3)
    lo = solve_stopping(tree, agent, FixedTaxHardQuota(0.05, 1.0)).root_value
    hi = solve_stopping(tree, agent, FixedTaxHardQuota(0.10, 1.0)).root_value
    assert hi <= lo + 1e-12


def test_simulate_deterministic_process_is_exact():
    grid = LevelGrid(2.0, 21)
    agent, _ = quadratic_pair(1.0, 1.0, 1.0)
    sol = solve_stopping(no_learning(0.6, grid), agent, Zero())
    levels, beliefs, mass = simulate(no_learning(0.6, grid), sol, 10, seed=1)
    assert mass.tolist() == [1.0]
    assert levels[0] == sol.joint_level[0]


def test_simulate_same_seed_identical():
    grid = LevelGrid(2.0, 11)
    tree = random_tree(0.6, grid, seed=5)
    agent, _ = cara_pair(1.0, 3.0)
    sol = solve_stopping(tree, agent, Zero())
    a = simulate(tree, sol, 500, seed=42)
    b = simulate(tree, sol, 500, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_simulate_within_dkw_band():
    """Empirical stopping-level CDF stays inside the 99% DKW band of the
    exact joint distribution."""
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 41)
    ind = indifference_G(agent, Zero(), grid, 0.5, principal)
    proc = bad_news_tree(ind.bn)
    sol = solve_stopping(proc, agent, Zero())
    n = 20_000
    levels, _, mass = simulate(proc, sol, n, seed=11)
    eps = np.sqrt(np.log(2.0 / 0.01) / (2.0 * n))
    exact_lv, exact_m = sol.joint_level, sol.joint_mass
    for q in np.linspace(0.0, 2.0, 9):
        emp = mass[levels <= q + 1e-12].sum()
        ex = exact_m[exact_lv <= q + 1e-12].sum()
        assert abs(emp - ex) <= eps


def test_backward_forced_stop_takes_stop_payoff():
    """A forced node stops and is valued at its stop payoff even where
    continuing pays more, and that value is what earlier levels see; the
    flat engine and the per-level reference agree."""
    proc = no_learning(0.5, LevelGrid(1.0, 3))
    payoff = [np.array([1.0]), np.array([0.0]), np.array([5.0])]
    forced = [np.array([False]), np.array([True]), np.array([True])]
    values, stop = backward(proc, 2, np.concatenate(payoff))
    assert values.tolist() == [5.0, 5.0, 5.0]
    assert stop.tolist() == [False, False, True]
    values, stop = backward(proc, 2, np.concatenate(payoff),
                            np.concatenate(forced))
    assert values.tolist() == [1.0, 0.0, 5.0]
    assert stop.tolist() == [True, True, True]
    assert forward(proc, 2, stop).tolist() == [1.0, 0.0, 0.0]

    values, stop_set = backward_by_levels(proc, payoff)
    assert [v[0] for v in values] == [5.0, 5.0, 5.0]
    assert [s[0] for s in stop_set] == [False, False, True]
    values, stop_set = backward_by_levels(proc, payoff, forced)
    assert [v[0] for v in values] == [1.0, 0.0, 5.0]
    assert [s[0] for s in stop_set] == [True, True, True]
    assert [m[0] for m in forward_by_levels(proc, stop_set)] == [1.0, 0.0, 0.0]


def test_solve_stopping_refuses_forced_masks_that_do_not_fit():
    """The forced mask holds one boolean per node of the process.  A single
    boolean on a binomial tree is refused, not broadcast to force every node
    (root value 0.0 against 0.4668 unforced), and so is a mask one node
    short or long, one boolean per level, a 2-d mask and a mask of 0/1
    integers; masks that fit are used."""
    grid = LevelGrid(2.0, 6)
    tree = binomial_tree(0.6, grid)
    agent = quadratic_pair(1.0, 1.0, 1.0)[0]
    free = solve_stopping(tree, agent, Zero())
    assert free.root_value == pytest.approx(0.4668, abs=1e-4)
    nodes = tree.belief.size
    for forced in (np.ones(1, dtype=bool), np.zeros(nodes - 1, dtype=bool),
                   np.zeros(nodes + 1, dtype=bool), np.ones(6, dtype=bool),
                   np.zeros((1, nodes), dtype=bool),
                   np.zeros(nodes, dtype=int)):
        with pytest.raises(DomainError, match="one boolean per node"):
            solve_stopping(tree, agent, Zero(), forced)
    none = solve_stopping(tree, agent, Zero(), np.zeros(nodes, dtype=bool))
    assert none.root_value == free.root_value
    root = solve_stopping(tree, agent, Zero(), np.ones(nodes, dtype=bool))
    assert root.root_value == agent.indirect(0.6, 0.0)


def _random_mask(proc, end, seed):
    """Each node of levels 0..end forced with probability 0.2, the nodes
    past end not."""
    mask = np.zeros(proc.belief.size, dtype=bool)
    at = proc.first[end + 1]
    mask[:at] = np.random.default_rng(seed).random(at) < 0.2
    return mask


_SIGNAL_PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99))


@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       mu0=st.floats(0.05, 0.95), binomial=st.booleans(), robust=st.booleans(),
       masked=st.booleans(), p=_SIGNAL_PROB, q=_SIGNAL_PROB,
       levels=st.lists(st.integers(0, 39), max_size=3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_solve_stopping_matches_per_level_reference_bitwise(
        seed, n, mu0, binomial, robust, masked, p, q, levels):
    """The flat engine gives the per-level reference's values, stop sets and
    joint arrays bitwise on trees and their refinements (no signal level
    drawn: the tree itself), with and without random forced masks, the
    processes built and validated over several level runs."""
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, n)
    m = compute_robust(agent, principal, mu0, grid).mechanism if robust \
        else Zero()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "CHUNK", 30)
        proc = binomial_tree(mu0, grid, 0.7, 0.3) if binomial \
            else random_tree(mu0, grid, seed)
        if levels:
            proc = refine_process(proc, BinaryExperiment(
                p, q, tuple(l % n for l in levels)))
    end = len(adjusted_profiles(agent, m, "agent", grid)[0]) - 1
    forced = _random_mask(proc, end, seed) if masked else None
    sol = solve_stopping(proc, agent, m, forced)
    values, stop_set, belief, mass, idx, root, part = \
        solve_stopping_by_levels(proc, agent, m, forced if forced is None
                                 else by_level(forced, proc.first))
    first = proc.first[:sol.end + 2]
    for got, want in [(by_level(sol.node_value, first), values),
                      (by_level(sol.node_stop, first), stop_set),
                      ((sol.joint_belief, sol.joint_mass, sol.joint_index),
                       (belief, mass, idx))]:
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (sol.root_value, sol.participation) == (root, part)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 15),
       mu0=st.floats(0.05, 0.95), family=st.sampled_from(["quadratic", "cara"]),
       robust=st.booleans())
@settings(max_examples=60, deadline=None)
def test_backward_value_is_forward_expectation(seed, n, mu0, family, robust):
    """The root value of backward induction is the expected stop payoff
    under the forward stopping law, up to the near-ties that continue while
    valued at the stop payoff (at most tie_eps per level)."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0) if family == "quadratic" \
        else cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, n)
    m = compute_robust(agent, principal, mu0, grid).mechanism if robust \
        else Zero()
    sol = solve_stopping(random_tree(mu0, grid, seed), agent, m)
    assert sol.participation
    idx = sol.joint_index
    assert np.array_equal(grid.points[idx], sol.joint_level)
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    stop_u = sol.joint_belief * a1[idx] + (1.0 - sol.joint_belief) * a0[idx]
    scale = max(np.abs(a1).max(), np.abs(a0).max())
    assert abs(sol.root_value - stop_u @ sol.joint_mass) \
        <= sol.end * 1e-9 + 1e-12 * scale


def _simulate_by_paths(proc, sol, n_paths, seed):
    """Path-by-path reference walker: path p reads its end + 1 uniforms in
    turn, as scalar draws from one `Generator(Philox(key=seed))`, and
    searches the dense row CDF at every step."""
    root_cdf = np.cumsum(proc.root_dist)
    kernel_cdfs = [np.cumsum(kernel(proc, j).toarray(), axis=1)
                   for j in range(proc.grid.n - 1)]
    stops = by_level(sol.node_stop, proc.first[:sol.end + 2])
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = {}
    for _ in range(n_paths):
        u = iter([rng.random() for _ in range(sol.end + 1)])
        node = int(np.searchsorted(root_cdf, next(u)))
        j = 0
        while not stops[j][node]:
            node = int(np.searchsorted(kernel_cdfs[j][node], next(u)))
            j += 1
        key = (float(proc.grid.points[j]), float(proc.beliefs[j][node]))
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    return (np.array([k[0] for k in keys]), np.array([k[1] for k in keys]),
            np.array([counts[k] / n_paths for k in keys]))


def _badnews_process(grid):
    agent, principal = cara_pair(1.0, 3.0)
    return bad_news_tree(indifference_G(agent, Zero(), grid, 0.5, principal).bn)


@pytest.mark.parametrize("make", [
    lambda g: binomial_tree(0.6, g, 0.7, 0.3),
    lambda g: random_tree(0.6, g, seed=5), _badnews_process],
    ids=["binomial", "random", "badnews"])
def test_simulate_matches_path_by_path_walk_bitwise(make):
    grid = LevelGrid(2.0, 31)
    proc = make(grid)
    agent, _ = cara_pair(1.0, 3.0)
    sol = solve_stopping(proc, agent, Zero())
    for seed in (0, 42):
        got = simulate(proc, sol, 700, seed)
        want = _simulate_by_paths(proc, sol, 700, seed)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_simulate_over_several_row_chunks_matches_path_by_path_walk(
        monkeypatch):
    """With CHUNK at 7 rows the running row sums are taken over many chunks
    of rows, of a refinement whose rows hold 1 to 4 entries; the walk still
    equals the path-by-path reference bitwise."""
    monkeypatch.setattr(processes, "CHUNK", 7)
    grid = LevelGrid(2.0, 15)
    for tree in (binomial_tree(0.6, grid, 0.7, 0.3), random_tree(0.6, grid, 5)):
        proc = refine_process(tree, BinaryExperiment(0.8, 0.3, (0, 4, 9)))
        assert np.diff(proc.indptr).max() == 4
        sol = solve_stopping(proc, cara_pair(1.0, 3.0)[0], Zero())
        got = simulate(proc, sol, 400, 7)
        want = _simulate_by_paths(proc, sol, 400, 7)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_draw_above_row_total_raises_without_reading_next_row():
    """Row 0 of the first kernel holds only half its mass: a draw above 0.5
    must raise, not step into row 1's column."""
    grid = LevelGrid(1.0, 3)
    proc = single_split(0.6, grid, 0.0, 1.0)
    sol = solve_stopping(proc, CARA(1.0), Zero())
    sol = replace(sol, end=2, node_stop=np.array([False, False, False, False,
                                                  True, True]))
    assert proc.kernels[0].data.tolist() == [1.0, 1.0]
    proc.data[0] = 0.5          # the block's first entry: row 0 of kernel 0
    with pytest.raises(DomainError, match="kernel 0 row"):
        simulate(proc, sol, 50, seed=3)


def test_simulate_across_draw_blocks_matches_path_by_path_walk():
    """At 1201 levels a block holds 873 paths' draws, so 880 paths take two
    blocks."""
    grid = LevelGrid(2.0, 1201)
    proc = _badnews_process(grid)
    sol = solve_stopping(proc, cara_pair(1.0, 3.0)[0], Zero())
    got = simulate(proc, sol, 880, seed=9)
    want = _simulate_by_paths(proc, sol, 880, seed=9)
    assert len(got[0]) > 1
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed,n_paths", [
    (-1, 10), (2 ** 64, 10), (1.5, 10), (True, 10), ("1", 10),
    (1, 2.5), (1, True), (1, 0)])
def test_simulate_refuses_a_bad_seed_or_path_count(seed, n_paths):
    grid = LevelGrid(2.0, 5)
    tree = binomial_tree(0.6, grid)
    sol = solve_stopping(tree, cara_pair(1.0, 3.0)[0], Zero())
    with pytest.raises(DomainError, match="seed|n_paths"):
        simulate(tree, sol, n_paths, seed)


def test_simulate_refuses_a_solution_of_another_process():
    grid = LevelGrid(2.0, 21)
    sol = solve_stopping(random_tree(0.6, grid, 3), CARA(1.0), Zero())
    with pytest.raises(DomainError, match="another process"):
        simulate(binomial_tree(0.6, grid), sol, 200, 1)


def _cdf_gap(x_sim, m_sim, x_exact, m_exact):
    """Largest gap between the simulated and exact CDFs of one coordinate."""
    pts = np.union1d(x_sim, x_exact)
    emp = np.array([m_sim[x_sim <= q + 1e-12].sum() for q in pts])
    ex = np.array([m_exact[x_exact <= q + 1e-12].sum() for q in pts])
    return float(np.abs(emp - ex).max())


@given(tree_seed=st.integers(0, 10_000), n=st.integers(2, 20),
       mu0=st.floats(0.1, 0.9), binomial=st.booleans(), robust=st.booleans(),
       sim_seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_simulated_law_within_dkw_band(tree_seed, n, mu0, binomial, robust,
                                       sim_seed):
    """The simulated level and belief CDFs each stay within the DKW band of
    the exact joint law; the two bands share a confidence of 1 - 1e-6."""
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, n)
    proc = binomial_tree(mu0, grid, 0.7, 0.3) if binomial \
        else random_tree(mu0, grid, tree_seed)
    m = compute_robust(agent, principal, mu0, grid).mechanism if robust \
        else Zero()
    sol = solve_stopping(proc, agent, m)
    n_paths = 2_000
    levels, beliefs, mass = simulate(proc, sol, n_paths, sim_seed)
    eps = np.sqrt(np.log(4.0 / 1e-6) / (2.0 * n_paths))
    assert _cdf_gap(levels, mass, sol.joint_level, sol.joint_mass) <= eps
    assert _cdf_gap(beliefs, mass, sol.joint_belief, sol.joint_mass) <= eps
