import numpy as np
import pytest

from robustquota import (BadNewsProcess, DomainError, EmptyMechanismError,
                         FixedTaxHardQuota, LevelGrid, TabulatedMechanism, Zero,
                         adjusted_profiles, cara_pair,
                         no_learning, obedience_slacks, one_shot_levels,
                         solve_badnews_lp, solve_stopping,
                         tree_oracle_worst_case)
from robustquota.adversary import badnews_value, indifference_G

from badnews_tree import bad_news_tree
from level_reference import by_level, kernel, times_kernel

GRID = LevelGrid(2.0, 41)


def _uniform_bn(mu0=0.5, grid=GRID):
    g = np.full(grid.n, (1.0 - mu0) / (grid.n - 1))
    g[0] = 0.0
    return BadNewsProcess(grid, g, mu0)


def test_cont_belief_martingale_identity():
    bn = _uniform_bn()
    lam = bn.cont_belief()
    assert np.allclose((1.0 - bn.G) * lam, bn.mu0)
    assert lam[0] == pytest.approx(0.5)
    assert lam[-1] == pytest.approx(1.0)


def test_g_must_be_nondecreasing_with_right_total():
    g = np.zeros(GRID.n)
    g[1], g[2] = -0.01, 0.51      # right total, one negative increment
    with pytest.raises(DomainError, match="nonnegative"):
        BadNewsProcess(GRID, g, 0.5)
    with pytest.raises(DomainError, match="must equal"):
        BadNewsProcess(GRID, np.full(GRID.n, 0.3 / GRID.n), 0.5)


def test_a_process_is_its_increments():
    """The last reachable level is read off g, which must be 1-D and fit
    the grid."""
    g = np.zeros(11)
    g[0] = 0.5
    assert BadNewsProcess(GRID, g, 0.5).end == 10
    assert BadNewsProcess(GRID, [0.5], 0.5).end == 0
    for bad in (np.zeros(0), np.full(GRID.n + 1, 0.5 / (GRID.n + 1)),
                np.full((2, 5), 0.05), 0.5):
        with pytest.raises(DomainError, match="reachable grid point"):
            BadNewsProcess(GRID, bad, 0.5)


def test_to_process_reproduces_beliefs_and_mass():
    bn = _uniform_bn()
    proc = bad_news_tree(bn)
    lam = bn.cont_belief()
    for j, b in enumerate(by_level(proc.belief, proc.first)):
        assert b[1] == pytest.approx(lam[j])
    # surviving mass after j steps equals 1 - G_j
    mass = proc.root_dist.copy()
    for j in range(GRID.n - 1):
        mass = times_kernel(mass, kernel(proc, j))
        assert mass[1] == pytest.approx(1.0 - bn.G[j + 1])


def test_worst_process_ends_at_the_quota():
    agent, principal = cara_pair(1.0, 3.0)
    bn = solve_badnews_lp(agent, principal, FixedTaxHardQuota(0.0, 1.0),
                          GRID, 0.5).bn
    assert GRID.points[bn.end] == pytest.approx(1.0)
    assert solve_badnews_lp(agent, principal, Zero(), GRID, 0.5).bn.end \
        == GRID.n - 1


def test_all_levels_prohibited_is_one_error():
    grid = LevelGrid(1.0, 4)
    m = TabulatedMechanism(grid, (float("inf"),) * 4)
    agent, principal = cara_pair(1.0, 3.0)
    calls = [lambda: adjusted_profiles(agent, m, "agent", grid),
             lambda: solve_badnews_lp(agent, principal, m, grid, 0.5),
             lambda: tree_oracle_worst_case(agent, principal, m, grid,
                                            [0.0, 1.0], 0.5),
             lambda: solve_stopping(no_learning(0.5, grid), agent, m),
             lambda: one_shot_levels(agent, [0.5], grid, m)]
    for call in calls:
        with pytest.raises(EmptyMechanismError, match="all levels prohibited"):
            call()


def test_badnews_value_refuses_a_process_past_the_quota():
    agent, principal = cara_pair(1.0, 3.0)
    bn = indifference_G(agent, Zero(), GRID, 0.5, principal).bn
    with pytest.raises(DomainError, match="last allowed level"):
        badnews_value(bn, agent, principal, FixedTaxHardQuota(0.0, 1.0))


def test_indifference_construction_is_obedient():
    agent, principal = cara_pair(1.0, 3.0)
    ind = indifference_G(agent, Zero(), GRID, 0.5, principal)
    e = ind.bn.end
    a1, a0 = adjusted_profiles(agent, Zero(), "agent", GRID)
    a1, a0 = a1[:e + 1], a0[:e + 1]
    slacks = obedience_slacks(ind.bn.g, a1, a0, ind.bn.mu0)
    max_violation = max(0.0, -slacks.min())
    scale = max(1.0, np.abs(a0).max(), np.abs(a1).max())
    assert max_violation <= 1e-9 * scale
    # every level in the support should be (weakly) binding
    assert max_violation == pytest.approx(0.0, abs=1e-9)


def test_agent_stopping_on_badnews_tree_follows_arrivals():
    """On the compact two-node tree the agent's bad-news branch stops
    immediately (belief 0 under a CARA agent never continues)."""
    agent, principal = cara_pair(1.0, 3.0)
    ind = indifference_G(agent, Zero(), GRID, 0.5, principal)
    sol = solve_stopping(bad_news_tree(ind.bn), agent, Zero())
    at_zero = sol.joint_belief <= 1e-12
    # belief-0 mass stops where it arrives: total arrival mass 1 - mu0
    assert sol.joint_mass[at_zero].sum() == pytest.approx(0.5, abs=1e-9)
