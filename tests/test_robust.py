import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from robustquota import (CARA, CRRA, DomainError, FixedTaxHardQuota, LevelGrid,
                         Linear, Quadratic, RobustQuotaError, Tabulated, Zero,
                         cara_pair, compute_joint_robust, compute_robust,
                         payoff_gap, quadratic_pair, solve_badnews_lp,
                         verify_guarantee)
from robustquota import robust
from robustquota.robust import surplus_curve


def test_quadratic_closed_form():
    # surplus 0.4 l - 0.4 l^2 peaks at l = 0.5 with value 0.1
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 2001)
    rob = compute_robust(agent, principal, 0.6, grid)
    assert rob.L_star == pytest.approx(0.5, abs=grid.h)
    assert rob.lambda_star == pytest.approx(0.1, abs=1e-9)
    assert rob.guarantee == pytest.approx(0.1, abs=1e-9)
    assert np.allclose(rob.surplus_curve,
                       0.4 * grid.points - 0.4 * grid.points ** 2)


def test_degenerate_prior():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 201)
    rob = compute_robust(agent, principal, 0.0, grid)
    assert rob.L_star == 0.0
    assert rob.guarantee == pytest.approx(principal.indirect(0.0, 0.0))


def test_guarantee_matches_1d_optimizer():
    agent, principal = cara_pair(1.0, 3.0)
    mu0 = 0.9
    grid = LevelGrid(2.0, 20001)
    rob = compute_robust(agent, principal, mu0, grid)

    def neg_surplus(l):
        return -(agent.indirect(mu0, l) - agent.indirect(mu0, 0.0)
                 + principal.indirect(mu0, l))

    res = minimize_scalar(neg_surplus, bounds=(0.0, 2.0), method="bounded",
                          options={"xatol": 1e-12})
    assert rob.guarantee == pytest.approx(-res.fun, abs=1e-6)


def test_translation_invariance():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 501)
    shifted = Tabulated(grid, tuple(agent.u1(grid.points) + 3.7),
                        tuple(agent.u0(grid.points) + 3.7))
    a = compute_robust(agent, principal, 0.6, grid)
    b = compute_robust(shifted, principal, 0.6, grid)
    assert a.L_star == b.L_star
    assert a.guarantee == pytest.approx(b.guarantee, abs=1e-12)
    assert a.lambda_star == pytest.approx(b.lambda_star, abs=1e-12)


def test_singleton_ambiguity_equals_plain():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 501)
    a = compute_robust(agent, principal, 0.6, grid)
    b = compute_joint_robust((agent,), principal, 0.6, grid)
    assert (a.L_star, a.lambda_star, a.guarantee) == \
        (b.L_star, b.lambda_star, b.guarantee)


@pytest.mark.parametrize("pair,mu0", [(quadratic_pair(1.0, 1.0, 1.0), 0.6),
                                      (cara_pair(1.0, 3.0), 0.9),
                                      (cara_pair(1.0, 3.0), 0.0),
                                      (cara_pair(2.0, 0.5), 1.0)])
def test_robust_is_smallest_surplus_maximizer(pair, mu0):
    """The quota sits at the first grid maximizer of S and the tax makes
    the no-learning agent indifferent there, bit for bit."""
    agent, principal = pair
    grid = LevelGrid(2.0, 401)
    S = surplus_curve(agent, principal, mu0, grid)
    j = int(np.argmax(S))
    L = float(grid.points[j])
    lam = float(agent.indirect(mu0, L) - agent.indirect(mu0, 0.0))
    rob = compute_robust(agent, principal, mu0, grid)
    assert (rob.L_star, rob.lambda_star, rob.guarantee) == (L, lam, float(S[j]))
    assert rob.surplus_curve.tobytes() == S.tobytes()
    assert (rob.mechanism.lam, rob.mechanism.quota) == (lam, L)


@pytest.mark.parametrize("mu0", [1.5, -0.1, np.nan])
@pytest.mark.parametrize("compute", [
    lambda mu0: compute_joint_robust([Quadratic(1, 1, 0)], Quadratic(1, 1, 1),
                                     mu0, LevelGrid(2, 11)),
    lambda mu0: compute_robust(Quadratic(1, 1, 0), Quadratic(1, 1, 1), mu0,
                               LevelGrid(2, 11))], ids=["joint", "plain"])
def test_prior_outside_unit_interval_rejected(compute, mu0):
    with pytest.raises(DomainError, match="outside"):
        compute(mu0)


@pytest.mark.parametrize("ambiguity", [(), []], ids=["tuple", "list"])
def test_joint_robust_refuses_empty_ambiguity(ambiguity):
    with pytest.raises(DomainError, match="empty"):
        compute_joint_robust(ambiguity, CARA(3.0), 0.6, LevelGrid(2.0, 11))


def test_joint_robust_monotone_in_ambiguity():
    principal = CARA(3.0)
    grid = LevelGrid(2.0, 501)
    small = (CARA(1.0),)
    large = (CARA(1.0), CARA(2.0), CARA(1.5))
    g_small = compute_joint_robust(small, principal, 0.6, grid).guarantee
    g_large = compute_joint_robust(large, principal, 0.6, grid).guarantee
    assert g_large <= g_small + 1e-12


@pytest.mark.parametrize("agents", [(), []], ids=["tuple", "list"])
def test_verify_guarantee_refuses_no_agents(agents):
    """With no agent payoff nothing is attacked, so there is no worst value
    to hold against the guarantee."""
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 11)
    rob = compute_robust(agent, principal, 0.6, grid)
    with pytest.raises(DomainError, match="no agent payoff"):
        verify_guarantee(rob, agents, principal, grid)


def test_verify_guarantee_report():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 101)
    rob = compute_robust(agent, principal, 0.6, grid)
    rep = verify_guarantee(rob, agent, principal, grid)
    assert rep.ok
    assert rep.min_value >= rob.guarantee - 1e-8
    assert abs(rep.min_value - rep.guarantee) <= 1e-6


def test_verify_guarantee_skips_the_oracle_where_certified(monkeypatch):
    """The LP's certificate covers every learning process here, so no
    oracle runs and the report holds the LP value alone."""
    def refuse(*args):
        raise AssertionError("the tree oracle ran on a certified instance")

    monkeypatch.setattr(robust, "tree_oracle_worst_case", refuse)
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 101)
    rob = compute_robust(agent, principal, 0.6, grid)
    rep = verify_guarantee(rob, agent, principal, grid)
    assert rep.ok
    ((lp_value, oracle_value),) = rep.per_agent
    assert oracle_value is None
    assert rep.min_value == lp_value


def test_verify_guarantee_runs_the_oracle_where_uncertified():
    """The earlier-stopping premise fails and the LP is not certified over
    all processes, so the 4-level oracle still attacks, and its value,
    below the LP's, is the report's worst value."""
    agent, principal = cara_pair(3.0, 1.5)
    grid = LevelGrid(2.0, 11)
    rob = compute_robust(agent, principal, 0.7, grid)
    lp = solve_badnews_lp(agent, principal, rob.mechanism, grid, 0.7)
    assert not lp.premise_ok and not lp.all_processes
    rep = verify_guarantee(rob, agent, principal, grid)
    ((lp_value, oracle_value),) = rep.per_agent
    assert lp_value == lp.value
    assert oracle_value == pytest.approx(-0.870336, abs=1e-6)
    assert rep.min_value == oracle_value
    assert not rep.ok


def _no_oracle(*args):
    raise AssertionError("the tree oracle ran on a certified instance")


def test_payoff_gap_reads_the_certificate_not_the_premise(monkeypatch):
    """The earlier-stopping premise fails, but the LP is certified over all
    learning processes, so no oracle runs and the LP value is the answer."""
    monkeypatch.setattr(robust, "tree_oracle_worst_case", _no_oracle)
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 401)
    lp = solve_badnews_lp(agent, principal, Linear(0.02), grid, 0.6)
    assert not lp.premise_ok and lp.all_processes
    gap = payoff_gap(Linear(0.02), agent, principal, grid, 0.6)
    assert gap.route == "badnews_lp"
    assert gap.per_agent == ((lp.value, None),)
    assert gap.min_value == lp.value
    assert gap.delta == gap.guarantee - lp.value


def test_payoff_gap_attacks_where_the_premise_holds_uncertified():
    """The premise holds but the payoffs are not single-peaked and the LP is
    not certified over all processes, so the oracle attacks too and finds
    a process worth less than every bad-news one."""
    agent, principal = CRRA(1.80997), CRRA(0.872995)
    grid, mu0 = LevelGrid(4.0, 33), 0.89248
    lp = solve_badnews_lp(agent, principal, Zero(), grid, mu0)
    assert lp.premise_ok and not lp.all_processes
    gap = payoff_gap(Zero(), agent, principal, grid, mu0)
    assert gap.route == "tree_oracle"
    assert gap.per_agent == ((1.2165990224976837, 1.2161719753831581),)
    assert gap.min_value == 1.2161719753831581


def test_one_allowed_level_never_reaches_the_oracle(monkeypatch):
    """With level 0 allowed alone there is no step to test, so the LP is
    certified and the one allowed level's value is the answer, for any
    mechanism and for the robust one at L_star 0."""
    monkeypatch.setattr(robust, "tree_oracle_worst_case", _no_oracle)
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 101)
    gap = payoff_gap(FixedTaxHardQuota(0.05, 0.0), agent, principal, grid,
                     0.6)
    assert gap.per_agent == ((0.05, None),)
    rob = compute_robust(agent, principal, 0.3, grid)
    assert rob.L_star == 0.0
    rep = verify_guarantee(rob, agent, principal, grid)
    assert rep.per_agent == ((0.0, None),)
    assert rep.ok


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair=st.one_of(
           st.tuples(*[st.floats(0.5, 2.0)] * 3).map(
               lambda p: quadratic_pair(*p)),
           st.tuples(*[st.floats(0.5, 3.0)] * 2).map(lambda p: cara_pair(*p))),
       l_max=st.sampled_from([1.0, 2.0, 4.0]), n=st.integers(3, 199),
       mu0=st.floats(0.2, 0.8))
# test_verify_guarantee_runs_the_oracle_where_uncertified's instance
@example(pair=cara_pair(3.0, 1.5), l_max=2.0, n=11, mu0=0.7)
def test_payoff_gap_of_the_robust_mechanism_is_its_guarantee_check(
        pair, l_max, n, mu0):
    """One attack: on the robust mechanism payoff_gap and verify_guarantee
    report the same guarantee, worst value and per-agent values, bitwise,
    or refuse with the same error class."""
    agent, principal = pair
    grid = LevelGrid(l_max, n)
    rob = compute_robust(agent, principal, mu0, grid)
    try:
        rep = verify_guarantee(rob, agent, principal, grid)
    except RobustQuotaError as e:
        with pytest.raises(type(e)):
            payoff_gap(rob.mechanism, agent, principal, grid, mu0)
        return
    gap = payoff_gap(rob.mechanism, agent, principal, grid, mu0)
    assert (gap.guarantee, gap.min_value, gap.per_agent) == \
        (rep.guarantee, rep.min_value, rep.per_agent)
