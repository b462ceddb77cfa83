import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from robustquota import (CARA, DomainError, LevelGrid, Quadratic, Tabulated,
                         Zero, cara_pair, compute_joint_robust, compute_robust,
                         quadratic_pair, verify_guarantee)
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
