import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (CARA, AmbiguitySet, DegenerateDerivativeError,
                         DomainError, Exponential, LevelGrid, Quadratic,
                         Tabulated, Zero, belief_grid, cara_pair,
                         check_assumptions, one_shot_level, one_shot_levels,
                         pseudo_inverse_beliefs, quadratic_pair,
                         risk_ratio_condition)

GRID = LevelGrid(2.0, 401)


def test_cara_one_shot_matches_closed_form():
    # argmax of mu(-e^{-g l}) + (1-mu)(-e^{g l}) at l = log(mu/(1-mu))/(2g)
    gamma = 1.0
    p = CARA(gamma)
    for mu in (0.55, 0.7, 0.9):
        expected = np.log(mu / (1 - mu)) / (2 * gamma)
        assert one_shot_level(p, mu, GRID) == pytest.approx(expected,
                                                            abs=GRID.h)


def test_one_shot_tie_goes_to_largest():
    g = LevelGrid(1.0, 3)
    flat = Quadratic(1.0, 1.0, 0.0)
    # at mu = 0.5 the agent indirect utility is identically zero
    assert one_shot_level(flat, 0.5, g) == 1.0


def test_one_shot_levels_vectorized_agrees():
    p = CARA(1.0)
    mus = np.linspace(0.0, 1.0, 41)
    vec = one_shot_levels(p, mus, GRID)
    assert np.allclose(vec, [one_shot_level(p, m, GRID) for m in mus])


def test_pseudo_inverse_matches_cara_closed_form():
    gamma = 1.0
    p = CARA(gamma)
    mus = pseudo_inverse_beliefs(p, GRID, n_mu=4001)
    for l in (0.25, 0.5, 1.0):
        mu = mus[GRID.index_of(l)]
        assert mu < 1.0
        assert mu == pytest.approx(1.0 / (1.0 + np.exp(-2 * gamma * l)),
                                   abs=2e-3)


def test_pseudo_inverse_saturates():
    p = CARA(1.0)
    mu = pseudo_inverse_beliefs(p, GRID)[-1]
    # reaching l_max needs odds e^{2 l_max}; belief ~0.982 < 1, not saturated
    assert 0.9 < mu < 1.0

    g = LevelGrid(1.0, 11)
    assert pseudo_inverse_beliefs(_humped(g), g)[-1] == 1.0


def _humped(g):
    """Good-state payoff peaking at l = 0.5: no belief's one-shot level
    reaches l = 1."""
    return Tabulated(g, tuple(-(g.points - 0.5) ** 2), tuple(-g.points))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["cara", "quadratic", "humped", "zigzag"]),
       param=st.floats(0.3, 3.0), l_max=st.sampled_from([1.0, 2.0, 4.0, 16.0]),
       n=st.integers(2, 41), n_mu=st.integers(2, 301))
def test_pseudo_inverse_beliefs_is_first_hit(family, param, l_max, n, n_mu):
    grid = LevelGrid(l_max, 3 if family == "zigzag" else n)
    # zigzag: one-shot levels 0, then l_max, then l_max/2 as the belief rises
    p = {"cara": lambda: CARA(param),
         "quadratic": lambda: Quadratic(1.0, param, 0.0),
         "humped": lambda: _humped(grid),
         "zigzag": lambda: Tabulated(grid, (0.0, 1.0, 0.5),
                                     (0.0, -2.0, -0.5))}[family]()
    mus = belief_grid(n_mu)
    top = one_shot_levels(p, mus, grid).max()
    for l, mu in zip(grid.points, pseudo_inverse_beliefs(p, grid, n_mu=n_mu)):
        def reaches(b):
            return one_shot_level(p, b, grid) >= l - 1e-12
        if top < l - 1e-12:
            # no belief reaches l, so neither does belief 1
            assert mu == 1.0 and not reaches(1.0)
            continue
        i = int(np.searchsorted(mus, mu))
        assert mus[i] == mu and reaches(mu)
        assert i == 0 or not reaches(mus[i - 1])


def test_check_assumptions_pass_standard_pairs():
    for agent, principal in (quadratic_pair(1.0, 1.0, 1.0),
                             cara_pair(1.0, 3.0)):
        rep = check_assumptions(agent, principal, GRID, n_mu=201)
        assert rep.all_pass, rep.to_dict()


def test_swapped_risk_aversion_flagged_with_witness():
    # a principal more risk-tolerant than the agent develops further
    agent, principal = CARA(3.0), CARA(1.0)
    rep = check_assumptions(agent, principal, GRID, n_mu=201)
    assert not rep.agent_develops_more
    mu, lv = rep.witness_agent_more
    assert one_shot_level(principal, mu, GRID) == pytest.approx(lv)


def test_principal_later_between_belief_grid_points_flagged():
    # on (0.8176, 0.8199) the principal's one-shot level is 1 and the
    # agent's 0, an interval no point of a 201-point belief grid falls in
    agent, principal = cara_pair(1.515625, 1.5)
    grid = LevelGrid(1.0, 2)
    rep = check_assumptions(agent, principal, grid, n_mu=201)
    assert not rep.agent_develops_more and not rep.all_pass
    mu, lv = rep.witness_agent_more
    assert 0.8176 < mu < 0.8199 and lv == 1.0
    assert one_shot_level(principal, mu, grid) == 1.0
    assert one_shot_level(agent, mu, grid) == 0.0


def test_quadratic_jump_at_half_reported_not_failed():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    rep = check_assumptions(agent, principal, GRID, n_mu=201)
    assert rep.monotone_levels
    assert any(abs(mu - 0.5) < 0.01 for mu, _ in rep.jumps)


def test_risk_ratio_monotone_with_exponential_tax():
    # CARA pair + exponential tax keeps |dV/dU| in the bad state monotone
    agent, principal = cara_pair(1.0, 3.0)
    for eta in (2.0, 4.0):
        rep = risk_ratio_condition(agent, principal, Exponential(eta), GRID)
        assert rep.nondecreasing


def test_risk_ratio_violated_by_overcompensating_linear_tax():
    from robustquota import Linear
    # tax beta l with beta > 1 makes the principal's bad-state marginal
    # 1 - beta + 2l change sign at l = (beta-1)/2, so |dV/dU| dips then rises
    agent = Quadratic(1.0, 1.0, 0.0)
    principal = Quadratic(1.0, 1.0, 1.0)
    rep = risk_ratio_condition(agent, principal, Linear(2.0), GRID)
    assert not rep.nondecreasing and rep.witness is not None
    assert rep.witness[0] < 0.6   # violation begins before the sign change


def test_risk_ratio_degenerate_derivative():
    g = LevelGrid(1.0, 11)
    agent = Quadratic(1.0, 1.0, 0.0)
    with pytest.raises(DegenerateDerivativeError):
        # linear tax exactly cancels the agent's bad-state marginal
        risk_ratio_condition(agent, Quadratic(1.0, 1.0, 1.0),
                             _cancelling_linear(), g)


def _cancelling_linear():
    from robustquota import Linear
    return Linear(-1.0)


def test_ambiguity_set_nonempty_and_validate():
    with pytest.raises(DomainError):
        AmbiguitySet(())
    amb = AmbiguitySet((CARA(1.0), CARA(2.0)))
    reports = amb.validate(CARA(3.0), GRID, n_mu=101)
    assert len(reports) == 2 and all(r.all_pass for r in reports)
