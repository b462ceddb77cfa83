from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (CARA, CRRA, DegenerateDerivativeError, DomainError,
                         EmptyMechanismError, Exponential, FixedTaxHardQuota,
                         LevelGrid, Linear, Quadratic, Tabulated,
                         TabulatedMechanism, Zero, adjusted_profiles,
                         belief_grid, cara_pair,
                         check_assumptions, one_shot_levels,
                         pseudo_inverse_beliefs, quadratic_pair,
                         risk_ratio_condition)
from robustquota import checks
from robustquota.checks import _EPS, _one_shot_pieces

GRID = LevelGrid(2.0, 401)


def _one_shot_level(p, mu, grid, m=Zero(), side="agent"):
    """one_shot_levels at a single belief."""
    return float(one_shot_levels(p, [mu], grid, m, side)[0])


def test_cara_one_shot_matches_closed_form():
    # argmax of mu(-e^{-g l}) + (1-mu)(-e^{g l}) at l = log(mu/(1-mu))/(2g)
    gamma = 1.0
    p = CARA(gamma)
    for mu in (0.55, 0.7, 0.9):
        expected = np.log(mu / (1 - mu)) / (2 * gamma)
        assert _one_shot_level(p, mu, GRID) == pytest.approx(expected,
                                                             abs=GRID.h)


def test_one_shot_tie_goes_to_largest():
    g = LevelGrid(1.0, 3)
    flat = Quadratic(1.0, 1.0, 0.0)
    # at mu = 0.5 the agent indirect utility is identically zero
    assert _one_shot_level(flat, 0.5, g) == 1.0
    # the regulator's levels 0.562 and 0.563 tie at mu = 0.68 (l* = 0.5625);
    # the envelope's breakpoint rounds to 0.6800000000000043, so only its
    # rounding bound sends mu = 0.68 to the larger level
    principal = Quadratic(1.0, 1.0, 1.0)
    g = LevelGrid(2.0, 2001)
    assert (_one_shot_level(principal, 0.68, g, side="principal")
            == g.points[563])
    assert (_one_shot_level(principal, 0.6799, g, side="principal")
            == g.points[562])
    # equal bad-state payoffs of 1e20 make both slopes a1 - a0 round to 1e20:
    # level 1 wins the tie at mu = 0, level 0 is better at every mu > 0
    g = LevelGrid(1.0, 2)
    big = Tabulated(g, (1.0, 0.0), (-1e20, -1e20))
    assert one_shot_levels(big, [0.0, 0.5, 1.0], g).tolist() == [1.0, 0.0, 0.0]


def _dense_levels(p, mus, grid, m, side):
    """Reference: U^phi(mu, l) = mu a1 + (1 - mu) a0 on the whole belief x
    allowed-level grid, the largest maximiser in each row."""
    a1, a0 = adjusted_profiles(p, m, side, grid)
    vals = np.outer(mus, a1) + np.outer(1.0 - mus, a0)
    # last argmax per row: argmax of the reversed columns finds the first of
    # the reversed ties, i.e. the largest level
    idx = vals.shape[1] - 1 - np.argmax(vals[:, ::-1], axis=1)
    return grid.points[idx]


def _exact_level(p, mu, grid, m, side):
    """Largest maximiser of U^phi(mu, .), evaluated exactly on the float
    data."""
    a1, a0 = adjusted_profiles(p, m, side, grid)
    mu = Fraction(mu)
    return max((mu * Fraction(x1) + (1 - mu) * Fraction(x0), lev)
               for x1, x0, lev in zip(a1, a0, grid.points))[1]


def _profile(family, mech, l_max, n, seed):
    """A seeded payoff family, mechanism and grid."""
    rng = np.random.default_rng(seed)
    grid = LevelGrid(l_max, n)
    u = rng.uniform(0.2, 3.0, 3)
    # "tied": small integer tables, so exact ties between levels are common
    p = {"cara": lambda: CARA(u[0]),
         "quadratic": lambda: Quadratic(u[0], u[1], u[2] - 0.2),
         "crra": lambda: CRRA(u[0] if abs(u[0] - 1.0) > 0.05 else 2.0),
         "tabulated": lambda: Tabulated(grid, tuple(rng.normal(size=n).cumsum()),
                                        tuple(rng.normal(size=n).cumsum())),
         "tied": lambda: Tabulated(grid, tuple(rng.integers(-3, 4, n) * 1.0),
                                   tuple(rng.integers(-3, 4, n) * 1.0))}[family]()
    m = {"zero": lambda: Zero(), "linear": lambda: Linear(u[1] - 1.6),
         "exponential": lambda: Exponential(u[1]),
         "quota": lambda: FixedTaxHardQuota(u[1], rng.uniform(0.0, l_max))
         }[mech]()
    return p, m, grid


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["cara", "quadratic", "crra", "tabulated",
                               "tied"]),
       mech=st.sampled_from(["zero", "linear", "exponential", "quota"]),
       side=st.sampled_from(["agent", "principal"]),
       l_max=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
       n=st.integers(2, 801), n_mu=st.integers(2, 1001),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_shot_levels_match_dense_reference(family, mech, side, l_max, n,
                                               n_mu, seed):
    """The envelope lookup gives the dense scan's levels on a belief grid
    that holds 0 and 1; where they differ, exact evaluation must side with
    the envelope. The last piece is the largest maximiser of a1."""
    p, m, grid = _profile(family, mech, l_max, n, seed)
    mus = belief_grid(n_mu)
    got = one_shot_levels(p, mus, grid, m, side)
    want = _dense_levels(p, mus, grid, m, side)
    for i in np.flatnonzero(got != want):
        assert _exact_level(p, mus[i], grid, m, side) == got[i]

    a1, a0 = adjusted_profiles(p, m, side, grid)
    _, _, lines, pos = _one_shot_pieces(a1, a0)
    assert lines[pos[-1]] == np.flatnonzero(a1 == a1.max()).max()


def _loop_pieces(a1, a0):
    """Reference: `_one_shot_pieces` with the hull built one line at a time
    on a stack, popping every line the new one overtakes at or before its
    start."""
    levels = np.arange(len(a1))
    slope, icpt, at1 = a1 - a0, a0, a1
    # ascending slope, then a1, then level, so that the top line at mu = 1
    # (the largest argmax of a1) ends its run of equal slopes
    order = np.lexsort((levels, at1, slope))
    top1 = len(levels) - 1 - np.argmax(at1[::-1])
    order = order[:np.flatnonzero(order == top1)[0] + 1]
    s = slope[order]
    # of equal slopes only the last (largest a1, then largest level) can be
    # on top
    keep = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    s, c = s.tolist(), icpt[order].tolist()
    hull, starts, errs = [], [], []   # errs: rounding bound of each start
    for k in keep.tolist():
        x = e = 0.0
        while hull:
            j = hull[-1]
            d = s[k] - s[j]
            x = (c[j] - c[k]) / d
            if x > starts[-1]:
                e = 4 * _EPS * (abs(c[j]) + abs(c[k]) + abs(s[j]) + abs(s[k])) / d
                break
            del hull[-1], starts[-1], errs[-1]
            x = 0.0
        if x < 1.0 or k == len(s) - 1:
            hull.append(k)
            starts.append(x)
            errs.append(e)
    return np.array(starts), np.array(errs), levels[order], np.array(hull)


def _assert_hull_matches_loop(p, m, grid, side):
    """The array-built hull against the stack: the same levels on the
    1001-point belief grid (also by the dense scan), bitwise the same pieces
    where both hold the same lines, and otherwise a line held by one hull
    only owns a piece no wider than the rounding bounds at its two ends.
    Returns whether the hulls differ."""
    a1, a0 = adjusted_profiles(p, m, side, grid)
    got = _one_shot_pieces(a1, a0)
    ref = _loop_pieces(a1, a0)
    assert np.array_equal(got[2], ref[2])
    assert got[3][-1] == ref[3][-1]
    mus = belief_grid(1001)
    levels = one_shot_levels(p, mus, grid, m, side)
    with mock.patch.object(checks, "_one_shot_pieces", _loop_pieces):
        assert np.array_equal(levels, one_shot_levels(p, mus, grid, m, side))
    assert np.array_equal(levels, _dense_levels(p, mus, grid, m, side))
    if np.array_equal(got[3], ref[3]):
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        return False
    for (starts, errs, _, pos), other in ((got, ref[3]), (ref, got[3])):
        for i in np.flatnonzero(~np.isin(pos, other)):
            assert starts[i + 1] - starts[i] <= errs[i] + errs[i + 1]
    return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["cara", "quadratic", "crra", "tabulated",
                               "tied"]),
       mech=st.sampled_from(["zero", "linear", "exponential", "quota"]),
       side=st.sampled_from(["agent", "principal"]),
       l_max=st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
       n=st.integers(2, 801), seed=st.integers(0, 2 ** 32 - 1))
def test_one_shot_pieces_match_loop_reference(family, mech, side, l_max, n,
                                              seed):
    p, m, grid = _profile(family, mech, l_max, n, seed)
    _assert_hull_matches_loop(p, m, grid, side)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,mech,side,l_max,n,seed,differ", [
    # CARA saturates at l_max = 16: the stack keeps a line whose start
    # rounds to 1 - 2e-16, within the rounding bounds of the top line at
    # mu = 1, and the array passes drop it
    ("cara", "zero", "agent", 16.0, 46, 1889514232, True),
    # integer tables under a linear tax: three lines meet within rounding
    # at mu = 0.2852, and both hulls keep the middle line's sliver
    ("tied", "linear", "agent", 4.0, 297, 54995223, False),
])
def test_one_shot_pieces_near_ties(family, mech, side, l_max, n, seed, differ):
    p, m, grid = _profile(family, mech, l_max, n, seed)
    assert _assert_hull_matches_loop(p, m, grid, side) == differ
    starts, errs, _, _ = _one_shot_pieces(*adjusted_profiles(p, m, side, grid))
    assert np.any(np.diff(starts) <= errs[:-1] + errs[1:])


def test_one_shot_pieces_drop_a_line_tied_with_both_neighbours():
    # lines 0, mu - 1/2 and 2 mu - 1 meet at mu = 1/2: the middle one is on
    # top at that belief only, so it owns no piece
    a1, a0 = np.array([0.0, 0.5, 1.0]), np.array([0.0, -0.5, -1.0])
    starts, errs, lines, pos = _one_shot_pieces(a1, a0)
    assert pos.tolist() == [0, 2] and lines.tolist() == [0, 1, 2]
    assert starts.tolist() == [0.0, 0.5]


def test_one_shot_pieces_refuse_an_empty_mechanism():
    # the pieces are built from adjusted_profiles, which refuses a mechanism
    # that prohibits every level before any line is drawn
    grid = LevelGrid(1.0, 2)
    m = TabulatedMechanism(grid, (float("inf"),) * 2)
    with pytest.raises(EmptyMechanismError, match="all levels prohibited"):
        _one_shot_pieces(*adjusted_profiles(CARA(1.0), m, "agent", grid))


@pytest.mark.parametrize("mu", [np.nan, 1.5, -0.5, "abc"])
def test_one_shot_levels_refuse_beliefs_outside_unit_interval(mu):
    p = CARA(1.0)
    with pytest.raises(DomainError):
        one_shot_levels(p, [0.5, mu], GRID)


def test_pseudo_inverse_matches_cara_closed_form():
    # U(mu, l) = U(mu, l - h) at odds mu / (1 - mu) = e^{gamma (2 l - h)}
    gamma, h = 1.0, GRID.h
    mus = pseudo_inverse_beliefs(CARA(gamma), GRID)
    l = GRID.points[1:]
    assert mus[0] == 0.0
    np.testing.assert_allclose(mus[1:],
                               1.0 / (1.0 + np.exp(-gamma * (2 * l - h))),
                               rtol=0, atol=1e-13)


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


def _zigzag(g):
    """On a 3-point grid: one-shot levels 0, then l_max from mu = 1/2, then
    l_max/2 from mu = 3/4."""
    return Tabulated(g, (0.0, 1.0, 0.5), (0.0, -2.0, -0.5))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["cara", "quadratic", "crra", "tabulated",
                               "tied", "humped", "zigzag"]),
       mech=st.sampled_from(["zero", "linear", "exponential", "quota"]),
       side=st.sampled_from(["agent", "principal"]),
       l_max=st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0]),
       n=st.integers(2, 301), seed=st.integers(0, 2 ** 32 - 1))
def test_pseudo_inverse_beliefs_is_first_hit(family, mech, side, l_max, n,
                                            seed):
    """mu_hat(l) is where the one-shot level first reaches l: it does at
    mu_hat or within 1e-9 above it (mu_hat is a rounded breakpoint, at which
    two levels tie in exact arithmetic) and not 1e-9 below it; mu_hat = 1
    where no belief reaches l."""
    tables = {"humped": _humped, "zigzag": _zigzag}
    p, m, grid = _profile("tied" if family in tables else family, mech, l_max,
                          3 if family == "zigzag" else n, seed)
    if family in tables:
        p = tables[family](grid)
    top = _dense_levels(p, belief_grid(1001), grid, m, side).max()
    mu_hat = pseudo_inverse_beliefs(p, grid, m, side)
    assert np.all((0.0 <= mu_hat) & (mu_hat <= 1.0))
    for l, mu in zip(grid.points, mu_hat):
        def reaches(b):
            return _one_shot_level(p, b, grid, m, side) >= l
        if mu == 1.0 and not reaches(1.0):
            # no belief reaches l
            assert top < l
            continue
        assert reaches(mu) or reaches(min(mu + 1e-9, 1.0))
        assert mu == 0.0 or not reaches(max(mu - 1e-9, 0.0))


def test_pseudo_inverse_counts_a_level_won_by_a_tie_only():
    # lines 2 mu - 1 (level 0), 1 - 2 mu (level 1/2) and 0 (level 1) meet at
    # mu = 1/2; the flat line is on top nowhere else, but wins the tie there
    g = LevelGrid(1.0, 3)
    p = Tabulated(g, (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0))
    assert one_shot_levels(p, [0.5 - 1e-9, 0.5, 0.5 + 1e-9], g).tolist() == \
        [0.5, 1.0, 0.0]
    assert pseudo_inverse_beliefs(p, g).tolist() == [0.0, 0.0, 0.5]


def _single_peaked_violation(p, grid, mus):
    """Reference: the dense scan of U(mu, .) over a belief grid; the first
    (belief, level) where U rises onto the level after having fallen, by
    more than tol = 1e-9 max(1, max |U|)."""
    pts = grid.points
    vals = np.outer(mus, p.u1(pts)) + np.outer(1.0 - mus, p.u0(pts))
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    d = np.diff(vals, axis=1)
    fall_before = np.zeros(d.shape, dtype=bool)
    fall_before[:, 1:] = np.cumsum(d < -tol, axis=1)[:, :-1] > 0
    rows, cols = np.nonzero((d > tol) & fall_before)
    return (mus[rows[0]], pts[cols[0] + 1]) if rows.size else None


def _assert_single_peaked_witness(p, grid, witness):
    """U(mu, .) at the witness belief rises onto the witness level after
    falling at a lower one."""
    mu, level = witness
    pts = grid.points
    u1, u0 = p.u1(pts), p.u0(pts)
    tol = 1e-9 * max(1.0, np.abs(u1).max(), np.abs(u0).max())
    d = np.diff(mu * u1 + (1.0 - mu) * u0)
    k = int(np.flatnonzero(pts == level)[0]) - 1
    assert 0.0 <= mu <= 1.0
    assert d[k] > tol and np.any(d[:k] < -tol)


def _bumps_or_table(family, n, seed):
    """Tabulated payoffs on [0, 1]: two single-peaked bumps whose mixtures
    can be bimodal, small-integer tables (exact ties), random walks, or
    single-peaked random tables."""
    rng = np.random.default_rng(seed)
    grid = LevelGrid(1.0, n)
    x = grid.points

    def peaked():
        steps = rng.exponential(size=n - 1) * (rng.random(n - 1) < 0.8)
        steps[rng.integers(0, n):] *= -1
        return np.concatenate([[0.0], steps.cumsum()])

    u1, u0 = {
        "bumps": lambda: [rng.uniform(0.5, 2.0) * np.exp(-((x - c) / w) ** 2)
                          for c, w in zip(rng.uniform(0, 1, 2),
                                          rng.uniform(0.05, 0.5, 2))],
        "tied": lambda: rng.integers(-3, 4, (2, n)) * 1.0,
        "walk": lambda: rng.normal(size=(2, n)).cumsum(axis=1),
        "peaked": lambda: (peaked(), peaked())}[family]()
    return Tabulated(grid, tuple(u1), tuple(u0)), grid


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["bumps", "tied", "walk", "peaked"]),
       n=st.integers(2, 60), n_mu=st.integers(2, 1001),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_peaked_check_flags_whatever_a_belief_grid_flags(family, n,
                                                                n_mu, seed):
    """Exact (i) flags every payoff the dense scan flags on any belief grid,
    and its witness is confirmed by evaluating U there."""
    p, grid = _bumps_or_table(family, n, seed)
    rep = check_assumptions(p, CARA(1.0), grid)
    if _single_peaked_violation(p, grid, belief_grid(n_mu)) is not None:
        assert not rep.single_peaked
    assert rep.single_peaked == (rep.witness_single_peaked is None)
    if not rep.single_peaked:
        _assert_single_peaked_witness(p, grid, rep.witness_single_peaked)


def test_single_peaked_violation_between_belief_grid_points_flagged():
    # step 0 falls for mu > 0.4002 and step 1 rises for mu < 0.4008: U(mu, .)
    # dips and rises again only between the points 0.400 and 0.401 of a
    # 1001-point belief grid
    a, b = 0.4002, 0.4008
    g = LevelGrid(1.0, 3)
    p = Tabulated(g, (0.0, a - 1.0, a + b - 2.0), (0.0, a, a + b))
    assert _single_peaked_violation(p, g, belief_grid(1001)) is None
    rep = check_assumptions(p, CARA(1.0), g)
    assert not rep.single_peaked and not rep.all_pass
    mu, level = rep.witness_single_peaked
    assert a < mu < b and level == 1.0
    _assert_single_peaked_witness(p, g, rep.witness_single_peaked)
    # the principal is checked as well, after the agent
    rep = check_assumptions(CARA(1.0), p, g)
    assert rep.witness_single_peaked == (mu, level)


def test_nonmonotone_levels_flagged_with_witness():
    g = LevelGrid(2.0, 3)
    rep = check_assumptions(_zigzag(g), CARA(1.0), g)
    assert not rep.monotone_levels and not rep.all_pass
    mu, level = rep.witness_monotone
    assert 0.75 < mu < 1.0 and level == 1.0
    assert _one_shot_level(_zigzag(g), mu, g) == level
    # the jump from 0 to l_max at mu = 1/2, then back by l_max / 2 at 3/4
    assert rep.jumps == ((0.5, 2.0), (0.75, -1.0))


def test_check_assumptions_pass_standard_pairs():
    for agent, principal in (quadratic_pair(1.0, 1.0, 1.0),
                             cara_pair(1.0, 3.0)):
        rep = check_assumptions(agent, principal, GRID)
        assert rep.all_pass, rep.to_dict()


def test_swapped_risk_aversion_flagged_with_witness():
    # a principal more risk-tolerant than the agent develops further
    agent, principal = CARA(3.0), CARA(1.0)
    rep = check_assumptions(agent, principal, GRID)
    assert not rep.agent_develops_more
    mu, lv = rep.witness_agent_more
    assert _one_shot_level(principal, mu, GRID) == pytest.approx(lv)


def test_principal_later_between_belief_grid_points_flagged():
    # on (0.8176, 0.8199) the principal's one-shot level is 1 and the
    # agent's 0, an interval no point of a 201-point belief grid falls in
    agent, principal = cara_pair(1.515625, 1.5)
    grid = LevelGrid(1.0, 2)
    rep = check_assumptions(agent, principal, grid)
    assert not rep.agent_develops_more and not rep.all_pass
    mu, lv = rep.witness_agent_more
    assert 0.8176 < mu < 0.8199 and lv == 1.0
    assert _one_shot_level(principal, mu, grid) == 1.0
    assert _one_shot_level(agent, mu, grid) == 0.0


def test_quadratic_jump_at_half_reported_not_failed():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    rep = check_assumptions(agent, principal, GRID)
    assert rep.monotone_levels
    # at the exact breakpoint: U(mu, l) = (2 mu - 1) l
    assert rep.jumps == ((0.5, 2.0),)


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


def test_risk_ratio_reads_the_first_step_as_the_certificate_does():
    """Under a quota that leaves 3 levels the forward ratio falls on the
    first step, which central differences never see; the bad-news dual,
    the same ratio, is not certified there either, so the LP goes to
    HiGHS."""
    from robustquota import solve_badnews_lp
    agent, principal = cara_pair(2.0, 1.5)
    grid = LevelGrid(4.0, 53)
    m = FixedTaxHardQuota(0.0, grid.points[2])
    rep = risk_ratio_condition(agent, principal, m, grid)
    assert not rep.nondecreasing
    assert rep.witness[0] == grid.points[1] and rep.witness[1] < 0.0
    assert solve_badnews_lp(agent, principal, m, grid, 0.5).route == "highs"


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
