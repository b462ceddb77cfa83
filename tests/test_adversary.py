import dataclasses
import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from robustquota import (CARA, CRRA, BudgetExceededError,
                         ConditionViolatedError, DomainError, Exponential,
                         FixedTaxHardQuota, InfeasibleLPError,
                         IterationLimitError, LevelGrid, Linear,
                         RobustQuotaError, Tabulated, TabulatedMechanism, Zero,
                         cara_pair, compute_joint_robust, compute_robust,
                         quadratic_pair, verify_guarantee)
from robustquota import adversary, robust
from robustquota.adversary import (badnews_value, indifference_G,
                                   principal_prefers_earlier, solve_badnews_lp,
                                   stop_rule_at_zero, tree_oracle_worst_case)
from robustquota.badnews import BadNewsProcess
from robustquota.checks import check_assumptions
from robustquota.mechanisms import adjusted_profiles
from robustquota.robust import payoff_gap
from robustquota.simplex import solve_lp


def _dense_lp(agent, principal, m, grid, mu0):
    """Reference: the bad-news LP in dense form, one row per obedience
    inequality, solved by the tableau simplex.  Returns (value, process),
    the increments normalised to mass 1 - mu0 as solve_badnews_lp does."""
    _, a1, a0, p1, _, c, b = adversary._lp_data(agent, principal, m, grid,
                                                mu0)
    res = solve_lp(c, np.triu(a0[:, None] - a0[None, :]), b,
                   [np.ones(len(a0))], [1.0 - mu0])
    g = np.clip(res.x, 0.0, None)
    if g.sum() > 0:
        g *= (1.0 - mu0) / g.sum()
    return float(mu0 * p1[-1] + c @ g), BadNewsProcess(grid, g, mu0)


def _binding_loop(a0, b, mu0):
    """Reference: the binding construction as a top-down loop in which row
    j pins the increment at level j+1 from running sums of the mass above
    it.  Returns (increments or None, whether an increment was clipped)."""
    scale = max(1.0, float(np.abs(a0).max()))
    target = 1.0 - mu0
    g = np.zeros(len(a0))
    A = C = 0.0   # mass and payoff-weighted mass strictly above the row
    clipped = False
    for j in range(len(a0) - 2, -1, -1):
        denom = a0[j] - a0[j + 1]
        if denom <= 1e-15 * scale:
            return None, clipped
        gnext = (b[j] - a0[j] * A + C) / denom
        if gnext < -1e-9 * target:
            return None, clipped
        clipped |= gnext < 0.0
        gnext = max(gnext, 0.0)
        if A + gnext >= target:
            g[j + 1] = target - A
            return g, clipped
        g[j + 1] = gnext
        A += gnext
        C += a0[j + 1] * gnext
    g[0] = target - A
    return g, clipped


def _dual_loop(c, a0, jbar):
    """Reference: the exact dual by forward substitution, y_{k-1} solving
    the reduced cost of level k from running sums of y and y a0."""
    y = np.zeros(len(a0))
    t = float(c[jbar])
    S = W = 0.0
    for k in range(jbar + 1, len(a0)):
        y[k - 1] = (a0[k] * S - W - c[k] + t) / (a0[k - 1] - a0[k])
        S += y[k - 1]
        W += y[k - 1] * a0[k - 1]
    return y, t


@st.composite
def _lp_instances(draw, l_maxes=(2.0, 4.0, 8.0, 16.0), n_max=401,
                  mu0=st.floats(0.2, 0.8), robust=False):
    """A drawn bad-news LP: (agent, principal, m, grid, mu0) over quadratic
    and CARA pairs under Zero, Linear or a quota, and with robust also the
    pair's robust mechanism."""
    family = draw(st.sampled_from(["quadratic", "cara"]))
    params = draw(st.tuples(*[st.floats(0.5, 3.0)] * 3))
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    l_max = draw(st.sampled_from(l_maxes))
    grid = LevelGrid(l_max, draw(st.integers(3, n_max)))
    prior = draw(mu0)
    mechs = [st.just(Zero()), st.builds(Linear, st.floats(0.0, 0.1)),
             st.builds(FixedTaxHardQuota, st.just(0.0),
                       st.floats(0.2 * l_max, l_max))]
    if robust:
        mechs.append(st.builds(lambda: compute_robust(agent, principal, prior,
                                                      grid).mechanism))
    return agent, principal, draw(st.one_of(*mechs)), grid, prior


def _force_highs(monkeypatch):
    """Send solve_badnews_lp past the construction to its HiGHS route."""
    monkeypatch.setattr(adversary, "_binding_construction",
                        lambda *args: None)


def _stop_rule_loop(a0):
    """Reference: scan from the top level down, moving on a strict rise."""
    n = len(a0)
    out = np.empty(n, dtype=int)
    best_val, best_idx = -np.inf, n - 1
    for j in range(n - 1, -1, -1):
        if a0[j] > best_val:
            best_val, best_idx = a0[j], j
        out[j] = best_idx
    return out


def test_stop_rule_at_zero_largest_argmax_tail():
    vals = np.array([3.0, 1.0, 3.0, 2.0, 0.0])
    # from each index, the largest maximizer of the tail
    assert stop_rule_at_zero(vals).tolist() == [2, 2, 2, 3, 4]
    # ties go to the larger index
    ties = np.array([2.0, 2.0, 1.0, 2.0, 1.0, 1.0])
    assert stop_rule_at_zero(ties).tolist() == [3, 3, 3, 3, 5, 5]
    rng = np.random.default_rng(3)
    cases = [np.array([]), np.array([-np.inf, 5.0, -np.inf]),
             np.full(4, -np.inf)]
    for _ in range(300):
        n = int(rng.integers(1, 60))
        # few distinct values, so ties are common; some rows continuous
        cases.append(rng.integers(0, 4, n).astype(float) if rng.random() < 0.7
                     else rng.normal(size=n))
    for a0 in cases:
        got, ref = stop_rule_at_zero(a0), _stop_rule_loop(a0)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_lp_attains_guarantee_under_robust_mechanism():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 201)
    rob = compute_robust(agent, principal, 0.6, grid)
    lp = solve_badnews_lp(agent, principal, rob.mechanism, grid, 0.6)
    assert lp.value == pytest.approx(rob.guarantee, abs=1e-9)


def test_simplex_and_highs_agree(monkeypatch):
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 121)
    ref, _ = _dense_lp(agent, principal, Zero(), grid, 0.5)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert lp.route == "construction"
    assert lp.value == pytest.approx(ref, rel=1e-8)
    _force_highs(monkeypatch)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert lp.route == "highs"
    assert lp.value == pytest.approx(ref, rel=1e-8)


def test_lp_matches_indifference_value():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 201)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    ind = indifference_G(agent, Zero(), grid, 0.5, principal)
    assert not ind.used_lp_fallback
    iv = badnews_value(ind.bn, agent, principal, Zero())
    assert lp.value == pytest.approx(iv, rel=1e-7)


def test_indifference_matches_cara_closed_form_G():
    """Under laissez-faire the binding construction has survivor function
    mu0 (1 + e^{-2 gamma l}) when the prior keeps the whole grid interior."""
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 401)
    ind = indifference_G(agent, Zero(), grid, 0.5, principal)
    l = grid.points[:-1]          # terminal atom handled separately
    expected = 1.0 - 0.5 * (1.0 + np.exp(-2.0 * l))
    assert np.allclose(ind.bn.G[:-1], expected, atol=5e-3)
    # terminal atom: mu0 e^{-2 gamma l_max}
    g_end = ind.bn.g[-1]
    assert g_end == pytest.approx(0.5 * np.exp(-4.0), rel=2e-2)


@pytest.mark.parametrize("mu0", [0.4, 0.5, 0.6])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_weak_duality_always(mu0, data):
    """The certified dual bound never exceeds the value it certifies, on
    drawn pairs and mechanisms; an instance solve_badnews_lp refuses has
    no bound to check."""
    instance = data.draw(_lp_instances(mu0=st.just(mu0), robust=True))
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    assert lp.dual_bound <= lp.value + 1e-9 * max(1.0, abs(lp.value))


def test_dual_tight_when_support_reaches_zero():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 501)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert lp.lbar == 0.0
    assert abs(lp.gap) <= 1e-4 * abs(lp.value)


@pytest.mark.parametrize("pair, lbar", [
    (quadratic_pair(1.0, 1.0, 1.0), 2.0),   # all mass arrives at l_max
    (cara_pair(1.0, 3.0), 0.203),
])
def test_dual_tight_when_support_starts_above_zero(pair, lbar):
    agent, principal = pair
    grid = LevelGrid(2.0, 2001)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.6)
    assert lp.lbar == pytest.approx(lbar, abs=1e-12)
    assert lp.lbar == grid.points[lp.lbar_index]
    assert lp.gap <= 1e-9 * max(1.0, abs(lp.value))
    assert lp.dual_bound == lp.value - lp.gap
    # the dual objective: mu0 V^phi(1, l_end) + (1 - mu0) t - y @ b
    p1 = adversary._lp_data(agent, principal, Zero(), grid, 0.6)[3]
    dual = 0.6 * p1[-1] + 0.4 * lp.multipliers[1] + lp.dual_value
    assert lp.dual_bound == pytest.approx(dual, rel=1e-12, abs=1e-12)


def test_dual_bound_is_value_minus_gap():
    """Certified gaps are ~1e-15, so widen one to tell value - gap from
    value + gap."""
    lp = solve_badnews_lp(*cara_pair(1.0, 3.0), Zero(), LevelGrid(2.0, 21), 0.6)
    r = dataclasses.replace(lp, gap=0.25)
    assert r.dual_bound == lp.value - 0.25
    assert r.certificate()["dual_bound"] == r.dual_bound


def _paper_lambda(agent, principal, m, grid):
    """Reference: the paper's multiplier above the support start, the
    bad-state marginal-payoff ratio dV^phi(0, .)/dU^phi(0, .) as forward
    differences on levels 0..end-1.  (Its constant branch below the support
    start, V^phi(0, lbar)/U^phi(0, lbar), gives a loose bound where the
    support starts above level 0.)"""
    _, a0 = adjusted_profiles(agent, m, "agent", grid)
    _, p0 = adjusted_profiles(principal, m, "principal", grid)
    return np.diff(p0) / np.diff(a0)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["quadratic", "cara"]),
       params=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       linear=st.booleans(), beta_tax=st.floats(0.0, 0.2),
       mu0=st.floats(0.2, 0.8), n=st.integers(3, 401))
def test_certified_lambda_is_papers_above_support(family, params, linear,
                                                  beta_tax, mu0, n):
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    m = Linear(beta_tax) if linear else Zero()
    grid = LevelGrid(2.0, n)
    try:
        lp = solve_badnews_lp(agent, principal, m, grid, mu0)
    except InfeasibleLPError:
        return
    assume(lp.route == "construction")
    jbar = lp.lbar_index
    ref = _paper_lambda(agent, principal, m, grid)[jbar:]
    got = np.cumsum(lp.multipliers[0])[jbar:lp.bn.end]
    if ref.size:
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_premise_detection():
    grid = LevelGrid(2.0, 201)
    agent, principal = cara_pair(1.0, 3.0)
    assert principal_prefers_earlier(agent, principal, Zero(), grid)
    # swapped: the "principal" develops further than the agent
    assert not principal_prefers_earlier(principal, agent, Zero(), grid)


def test_premise_catches_violation_between_belief_grid_points():
    # on (0.8176, 0.8199) the principal's one-shot level is 1 and the agent's
    # 0, an interval no point of a 201-point belief grid falls in; the tree
    # oracle then stops the agent off belief 0 at level 0, below the LP
    agent, principal = cara_pair(1.515625, 1.5)
    grid = LevelGrid(1.0, 2)
    assert not principal_prefers_earlier(agent, principal, Zero(), grid)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert not lp.premise_ok
    support = sorted({0.0, *lp.bn.cont_belief()})
    oracle = tree_oracle_worst_case(agent, principal, Zero(), grid, support, 0.5)
    assert oracle.value < lp.value - 1e-3


def test_oracle_budget_enforced():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    with pytest.raises(BudgetExceededError):
        tree_oracle_worst_case(agent, principal, Zero(), LevelGrid(1.0, 5),
                               [0.0, 0.5, 1.0], 0.5)
    with pytest.raises(BudgetExceededError):
        tree_oracle_worst_case(agent, principal, Zero(), LevelGrid(1.0, 3),
                               np.linspace(0, 1, 6), 0.5)


def test_oracle_never_beats_lp_when_premise_holds():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(1.0, 3)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.6)
    assert lp.premise_ok
    beliefs = sorted({0.0, *np.round(lp.bn.cont_belief(), 12)})
    oracle = tree_oracle_worst_case(agent, principal, Zero(), grid, beliefs,
                                    0.6)
    assert oracle.value == pytest.approx(lp.value, abs=1e-8)


def test_payoff_gap_zero_for_robust_mechanism():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 201)
    rob = compute_robust(agent, principal, 0.6, grid)
    gap = payoff_gap(rob.mechanism, agent, principal, grid, 0.6)
    assert gap.delta == pytest.approx(0.0, abs=1e-8)
    assert gap.route == "badnews_lp"


def test_payoff_gap_oracle_meets_the_same_quota(monkeypatch):
    """Where the LP is not certified over all processes, the oracle attacks
    m on a grid that ends at m's last allowed level, so its agent stops
    where the LP's must; on [0, l_max] with 4 points, quota 0.65 would
    allow level 0 alone.  Where the LP is certified, as at quota 0.52 with
    the premise failing, no oracle runs and the LP value is the answer."""
    agent, principal = cara_pair(0.76, 2.07)
    grid = LevelGrid(2.0, 101)
    certified = payoff_gap(FixedTaxHardQuota(0.07, 0.52), agent, principal,
                           grid, 0.42)
    assert certified.route == "badnews_lp"
    assert certified.min_value == -1.1765461265960713

    agent, principal = cara_pair(2.89, 1.21)
    m = FixedTaxHardQuota(0.04, 0.65)
    oracle_grids = []
    oracle = robust.tree_oracle_worst_case

    def spy(agent, principal, m, small_grid, beliefs, mu0):
        oracle_grids.append(small_grid)
        return oracle(agent, principal, m, small_grid, beliefs, mu0)

    monkeypatch.setattr(robust, "tree_oracle_worst_case", spy)
    gap = payoff_gap(m, agent, principal, grid, 0.59)
    assert gap.route == "tree_oracle"
    end = solve_badnews_lp(agent, principal, m, grid, 0.59).bn.end
    (small,) = oracle_grids
    assert small.n == 4 and small.l_max == grid.points[end]
    assert len(m.tax_profile(small)) == small.n


def test_payoff_gap_of_a_premise_failing_table_is_the_fixed_quota_gap():
    """A table that equals FixedTaxHardQuota(0.04, 0.65) on its grid has the
    fixed mechanism's gap, bitwise, also where the premise fails, the LP is
    not certified and the oracle attacks it on a 4-point grid of its own."""
    agent, principal = cara_pair(2.89, 1.21)
    grid = LevelGrid(2.0, 101)
    fixed = FixedTaxHardQuota(0.04, 0.65)
    k = len(fixed.tax_profile(grid))
    table = TabulatedMechanism(grid, (0.04,) * k + (np.inf,) * (grid.n - k))
    gap = payoff_gap(table, agent, principal, grid, 0.59)
    assert gap.route == "tree_oracle"
    assert gap == payoff_gap(fixed, agent, principal, grid, 0.59)


def test_payoff_gap_positive_for_laissez_faire():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(4.0, 201)
    gap = payoff_gap(Zero(), agent, principal, grid, 0.6)
    assert gap.delta > 0.5   # the quadratic externality bites hard


def test_default_route_rejects_obedient_but_suboptimal_construction():
    agent, principal = cara_pair(2.0, 1.4)
    grid = LevelGrid(2.0, 3)
    ind = indifference_G(agent, Zero(), grid, 0.3, principal)
    assert not ind.used_lp_fallback
    built = badnews_value(ind.bn, agent, principal, Zero())
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.3)
    ref, _ = _dense_lp(agent, principal, Zero(), grid, 0.3)
    assert lp.route == "highs"
    assert lp.value == pytest.approx(ref, rel=1e-9)
    assert lp.value == pytest.approx(-0.859073, abs=1e-6)
    assert built == pytest.approx(-0.851499, abs=1e-6)
    assert abs(lp.gap) <= 1e-9 * max(1.0, abs(lp.value))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["quadratic", "cara"]),
       params=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       mech=st.sampled_from(["zero", "linear", "robust"]),
       beta_tax=st.floats(0.0, 0.2),
       mu0=st.floats(0.1, 0.9), n=st.integers(3, 60))
def test_default_route_matches_simplex(family, params, mech, beta_tax, mu0, n):
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    grid = LevelGrid(2.0, n)
    if mech == "robust":
        m = compute_robust(agent, principal, mu0, grid).mechanism
    else:
        m = Zero() if mech == "zero" else Linear(beta_tax)
    try:
        ref, _ = _dense_lp(agent, principal, m, grid, mu0)
    except InfeasibleLPError:
        with pytest.raises(InfeasibleLPError):
            solve_badnews_lp(agent, principal, m, grid, mu0)
        return
    lp = solve_badnews_lp(agent, principal, m, grid, mu0)
    tol = 1e-9 * max(1.0, abs(lp.value))
    assert abs(lp.value - ref) <= tol
    assert abs(lp.gap) <= tol
    ind = indifference_G(agent, m, grid, mu0, principal)
    assert lp.value <= badnews_value(ind.bn, agent, principal, m) + tol


@pytest.mark.parametrize("gamma_p, l_max, match", [
    (1.5, 8.0, "violates obedience"),   # HiGHS -1.9725462, optimum -1.9725419
    (3.0, 16.0, "not dual feasible"),   # HiGHS -42770, optimum -1.333e7
])
def test_untrustworthy_highs_solution_raises(monkeypatch, gamma_p, l_max,
                                             match):
    agent, principal = cara_pair(1.0, gamma_p)
    grid = LevelGrid(l_max, 801)
    with monkeypatch.context() as patched:
        _force_highs(patched)
        with pytest.raises(ConditionViolatedError, match=match):
            solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    # with the construction the same instance is certified
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert lp.route == "construction"


def test_default_route_refuses_uncertified_highs_dual():
    # the construction is not certified here, and HiGHS's multipliers are
    # not dual feasible at this payoff range
    agent, principal = cara_pair(2.7, 0.5)
    with pytest.raises(ConditionViolatedError, match="not dual feasible"):
        solve_badnews_lp(agent, principal, Zero(), LevelGrid(8.0, 45), 0.7)


def test_certificate_sums_near_the_float_range_stay_finite():
    """Every payoff is finite (3.542 * 200 = 708.4 < 709.78), but the
    sizes the reduced costs are held to once summed past 1.8e308 with an
    overflow warning; HiGHS's multipliers are refused as not dual feasible,
    with no warning."""
    with pytest.raises(ConditionViolatedError, match="not dual feasible"):
        solve_badnews_lp(CARA(1.133), CARA(3.542), Zero(),
                         LevelGrid(200.0, 523), 0.610)


_AGENT, _PRINCIPAL = cara_pair(1.0, 3.0)
_GRID = LevelGrid(2.0, 9)


@pytest.mark.parametrize("prior", ["0.6", None], ids=["str", "none"])
@pytest.mark.parametrize("call", [
    lambda mu0: solve_badnews_lp(_AGENT, _PRINCIPAL, Zero(), _GRID, mu0),
    lambda mu0: indifference_G(_AGENT, Zero(), _GRID, mu0, _PRINCIPAL),
    lambda mu0: compute_joint_robust((_AGENT,), _PRINCIPAL, mu0, _GRID),
    lambda mu0: compute_robust(_AGENT, _PRINCIPAL, mu0, _GRID),
    lambda mu0: payoff_gap(Zero(), _AGENT, _PRINCIPAL, _GRID, mu0),
    lambda mu0: tree_oracle_worst_case(_AGENT, _PRINCIPAL, Zero(),
                                       LevelGrid(2.0, 3), [0.0, 1.0], mu0),
    lambda mu0: BadNewsProcess(_GRID, [0.4] + [0.0] * 8, mu0)],
    ids=["solve_badnews_lp", "indifference_G", "compute_joint_robust",
         "compute_robust", "payoff_gap", "tree_oracle_worst_case",
         "BadNewsProcess"])
def test_prior_that_is_not_a_real_number_is_a_domain_error(call, prior):
    """A prior given as a string or None is refused with DomainError, as
    the tree builders refuse it, not a bare TypeError from a comparison."""
    with pytest.raises(DomainError, match="prior"):
        call(prior)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["quadratic", "cara"]),
       params=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       l_max=st.sampled_from([2.0, 4.0, 8.0, 16.0]), n=st.integers(3, 401),
       mu0=st.floats(0.2, 0.8), robust=st.booleans())
def test_stored_increments_give_lp_value(family, params, l_max, n, mu0, robust):
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    grid = LevelGrid(l_max, n)
    m = compute_robust(agent, principal, mu0, grid).mechanism if robust else Zero()
    try:
        lp = solve_badnews_lp(agent, principal, m, grid, mu0)
    except ConditionViolatedError:
        # refused: at CARA l_max >= 8 some instances have no certified value
        # (test_untrustworthy_highs_solution_raises); the property is about
        # the results that are returned
        return
    value = badnews_value(lp.bn, agent, principal, m)
    assert abs(value - lp.value) <= 1e-12 * max(1.0, abs(lp.value))


def test_construction_route_certifies_at_scale():
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 100001)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.5)
    assert lp.route == "construction" and lp.iterations == 0
    assert abs(lp.gap) <= 1e-9 * max(1.0, abs(lp.value))


def test_dual_certificate_at_zero_payoff_level_is_warning_free():
    # the quadratic agent's bad-state payoff is 0 at level 0, where the
    # support starts; the certificate divides by no payoff, so no level's
    # value can make it warn
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp = solve_badnews_lp(agent, principal, Zero(), LevelGrid(2.0, 101),
                              0.4)
    assert lp.lbar == 0.0
    assert lp.dual_bound <= lp.value + 1e-9


def test_dual_certificate_at_zero_payoff_below_support():
    # shifting U^phi(0, .) by a constant leaves the process unchanged, so the
    # shift can put U^phi(0, lbar) = 0, where the paper's constant branch
    # below lbar, V^phi(0, lbar)/U^phi(0, lbar), is undefined; the LP's
    # multipliers still certify the value
    grid = LevelGrid(2.0, 21)
    agent, principal = cara_pair(1.0, 3.0)
    plain = solve_badnews_lp(agent, principal, Zero(), grid, 0.8)
    jbar = plain.lbar_index
    assert jbar > 0
    u0 = agent.u0(grid.points)
    shifted = Tabulated(grid, tuple(agent.u1(grid.points)), tuple(u0 - u0[jbar]))
    lp = solve_badnews_lp(shifted, principal, Zero(), grid, 0.8)
    assert lp.lbar == plain.lbar
    assert lp.value == pytest.approx(plain.value, rel=1e-12)
    assert abs(lp.gap) <= 1e-9 * max(1.0, abs(lp.value))


def _pattern_oracle(agent, principal, m, small_grid, belief_support, mu0,
                    pattern_budget=4096):
    """Reference: the tree oracle as one LP per stop/continue pattern
    sigma(level, belief) over the truncated paths that pattern leaves.
    Returns (value, rows (level, belief, mass) of the stopped paths)."""
    B = np.asarray(sorted(set(float(b) for b in belief_support)))
    a1, a0 = adjusted_profiles(agent, m, "agent", small_grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", small_grid)
    end, nb = len(a1) - 1, len(B)
    U = np.outer(B, a1) + np.outer(1 - B, a0)
    V = np.outer(B, p1) + np.outer(1 - B, p0)
    outside = float(agent.indirect(mu0, 0.0))
    scale = max(1.0, float(np.abs(U).max()))
    stop_valid = np.ones((end, nb), dtype=bool)
    for j in range(end):
        stop_valid[j] = U[:, j] >= U[:, j + 1:].max(axis=1) - 1e-12 * scale
    choices = [(True, False) if stop_valid[j, bi] else (False,)
               for j in range(end) for bi in range(nb)]
    n_patterns = int(np.prod([len(c) for c in choices])) if choices else 1
    if n_patterns > pattern_budget:
        raise BudgetExceededError(f"{n_patterns} patterns")

    best = None
    for flat in itertools.product(*choices):
        sigma = np.array(flat, dtype=bool).reshape(end, nb)
        paths, internal = [], []
        stack = [(bi,) for bi in range(nb)]
        while stack:
            h = stack.pop()
            j = len(h) - 1
            if j == end or sigma[j][h[-1]]:
                paths.append(h)
            else:
                internal.append(h)
                stack.extend(h + (bi,) for bi in range(nb))
        nv = len(paths)
        stop_u = np.array([U[h[-1], len(h) - 1] for h in paths])
        stop_v = np.array([V[h[-1], len(h) - 1] for h in paths])
        A_eq = [np.ones(nv), np.array([B[h[0]] for h in paths])]
        b_eq = [1.0, mu0]
        A_ub, b_ub = [], []
        for h in internal:
            j = len(h) - 1
            mart, obey = np.zeros(nv), np.zeros(nv)
            for i, p in enumerate(paths):
                if p[:len(h)] == h:
                    mart[i] = B[p[j + 1]] - B[h[-1]]
                    obey[i] = U[h[-1], j] - stop_u[i]
            A_eq.append(mart)
            b_eq.append(0.0)
            A_ub.append(obey)
            b_ub.append(0.0)
        A_ub.append(-stop_u)
        b_ub.append(-outside)
        try:
            res = solve_lp(stop_v, np.array(A_ub), np.array(b_ub),
                           np.array(A_eq), np.array(b_eq))
        except InfeasibleLPError:
            continue
        if best is None or res.fun < best[0]:
            rows = tuple((float(small_grid.points[len(h) - 1]), float(B[h[-1]]),
                          float(res.x[i]))
                         for i, h in enumerate(paths) if res.x[i] > 1e-12)
            best = (res.fun, rows)
    if best is None:
        raise InfeasibleLPError("no stop/continue pattern admits a feasible tree")
    return best


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from(["quadratic", "cara"]),
       params=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       mech=st.sampled_from(["zero", "linear", "quota"]),
       n=st.sampled_from([2, 3, 4]), data=st.data(),
       mu0=st.floats(0.2, 0.8))
def test_history_lp_oracle_never_above_pattern_oracle(family, params, mech, n,
                                                      data, mu0):
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    m = {"zero": Zero(), "linear": Linear(0.02),
         "quota": FixedTaxHardQuota(0.0, 0.5)}[mech]
    grid = LevelGrid(1.0, n)
    # at 4 levels at most 4 beliefs keep the reference within 2^12 patterns
    beliefs = data.draw(st.lists(st.integers(0, 1000), min_size=3,
                                 max_size=4 if n == 4 else 5, unique=True))
    beliefs = [b / 1000 for b in beliefs]
    try:
        ref, _ = _pattern_oracle(agent, principal, m, grid, beliefs, mu0)
    except InfeasibleLPError:
        with pytest.raises(InfeasibleLPError):
            tree_oracle_worst_case(agent, principal, m, grid, beliefs, mu0)
        return
    oracle = tree_oracle_worst_case(agent, principal, m, grid, beliefs, mu0)
    assert oracle.n_lps == 1
    assert oracle.value <= ref + 1e-9 * max(1.0, abs(ref))
    if principal_prefers_earlier(agent, principal, m, grid):
        # on a support holding the worst bad-news process's beliefs the
        # oracle attains the LP and stops off belief 0 only at the last
        # level; a drawn support need not hold them.  Unlike criterion 3 the
        # beliefs are not rounded: where obedience binds at level 0 the
        # agent is indifferent to not starting, and a rounded belief can
        # break participation by 1e-13 and cut the bad-news tree off
        value, bn = _dense_lp(agent, principal, m, grid, mu0)
        support = sorted({0.0, *bn.cont_belief()})
        bad = tree_oracle_worst_case(agent, principal, m, grid, support, mu0)
        assert abs(bad.value - value) <= 1e-9 * max(1.0, abs(value))
        assert bad.pre_terminal_offzero_mass(grid.points[bn.end]) <= 1e-9


def _full_history_oracle(agent, principal, m, small_grid, belief_support,
                         mu0):
    """Reference: the history LP over every stop-ok history, those that
    leave belief 0 or 1 included.  Returns (value, the column histories as
    tuples of belief indices, the solution)."""
    B = np.asarray(sorted(set(float(b) for b in belief_support)))
    a1, a0 = adjusted_profiles(agent, m, "agent", small_grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", small_grid)
    end, nb = len(a1) - 1, len(B)
    U = np.outer(a1, B) + np.outer(a0, 1 - B)
    V = np.outer(p1, B) + np.outer(p0, 1 - B)
    outside = float(agent.indirect(mu0, 0.0))
    level = np.repeat(np.arange(end + 1), nb ** np.arange(1, end + 2))
    code = np.concatenate([np.arange(nb ** (j + 1)) for j in range(end + 1)])
    cols = _stop_ok(U)[level, code % nb]
    L, q = level[cols], code[cols]
    u, v = U[L, q % nb], V[L, q % nb]
    j, p = level[level < end, None], code[level < end, None]
    d = L - j
    below = (d > 0) & (q // nb ** np.maximum(d, 0) == p)
    b_next = B[q // nb ** np.maximum(d - 1, 0) % nb]
    mart = np.where(below, b_next - B[p % nb], 0.0)
    obey = np.where(below, U[j, p % nb] - u, 0.0)
    A_eq = np.vstack([np.ones(len(q)), B[q // nb ** L], mart])
    b_eq = np.concatenate([[1.0, mu0], np.zeros(len(p))])
    A_ub = np.vstack([obey, -u])
    b_ub = np.concatenate([np.zeros(len(p)), [-outside]])
    res = solve_lp(v, A_ub, b_ub, A_eq, b_eq)
    hists = [tuple(int(qk // nb ** (lk - i) % nb) for i in range(lk + 1))
             for lk, qk in zip(L, q)]
    return res.fun, hists, res.x


def _stop_ok(U):
    """(level, belief) pairs where stopping beats freezing the belief and
    developing to any later level; every pair at the last level."""
    ok = np.ones(U.shape, dtype=bool)
    scale = max(1.0, float(np.abs(U).max()))
    for j in range(len(U) - 1):
        ok[j] = U[j] >= U[j + 1:].max(axis=0) - 1e-12 * scale
    return ok


def _stays_once_extreme(h, B):
    """True when history h never moves off belief 0 or 1 once it is there."""
    return all(B[a] not in (0.0, 1.0) or a == b for a, b in zip(h, h[1:]))


def _random_oracle_instance(rng, extremes=True):
    """A drawn (agent, principal, m, grid, beliefs, mu0); with extremes the
    support holds 0 and 1 each with probability 1/2."""
    params = rng.uniform(0.5, 3.0, 3)
    if rng.random() < 0.5:
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    m = [Zero(), Linear(0.02), FixedTaxHardQuota(0.0, 0.5)][rng.integers(3)]
    n = int(rng.integers(2, 5))
    size = int(rng.integers(3, 5 if n == 4 else 6))
    beliefs = sorted(rng.choice(np.arange(1, 1000), size, replace=False)
                     / 1000)
    if extremes and rng.random() < 0.5:
        beliefs[0] = 0.0
    if extremes and rng.random() < 0.5:
        beliefs[-1] = 1.0
    return (agent, principal, m, LevelGrid(1.0, n), beliefs,
            float(rng.uniform(0.2, 0.8)))


def _oracle_columns(monkeypatch, args):
    """Value and column count of tree_oracle_worst_case's LP."""
    import robustquota.adversary as adversary
    seen = []

    def spy(c, *rest):
        seen.append(len(c))
        return solve_lp(c, *rest)

    monkeypatch.setattr(adversary, "solve_lp", spy)
    value = tree_oracle_worst_case(*args).value
    return value, seen[-1]


def test_pruned_oracle_matches_full_history_lp(monkeypatch):
    # dropping the histories that leave belief 0 or 1 keeps the value, and
    # the full LP puts no mass on them either
    rng = np.random.default_rng(20261018)
    solved = pruned = 0
    for _ in range(120):
        args = _random_oracle_instance(rng)
        try:
            ref, hists, x = _full_history_oracle(*args)
        except (InfeasibleLPError, IterationLimitError) as e:
            with pytest.raises(type(e)):
                tree_oracle_worst_case(*args)
            continue
        value, n_cols = _oracle_columns(monkeypatch, args)
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
        B = sorted(args[4])
        kept = np.array([_stays_once_extreme(h, B) for h in hists])
        assert n_cols == kept.sum()
        assert x[~kept].sum() <= 1e-12
        solved += 1
        pruned += n_cols < len(hists)
    assert solved >= 80 and pruned >= 40


@pytest.mark.parametrize("seed", range(6))
def test_pruned_oracle_counts_reachable_stop_ok_histories(monkeypatch, seed):
    agent, principal, m, grid, beliefs, mu0 = _random_oracle_instance(
        np.random.default_rng(seed))
    B = [0.0, *beliefs[1:-1], 1.0]
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    end = len(a1) - 1
    ok = _stop_ok(np.outer(a1, B) + np.outer(a0, 1 - np.array(B)))
    expected = sum(bool(ok[j, h[-1]]) and _stays_once_extreme(h, B)
                   for j in range(end + 1)
                   for h in itertools.product(range(len(B)), repeat=j + 1))
    try:
        _, n_cols = _oracle_columns(monkeypatch,
                                    (agent, principal, m, grid, B, mu0))
    except InfeasibleLPError:
        pytest.skip("no feasible tree on this support")
    assert n_cols == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pruned_oracle_bitwise_without_extreme_beliefs(seed):
    # with neither 0 nor 1 in the support nothing is dropped
    args = _random_oracle_instance(np.random.default_rng(seed), extremes=False)
    try:
        ref, _, _ = _full_history_oracle(*args)
    except (InfeasibleLPError, IterationLimitError) as e:
        with pytest.raises(type(e)):
            tree_oracle_worst_case(*args)
        return
    assert tree_oracle_worst_case(*args).value == ref


@pytest.mark.parametrize("support, mu0", [([0.0, float("nan"), 1.0], 0.5),
                                          ([0.0, 0.5, 1.0], float("nan")),
                                          ([0.0, 0.5, 1.0], 1.5),
                                          ([0.0, float("inf")], 0.5),
                                          ([], 0.5)])
def test_oracle_rejects_bad_inputs(support, mu0):
    # each once reached the simplex or numpy: an iteration limit, an argmax
    # of an empty sequence, an infeasible LP, and with no belief at all a
    # reduction over an empty array
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        tree_oracle_worst_case(agent, principal, Zero(), LevelGrid(1.0, 3),
                               support, mu0)


def test_history_lp_oracle_solves_stalled_cara_instance():
    # in (stop, continue)-mass form this LP runs the tableau simplex into its
    # iteration limit; the stop-mass form solves it
    agent, principal = cara_pair(1.0, 3.0)
    grid = LevelGrid(2.0, 101)
    rob = compute_robust(agent, principal, 0.6, grid)
    assert rob.L_star == pytest.approx(0.08)
    oracle = tree_oracle_worst_case(agent, principal, rob.mechanism,
                                    LevelGrid(0.08, 4), [0.0, 0.6, 0.8, 1.0],
                                    0.6)
    assert oracle.value == pytest.approx(-0.9676610116704589, rel=1e-12)
    assert verify_guarantee(rob, agent, principal, grid).ok


def test_history_lp_oracle_survives_tiny_pivots():
    # the tableau once took a 2.5e-11 pivot at a degenerate vertex of this
    # LP, lost feasibility and ran into its iteration limit
    agent, principal = cara_pair(2.0490790391446527, 2.7675915942866345)
    args = (agent, principal, Zero(), LevelGrid(1.0, 4),
            [0.0, 0.073, 0.69, 0.969], 0.7235028083869999)
    ref, _ = _pattern_oracle(*args)
    value = tree_oracle_worst_case(*args).value
    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_pattern_lp_drives_artificials_out_on_large_entries():
    """One pattern LP of this instance (41 equality rows, 40 inequality rows,
    121 columns) drove an artificial out of the basis on an entry of 4.9e-11
    and claimed -134.047 at a point that broke its rows by hundreds; HiGHS
    reads -0.912617 for it."""
    agent, principal = cara_pair(2.9534301036113644, 1.0)
    args = (agent, principal, Linear(0.02), LevelGrid(1.0, 4),
            [0.0, 0.111, 0.731, 0.801], 0.5)
    ref, _ = _pattern_oracle(*args)
    value = tree_oracle_worst_case(*args).value
    assert value == pytest.approx(-0.93257592481219, rel=1e-12)
    assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("call", [
    lambda: payoff_gap(Zero(), CRRA(2.1415767355128166),
                       CRRA(2.7108936317166408), LevelGrid(0.01, 186),
                       0.844033641210119),
    # payoff_gap answers this instance from its certified LP, so the oracle
    # LP is called directly
    lambda: tree_oracle_worst_case(
        CRRA(2.840702633155025), CRRA(2.97752713587353), Zero(),
        LevelGrid(64.0, 4), [0.0, 0.8082261214166006, 0.9999971230258643, 1.0],
        0.8082261214166006)],
    ids=["empty_harris_set", "unbounded_verdict"])
def test_oracle_lp_past_float64_is_a_typed_refusal(call):
    """CRRA floors the bad-state wealth 1/l at 1e-9, so these oracle LPs
    span entries from O(1) to 1e16: the ratio test once found no row (a
    bare ValueError) and the simplex once called the LP unbounded, though
    its mass rows bound it."""
    with pytest.raises(ConditionViolatedError):
        call()


def _route_and_value(instance):
    """solve_badnews_lp's route and value, or the class of its refusal."""
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError) as e:
        return type(e), 0.0
    return lp.route, lp.value


@settings(max_examples=150, deadline=None)
@given(_lp_instances())
def test_closed_forms_match_loop_reference(instance):
    """Where the loop clips no increment, the ratio forms refuse what the
    loops refuse and agree to 1e-12 of the mass and of the largest
    multiplier.  Where it clips, the two part ways below the clipped row
    (the loop carries that row's shortfall down, the ratios do not), and
    solve_badnews_lp's route, refusal and value agree."""
    agent, principal, m, grid, mu0 = instance
    _, _, a0, _, _, c, b = adversary._lp_data(agent, principal, m, grid, mu0)
    ref, clipped = _binding_loop(a0, b, mu0)
    got = adversary._binding_construction(a0, b, mu0, np.abs(a0).max())
    if got is not None:
        assert got.sum() == pytest.approx(1.0 - mu0, abs=1e-15)
    if clipped:
        route, value = _route_and_value(instance)
        with mock.patch.object(adversary, "_binding_construction",
                               lambda *args: _binding_loop(*args[:3])[0]):
            ref_route, ref_value = _route_and_value(instance)
        assert route == ref_route
        assert abs(value - ref_value) <= 1e-11 * max(1.0, abs(ref_value))
        return
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 - mu0)
    jbar = adversary._support_start(got)
    (y, t), (y_ref, t_ref) = (adversary._exact_dual(c, a0, jbar,
                                                    np.abs(a0).max()),
                              _dual_loop(c, a0, jbar))
    assert t == t_ref
    lam, lam_ref = np.cumsum(y), np.cumsum(y_ref)
    assert np.abs(lam - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()


@settings(max_examples=100, deadline=None)
@given(_lp_instances())
def test_continuation_belief_is_step_indifference(instance):
    """From the support start on, the worst process's continuation belief
    leaves the agent indifferent to one more step:
    -da0_j / (da1_j - da0_j)."""
    agent, principal, m, grid, mu0 = instance
    _, a1, a0, _, _, _, b = adversary._lp_data(agent, principal, m, grid, mu0)
    g = adversary._binding_construction(a0, b, mu0, np.abs(a0).max())
    assume(g is not None)
    s = adversary._support_start(g)
    lam = BadNewsProcess(grid, g, mu0).cont_belief()
    da1, da0 = np.diff(a1)[s:], np.diff(a0)[s:]
    assert np.abs(lam[s:-1] - (-da0 / (da1 - da0))).max(initial=0.0) <= 1e-10


def test_construction_refuses_negative_mass_at_large_payoff_scale():
    """An increment is a mass: -1e-4 is refused although it is far inside
    1e-9 of the payoff scale e^16."""
    a0 = -np.exp(np.linspace(0.0, 16.0, 6))
    g = np.array([0.2, 0.1, 0.1, 0.05, -1e-4, 0.05 + 1e-4])
    # b makes every row bind for these increments
    b = np.triu(a0[:, None] - a0[None, :]) @ g
    assert 1e-4 < 1e-9 * np.abs(a0).max()
    assert adversary._binding_construction(a0, b, 0.5,
                                           np.abs(a0).max()) is None
    ok = np.array([0.2, 0.1, 0.1, 0.05, 0.0, 0.05])
    b = np.triu(a0[:, None] - a0[None, :]) @ ok
    assert np.allclose(adversary._binding_construction(a0, b, 0.5,
                                                       np.abs(a0).max()), ok,
                       atol=1e-12)


@pytest.mark.parametrize("gammas, l_max, n, mu0, beta", [
    ((0.565, 0.908), 8.0, 23, 0.37, 0.09),
    ((0.885, 1.26), 8.0, 15, 0.63, 0.067),
    ((2.8, 1.65), 4.0, 57, 0.38, 0.03),
    # HiGHS scales rows by max|a0|, e^29 to e^43 here, and reads these as
    # feasible
    ((2.7, 2.2), 16.0, 360, 0.57, 0.013),
    ((2.4, 1.4), 16.0, 208, 0.7, 0.023),
    ((1.8, 0.96), 16.0, 187, 0.36, 1e-5)])
def test_infeasible_top_row_refused_exactly(gammas, l_max, n, mu0, beta):
    """Under a linear tax the CARA agent at belief 1 can prefer the level
    below the top, and no level pays more at belief 0 above it: no
    bad-news process is obedient, and the exact test says so before HiGHS
    runs, which certifies no value here either."""
    agent, principal = cara_pair(*gammas)
    grid = LevelGrid(l_max, n)
    with pytest.raises(InfeasibleLPError, match="obedience fails") as exc:
        solve_badnews_lp(agent, principal, Linear(beta), grid, mu0)
    assert exc.value.most_binding == n - 2
    _, a1, a0, p1, p0, c, b = adversary._lp_data(agent, principal,
                                                 Linear(beta), grid, mu0)
    try:
        g, y, t, _ = adversary._sparse_lp(c, a0, a1, b, mu0)
    except InfeasibleLPError:
        return
    g = np.clip(g, 0.0, None)
    value = float(mu0 * p1[-1] + c @ g * (1.0 - mu0) / g.sum())
    assert adversary._certified_gap(value, y, t, c, b, mu0, a0, p1) is None


@st.composite
def _premise_instances(draw):
    """A drawn bad-news LP over CARA, quadratic and CRRA pairs under Zero,
    Linear, Exponential, a quota or a tabulated mechanism."""
    family = draw(st.sampled_from(["quadratic", "cara", "crra"]))
    params = draw(st.tuples(*[st.floats(0.5, 3.0)] * 3))
    if family == "quadratic":
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    elif family == "cara":
        agent, principal = cara_pair(params[0], params[1])
    else:
        # gamma in [0.25, 0.75] or [1.5, 3], away from the excluded 1
        agent, principal = (CRRA(x if x >= 1.5 else x / 2.0)
                            for x in params[:2])
    l_max = draw(st.sampled_from([1.0, 2.0, 4.0, 8.0]))
    grid = LevelGrid(l_max, draw(st.integers(2, 60)))
    allowed = draw(st.integers(1, grid.n))
    taxes = draw(st.lists(st.floats(-0.2, 0.2), min_size=allowed,
                          max_size=allowed))
    m = draw(st.one_of(
        st.just(Zero()), st.builds(Linear, st.floats(0.0, 0.1)),
        st.builds(Exponential, st.floats(0.05, 1.0)),
        st.builds(FixedTaxHardQuota, st.floats(0.0, 0.3),
                  st.floats(0.0, l_max)),
        st.just(TabulatedMechanism(
            grid, tuple(taxes) + (np.inf,) * (grid.n - allowed)))))
    return agent, principal, m, grid, draw(st.floats(0.2, 0.8))


@settings(max_examples=100, deadline=None)
@given(_premise_instances())
def test_premise_reads_the_solve_profiles(instance):
    """solve_badnews_lp reads the premise from the profiles it solves on,
    and finds what the public check finds."""
    try:
        lp = solve_badnews_lp(*instance)
    except RobustQuotaError:
        return
    assert lp.premise_ok == principal_prefers_earlier(*instance[:4])


@st.composite
def _census_instances(draw, l_maxes=(1.0, 2.0, 4.0, 8.0), n_max=161):
    """A drawn bad-news LP over CARA, CRRA and quadratic pairs with
    parameters in [0.3, 3], l_max in l_maxes, 3 <= n <= n_max and a prior
    in [0.1, 0.9], under Zero, Linear, a quota, Exponential or the robust
    mechanism."""
    family = draw(st.sampled_from(["cara", "crra", "quadratic"]))
    param = st.floats(0.3, 3.0)
    if family == "quadratic":
        agent, principal = quadratic_pair(*(draw(param) for _ in range(3)))
    elif family == "cara":
        agent, principal = CARA(draw(param)), CARA(draw(param))
    else:
        gamma = param.filter(lambda x: x != 1.0)
        agent, principal = CRRA(draw(gamma)), CRRA(draw(gamma))
    l_max = draw(st.sampled_from(l_maxes))
    grid = LevelGrid(l_max, draw(st.integers(3, n_max)))
    mu0 = draw(st.floats(0.1, 0.9))
    kind = draw(st.sampled_from(["zero", "linear", "quota", "exponential",
                                 "robust"]))
    if kind == "robust":
        m = compute_robust(agent, principal, mu0, grid).mechanism
    else:
        m = {"zero": st.just(Zero()),
             "linear": st.builds(Linear, st.floats(-0.5, 0.5)),
             "quota": st.builds(FixedTaxHardQuota, st.floats(-1.0, 1.0),
                                st.floats(0.0, l_max)),
             "exponential": st.builds(Exponential, st.floats(-1.0, 1.0))}
        m = draw(m[kind])
    return agent, principal, m, grid, mu0


def _obeys_dense(g, a1, a0, mu0):
    """Reference: every obedience row of g, summed term by term, holds to
    1e-9 of the sum of its terms' magnitudes."""
    gaps = np.triu(a0[:, None] - a0[None, :]) * g
    terms = (np.abs(mu0 * (a1[-1] - a1))
             + np.triu(np.abs(a0)[:, None] + np.abs(a0)[None, :]) @ g)
    return bool((mu0 * (a1[-1] - a1) - gaps.sum(axis=1)
                 >= -1e-9 * terms).all())


@settings(max_examples=100, deadline=None)
@given(_census_instances())
def test_every_worst_case_answer_carries_its_certificate(instance):
    """solve_badnews_lp refuses with a typed error, or its answer
    re-verifies from the LP data: the multipliers give back the gap and the
    all-process flag, every obedience row holds, and the construction's gap
    is within 1e-9 of its value.  indifference_G's construction, where it
    reports no fallback, meets the same obedience rule."""
    agent, principal, m, grid, mu0 = instance
    _, a1, a0, p1, p0, c, b = adversary._lp_data(*instance)
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError):
        pass
    else:
        y, t = lp.multipliers
        assert adversary._certified_gap(lp.value, y, t, c, b, mu0, a0,
                                        p1) == lp.gap
        assert adversary._all_processes(y, t, a1, a0, p1,
                                        p0) == lp.all_processes
        assert _obeys_dense(lp.bn.g, a1, a0, mu0)
        if lp.route == "construction":
            assert abs(lp.gap) <= 1e-9 * max(1.0, abs(lp.value))
    try:
        ind = indifference_G(agent, m, grid, mu0, principal)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    if not ind.used_lp_fallback:
        assert _obeys_dense(ind.bn.g, a1, a0, mu0)


def _doomed_rows_suffix_max(a0, b):
    """Reference: the obedience rows j < end that no g >= 0 satisfies, b_j < 0
    with no later level paying more at belief 0, read off the suffix
    maximum of a0."""
    later = np.maximum.accumulate(a0[::-1])[::-1][1:]
    return np.flatnonzero((b[:-1] < 0.0) & (a0[:-1] >= later))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
           *[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)),
       st.floats(0.2, 0.8))
def test_doomed_row_refusal_matches_suffix_max(profiles, mu0):
    """On small-integer profiles, full of ties, solve_badnews_lp refuses
    the highest row the suffix-max reference dooms, and no row where it
    dooms none."""
    grid = LevelGrid(float(len(profiles[0]) - 1), len(profiles[0]))
    agent = Tabulated(grid, *profiles)
    _, _, a0, _, _, _, b = adversary._lp_data(agent, agent, Zero(), grid, mu0)
    ref = _doomed_rows_suffix_max(a0, b)
    try:
        solve_badnews_lp(agent, agent, Zero(), grid, mu0)
        refused = None
    except InfeasibleLPError as e:
        refused = e.most_binding if "obedience fails" in str(e) else None
    except ConditionViolatedError:
        refused = None
    assert refused == (int(ref[-1]) if ref.size else None)


def _all_process_lp(agent, principal, m, grid, mu0):
    """Reference: the worst case over every obedient learning process on
    the grid, as the dense recommendation-form LP solved by HiGHS.  Mass
    x_theta,j stops at level j in state theta; the rows are the two state
    masses, continue obedience at each level, and stop obedience against
    every later allowed level.  Agent rows are divided by the agent's
    payoff scale and the objective by the principal's, which leaves the
    argmin unchanged.  Returns the value and the principal's scale."""
    a1, a0 = adjusted_profiles(agent, m, "agent", grid)
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    n = len(a1)
    a = np.stack((a1, a0)) / max(1.0, np.abs(a1).max(), np.abs(a0).max())
    scale = max(1.0, float(np.abs(p1).max()), float(np.abs(p0).max()))
    D = a[:, None, :] - a[:, :, None]        # D[theta, j, t] = a_t - a_j
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    cont = -np.concatenate((D[0] * later, D[1] * later), axis=1)[:-1]
    j, k = later.nonzero()
    stop = np.zeros((len(j), 2 * n))
    stop[np.arange(len(j)), j] = D[0, j, k]
    stop[np.arange(len(j)), n + j] = D[1, j, k]
    rows = np.concatenate((cont, stop))
    mass = np.kron(np.eye(2), np.ones(n))
    res = linprog(np.concatenate((p1, p0)) / scale,
                  A_ub=rows if len(rows) else None,
                  b_ub=np.zeros(len(rows)) if len(rows) else None,
                  A_eq=mass, b_eq=[mu0, 1.0 - mu0], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun * scale, scale


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_lp_instances(l_maxes=(1.0, 2.0, 4.0), n_max=40, robust=True))
def test_all_processes_is_sound_against_the_dense_reference(instance):
    """The bad-news process is one of all processes, so the dense
    all-process LP is never above the bad-news value; where
    `all_processes` holds it is not below it either."""
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    ref, scale = _all_process_lp(*instance)
    assert ref <= lp.value + 1e-9 * scale
    if lp.all_processes:
        assert ref >= lp.value - 1e-9 * scale


@pytest.mark.parametrize("pair, mech, mu0, certified", [
    (quadratic_pair(1.0, 1.0, 1.0), Zero(), 0.6, True),
    (cara_pair(1.0, 3.0), Zero(), 0.5, True),
    # the premise fails, and some process does worse than every bad-news
    # process
    (cara_pair(3.0, 1.5), "robust", 0.7, False)])
def test_all_processes_on_known_instances(pair, mech, mu0, certified):
    grid = LevelGrid(2.0, 11)
    if mech == "robust":
        mech = compute_robust(*pair, mu0, grid).mechanism
    lp = solve_badnews_lp(*pair, mech, grid, mu0)
    assert lp.all_processes is certified
    ref, scale = _all_process_lp(*pair, mech, grid, mu0)
    assert (ref >= lp.value - 1e-9 * scale) is certified


def _eager_certificate(value, y, t, c, b, mu0, a1, a0, p1, p0):
    """Reference: the certification step in one pass, the all-process
    check sharing the gap's prefix sums; (gap, all_processes), or None
    unless (y, t) are dual feasible."""
    y4 = y / 4
    Y4, Z4 = y4.cumsum(), np.abs(y4).cumsum()
    ya0, ya1 = y4 * a0, y4 * a1
    cs0, ay0 = ya0.cumsum(), a0 * Y4
    zs0, az0 = np.abs(ya0).cumsum(), np.abs(a0) * Z4
    r = c / 4 - t / 4 + cs0 - ay0
    size = np.abs(c) / 4 + abs(t) / 4 + zs0 + az0
    if y.min() < -1e-9 * np.abs(y).max() or (r < -1e-9 * size).any():
        return None
    gap = value - float(mu0 * p1[-1] + (1.0 - mu0) * t - y @ b)
    q0, q1 = p0 / 4, p1 / 4
    R0 = (q0 - t / 4 + cs0 - ay0
          + 1e-9 * (np.abs(q0) + abs(t) / 4 + zs0 + az0))
    s1 = q1 + ya1.cumsum() - a1 * Y4
    z1 = np.abs(q1) + np.abs(ya1).cumsum() + np.abs(a1) * Z4
    R1 = s1 + 1e-9 * z1 + (1e-9 * z1[-1] - s1[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        e0, e1 = a0[1:] - a0[:-1], a1[1:] - a1[:-1]
        mid = np.abs(e0) * R1[:-1] + np.abs(e1) * R0[:-1] >= 0.0
    up0, up1 = e0 > 0.0, e1 > 0.0
    ok = ((up0 | (R0[:-1] >= 0.0)) & (up1 | (R1[:-1] >= 0.0))
          & ((up0 == up1) | mid))
    return gap, bool(ok.all())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_census_instances())
def test_diagnostics_read_on_access_match_the_eager_ones(instance):
    """premise_ok, read from the result, is the public premise check, and
    all_processes is the flag of the eager certification step; a second
    read gives the same answer."""
    agent, principal, m, grid, mu0 = instance
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    _, a1, a0, p1, p0, c, b = adversary._lp_data(*instance)
    y, t = lp.multipliers
    ref = _eager_certificate(lp.value, y, t, c, b, mu0, a1, a0, p1, p0)
    assert ref == (lp.gap, lp.all_processes)
    assert lp.premise_ok == principal_prefers_earlier(agent, principal, m,
                                                      grid)
    assert lp.premise_ok is lp.premise_ok
    assert lp.all_processes is lp.all_processes


def test_diagnostics_are_computed_only_when_read(monkeypatch):
    """solve_badnews_lp computes neither diagnostic; reading premise_ok
    runs the premise check once, and verify_guarantee, which reads only
    all_processes, never runs it."""
    calls = {"premise": 0, "all": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(adversary, "_prefers_earlier",
                        counted("premise", adversary._prefers_earlier))
    monkeypatch.setattr(adversary, "_all_processes",
                        counted("all", adversary._all_processes))
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    grid = LevelGrid(2.0, 41)
    lp = solve_badnews_lp(agent, principal, Zero(), grid, 0.6)
    assert calls == {"premise": 0, "all": 0}
    assert lp.premise_ok
    assert calls == {"premise": 1, "all": 0}
    assert lp.all_processes
    assert calls == {"premise": 1, "all": 1}
    rob = compute_robust(agent, principal, 0.6, grid)
    verify_guarantee(rob, agent, principal, grid)
    assert calls == {"premise": 1, "all": 2}


def test_premise_is_not_a_certificate():
    """The earlier-stopping premise makes bad news the worst case only for
    single-peaked payoffs: here it holds, the payoffs are not single-peaked,
    and some learning process gives the principal less than every bad-news
    process, which all_processes reports."""
    agent, principal = CRRA(1.80997), CRRA(0.872995)
    grid, mu0 = LevelGrid(4.0, 33), 0.89248
    lp = solve_badnews_lp(agent, principal, Zero(), grid, mu0)
    assert lp.premise_ok and not lp.all_processes
    assert lp.route == "highs"
    assert lp.value == pytest.approx(1.21660, abs=1e-5)
    ref, _ = _all_process_lp(agent, principal, Zero(), grid, mu0)
    assert ref == pytest.approx(0.95189, abs=1e-5)
    assert not check_assumptions(agent, principal, grid).single_peaked


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_lp_instances(l_maxes=(1.0, 2.0, 4.0), n_max=4, robust=True),
       st.floats(0.05, 0.95))
def test_oracle_never_below_a_certified_value(instance, belief):
    """On a grid of at most 4 levels the tree oracle, an independent
    solver over history-dependent processes, finds nothing below a value
    certified over all processes."""
    agent, principal, m, grid, mu0 = instance
    try:
        lp = solve_badnews_lp(*instance)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    if not lp.all_processes:
        return
    beliefs = {0.0, mu0, belief, (1.0 + mu0) / 2, 1.0}
    try:
        oracle = tree_oracle_worst_case(agent, principal, m, grid, beliefs,
                                        mu0)
    except (ConditionViolatedError, InfeasibleLPError):
        return
    p1, p0 = adjusted_profiles(principal, m, "principal", grid)
    scale = max(1.0, float(np.abs(p1).max()), float(np.abs(p0).max()))
    assert oracle.value >= lp.value - 1e-9 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=400, deadline=None)
@given(_census_instances(l_maxes=(1.0, 2.0, 4.0, 8.0, 16.0), n_max=401),
       st.floats(0.05, 0.95))
def test_worst_case_calls_return_or_raise_typed_errors(instance, belief):
    """Every public worst-case call, the assumption checks and the tree
    oracle answer or refuse with a class from errors.py, with no
    RuntimeWarning, out to payoffs of e^48 (CARA at l_max 16), where the
    all-process check sums y a1 and compares payoff steps."""
    agent, principal, m, grid, mu0 = instance
    small = LevelGrid(grid.l_max, min(grid.n, 4))
    def solve():
        lp = solve_badnews_lp(*instance)
        return lp.premise_ok, lp.all_processes

    calls = (
        solve,
        lambda: verify_guarantee(compute_robust(agent, principal, mu0, grid),
                                 agent, principal, grid),
        lambda: payoff_gap(m, agent, principal, grid, mu0),
        lambda: check_assumptions(agent, principal, grid),
        lambda: tree_oracle_worst_case(agent, principal, m, small,
                                       {0.0, belief, mu0, 1.0}, mu0))
    for call in calls:
        try:
            call()
        except RobustQuotaError:
            pass
