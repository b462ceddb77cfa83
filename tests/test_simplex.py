from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import lp_reference
from robustquota import (DomainError, FixedTaxHardQuota, InfeasibleLPError,
                         IterationLimitError, LevelGrid, Linear,
                         UnboundedLPError, Zero, adversary, cara_pair,
                         quadratic_pair, simplex, tree_oracle_worst_case)
from robustquota.simplex import solve_lp

LP_ERRORS = (InfeasibleLPError, IterationLimitError, UnboundedLPError)


def test_known_small_lp():
    # min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2 -> (2, 2), value -6? no:
    # optimum is x=2, y=2 with x+y=4 binding: value -6
    res = solve_lp(np.array([-1.0, -2.0]),
                   A_ub=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                   b_ub=np.array([4.0, 3.0, 2.0]))
    assert res.fun == pytest.approx(-6.0)
    assert np.allclose(res.x, [2.0, 2.0])


def test_equality_constraint():
    # min x + y s.t. x + 2y = 3 -> x=0, y=1.5
    res = solve_lp(np.array([1.0, 1.0]), A_eq=np.array([[1.0, 2.0]]),
                   b_eq=np.array([3.0]))
    assert res.fun == pytest.approx(1.5)


def test_negative_rhs_handled():
    # min x s.t. -x <= -2  (i.e. x >= 2)
    res = solve_lp(np.array([1.0]), A_ub=np.array([[-1.0]]),
                   b_ub=np.array([-2.0]))
    assert res.fun == pytest.approx(2.0)


def test_infeasible_reports_most_binding():
    with pytest.raises(InfeasibleLPError) as exc:
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]),
                 b_ub=np.array([1.0, -2.0]))
    assert exc.value.most_binding is not None


def test_iteration_limit_is_not_infeasibility(monkeypatch):
    # a stalled run says nothing about feasibility, so a caller that skips
    # infeasible LPs must not skip it
    lp = dict(c=np.array([-1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
    assert solve_lp(**lp).n_iter == 1
    monkeypatch.setattr(simplex, "_PIVOTS_PER_SIZE", 0)
    with pytest.raises(IterationLimitError):
        solve_lp(**lp)
    assert not issubclass(IterationLimitError, InfeasibleLPError)
    with pytest.raises(IterationLimitError):
        with pytest.raises(InfeasibleLPError):
            solve_lp(**lp)


def test_default_iteration_limit_scales_with_the_tableau(monkeypatch):
    lp = dict(c=np.array([-1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
    monkeypatch.setattr(simplex, "_PIVOTS_PER_SIZE", 0)
    with pytest.raises(IterationLimitError):
        solve_lp(**lp)
    monkeypatch.setattr(simplex, "_PIVOTS_PER_SIZE", 1)
    assert solve_lp(**lp).n_iter == 1


def test_unbounded():
    with pytest.raises(UnboundedLPError):
        solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]),
                 b_ub=np.array([0.0]))


def test_degenerate_lp_terminates():
    # many redundant constraints through the same vertex
    A = np.vstack([np.eye(3), np.ones((4, 3))])
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    res = solve_lp(-np.ones(3), A_ub=A, b_ub=b)
    assert res.fun == pytest.approx(-1.0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matches_highs_on_random_instances(seed):
    """Cross-check the tableau simplex against HiGHS on random bounded LPs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    A_box = np.vstack([A, np.eye(n)])       # box keeps the LP bounded
    b_box = np.concatenate([b, np.full(n, 5.0)])
    ref = linprog(c, A_ub=A_box, b_ub=b_box, bounds=(0, None), method="highs")
    assert ref.status == 0
    res = solve_lp(c, A_ub=A_box, b_ub=b_box)
    assert res.fun == pytest.approx(ref.fun, abs=1e-7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["c", "A_ub", "b_ub", "A_eq", "b_eq"])
def test_non_finite_input_is_refused(where, bad):
    """A NaN once came back as an optimum (x = 0, fun = 0) and an infinite
    or NaN cost ran into the iteration limit: any entry that is not finite
    is refused."""
    lp = dict(c=np.array([1.0, 1.0]), A_ub=np.array([[1.0, 1.0]]),
              b_ub=np.array([1.0]), A_eq=np.array([[1.0, -1.0]]),
              b_eq=np.array([0.0]))
    lp[where] = lp[where].copy()
    lp[where].flat[0] = bad
    with pytest.raises(DomainError, match="finite"):
        solve_lp(**lp)


def test_bound_count_must_match_rows():
    # a bound vector of the wrong length is an error, not silently cut short
    with pytest.raises(ValueError, match="2 constraint rows but 3 bounds"):
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0], [2.0]]),
                 b_ub=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="1 constraint rows but 0 bounds"):
        solve_lp(np.array([1.0]), A_eq=np.array([[1.0]]), b_eq=np.array([]))


def _assert_same_as_reference(*lp):
    """solve_lp and the reference take the same pivots: the same x, fun and
    pivot count, or the same error class and most_binding row."""
    try:
        ref = lp_reference.solve_lp(*lp)
    except LP_ERRORS as e:
        with pytest.raises(LP_ERRORS) as got:
            solve_lp(*lp)
        assert type(got.value) is type(e)
        assert (getattr(got.value, "most_binding", None)
                == getattr(e, "most_binding", None))
        return
    res = solve_lp(*lp)
    assert res.x.shape == ref.x.shape and (res.x == ref.x).all()
    assert res.fun == ref.fun and res.n_iter == ref.n_iter


@st.composite
def _oracle_instances(draw):
    """A tree oracle instance: a quadratic or CARA pair, a mechanism, 2-4
    levels, 2-5 beliefs that include 0 and 1, and a prior in [0.2, 0.8]."""
    params = [draw(st.floats(0.5, 3.0)) for _ in range(3)]
    if draw(st.booleans()):
        agent, principal = quadratic_pair(params[0], params[1], params[2] - 0.5)
    else:
        agent, principal = cara_pair(params[0], params[1])
    grid = LevelGrid(draw(st.sampled_from([1.0, 2.0])), draw(st.integers(2, 4)))
    m = draw(st.one_of(
        st.just(Zero()), st.builds(Linear, st.floats(0.0, 0.1)),
        st.builds(FixedTaxHardQuota, st.floats(0.0, 0.3),
                  st.floats(0.3 * grid.l_max, grid.l_max))))
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=3, unique=True))
    return agent, principal, m, grid, [0.0, 1.0, *inner], \
        draw(st.floats(0.2, 0.8))


@given(_oracle_instances())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_oracle_lps_take_the_reference_pivots(instance):
    """The history LP tree_oracle_worst_case builds for the instance."""
    lps = []

    def record(*lp):
        lps.append(lp)
        return solve_lp(*lp)

    with mock.patch.object(adversary, "solve_lp", record):
        try:
            tree_oracle_worst_case(*instance)
        except LP_ERRORS:
            pass
    (lp,) = lps
    _assert_same_as_reference(*lp)


@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["boxed", "free", "integer"]))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_random_lps_take_the_reference_pivots(seed, kind):
    """Bounded (boxed), often unbounded (free) and degenerate, tied or
    infeasible (small integers, with a repeated equality row for the
    artificial drive-out) LPs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m_ub = int(rng.integers(0, 6))
    m_eq = int(rng.integers(0 if m_ub else 1, 4))
    if kind == "integer":
        def draw(*shape):
            return rng.integers(-3, 4, size=shape).astype(float)
    else:
        def draw(*shape):
            return rng.normal(size=shape)
    c, A_ub, b_ub = draw(n), draw(m_ub, n), draw(m_ub)
    A_eq, b_eq = draw(m_eq, n), draw(m_eq)
    if kind == "boxed":
        A_ub = np.vstack([A_ub, np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(n, 5.0)])
    if kind == "integer" and m_eq:
        A_eq = np.vstack([A_eq, A_eq[:1]])
        b_eq = np.concatenate([b_eq, b_eq[:1]])
    _assert_same_as_reference(c, A_ub, b_ub, A_eq, b_eq)
