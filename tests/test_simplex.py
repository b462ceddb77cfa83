import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from robustquota import (InfeasibleLPError, IterationLimitError,
                         UnboundedLPError, simplex)
from robustquota.simplex import solve_lp


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


def test_bound_count_must_match_rows():
    # a bound vector of the wrong length is an error, not silently cut short
    with pytest.raises(ValueError, match="2 constraint rows but 3 bounds"):
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0], [2.0]]),
                 b_ub=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="1 constraint rows but 0 bounds"):
        solve_lp(np.array([1.0]), A_eq=np.array([[1.0]]), b_eq=np.array([]))
