import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (CARA, CRRA, ConfigError, DomainError, LevelGrid,
                         Quadratic, Tabulated, Zero, compute_robust,
                         parse_config, quadratic_pair, solve_badnews_lp)


def test_quadratic_closed_form():
    p = Quadratic(1.0, 1.0, 1.0)
    assert p.u(1, 2.0) == 2.0
    assert p.u(0, 2.0) == -6.0  # -l - l^2


def test_quadratic_pair_agent_is_risk_neutral():
    agent, principal = quadratic_pair(1.0, 1.0, 1.0)
    # agent indirect utility collapses to (2 mu - 1) l
    for mu in (0.0, 0.3, 0.6, 1.0):
        for l in (0.0, 0.5, 2.0):
            assert agent.indirect(mu, l) == pytest.approx((2 * mu - 1) * l)
    assert principal.quad == 1.0


def test_cara_closed_form():
    p = CARA(2.0)
    assert p.u(1, 1.0) == pytest.approx(-np.exp(-2.0))
    assert p.u(0, 1.0) == pytest.approx(-np.exp(2.0))


def test_crra_floors_the_origin():
    p = CRRA(2.0, eps=1e-6)
    assert np.isfinite(p.u(0, 0.0))
    assert p.singular_at_zero


def test_crra_rejects_log_case():
    with pytest.raises(DomainError):
        CRRA(1.0)


_NAN, _INF = float("nan"), float("inf")
_G2 = LevelGrid(1.0, 2)


@pytest.mark.parametrize("build", [
    lambda: Quadratic(_NAN, 1.0), lambda: Quadratic(1.0, _INF),
    lambda: Quadratic(1.0, 1.0, _NAN), lambda: Quadratic(True, 1.0),
    lambda: Quadratic("1", 1.0), lambda: CARA(_NAN), lambda: CARA(_INF),
    lambda: CARA("x"), lambda: CARA(None), lambda: CRRA(_NAN),
    lambda: CRRA(_INF), lambda: CRRA(2.0, _NAN), lambda: CRRA(2.0, True),
    lambda: Tabulated(_G2, (True, 1.0), (0.0, 0.0)),
    lambda: Tabulated(_G2, (0.0, 1.0), (0.0, "1")),
    lambda: Tabulated(_G2, (0.0, _NAN), (0.0, 0.0)),
    lambda: Tabulated(_G2, 1.0, (0.0, 0.0))],
    ids=["quad-alpha-nan", "quad-beta-inf", "quad-quad-nan", "quad-bool",
         "quad-str", "cara-nan", "cara-inf", "cara-str", "cara-none",
         "crra-nan", "crra-inf", "crra-eps-nan", "crra-eps-bool",
         "tab-bool", "tab-str", "tab-nan", "tab-scalar"])
def test_payoffs_refuse_parameters_that_are_not_finite_reals(build):
    """A NaN, infinite, bool or non-number parameter raises DomainError,
    never a bare TypeError, and is not read as a number (True as 1.0)."""
    with pytest.raises(DomainError):
        build()


_G5 = LevelGrid(1.0, 5)


@pytest.mark.parametrize("spec", [
    Quadratic(1.0, 2.0, 0.5), CARA(1.5), CRRA(2.0),
    Tabulated(_G5, tuple(_G5.points), (0, -0.25, np.float64(-0.5), -1, -2))])
def test_dict_roundtrip(spec):
    """Every payoff family comes back equal from its JSON form, read as text
    by parse_config; the form holds plain floats and strings only."""
    d = spec.to_dict()
    assert all(type(v) in (str, float) or type(v) is list
               and all(type(x) is float for x in v) for v in d.values())
    cfg = parse_config(json.loads(json.dumps(
        {"payoff": {"agent": d, "principal": d},
         "grid": {"l_max": _G5.l_max, "n": _G5.n}, "prior": {"mu0": 0.5}})))
    assert cfg.agent == spec and cfg.principal == spec


def test_tabulated_roundtrip_needs_grid():
    """A table's JSON form holds no grid: parse_config reads it on the
    config's grid, and refuses it on a grid of another size."""
    g = LevelGrid(1.0, 5)
    t = Tabulated(g, tuple(g.points), tuple(-g.points))
    assert "grid" not in t.to_dict()

    def read(grid):
        return parse_config({"payoff": {"agent": t.to_dict(),
                                        "principal": CARA(1.0).to_dict()},
                             "grid": {"l_max": grid.l_max, "n": grid.n},
                             "prior": {"mu0": 0.5}}).agent

    with pytest.raises(ConfigError, match="length must equal grid size"):
        read(LevelGrid(1.0, 4))
    again = read(g)
    assert again == t and np.allclose(again.u1(g.points), g.points)


@given(mu=st.floats(0.0, 1.0), l=st.floats(0.0, 2.0),
       c=st.floats(-5.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_indirect_is_affine_in_shift(mu, l, c):
    """Adding a constant to both states shifts U(mu, l) by that constant.

    Both sides use tabulated payoffs so off-grid interpolation cancels."""
    g = LevelGrid(2.0, 5)
    cara = CARA(1.0)
    base = Tabulated(g, tuple(cara.u1(g.points)), tuple(cara.u0(g.points)))
    shifted = Tabulated(g, tuple(cara.u1(g.points) + c),
                        tuple(cara.u0(g.points) + c))
    assert shifted.indirect(mu, l) == pytest.approx(base.indirect(mu, l) + c,
                                                   abs=1e-12)


def test_payoff_overflow_is_a_domain_error():
    """CARA's bad-state payoff -exp(gamma l) overflows past gamma l = 709.78;
    it once came out as a RuntimeWarning, or with warnings off as a robust
    guarantee of -1.0 at L* = 0."""
    with pytest.raises(DomainError, match=r"CARA\(gamma=3\).*level 237;.*"
                       r"gamma \* l <= 709.78"):
        solve_badnews_lp(CARA(1), CARA(3), Zero(), LevelGrid(237, 101), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError, match="CARA.*not finite at level"):
            compute_robust(CARA(5.34), CARA(2.91), 0.67, LevelGrid(400, 209))
    # the last level below the bound still evaluates
    assert np.isfinite(CARA(3).u0(np.array([236.0]))).all()
