import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (CARA, ConfigError, DomainError, Exponential,
                         FixedTaxHardQuota, LevelGrid, Linear, Mechanism,
                         TabulatedMechanism, Zero, adjusted_profiles,
                         no_learning, parse_config, solve_stopping)


def _config(grid, agent=CARA(1.0).to_dict(), **extra):
    """A minimal run configuration on `grid`, read by parse_config."""
    return parse_config({"payoff": {"agent": agent,
                                    "principal": CARA(2.0).to_dict()},
                         "grid": {"l_max": grid.l_max, "n": grid.n},
                         "prior": {"mu0": 0.5}, **extra})


def test_quota_prohibits_strictly_beyond():
    g = LevelGrid(2.0, 5)
    m = FixedTaxHardQuota(0.1, 1.0)
    assert m.tax_profile(g).tolist() == [0.1, 0.1, 0.1]
    # an off-grid quota allows no level above it: 0.78 is the nearest
    # point, but it is beyond 0.77
    g = LevelGrid(2.0, 101)
    assert g.points[len(FixedTaxHardQuota(0.0, 0.77).tax_profile(g)) - 1] \
        == 0.76
    # a point a rounding error above the quota is the quota's point
    g = LevelGrid(1.0, 11)
    assert g.points[3] == 0.30000000000000004
    assert len(FixedTaxHardQuota(0.0, 0.3).tax_profile(g)) == 4


def test_quota_on_grid_point_stays_allowed():
    g = LevelGrid(2.0, 2001)
    m = FixedTaxHardQuota(0.0, 0.5)
    assert g.points[len(m.tax_profile(g)) - 1] == 0.5


def test_linear_and_exponential_profiles():
    g = LevelGrid(1.0, 3)
    assert np.allclose(Linear(2.0).tax_profile(g), [0.0, 1.0, 2.0])
    assert np.allclose(Exponential(1.0).tax_profile(g), np.exp(g.points))


def test_tabulated_prohibited_must_be_upward_closed():
    g = LevelGrid(1.0, 4)
    with pytest.raises(DomainError):
        TabulatedMechanism(g, (0.0, math.inf, 0.0, math.inf))
    m = TabulatedMechanism(g, (0.0, 0.5, math.inf, math.inf))
    assert m.tax_profile(g).tolist() == [0.0, 0.5]


@pytest.mark.parametrize("n", [21, 41, 81, 401])
def test_tabulated_quota_on_other_grids_is_the_fixed_quota(n):
    """The shipped table, phi = 0.1 through level 0.5 on LevelGrid(2.0, 41),
    read on another grid is FixedTaxHardQuota(0.1, 0.5) there, bitwise."""
    table = TabulatedMechanism(LevelGrid(2.0, 41),
                               (0.1,) * 11 + (math.inf,) * 30)
    g = LevelGrid(2.0, n)
    assert table.tax_profile(g).tobytes() == \
        FixedTaxHardQuota(0.1, 0.5).tax_profile(g).tobytes()


@settings(max_examples=100, deadline=None)
@given(own=st.tuples(st.floats(0.1, 10.0), st.integers(2, 60)),
       other=st.tuples(st.floats(0.1, 10.0), st.integers(2, 200)),
       data=st.data())
def test_tabulated_profile_on_any_grid(own, other, data):
    """A table with a prohibited suffix: on its own grid its profile is the
    finite prefix, bitwise; on another grid the allowed points are exactly
    those at or below its last allowed level, and phi lies between the
    table's finite values."""
    grid = LevelGrid(*own)
    k = data.draw(st.integers(1, grid.n - 1), label="allowed")
    phi = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k),
                    label="phi")
    table = TabulatedMechanism(grid, (*phi, *[math.inf] * (grid.n - k)))
    assert table.tax_profile(grid).tobytes() == np.array(phi).tobytes()

    g = LevelGrid(*other)
    prof = table.tax_profile(g)
    top = grid.points[k - 1]
    m = len(prof)
    assert m >= 1 and g.points[m - 1] <= top + 4.0 * math.ulp(top)
    assert m == g.n or g.points[m] > top
    assert min(phi) <= prof.min() and prof.max() <= max(phi)


def test_adjusted_profiles_sides():
    g = LevelGrid(1.0, 3)
    p = CARA(1.0)
    m = Linear(1.0)
    a1, a0 = adjusted_profiles(p, m, "agent", g)
    v1, v0 = adjusted_profiles(p, m, "principal", g)
    assert np.allclose(a1, p.u1(g.points) - g.points)
    assert np.allclose(v1, p.u1(g.points) + g.points)
    # a quota's profiles cover the allowed levels only
    q1, q0 = adjusted_profiles(p, FixedTaxHardQuota(0.1, 0.5), "agent", g)
    assert np.array_equal(q0, p.u0(g.points[:2]) - 0.1) and len(q1) == 2


class _UserMechanism(Mechanism):
    """A mechanism written outside the package, returning `profile`."""

    def __init__(self, profile):
        self.profile = profile

    def tax_profile(self, grid):
        return self.profile


@pytest.mark.parametrize("profile", [
    # the earlier (phi, prohibited mask) pair, with a hole at level 1
    (np.zeros(5), np.arange(5) == 1),
    np.zeros(6),
    np.array([0.0, np.nan]),
    np.array([0.0, np.inf]),
    np.zeros((2, 2)),
    np.array(["a", "b"]),
    [0.0, None],
], ids=["mask_pair", "too_long", "nan", "inf", "2d", "strings", "none"])
def test_malformed_user_profile_raises(profile):
    grid = LevelGrid(1.0, 5)
    with pytest.raises(DomainError, match="1-D array of at most 5 finite"):
        solve_stopping(no_learning(0.5, grid), CARA(1.0),
                       _UserMechanism(profile))


def test_dict_roundtrip_with_inf():
    """Every mechanism type, a table with a prohibited level included, comes
    back equal from its JSON form, read as text by parse_config; the form
    holds plain floats and strings only."""
    g = LevelGrid(1.0, 3)
    m = TabulatedMechanism(g, (0.0, 1.0, math.inf))
    assert m.to_dict()["phi"] == [0.0, 1.0, "inf"]
    assert _config(g, mechanism=m.to_dict()).mechanism.tax_profile(g) \
        .tolist() == [0.0, 1.0]
    for spec in (Zero(), FixedTaxHardQuota(0.2, 0.5), Linear(1.0),
                 Exponential(0.5), m,
                 TabulatedMechanism(g, (np.float64(0.1), 0.25, 0.5))):
        d = spec.to_dict()
        assert all(type(v) in (str, float) or type(v) is list
                   and all(type(x) in (str, float) for x in v)
                   for v in d.values())
        assert _config(g, mechanism=json.loads(json.dumps(d))).mechanism \
            == spec


@pytest.mark.parametrize("section,spec,match", [
    ("agent", {"family": "cara"},
     r"missing required key 'gamma' in payoff.agent \(family 'cara'\)"),
    ("mechanism", {"type": "linear"},
     r"missing required key 'beta_tax' in 'mechanism' \(type 'linear'\)"),
    ("agent", {"family": "cara", "gamma": "x"},
     r"payoff.agent \(family 'cara'\): gamma must be a finite number"),
], ids=["payoff-missing-key", "mechanism-missing-key", "payoff-non-number"])
def test_malformed_spec_dict_is_a_config_error(section, spec, match):
    with pytest.raises(ConfigError, match=match):
        _config(LevelGrid(1.0, 3), **{section: spec})


@pytest.mark.parametrize("build,error", [
    (lambda: Linear("x"), DomainError), (lambda: Exponential(None), DomainError),
    (lambda: Linear(math.inf), DomainError),
    (lambda: Exponential(math.nan), DomainError),
    (lambda: FixedTaxHardQuota("x", 0.5), DomainError),
    (lambda: FixedTaxHardQuota(math.inf, 0.5), DomainError),
    (lambda: FixedTaxHardQuota(0.1, "x"), DomainError),
    (lambda: FixedTaxHardQuota(True, 0.5), DomainError),
    (lambda: TabulatedMechanism(LevelGrid(1.0, 3), ("x", 1.0, 2.0)),
     DomainError),
    (lambda: TabulatedMechanism(LevelGrid(1.0, 3), (True, 1.0, 2.0)),
     DomainError),
    (lambda: TabulatedMechanism(LevelGrid(1.0, 3), 2.0), DomainError),
    # a spec is read by parse_config, which reports the refusal as a
    # ConfigError
    (lambda: _config(LevelGrid(1.0, 3), mechanism={
        "type": "tabulated", "phi": [True, 1, 2]}), ConfigError),
    (lambda: _config(LevelGrid(1.0, 3), mechanism={
        "type": "tabulated", "phi": ["x", 1, 2]}), ConfigError),
    (lambda: _config(LevelGrid(1.0, 3), mechanism={
        "type": "fixed_tax_hard_quota", "lambda": "x", "quota": 0.5}),
     ConfigError)],
    ids=["linear", "exponential", "linear_inf", "exponential_nan",
         "quota_tax", "quota_tax_inf", "quota_level", "bool_tax",
         "tabulated", "tabulated_bool", "tabulated_scalar",
         "tabulated_bool_spec", "tabulated_spec", "quota_spec"])
def test_mechanism_parameters_are_checked_when_built(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [Exponential(400.0), Exponential(358.045),
                               Linear(1e308)],
                         ids=["exp-400", "exp-358", "linear-1e308"])
def test_overflowing_transfers_are_a_domain_error(m):
    """Transfers past the float range on a grid to 2 (exp(400 l) past
    l = 1.78): the profile holds inf, which the one profile check refuses,
    with no RuntimeWarning."""
    with pytest.raises(DomainError, match="finite numbers"):
        adjusted_profiles(CARA(1.0), m, "agent", LevelGrid(2.0, 11))
