import math

import numpy as np
import pytest

from robustquota import (CARA, DomainError, Exponential, FixedTaxHardQuota,
                         LevelGrid, Linear, Mechanism, TabulatedMechanism,
                         Zero, adjusted_profiles, mechanism_from_dict,
                         no_learning, payoff_from_dict, solve_stopping)


def test_quota_prohibits_strictly_beyond():
    g = LevelGrid(2.0, 5)
    m = FixedTaxHardQuota(0.1, 1.0)
    assert m.tax_profile(g).tolist() == [0.1, 0.1, 0.1]


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
    g = LevelGrid(1.0, 3)
    m = TabulatedMechanism(g, (0.0, 1.0, math.inf))
    again = mechanism_from_dict(m.to_dict(), g)
    assert again.tax_profile(g).tolist() == [0.0, 1.0]
    for spec in (Zero(), FixedTaxHardQuota(0.2, 0.5), Linear(1.0),
                 Exponential(0.5)):
        r = mechanism_from_dict(spec.to_dict())
        assert r == spec


@pytest.mark.parametrize("build,spec,match", [
    (payoff_from_dict, {"family": "cara"}, "lacks key 'gamma'"),
    (mechanism_from_dict, {"type": "linear"}, "lacks key 'beta_tax'"),
    (payoff_from_dict, {"family": "cara", "gamma": "x"}, "'cara' payoff spec"),
])
def test_malformed_spec_dict_is_a_domain_error(build, spec, match):
    with pytest.raises(DomainError, match=match):
        build(spec)


@pytest.mark.parametrize("build", [
    lambda: Linear("x"), lambda: Exponential(None),
    lambda: FixedTaxHardQuota("x", 0.5), lambda: FixedTaxHardQuota(0.1, "x"),
    lambda: FixedTaxHardQuota(True, 0.5),
    lambda: TabulatedMechanism(LevelGrid(1.0, 3), ("x", 1.0, 2.0)),
    lambda: TabulatedMechanism(LevelGrid(1.0, 3), (True, 1.0, 2.0)),
    lambda: TabulatedMechanism(LevelGrid(1.0, 3), 2.0),
    lambda: mechanism_from_dict({"type": "tabulated", "phi": [True, 1, 2]},
                                LevelGrid(1.0, 3)),
    lambda: mechanism_from_dict({"type": "tabulated", "phi": ["x", 1, 2]},
                                LevelGrid(1.0, 3)),
    lambda: mechanism_from_dict({"type": "fixed_tax_hard_quota",
                                 "lambda": "x", "quota": 0.5})],
    ids=["linear", "exponential", "quota_tax", "quota_level", "bool_tax",
         "tabulated", "tabulated_bool", "tabulated_scalar",
         "tabulated_bool_spec", "tabulated_spec", "quota_spec"])
def test_mechanism_parameters_are_checked_when_built(build):
    with pytest.raises(DomainError):
        build()
