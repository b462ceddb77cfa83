import math

import numpy as np
import pytest

from robustquota import (CARA, DomainError, Exponential, FixedTaxHardQuota,
                         LevelGrid, Linear, TabulatedMechanism,
                         UnreachableLevelError, Zero, adjusted_profiles,
                         mechanism_from_dict)


def test_quota_prohibits_strictly_beyond():
    g = LevelGrid(2.0, 5)
    m = FixedTaxHardQuota(0.1, 1.0)
    phi, proh = m.tax_profile(g)
    assert list(proh) == [False, False, False, True, True]
    assert np.all(phi == 0.1)


def test_quota_on_grid_point_stays_allowed():
    g = LevelGrid(2.0, 2001)
    m = FixedTaxHardQuota(0.0, 0.5)
    _, proh = m.tax_profile(g)
    assert not proh[g.index_of(0.5)]
    assert proh[g.index_of(0.5) + 1]


def test_tax_at_prohibited_level_raises():
    g = LevelGrid(2.0, 5)
    m = FixedTaxHardQuota(0.1, 1.0)
    with pytest.raises(UnreachableLevelError):
        m.tax(2.0, g)
    assert m.tax(1.0, g) == 0.1


def test_linear_and_exponential_profiles():
    g = LevelGrid(1.0, 3)
    assert np.allclose(Linear(2.0).tax_profile(g)[0], [0.0, 1.0, 2.0])
    assert np.allclose(Exponential(1.0).tax_profile(g)[0], np.exp(g.points))


def test_tabulated_prohibited_must_be_upward_closed():
    g = LevelGrid(1.0, 4)
    with pytest.raises(DomainError):
        TabulatedMechanism(g, (0.0, math.inf, 0.0, math.inf))
    m = TabulatedMechanism(g, (0.0, 0.5, math.inf, math.inf))
    _, proh = m.tax_profile(g)
    assert list(proh) == [False, False, True, True]


def test_adjusted_profiles_sides():
    g = LevelGrid(1.0, 3)
    p = CARA(1.0)
    m = Linear(1.0)
    a1, a0, _ = adjusted_profiles(p, m, "agent", g)
    v1, v0, _ = adjusted_profiles(p, m, "principal", g)
    assert np.allclose(a1, p.u1(g.points) - g.points)
    assert np.allclose(v1, p.u1(g.points) + g.points)


def test_dict_roundtrip_with_inf():
    g = LevelGrid(1.0, 3)
    m = TabulatedMechanism(g, (0.0, 1.0, math.inf))
    again = mechanism_from_dict(m.to_dict(), g)
    assert again.tax_profile(g)[1][-1]
    for spec in (Zero(), FixedTaxHardQuota(0.2, 0.5), Linear(1.0),
                 Exponential(0.5)):
        r = mechanism_from_dict(spec.to_dict())
        assert r == spec
