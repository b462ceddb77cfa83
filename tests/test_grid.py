import numpy as np
import pytest

from robustquota import DomainError, LevelGrid, belief_grid


def test_points_and_spacing():
    g = LevelGrid(2.0, 5)
    assert np.allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.h == 0.5


def test_points_are_write_locked():
    g = LevelGrid(1.0, 3)
    with pytest.raises(ValueError):
        g.points[0] = 7.0


def test_index_of_roundtrip():
    g = LevelGrid(2.0, 2001)
    for j in (0, 1, 1000, 2000):
        assert g.index_of(g.points[j]) == j


def test_index_of_off_grid_rejected():
    g = LevelGrid(1.0, 3)
    with pytest.raises(DomainError):
        g.index_of(0.3)
    with pytest.raises(DomainError):
        g.index_of(1.5)


@pytest.mark.parametrize("l_max,n", [(0.0, 5), (-1.0, 5), (1.0, 1),
                                     (np.inf, 5), (np.nan, 5)])
def test_bad_construction(l_max, n):
    with pytest.raises(DomainError):
        LevelGrid(l_max, n)


def test_belief_grid_endpoints():
    mus = belief_grid(11)
    assert mus[0] == 0.0 and mus[-1] == 1.0 and len(mus) == 11
