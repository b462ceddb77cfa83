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


@pytest.mark.parametrize("l_max,n", [(0.0, 5), (-1.0, 5), (1.0, 1),
                                     (np.inf, 5), (np.nan, 5), (2.0, 5.5),
                                     (2.0, np.nan), (2.0, np.inf)])
def test_bad_construction(l_max, n):
    with pytest.raises(DomainError):
        LevelGrid(l_max, n)


@pytest.mark.parametrize("l_max,n", [(2.0, "3"), ("2", 3), (True, 3),
                                     (2.0, True), (None, 3), (2.0, None)])
def test_strings_bools_and_none_are_refused(l_max, n):
    """A size or l_max that is not a real number raises DomainError: a
    string size is not parsed, a bool is not read as 0 or 1, and a string
    l_max is not a bare TypeError."""
    with pytest.raises(DomainError):
        LevelGrid(l_max, n)


def test_integral_float_size_is_stored_as_int():
    g = LevelGrid(2.0, 3.0)
    assert g.n == 3 and type(g.n) is int
    assert g.h == 1.0 and len(g.points) == 3
    assert list(range(g.n)) == [0, 1, 2]


def test_belief_grid_endpoints():
    mus = belief_grid(11)
    assert mus[0] == 0.0 and mus[-1] == 1.0 and len(mus) == 11
    assert belief_grid(1001).tobytes() == np.linspace(0.0, 1.0, 1001).tobytes()


@pytest.mark.parametrize("n", ["5", 2.5, None, np.nan])
def test_belief_grid_refuses_what_level_grid_refuses(n):
    """A size that is not an integer above 1 raises DomainError: a string
    is not a bare TypeError, and 2.5 is not truncated to 2 points."""
    with pytest.raises(DomainError):
        belief_grid(n)
