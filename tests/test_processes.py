import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (DiscreteLearningProcess, DomainError, LevelGrid,
                         binomial_tree, full_revelation, no_learning,
                         random_tree, single_split)
from robustquota.processes import CSRKernel

GRID = LevelGrid(1.0, 5)


def test_no_learning_is_constant():
    p = no_learning(0.6, GRID)
    assert all(b.tolist() == [0.6] for b in p.beliefs)


def test_full_revelation_root_weights():
    p = full_revelation(0.3, GRID)
    assert np.allclose(p.root_dist, [0.7, 0.3])
    assert np.allclose(p.beliefs[0], [0.0, 1.0])


def test_single_split_weights_average_to_prior():
    p = single_split(0.6, GRID, 0.2, 0.8)
    assert float(p.root_dist @ p.beliefs[0]) == pytest.approx(0.6)


def test_single_split_must_straddle():
    with pytest.raises(DomainError):
        single_split(0.6, GRID, 0.0, 0.51)


def test_binomial_beliefs_follow_bayes():
    p = binomial_tree(0.5, GRID, p_good=0.7, p_bad=0.3)
    # one up-signal out of one: posterior odds multiply by 7/3
    assert p.beliefs[1][1] == pytest.approx(0.7)
    assert p.beliefs[1][0] == pytest.approx(0.3)


def test_martingale_violation_rejected():
    beliefs = (np.array([0.5]), np.array([0.1, 0.6]))
    kernels = (np.array([[0.5, 0.5]]),)  # mean 0.35 != 0.5
    with pytest.raises(DomainError):
        DiscreteLearningProcess(LevelGrid(1.0, 2), beliefs, kernels,
                                np.array([1.0]), 0.5)


def test_nonstochastic_kernel_rejected():
    beliefs = (np.array([0.5]), np.array([0.5]))
    kernels = (np.array([[0.9]]),)
    with pytest.raises(DomainError):
        DiscreteLearningProcess(LevelGrid(1.0, 2), beliefs, kernels,
                                np.array([1.0]), 0.5)


@given(seed=st.integers(0, 10_000), mu0=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_random_tree_is_valid_martingale(seed, mu0):
    """The constructor's own validation enforces row sums, the martingale
    property, and the root mean; any seed must pass it."""
    p = random_tree(mu0, LevelGrid(1.0, 6), seed, max_beliefs=4)
    assert all(len(b) <= 4 for b in p.beliefs)
    # iterated expectation: mean belief stays at the prior at every level
    mass = p.root_dist.copy()
    for j in range(p.n_levels):
        assert float(mass @ p.beliefs[j]) == pytest.approx(mu0, abs=1e-9)
        if j < p.n_levels - 1:
            mass = mass @ p.kernels[j]


def test_json_roundtrip():
    p = binomial_tree(0.4, GRID)
    q = DiscreteLearningProcess.from_json(p.to_json())
    assert q.mu0 == p.mu0
    for a, b in zip(p.beliefs, q.beliefs):
        assert np.allclose(a, b)
    for a, b in zip(p.kernels, q.kernels):
        assert np.allclose(a, b)


@st.composite
def _sparse_stochastic(draw):
    """A random row-stochastic matrix with 1 to k nonzeros per row."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(0.0, 1.0, size=(m, k)) * (rng.random((m, k)) < 0.4)
    a[np.arange(m), rng.integers(0, k, size=m)] += rng.uniform(0.1, 1.0, size=m)
    return a / a.sum(axis=1)[:, None], rng


@given(_sparse_stochastic())
@settings(max_examples=100, deadline=None)
def test_csr_kernel_agrees_with_dense(case):
    """Products and row sums match dense numpy to 1e-15 of their scale, the
    row length times the sum of the terms' magnitudes; the dense round trip
    is exact."""
    a, rng = case
    m, k = a.shape
    K = CSRKernel.from_dense(a)
    assert np.array_equal(K.toarray(), a) and np.array_equal(np.asarray(K), a)
    assert K.data.size == np.count_nonzero(a)
    v = rng.uniform(-1.0, 1.0, size=k)
    x = rng.uniform(-1.0, 1.0, size=m)
    for got, want, scale in [
            (K @ v, a @ v, k * np.abs(a) @ np.abs(v)),
            (x @ K, x @ a, m * np.abs(x) @ np.abs(a)),
            (K.row_sums(), a.sum(axis=1), k * a.sum(axis=1))]:
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_dense_and_csr_kernels_build_the_same_process():
    tree = binomial_tree(0.4, GRID)
    dense = DiscreteLearningProcess(GRID, tree.beliefs,
                                    tuple(np.asarray(k) for k in tree.kernels),
                                    tree.root_dist, tree.mu0)
    for a, b in zip(tree.kernels, dense.kernels):
        assert isinstance(b, CSRKernel)
        for f in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, f), getattr(b, f))


def test_unsorted_kernel_columns_rejected():
    beliefs = (np.array([0.5]), np.array([0.2, 0.8]))
    K = CSRKernel([0, 2], [1, 0], [0.5, 0.5], (1, 2))
    with pytest.raises(DomainError, match="increase"):
        DiscreteLearningProcess(LevelGrid(1.0, 2), beliefs, (K,),
                                np.array([1.0]), 0.5)
