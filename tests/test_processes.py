import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustquota import (BinaryExperiment, DiscreteLearningProcess,
                         DomainError, LevelGrid, Zero, binomial_tree,
                         no_learning, quadratic_pair, random_tree,
                         refine_process, single_split, solve_stopping)
from robustquota import processes

from level_reference import (by_level, csr, flat_process, kernel,
                             kernel_times, times_kernel)

GRID = LevelGrid(1.0, 5)


def _dense_random_tree(mu0, grid, seed, max_beliefs=4):
    """Reference: the per-node loop with dense kernels and Generator.choice
    that random_tree replaced; the same seed must give the same tree."""
    rng = np.random.default_rng(seed)
    n = grid.n
    beliefs = []
    kernels = []
    prev = np.array([mu0])
    beliefs.append(prev)
    for j in range(1, n):
        n_interior = max_beliefs - 2
        interior = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(0, n_interior + 1)))
        support = np.unique(np.concatenate([[0.0, 1.0], interior]))
        k = np.zeros((len(prev), len(support)))
        for i, mu in enumerate(prev):
            exact = np.nonzero(np.abs(support - mu) <= 1e-13)[0]
            if exact.size and rng.random() < 0.5:
                k[i, exact[0]] = 1.0
                continue
            lo_cands = np.nonzero(support <= mu)[0]
            hi_cands = np.nonzero(support >= mu)[0]
            lo = support[rng.choice(lo_cands)]
            hi = support[rng.choice(hi_cands)]
            if hi - lo <= 1e-13:
                k[i, lo_cands[-1]] = 1.0
                continue
            p_lo = (hi - mu) / (hi - lo)
            k[i, np.searchsorted(support, lo)] += p_lo
            k[i, np.searchsorted(support, hi)] += 1.0 - p_lo
        kernels.append(k)
        beliefs.append(support)
        prev = support
    return flat_process(grid, beliefs, kernels, np.array([1.0]), mu0)


def test_no_learning_is_constant():
    p = no_learning(0.6, GRID)
    assert all(b.tolist() == [0.6] for b in by_level(p.belief, p.first))


def test_full_revelation_root_weights():
    p = single_split(0.3, GRID, 0.0, 1.0)
    assert np.allclose(p.root_dist, [0.7, 0.3])
    assert np.allclose(p.belief[:p.first[1]], [0.0, 1.0])


def test_single_split_weights_average_to_prior():
    p = single_split(0.6, GRID, 0.2, 0.8)
    assert float(p.root_dist @ p.belief[:p.first[1]]) == pytest.approx(0.6)


def test_single_split_must_straddle():
    with pytest.raises(DomainError):
        single_split(0.6, GRID, 0.0, 0.51)


def test_binomial_beliefs_follow_bayes():
    p = binomial_tree(0.5, GRID, p_good=0.7, p_bad=0.3)
    # one up-signal out of one: posterior odds multiply by 7/3
    level1 = by_level(p.belief, p.first)[1]
    assert level1[1] == pytest.approx(0.7)
    assert level1[0] == pytest.approx(0.3)


def test_martingale_violation_rejected():
    # level 1 holds beliefs 0.1 and 0.6, reached with mean 0.35 != 0.5
    with pytest.raises(DomainError, match="martingale violated at level 0"):
        DiscreteLearningProcess(LevelGrid(1.0, 2), [0, 1, 3], [0.5, 0.1, 0.6],
                                [0, 2], [0, 1], [0.5, 0.5], [1.0], 0.5)


def test_nonstochastic_kernel_rejected():
    with pytest.raises(DomainError, match="rows must sum to 1"):
        DiscreteLearningProcess(LevelGrid(1.0, 2), [0, 1, 2], [0.5, 0.5],
                                [0, 1], [0], [0.9], [1.0], 0.5)


@pytest.mark.parametrize("root", [[np.nan], [np.inf], [-np.inf]])
def test_root_distribution_must_be_finite(root):
    """A NaN root distribution passes no tolerance test, and neither does an
    infinite one; the process is refused, not solved into a mass error."""
    t = binomial_tree(0.5, GRID)
    with pytest.raises(DomainError, match="probability vector"):
        DiscreteLearningProcess(GRID, t.first, t.belief, t.indptr, t.indices,
                                t.data, root, 0.5)


@given(seed=st.integers(0, 10_000), mu0=st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_random_tree_is_valid_martingale(seed, mu0):
    """The constructor's own validation enforces row sums, the martingale
    property, and the root mean; any seed must pass it."""
    p = random_tree(mu0, LevelGrid(1.0, 6), seed, max_beliefs=4)
    beliefs = by_level(p.belief, p.first)
    assert all(len(b) <= 4 for b in beliefs)
    # iterated expectation: mean belief stays at the prior at every level
    mass = p.root_dist.copy()
    for j in range(p.grid.n):
        assert float(mass @ beliefs[j]) == pytest.approx(mu0, abs=1e-9)
        if j < p.grid.n - 1:
            mass = times_kernel(mass, kernel(p, j))


def _assert_same_tree(got, want):
    """Beliefs bitwise, kernels as equal CSR arrays with no stored zero."""
    for a, b in zip(by_level(got.belief, got.first),
                    by_level(want.belief, want.first), strict=True):
        assert a.tobytes() == b.tobytes()
    for j in range(want.grid.n - 1):
        a, b = kernel(got, j), kernel(want, j)
        assert a.shape == b.shape
        for f in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, f), getattr(b, f))
        assert np.all(a.data != 0.0)


@pytest.mark.parametrize("n", [2, 3, 7, 20, 41])
def test_random_tree_matches_dense_reference_bitwise(n):
    """Same seed, same tree: beliefs bitwise and CSR arrays equal to the
    dense loop's (which drops zero weights), so no stored zero."""
    grid = LevelGrid(1.0, n)
    for seed in range(30 if n < 41 else 12):
        for max_beliefs in (2, 3, 4, 7):
            for mu0 in (0.0, 0.3, 0.6, 1.0):
                _assert_same_tree(
                    random_tree(mu0, grid, seed, max_beliefs),
                    _dense_random_tree(mu0, grid, seed, max_beliefs))


class _ClusteredRng:
    """A seeded Generator whose interior support points come in pairs
    closer than 1e-13, so that a belief matches two support points."""

    POINTS = np.array([0.3, 1.0 - 5e-14, 5e-14, 0.3 + 5e-14, 0.7])

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.integers, self.random = self._rng.integers, self._rng.random
        self.choice = self._rng.choice

    def uniform(self, low, high, size):
        return self._rng.permutation(self.POINTS)[:size]


@pytest.mark.parametrize("mu0", [0.3 + 5e-14, 0.3, 5e-14, 1.0])
def test_random_tree_matches_dense_reference_on_close_support(monkeypatch, mu0):
    """Where several support points lie within 1e-13 of a belief, the first
    is the one a node may stay at, as in the dense loop."""
    monkeypatch.setattr(np.random, "default_rng", _ClusteredRng)
    grid = LevelGrid(1.0, 12)
    for seed in range(30):
        _assert_same_tree(random_tree(mu0, grid, seed, max_beliefs=7),
                          _dense_random_tree(mu0, grid, seed, max_beliefs=7))


@pytest.mark.parametrize("mu0, max_beliefs", [(0.6, 1), (0.6, 0), (0.6, -2),
                                              (1.5, 4), (-0.1, 4)])
def test_random_tree_refuses_bad_arguments(mu0, max_beliefs):
    with pytest.raises(DomainError):
        random_tree(mu0, GRID, 0, max_beliefs)


@pytest.mark.parametrize("build", [
    lambda: random_tree(0.6, GRID, seed=-1),
    lambda: random_tree(0.6, GRID, seed=1.5),
    lambda: random_tree(0.6, GRID, seed=True),
    lambda: random_tree(0.6, GRID, seed="1"),
    lambda: random_tree(0.6, GRID, 0, max_beliefs=2.5),
    lambda: random_tree(0.6, GRID, 0, max_beliefs=True),
    lambda: random_tree("0.6", GRID, 0),
    lambda: binomial_tree(0.6, GRID, "a", 0.4),
    lambda: binomial_tree(0.6, GRID, 0.6, None),
    lambda: binomial_tree(True, GRID),
    lambda: binomial_tree("0.6", GRID),
    lambda: no_learning("0.6", GRID),
    lambda: single_split("0.6", GRID, 0.0, 1.0),
    lambda: single_split(0.6, GRID, "0.2", 0.8),
    lambda: DiscreteLearningProcess(GRID, np.arange(GRID.n + 1),
                                    np.full(GRID.n, 0.6),
                                    np.arange(GRID.n), np.zeros(GRID.n - 1,
                                                                dtype=int),
                                    np.ones(GRID.n - 1), [1.0], "0.6")],
    ids=["seed-negative", "seed-float", "seed-bool", "seed-str",
         "max-beliefs-float", "max-beliefs-bool", "random-mu0-str",
         "p-good-str", "p-bad-none", "binomial-mu0-bool", "binomial-mu0-str",
         "no-learning-mu0-str", "full-revelation-mu0-str", "split-lo-str",
         "process-mu0-str"])
def test_tree_builders_refuse_arguments_of_the_wrong_type(build):
    """A seed, size, prior or signal probability of the wrong type or sign
    raises DomainError, never a raw TypeError or ValueError, and a float
    size is not truncated."""
    with pytest.raises(DomainError):
        build()


def test_levels_are_views_of_the_flat_arrays():
    """beliefs[j] and kernels[j], the two views rqbench's tracer reads, read
    the flat arrays of a tree and of a refinement without a copy: a list of
    every level's nodes, and a tuple of every kernel's rows of the block
    with indptr made local, whose bytes are the block's data and indices
    plus one indptr entry per row and one per kernel."""
    tree = binomial_tree(0.6, GRID)
    same = DiscreteLearningProcess(GRID, tree.first, tree.belief, tree.indptr,
                                   tree.indices, tree.data, tree.root_dist,
                                   tree.mu0)
    assert same.belief is tree.belief and same.data is tree.data
    assert same.beliefs[-1].tolist() == tree.belief[tree.first[-2]:].tolist()
    assert [b.size for b in same.beliefs[1:3]] == [2, 3]
    ref = refine_process(tree, BinaryExperiment(0.8, 0.3, (0, 3)))
    for p in (same, ref):
        n = p.grid.n
        assert type(p.beliefs) is list and type(p.kernels) is tuple
        for b, want in zip(p.beliefs, by_level(p.belief, p.first), strict=True):
            assert np.shares_memory(b, p.belief)
            assert b.tobytes() == want.tobytes()
        assert sum(len(b) for b in p.beliefs) == p.belief.size
        for j, k in enumerate(p.kernels):
            assert np.shares_memory(k.data, p.data)
            assert np.shares_memory(k.indices, p.indices)
            want = kernel(p, j)
            assert k.shape == want.shape
            for f in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(k, f), getattr(want, f))
        assert len(p.kernels) == n - 1
        assert sum(k.data.nbytes + k.indices.nbytes + k.indptr.nbytes
                   for k in p.kernels) == p.data.nbytes + p.indices.nbytes \
            + p.indptr.itemsize * (p.first[n - 1] + n - 1)
        with pytest.raises(IndexError):
            p.kernels[n - 1]


def _rebuild(p, **change):
    """p built again from its stored arrays, those named in `change`
    replaced."""
    args = {k: getattr(p, k) for k in ("first", "belief", "indptr", "indices",
                                       "data", "root_dist", "mu0")}
    return DiscreteLearningProcess(p.grid, **{**args, **change})


@st.composite
def _tree(draw):
    """A binomial or random tree on 2 to 12 levels, or a refinement of one."""
    grid = LevelGrid(1.0, draw(st.integers(2, 12)))
    mu0 = draw(st.floats(0.05, 0.95))
    tree = binomial_tree(mu0, grid, 0.7, 0.3) if draw(st.booleans()) \
        else random_tree(mu0, grid, draw(st.integers(0, 10_000)))
    levels = draw(st.lists(st.integers(0, grid.n - 1), max_size=3))
    if levels:
        tree = refine_process(tree, BinaryExperiment(
            draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)), levels))
    return tree


@st.composite
def _corrupted(draw, a):
    """A copy of the integer array `a` with one entry dropped, two unequal
    entries swapped, an entry moved past its right neighbour (or the last
    one up by 1), or its values as floats."""
    how = draw(st.sampled_from(["drop", "swap", "shift", "float"]))
    if how == "float":
        return a.astype(float)
    a, k = a.copy(), draw(st.integers(0, a.size - 1))
    if how == "drop":
        return np.delete(a, k)
    if how == "swap":
        j = draw(st.sampled_from(np.flatnonzero(a != a[k]).tolist()))
        a[[k, j]] = a[[j, k]]
    else:
        a[k] = a[k + 1] + 1 if k + 1 < a.size else a[k] + 1
    return a


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_flat_input_is_rebuilt_as_stored_and_corruption_is_refused(data):
    """A tree or refinement built again from its own flat arrays has the
    same level views, bitwise; with `first` or the kernel `indptr` corrupted
    (an entry dropped, swapped, moved past its neighbour, or a float dtype),
    it raises DomainError, never an IndexError or a bare ValueError."""
    p = data.draw(_tree())
    q = _rebuild(p)
    for a, b in zip(by_level(q.belief, q.first), by_level(p.belief, p.first),
                    strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for j in range(p.grid.n - 1):
        a, b = kernel(q, j), kernel(p, j)
        assert a.shape == b.shape
        for f in ("indptr", "indices", "data"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes()
    assert q.rows.tobytes() == p.rows.tobytes()
    for field in ("first", "indptr"):
        bad = data.draw(_corrupted(getattr(p, field)), label=field)
        with pytest.raises(DomainError):
            _rebuild(p, **{field: bad})


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
    """Products over the stored entries match dense numpy to 1e-15 of their
    scale, the row length times the sum of the terms' magnitudes; the dense
    round trip is exact."""
    a, rng = case
    m, k = a.shape
    K = csr(a)
    assert np.array_equal(K.toarray(), a)
    assert K.data.size == np.count_nonzero(a)
    v = rng.uniform(-1.0, 1.0, size=k)
    x = rng.uniform(-1.0, 1.0, size=m)
    for got, want, scale in [
            (kernel_times(K, v), a @ v, k * np.abs(a) @ np.abs(v)),
            (times_kernel(x, K), x @ a, m * np.abs(x) @ np.abs(a))]:
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_unsorted_kernel_columns_rejected():
    with pytest.raises(DomainError, match="increase"):
        DiscreteLearningProcess(LevelGrid(1.0, 2), [0, 1, 3], [0.5, 0.2, 0.8],
                                [0, 2], [1, 0], [0.5, 0.5], [1.0], 0.5)


def test_binomial_tree_past_float_odds():
    # from level ~838 at 0.7/0.3 the posterior odds overflow a double; the
    # belief there is 1.0, as it already is once the odds pass e^37
    grid = LevelGrid(2.0, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p = binomial_tree(0.6, grid, 0.7, 0.3)
        sol = solve_stopping(p, quadratic_pair(1.0, 1.0, 1.0)[0], Zero())
    assert np.isfinite(sol.node_value).all()
    beliefs = by_level(p.belief, p.first)
    assert beliefs[-1][-1] == 1.0 and beliefs[-1][0] < 1.0
    for j in range(800):
        u = np.arange(j + 1)
        # plain Bayes odds, which overflow from level ~838
        odds = 0.6 / (1.0 - 0.6) * np.exp(
            u * np.log(0.7 / 0.3) + (j - u) * np.log((1 - 0.7) / (1 - 0.3)))
        assert beliefs[j].tobytes() == (odds / (1.0 + odds)).tobytes()


def _bayes_masses(b, w, m, p, q):
    """Bayes' rule on the floats' exact values, in integers: the prior mass
    of each state times the likelihood of w up-signals out of m there,
    (theta = 1, theta = 0), over one common denominator, so the posterior
    is the first over their sum.  Integers, not Fractions, keep the draws
    at m = 2000 fast: no gcd is taken."""
    (bn, bd), (pn, pd), (qn, qd) = (float(x).as_integer_ratio()
                                    for x in (b, p, q))
    return (bn * pn ** w * (pd - pn) ** (m - w) * qd ** m,
            (bd - bn) * qn ** w * (qd - qn) ** (m - w) * pd ** m)


def _relative_error(got, b, w, m, p, q):
    one, zero = _bayes_masses(b, w, m, p, q)
    gn, gd = float(got).as_integer_ratio()
    return abs(gn * (one + zero) - gd * one) / (gd * one)


def test_posterior_matches_exact_bayes_within_2_m_eps():
    """Against exact rational Bayes for up to 2000 signals: wherever the
    exact belief lies in [1e-6, 1 - 1e-6] the log-likelihood update is
    within 2 m eps of it, relative.  Each draw takes w near the count that
    balances the prior odds, so most exact beliefs land there."""
    rng = np.random.default_rng(36)
    eps, checked = np.finfo(float).eps, 0
    for _ in range(300):
        p, q, b = rng.uniform(0.02, 0.98, size=3).tolist()
        m = int(rng.integers(1, 2001))
        up, dn = np.log(p / q), np.log((1 - p) / (1 - q))
        even = -(np.log(b / (1 - b)) + m * dn) / (up - dn)
        w = int(np.clip(round(even) + rng.integers(-4, 5), 0, m))
        one, zero = _bayes_masses(b, w, m, p, q)
        if 1e-6 <= one / (one + zero) <= 1 - 1e-6:
            checked += 1
            got = processes._posterior(b, w, m, p, q)
            assert _relative_error(got, b, w, m, p, q) <= 2 * m * eps, \
                (b, w, m, p, q)
    assert checked >= 250


def test_posterior_keeps_its_accuracy_past_600_signals():
    """The raw powers p^w (1-p)^(m-w) underflow here and returned the prior
    0.6; the exact belief is 1.0e-30."""
    got = processes._posterior(0.6, 459, 1000, 0.7, 0.3)
    assert got == pytest.approx(1.0e-30, rel=1e-2)
    assert _relative_error(got, 0.6, 459, 1000, 0.7, 0.3) \
        <= 2 * 1000 * np.finfo(float).eps


@pytest.mark.parametrize("p,q", [(1.0, 0.0), (0.0, 1.0), (1.0, 0.3),
                                 (0.3, 1.0), (0.0, 0.3), (0.3, 0.0),
                                 (0.0, 0.0), (1.0, 1.0), (0.3, 5e-324)])
def test_posterior_is_exact_on_conclusive_histories(p, q):
    """A history with zero likelihood in one state, taken exactly, sends the
    belief to the other state, also from a prior of 0 or 1; one with zero
    likelihood in both keeps the prior; priors 0 and 1 otherwise stay.
    Every other history is within 2 m eps of exact Bayes, also where p/q
    is past the float range."""
    m = 4
    for b in (0.0, 0.6, 1.0):
        got = processes._posterior(b, np.arange(m + 1), m, p, q)
        for w in range(m + 1):
            lik1, lik0 = _bayes_masses(1.0, w, m, p, q)[0], \
                _bayes_masses(0.0, w, m, p, q)[1]
            if lik1 == 0 or lik0 == 0:
                want = b if lik1 == lik0 else float(lik0 == 0)
            elif b in (0.0, 1.0):
                want = b
            else:
                assert _relative_error(got[w], b, w, m, p, q) \
                    <= 2 * m * np.finfo(float).eps
                continue
            assert got[w] == want, (b, w)



@pytest.mark.parametrize("chunk", [1 << 16, 5])
@pytest.mark.parametrize("make", [
    lambda g: binomial_tree(0.6, g), lambda g: random_tree(0.6, g, 3)],
    ids=["binomial", "random"])
def test_validated_kernels_keep_their_row_ids(monkeypatch, make, chunk):
    """Validation builds each entry's row for its checks and keeps it in
    `rows`, local to the entry's level, for backward and forward to read;
    with CHUNK at 5 entries it does so over many runs of levels."""
    monkeypatch.setattr(processes, "CHUNK", chunk)
    p = make(LevelGrid(1.0, 7))
    want = np.concatenate([
        np.repeat(np.arange(r1 - r0), np.diff(p.indptr[r0:r1 + 1]))
        for r0, r1 in zip(p.first[:-2], p.first[1:-1])])
    assert p.rows.dtype == want.dtype and np.array_equal(p.rows, want)
