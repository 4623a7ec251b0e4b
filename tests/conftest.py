import resource
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from edgeprune import PointSet, build_knn, gen_synthetic

# The three reference datasets the acceptance suite runs on. Parameters
# are part of the frozen test contract; change them only together with
# the expectations that depend on them.


@pytest.fixture(scope="session")
def dataset_a():
    """Three well-separated Gaussian blobs, N=300."""
    return gen_synthetic("blobs", {"clusters": 3, "size": 100,
                                   "separation": 20.0, "spread": 1.0}, seed=11)


@pytest.fixture(scope="session")
def dataset_b():
    """Two concentric rings, N=400, modest noise, uniform linear density."""
    return gen_synthetic("circles", {"radii": [1.0, 3.0], "size": [100, 300],
                                     "noise": 0.01}, seed=23)


@pytest.fixture(scope="session")
def dataset_c():
    """One dense and one sparse blob, N=300."""
    return gen_synthetic("mixed-density", {"size_dense": 200, "size_sparse": 100,
                                           "spread_dense": 0.3, "spread_sparse": 2.0,
                                           "separation": 10.0}, seed=5)


def random_labels(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    """Random labeling that uses every id in 0..c-1 at least once."""
    labels = rng.integers(0, c, size=n)
    labels[rng.permutation(n)[:c]] = np.arange(c)
    return labels


@st.composite
def tie_heavy_points(draw, max_n=40):
    """A point set where exact distance ties are common.

    Points are either on a small integer lattice (many equal distances)
    or a few distinct points repeated many times (zero distances; a
    point with more than k_max copies has an all-zero k-NN row).
    """
    if draw(st.booleans()):
        n = draw(st.integers(3, max_n))
        coords = draw(st.lists(st.integers(0, 4), min_size=2 * n, max_size=2 * n))
        return PointSet(np.asarray(coords, dtype=np.float64).reshape(n, 2))
    distinct = draw(st.integers(1, 6))
    copies = draw(st.integers(2, 12))
    base = draw(st.lists(st.floats(-10, 10, allow_nan=False, width=32),
                         min_size=2 * distinct, max_size=2 * distinct))
    return PointSet(np.repeat(np.asarray(base, dtype=np.float64).reshape(distinct, 2),
                              copies, axis=0))


@st.composite
def tie_heavy_tables(draw, max_n=40):
    """k-NN table of a `tie_heavy_points` set, at a drawn k_max."""
    ps = draw(tie_heavy_points(max_n))
    return build_knn(ps, draw(st.integers(1, ps.n - 1)))


def copies_beside_simplex(dim: int, copies: int, seed: int) -> np.ndarray:
    """`copies` copies of the origin beside the `dim` vertices of a unit
    simplex whose coordinates are jittered by 1e-15.

    At a k_max below `copies`, each copy's k-NN row is all zero, so its
    local scale falls back to the table's Freedman-Diaconis width, about
    1e-15 of the simplex's.
    """
    rng = np.random.default_rng(seed)
    simplex = np.eye(dim) + 1e-15 * rng.standard_normal((dim, dim))
    return np.vstack([np.zeros((copies, dim)), simplex])


def cpu_s_after(call) -> float:
    """CPU seconds this process uses in the 0.3 s after `call()` returns.

    A threaded BLAS product keeps its worker threads spinning for about
    0.1 s after each call, which shows here as up to 0.1 s per other core;
    a process left idle uses well under 0.05 s.
    """
    def cpu_s():
        r = resource.getrusage(resource.RUSAGE_SELF)
        return r.ru_utime + r.ru_stime

    time.sleep(0.5)  # let threads started by earlier tests go idle
    call()
    before = cpu_s()
    time.sleep(0.3)
    return cpu_s() - before
