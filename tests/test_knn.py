import resource
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tie_heavy_points
from edgeprune import InputError, PointSet, build_knn, gen_synthetic, knn


def allpairs_oracle(points, k):
    """Independent k-NN: full distance matrix plus a (distance, index) sort."""
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    idx = np.lexsort((np.tile(np.arange(n), (n, 1)), dist), axis=1)[:, :k]
    return np.take_along_axis(dist, idx, axis=1), idx


def assert_matches_oracle(ps, k):
    """build_knn equals the all-pairs oracle bit for bit: indices and distance bytes."""
    nt = build_knn(ps, k)
    dist, idx = allpairs_oracle(ps.points, k)
    assert nt.indices.tobytes() == idx.tobytes()
    assert nt.distances.tobytes() == dist.tobytes()


@st.composite
def screen_hard_points(draw):
    """Point sets where the distance screen's rounding is large next to the
    distance gaps it has to resolve.

    Either tie-heavy 2-D sets (exact ties, duplicates), a common offset of
    1e8 plus unit noise (the Gram identity on raw coordinates would cancel
    away every digit), or a 1e-6 cluster beside 1e6 outliers (the cluster
    sits far from the mean, so its screened values are pure rounding);
    dimension 1 to 64.
    """
    kind = draw(st.sampled_from(["ties", "offset", "mixed"]))
    if kind == "ties":
        return draw(tie_heavy_points())
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "offset":
        return PointSet(1e8 + rng.standard_normal((n, d)))
    outliers = 1e6 * rng.standard_normal((draw(st.integers(1, 4)), d))
    return PointSet(np.vstack([1e-6 * rng.standard_normal((n, d)), outliers]))


@given(screen_hard_points(), st.data())
@settings(max_examples=300, deadline=None)
def test_matches_oracle_bit_for_bit(ps, data):
    assert_matches_oracle(ps, data.draw(st.integers(1, ps.n - 1)))


def many_chunks(mp):
    """Screen three rows per task on a pool of three threads."""
    mp.setattr(knn, "_CHUNK", 3)
    mp.setattr(knn, "_usable_cpus", lambda: 3)


@given(screen_hard_points(), st.data())
@settings(max_examples=150, deadline=None)
def test_matches_oracle_through_many_chunks(ps, data):
    with pytest.MonkeyPatch.context() as mp:
        many_chunks(mp)
        assert_matches_oracle(ps, data.draw(st.integers(1, ps.n - 1)))


def across_chunks_points():
    # N = 700 spans eleven 64-row chunks; duplicates and a lattice give
    # exact ties, and the far block makes the screen coarse for the rest.
    rng = np.random.default_rng(5)
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
    return PointSet(np.vstack([lattice, lattice[:40], 1e-3 * rng.standard_normal((300, 3)),
                               1e5 + rng.standard_normal((144, 3))]))


@pytest.mark.parametrize("k", [1, 12, 299])
def test_matches_oracle_across_chunks(k):
    assert_matches_oracle(across_chunks_points(), k)


@pytest.mark.parametrize("chunk", [3, 64])
def test_table_does_not_depend_on_worker_count(monkeypatch, chunk):
    # One worker against three and eight (more than the cores), switching
    # threads every microsecond: a worker that screened into another's
    # buffers, or wrote outside its own chunks' rows, would show.
    monkeypatch.setattr(knn, "_CHUNK", chunk)
    tables = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3, 8):
            monkeypatch.setattr(knn, "_usable_cpus", lambda: workers)
            nt = build_knn(across_chunks_points(), 30)
            tables.append((nt.indices.tobytes(), nt.distances.tobytes()))
    finally:
        sys.setswitchinterval(interval)
    assert tables[0] == tables[1] == tables[2]


def test_pool_is_joined_before_return(monkeypatch):
    monkeypatch.setattr(knn, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    build_knn(across_chunks_points(), 10)
    assert threading.active_count() == before


def test_scratch_memory_does_not_grow_with_cpu_count(monkeypatch):
    # Workers x chunk rows is capped at `_SCRATCH_ROWS`: 64 usable CPUs get
    # the 4 workers that 4 CPUs get. Uncapped, each of 32 workers would
    # hold its own buffer set and re-rank arrays, about 7x the peak here.
    ps = PointSet(np.random.default_rng(6).standard_normal((2000, 8)))
    peaks = []
    for cpus in (4, 64):
        monkeypatch.setattr(knn, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            build_knn(ps, 20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_worker_exception_reaches_caller(monkeypatch):
    many_chunks(monkeypatch)

    def fail(norm_sums, dim):
        raise FloatingPointError("from a worker")

    monkeypatch.setattr(knn, "_screen_slack", fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="from a worker"):
        build_knn(across_chunks_points(), 10)
    assert threading.active_count() == before


def test_workers_run_in_the_callers_error_state(monkeypatch):
    # numpy's error state is a context variable; a worker started outside
    # the caller's context would warn (an error under this suite's filters)
    # on the overflowing squares the caller chose to ignore.
    many_chunks(monkeypatch)
    points = np.array([[0.0], [1.0], [3.0], [1e200], [-1e200]] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_oracle(PointSet(points), 7)


def test_matches_oracle_when_squares_overflow():
    # Squared norms overflow, so every screened value is non-finite and each
    # row falls back to all its points; the near pairs still rank exactly.
    points = np.array([[0.0], [1.0], [3.0], [1e200], [-1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matches_oracle(PointSet(points), 3)


def test_collinear_hand_case():
    ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
    nt = build_knn(ps, 2)
    assert np.array_equal(nt.indices[0], [1, 2])
    assert np.array_equal(nt.distances[0], [1.0, 3.0])
    assert np.array_equal(nt.indices[1], [0, 2])
    assert np.array_equal(nt.distances[1], [1.0, 2.0])


def test_duplicate_point_is_first_neighbor():
    ps = PointSet(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]))
    nt = build_knn(ps, 2)
    assert nt.distances[0, 0] == 0.0
    assert nt.indices[0, 0] == 1
    assert nt.distances[1, 0] == 0.0
    assert nt.indices[1, 0] == 0


def test_tie_broken_by_smaller_index():
    ps = PointSet(np.array([[-1.0], [0.0], [1.0]]))
    nt = build_knn(ps, 2)
    # Point 1 sees points 0 and 2 both at distance 1; 0 must come first.
    assert np.array_equal(nt.indices[1], [0, 2])


def test_matches_allpairs_oracle_on_blobs():
    ps = gen_synthetic("blobs", {"clusters": 3, "size": 50, "separation": 8.0}, seed=7)
    assert_matches_oracle(ps, 20)


def test_row_invariants():
    ps = gen_synthetic("moons", {"size": 60, "noise": 0.1}, seed=2)
    nt = build_knn(ps, 15)
    n = ps.n
    for r in range(n):
        row = nt.distances[r]
        assert np.all(np.diff(row) >= 0)
        assert np.all(row >= 0)
        assert r not in nt.indices[r]
        assert len(set(nt.indices[r].tolist())) == nt.k_max


def test_determinism():
    ps = gen_synthetic("circles", {"radii": [1.0, 2.0], "size": 30, "noise": 0.02}, seed=9)
    a = build_knn(ps, 10)
    b = build_knn(ps, 10)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.indices, b.indices)


def test_leaves_no_threads_busy_after_return():
    # A threaded BLAS product keeps its worker threads spinning for about
    # 0.1 s after each call; the screen must leave the process idle.
    def cpu_s():
        r = resource.getrusage(resource.RUSAGE_SELF)
        return r.ru_utime + r.ru_stime

    points = np.random.default_rng(2).standard_normal((1200, 8))
    time.sleep(0.5)  # let threads started by earlier tests go idle
    build_knn(PointSet(points), 50)
    before = cpu_s()
    time.sleep(0.3)
    assert cpu_s() - before < 0.05


@pytest.mark.parametrize("bad_k", [0, -1, 100])
def test_k_max_out_of_range(bad_k):
    ps = PointSet(np.zeros((5, 2)) + np.arange(5)[:, None])
    with pytest.raises(InputError):
        build_knn(ps, bad_k)


def test_k_max_full_range_allowed():
    ps = PointSet(np.arange(10, dtype=float)[:, None])
    nt = build_knn(ps, 9)
    assert nt.distances.shape == (10, 9)


@given(tie_heavy_points(), st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_equals_smaller_build(ps, data):
    # Rows are sorted by (distance, index), so the leading k columns of a
    # table are the table built at k, ties included.
    big = data.draw(st.integers(1, ps.n - 1))
    k = data.draw(st.integers(1, big))
    small, head = build_knn(ps, k), build_knn(ps, big).prefix(k)
    assert head.k_max == k
    assert np.array_equal(head.distances, small.distances)
    assert np.array_equal(head.indices, small.indices)


@pytest.mark.parametrize("k", [1, 3, 7, 20])
def test_prefix_equals_build_knn(k):
    # Integer lattice: many exact distance ties at every column.
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    ps = PointSet(np.vstack([grid, grid[:7]]))
    small, full = build_knn(ps, k), build_knn(ps, 29).prefix(k)
    assert np.array_equal(small.distances, full.distances)
    assert np.array_equal(small.indices, full.indices)
    assert small.k_max == full.k_max


@pytest.mark.parametrize("bad_k", [0, -1, 6])
def test_prefix_out_of_range(bad_k):
    nt = build_knn(PointSet(np.arange(10, dtype=float)[:, None]), 5)
    with pytest.raises(InputError):
        nt.prefix(bad_k)
