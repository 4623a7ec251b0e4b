import contextlib
import logging
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cpu_s_after, tie_heavy_points
from edgeprune import (InputError, NumericError, PointSet, build_knn, export_pairs,
                       gen_synthetic, knn, mutual_knn_graph, reduce_graph, spectral_cluster)


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


@st.composite
def clustered_points(draw):
    """2-D and 3-D sets of 130-600 points in clusters, with exact ties mixed in.

    At the real `_CHUNK` these make several kd blocks, so the block bound
    rules columns out. Gaussian clusters of drawn widths sit beside an
    integer lattice (equal distances) and copies of drawn points
    (zero distances), all shuffled, scaled and shifted by drawn amounts
    (a shift of 1e4 makes centring round).
    """
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(130, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.integers(2, 5))
    lattice = np.stack(np.meshgrid(*[np.arange(float(side))] * d), axis=-1).reshape(-1, d)
    lattice = lattice[:draw(st.integers(0, min(len(lattice), n // 2)))]
    copies = draw(st.integers(0, n // 3))
    clusters = draw(st.integers(1, 8))
    centres = rng.uniform(-20, 20, (clusters, d))
    widths = 10.0 ** rng.uniform(-3, 0.5, clusters)
    pick = rng.integers(clusters, size=n - len(lattice) - copies)
    points = np.vstack([lattice, centres[pick] + widths[pick, None] * rng.standard_normal((len(pick), d))])
    points = np.vstack([points, points[rng.integers(len(points), size=copies)]])
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    shift = draw(st.sampled_from([0.0, 1e4]))
    return PointSet(shift + scale * points[rng.permutation(n)])


@given(clustered_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_oracle_on_clustered_blocks(ps, data):
    assert_matches_oracle(ps, data.draw(st.integers(1, 100)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_permuted_points_give_the_permuted_table(data):
    # A table built from candidates that depended on point order (the kd
    # split, the block bound, the screen) would show on tie-free points.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(130, 500))
    d = data.draw(st.integers(1, 4))
    centres = rng.uniform(-20, 20, (data.draw(st.integers(1, 6)), d))
    points = centres[rng.integers(len(centres), size=n)] + rng.standard_normal((n, d))
    k = data.draw(st.integers(1, 80))
    dist, _ = allpairs_oracle(points, k + 1)
    assume(np.all(np.diff(dist, axis=1) > 0))
    perm = rng.permutation(n)
    table, permuted = build_knn(PointSet(points), k), build_knn(PointSet(points[perm]), k)
    assert np.array_equal(perm[permuted.indices], table.indices[perm])
    assert permuted.distances.tobytes() == table.distances[perm].tobytes()


def edge_tie_points(seed):
    """1-D blocks K | B | J (64 points each) where a tie sits on the block bound.

    B's radius is reached at its right end i = 25, K's and J's at their
    far ends j = 0 and p = 50, so the block bound's lower edge for J and
    its upper edge for K both equal |i - p| = |i - j| = 25 exactly: row i
    at k_max = 127 holds B, K and one of p and j, and p (id 0) wins the
    tie against j (the last id). Whether J survives the bound is then
    decided by rounding in the centres and radii, which the radii's
    margin must cover.
    """
    rng = np.random.default_rng(seed)
    k, b, j = (base + rng.uniform(0, 1, 63) for base in (10, 20, 60))
    return PointSet(1024 + np.concatenate([[50.0], k, b, [25.0], j, [0.0]])[:, None])


@pytest.mark.parametrize("seed", range(24))
def test_tie_on_the_block_bound(seed):
    assert_matches_oracle(edge_tie_points(seed), 127)


def test_bound_counts_the_rows_own_point():
    # Three 1-D clusters of 64 points, one block each, at 0, 10 and 100.
    # The nearest blocks of a middle row hold 128 points with the row's own
    # point among them, so its 128th neighbor lies in the far block, which
    # a bound taken from k_max points instead of k_max + 1 would rule out.
    rng = np.random.default_rng(8)
    points = np.concatenate([base + rng.uniform(0, 1, 64) for base in (0.0, 10.0, 100.0)])
    assert_matches_oracle(PointSet(points[:, None]), 128)


def screened_share(caplog, ps, k):
    """build_knn's table, and the share of N it screened per row (its DEBUG log)."""
    caplog.set_level(logging.DEBUG, logger="edgeprune.knn")
    caplog.clear()
    table = build_knn(ps, k)
    (record,) = [r for r in caplog.records if r.name == "edgeprune.knn"]
    return table, float(record.getMessage().split(", ")[2].split()[0])


def test_logs_blocks_screened_share_and_candidates(caplog, capsys):
    # 5 blobs of 200: 16 blocks of 62 or 63 points.
    ps = gen_synthetic("blobs", {"clusters": 5, "size": 200, "separation": 10}, seed=3)
    _, share = screened_share(caplog, ps, 20)
    (message,) = [r.getMessage() for r in caplog.records]
    head, _, rest = message.rpartition(" of N screened per row, ")
    assert head.startswith("build_knn: N=1000, 16 blocks, ")
    assert 0 < share < 1
    candidates, _, products = rest.partition(" candidates per row, ")
    assert 20 <= float(candidates) < 1000
    calls, _, largest = products.partition(" products of at most ")
    assert int(calls) >= 16  # one or more per block
    assert 1 <= int(largest.removesuffix(" multiply-adds")) <= knn._BLAS_SERIAL_MNK
    assert capsys.readouterr().out == ""


def test_cli_input_of_the_cpu_count_test_prunes(caplog):
    # `test_outputs_do_not_depend_on_usable_cpus` (test_cli) pins this input's
    # outputs across worker counts; the block bound rules columns out on it,
    # so that test covers pruned screens too.
    ps = gen_synthetic("blobs", {"clusters": 3, "size": 150, "separation": 8, "spread": 1.5},
                       seed=4)
    _, share = screened_share(caplog, ps, 50)
    assert share < 1


def test_high_dimension_screens_every_column(caplog):
    # At 32-D every block's bound reaches every other block: the screen runs
    # over all N columns, as a plain screen would.
    ps = gen_synthetic("blobs", {"clusters": 2, "size": 150, "separation": 10, "dim": 32},
                       seed=1)
    table, share = screened_share(caplog, ps, 50)
    assert share == 1.0
    dist, idx = allpairs_oracle(ps.points, 50)
    assert table.indices.tobytes() == idx.tobytes()
    assert table.distances.tobytes() == dist.tobytes()


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


def test_scratch_memory_at_32_dimensions(monkeypatch):
    # Two workers re-rank groups of at most `_SCRATCH_ROWS` rows between
    # them. A screen that kept four (chunk x N) arrays per worker peaked at
    # 10.45 MiB here; groups of 512 rows per worker would add about 13 MiB.
    ps = gen_synthetic("blobs", {"clusters": 2, "size": 1000, "separation": 10, "dim": 32},
                       seed=1)
    monkeypatch.setattr(knn, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        build_knn(ps, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 2**20


def test_rerank_slices_keep_the_32_dimension_peak_below_9_mib(monkeypatch):
    # The shape above: with one 1.6-MiB re-rank slice per 128-row group,
    # the peak was 9.85 MiB; slices of at most `_RERANK_BYTES` = 512 KiB
    # bring it to about 8.2-8.6 MiB.
    ps = gen_synthetic("blobs", {"clusters": 2, "size": 1000, "separation": 10, "dim": 32},
                       seed=1)
    monkeypatch.setattr(knn, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        build_knn(ps, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, f"build_knn peaked at {peak / 2**20:.2f} MiB"


class _SubtractSpy:
    """numpy, as `knn` sees it, recording the bytes of every 3-D `np.subtract` output."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, a, b, out=None, **kwargs):
        if out is not None and out.ndim == 3:
            self.sizes.append(out.nbytes)
        return np.subtract(a, b, out=out, **kwargs)


@pytest.mark.parametrize("dim", [32, 700, 1024])
def test_rerank_slices_stay_within_budget(monkeypatch, dim):
    # At 1024-D one candidate column of a 128-row group is 1 MiB, twice the
    # budget, so rows are sliced too; at 700-D a slice of 93 rows fits.
    # Slicing moves no bit: one slice per group gives the same table.
    ps = PointSet(np.random.default_rng(dim).standard_normal((300, dim)))
    spy = _SubtractSpy()
    monkeypatch.setattr(knn, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(knn, "np", spy)
    nt = build_knn(ps, 40)
    assert spy.sizes and max(spy.sizes) <= knn._RERANK_BYTES
    monkeypatch.setattr(knn, "np", np)
    monkeypatch.setattr(knn, "_RERANK_BYTES", 2**40)
    whole = build_knn(ps, 40)
    assert nt.indices.tobytes() == whole.indices.tobytes()
    assert nt.distances.tobytes() == whole.distances.tobytes()


def test_rerank_memory_at_1024_dimensions(monkeypatch):
    # One re-rank group of 128 rows with up to 127 candidates each: as one
    # (rows x candidates x d) difference tensor that peaked at 54 MiB. In
    # slices of candidate columns it stays near `_RERANK_BYTES` per worker,
    # and every distance keeps its bits.
    ps = PointSet(np.random.default_rng(7).standard_normal((128, 1024)))
    monkeypatch.setattr(knn, "_usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        nt = build_knn(ps, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"build_knn peaked at {peak / 2**20:.2f} MiB"
    dist, idx = allpairs_oracle(ps.points, 50)
    assert nt.indices.tobytes() == idx.tobytes()
    assert nt.distances.tobytes() == dist.tobytes()


def test_worker_exception_reaches_caller(monkeypatch):
    many_chunks(monkeypatch)

    def fail(norm_sums, dim):
        raise FloatingPointError("from a worker")

    monkeypatch.setattr(knn, "_screen_slack", fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="from a worker"):
        build_knn(across_chunks_points(), 10)
    assert threading.active_count() == before


def test_workers_keep_their_own_error_state(monkeypatch):
    # The stage sets numpy's error state in this thread and in each worker:
    # a caller that raises on overflow gets the table all the same. Three
    # tight clusters 1e300 apart, screened three rows at a time: their
    # squares overflow, but every row's 7 neighbors are in its own cluster.
    many_chunks(monkeypatch)
    points = gen_synthetic("blobs", {"clusters": 3, "size": 10, "separation": 1e300},
                           seed=2).points
    with np.errstate(over="ignore", invalid="ignore"):
        dist, idx = allpairs_oracle(points, 7)
    with np.errstate(over="raise", invalid="raise"):
        nt = build_knn(PointSet(points), 7)
    assert nt.indices.tobytes() == idx.tobytes()
    assert nt.distances.tobytes() == dist.tobytes()
    assert np.isfinite(nt.distances).all()


OVERFLOW = "^squared distances between points overflow float64$"


@pytest.mark.parametrize("points, k, finite", [
    (gen_synthetic("blobs", {"clusters": 3, "size": 3, "separation": 1e300}, seed=1).points,
     2, True),
    (1e200 * np.arange(8.0)[:, None], 3, False),
], ids=["far-clusters", "line"])
def test_matches_oracle_without_a_caller_error_state(points, k, finite):
    # No np.errstate here: under this suite's filters a RuntimeWarning from
    # the overflowing squares would be an error. Tight clusters 1e300 apart
    # keep a finite table at k = 2; the 1e200 line's table would be inf,
    # and is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        dist, idx = allpairs_oracle(points, k)
    assert np.isfinite(dist).all() == finite
    if not finite:
        with pytest.raises(InputError, match=OVERFLOW):
            build_knn(PointSet(points), k)
        return
    nt = build_knn(PointSet(points), k)
    assert nt.indices.tobytes() == idx.tobytes()
    assert nt.distances.tobytes() == dist.tobytes()


def test_matches_oracle_when_squares_overflow():
    # Squared norms overflow, so every screened value is non-finite and each
    # row falls back to all its points. The oracle's table holds inf (the
    # far points' neighbors are 1e200 away), and exactly then the input is
    # refused.
    points = np.array([[0.0], [1.0], [3.0], [1e200], [-1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(allpairs_oracle(points, 3)[0]).all()
        with pytest.raises(InputError, match=OVERFLOW):
            build_knn(PointSet(points), 3)


@pytest.mark.parametrize("gap, refused", [
    (1e-165, True),  # the square is below the smallest subnormal: distance 0
    (1e-160, True),  # a subnormal square: distance off by 6e-6, not by rounding
    (np.nextafter(2.0 ** -511, 0.0), True),  # the largest gap whose square is subnormal
    (2.0 ** -511, False),  # its square is the smallest normal number
    (0.0, False),  # exact duplicates
], ids=["zero", "subnormal", "below-bound", "at-bound", "duplicates"])
def test_underflowing_distances_are_refused(gap, refused):
    points = PointSet(np.array([[0.0], [gap], [1.0], [2.0]]))
    if refused:
        with pytest.raises(InputError, match="^squared distances between points underflow"):
            build_knn(points, 2)
    else:
        assert_matches_oracle(points, 2)


@st.composite
def far_scaled_points(draw):
    """Unit-noise groups up to 1e12 apart, some points duplicated, all
    scaled by 10**e with e in [-170, 307]; groups sit nearer where the
    scale would take a coordinate past the float range. Below about
    e = -154 distances underflow and the input is refused."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    points = rng.standard_normal((n, draw(st.integers(1, 3))))
    e = draw(st.integers(-170, 307))
    groups = rng.integers(0, draw(st.integers(1, 4)), n)
    points += 10.0 ** draw(st.integers(0, min(12, 307 - e))) * groups[:, None]
    copies = draw(st.integers(0, n // 2))
    points[n - copies:] = points[:copies]
    return PointSet(points * 10.0 ** e)


@given(far_scaled_points(), st.data())
@settings(max_examples=200, deadline=None)
def test_pipeline_on_far_scaled_points_returns_or_refuses(ps, data):
    # No np.errstate: under this suite's filters a RuntimeWarning from any
    # stage is an error, so each call either returns or refuses the input.
    def refused():
        return contextlib.suppress(InputError, NumericError)

    with refused():
        mutual_knn_graph(build_knn(ps, 2))
    with refused():
        g = reduce_graph(ps)
        with refused():
            list(spectral_cluster(g, data.draw(st.integers(2, min(ps.n, 4))), [0]))
        export_pairs(g, g.table, 0)


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


@pytest.mark.parametrize("n,dim,k", [(1200, 8, 50), (2000, 32, 50), (64, 8192, 5)],
                         ids=["8d", "blobs32d-2k", "row-tiles"])
def test_leaves_no_threads_busy_after_return(n, dim, k):
    # The screen's products are BLAS calls; each must run on the calling
    # thread. At 32-D a block's product is split into column tiles; at
    # 8192-D one column of a 64-row block is over the cap, so rows are
    # split too.
    ps = PointSet(np.random.default_rng(2).standard_normal((n, dim)))
    assert cpu_s_after(lambda: build_knn(ps, k)) < 0.05


@pytest.mark.parametrize("m,n,k", [(64, 2000, 32), (63, 1999, 32), (2, 2, 2), (64, 300, 2),
                                   (40, 40, 16384), (33, 7, 16384), (64, 5, 8192),
                                   (1, 5000, 40), (40, 1, 40), (1, 1, 9000),
                                   (5, 3, 262_144), (3, 3, 300_000)])
def test_tiles_cover_the_product_once_within_the_cap(m, n, k):
    rows, cols = knn._tiles(m, n, k)
    cover = np.zeros((m, n), dtype=int)
    for r in rows:
        for c in cols:
            cover[r, c] += 1
            height, width = r.stop - r.start, c.stop - c.start
            assert height >= 1 and width >= 1
            if k <= knn._BLAS_SERIAL_MNK:
                assert height * width * k <= knn._BLAS_SERIAL_MNK
            # One row by one column is a dot product, threaded above 10,000 terms.
            if (height, width) == (1, 1) and (m, n) != (1, 1):
                assert k > knn._BLAS_SERIAL_MNK // 2
    assert (cover == 1).all()
    # Rows are split only when one column of all of them is over the cap.
    assert (len(rows) > 1) == (m * k > knn._BLAS_SERIAL_MNK)


def test_product_reports_its_calls_and_largest_call():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((40, 16384)), rng.standard_normal((16384, 7))
    out = np.empty((40, 7))
    assert knn._product(a, b, out) == (3 * 7, 14 * 1 * 16384)
    # einsum's own loop: an untiled BLAS reference would leave threads spinning.
    np.testing.assert_allclose(out, np.einsum("ik,kj->ij", a, b), rtol=1e-12, atol=1e-9)


# The screen's products at one multiply-add per call (1 x 1 tiles, every
# one a dot product) and at one call per block: the table is the same.
PRODUCT_CAPS = pytest.mark.parametrize("cap", [1, 2 ** 62], ids=["cap-1", "no-cap"])


@PRODUCT_CAPS
@given(screen_hard_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_oracle_at_any_product_cap(cap, ps, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "_BLAS_SERIAL_MNK", cap)
        assert_matches_oracle(ps, data.draw(st.integers(1, ps.n - 1)))


@PRODUCT_CAPS
def test_high_dimension_matches_oracle_at_any_product_cap(monkeypatch, cap):
    monkeypatch.setattr(knn, "_BLAS_SERIAL_MNK", cap)
    ps = gen_synthetic("blobs", {"clusters": 2, "size": 150, "separation": 10, "dim": 32},
                       seed=1)
    assert_matches_oracle(ps, 50)


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
