import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import tie_heavy_tables
from edgeprune import (InputError, NeighborTable, NumericError, PointSet, build_histogram,
                       build_knn, compute_scales, fd_bin_width, gen_synthetic)
from edgeprune import scale
from edgeprune.scale import seventh_neighbor_scales
from reference import local_scale_row, mwa_smooth, quantile_width


def assert_matches_rows(nt):
    """compute_scales equals local_scale_row on every row, bit for bit.

    A row whose histogram would need more than MAX_BINS bins is refused by
    the per-row reference with NumericError; compute_scales never builds
    the empty bins and still scales it. Only a row whose bin count does
    not fit in int64 makes compute_scales refuse the table with
    NumericError, and the reference refuses that row too.
    """
    width = fd_bin_width(nt.distances)
    spans = nt.distances.max(axis=1) / width
    ls = None
    if np.all(spans < 2.0**63):
        ls = compute_scales(nt)
    else:
        with pytest.raises(NumericError):
            compute_scales(nt)
    for p in range(nt.n):
        if spans[p] > scale.MAX_BINS:
            with pytest.raises(NumericError):
                local_scale_row(nt.distances[p], width)
            continue
        sigma, k = local_scale_row(nt.distances[p], width)
        if ls is not None:
            assert ls.kth[p] == k, p
            assert ls.sigma[p] == sigma, p


def assert_width_is_numpys(values):
    ours, numpys = np.array([fd_bin_width(values)]), np.array([quantile_width(values)])
    assert np.array_equal(ours, numpys), \
        f"np.quantile of numpy {np.__version__} gives width {numpys[0]!r}, not {ours[0]!r}"


@st.composite
def zero_iqr_values(draw):
    """One value n times, with up to n / 5 larger values: its quartiles are equal."""
    n = draw(st.integers(1, 500))
    base = draw(st.floats(-1e6, 1e6))
    out = draw(st.lists(st.floats(1e6, 1e7), max_size=n // 5))
    return [base] * (n - len(out)) + out


def duplicate_points():
    """40 points of 5 blobs, each written 30 times in a row, as the pair-export benchmark has."""
    rng = np.random.default_rng(1)
    angle = 2.0 * np.pi * (np.arange(40) % 5) / 5
    points = 10.0 * np.column_stack([np.cos(angle), np.sin(angle)]) + rng.normal(0, 1, (40, 2))
    return PointSet(np.repeat(points, 30, axis=0))


class TestFdBinWidth:
    @given(st.one_of(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=500),
        st.lists(st.integers(-16, 16).map(lambda i: i / 4), min_size=1, max_size=500),
        st.builds(lambda x, n: [x] * n, st.floats(-1e300, 1e300), st.integers(1, 500)),
        zero_iqr_values()))
    @settings(max_examples=400, deadline=None)
    def test_quartiles_are_numpys(self, values):
        # The quartiles are selected by hand; numpy's default np.quantile
        # is the reference, bit for bit, over ties, equal values and zero IQRs.
        assert_width_is_numpys(values)

    @pytest.mark.parametrize("points", [
        duplicate_points,
        lambda: gen_synthetic("blobs", {"clusters": 40, "size": 50, "separation": 60}, seed=1),
        lambda: gen_synthetic("blobs", {"clusters": 2, "size": 1000, "separation": 10,
                                        "dim": 32}, seed=1),
        lambda: gen_synthetic("blobs", {"clusters": 3, "size": 100, "separation": 20.0,
                                        "spread": 1.0}, seed=11),
    ], ids=["dup-pairs", "manyclust", "blobs32d", "300-points"])
    def test_quartiles_are_numpys_on_benchmark_tables(self, points):
        assert_width_is_numpys(build_knn(points(), 50).distances)

    def test_all_equal_unit_fallback(self):
        assert fd_bin_width([5.0, 5.0, 5.0]) == 1.0

    def test_hand_case_one_to_eight(self):
        # Linear-interpolation quantiles of 1..8: q25 = 2.75, q75 = 6.25.
        expected = 2.0 * (6.25 - 2.75) * 8 ** (-1.0 / 3.0)
        assert expected == 3.5  # 8**(1/3) == 2 exactly
        assert fd_bin_width(np.arange(1.0, 9.0)) == pytest.approx(expected, abs=0.0)

    def test_zero_iqr_fallback(self):
        values = [5.0, 5.0, 5.0, 5.0, 100.0]
        expected = (100.0 - 5.0) / math.ceil(math.sqrt(5))
        assert fd_bin_width(values) == pytest.approx(expected)

    def test_width_shrinks_as_cube_root(self):
        rng = np.random.default_rng(0)
        small = fd_bin_width(rng.uniform(0, 1, 2000))
        large = fd_bin_width(rng.uniform(0, 1, 16000))
        assert small / large == pytest.approx(2.0, rel=0.1)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fd_bin_width([])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            fd_bin_width([1.0, np.inf])


class TestHistogram:
    def test_counts_sum_and_edges(self):
        h = build_histogram([0.1, 0.2, 1.5, 2.7], 1.0)
        assert h.counts.sum() == 4
        assert np.array_equal(h.counts, [2, 1, 1])
        assert np.array_equal(h.edges, [0.0, 1.0, 2.0, 3.0])

    def test_value_on_top_edge_in_last_bin(self):
        h = build_histogram([0.5, 2.0], 1.0)
        assert h.counts.sum() == 2
        assert h.counts[-1] == 1

    @pytest.mark.parametrize("values, message", [
        ([], "histogram needs at least one value"),
        ([0.5, -0.0, -1e-300], "histogram values must be non-negative"),
    ], ids=["empty", "negative"])
    def test_unusable_values_rejected(self, values, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            build_histogram(values, 1.0)

    def test_bad_width_rejected(self):
        with pytest.raises(InputError):
            build_histogram([1.0], 0.0)

    def test_bin_limit_is_checked_before_allocating(self):
        # 1e12 bins of 8 bytes would not fit in memory.
        with pytest.raises(NumericError):
            build_histogram([0.0, 1.0], 1e-12)

    def test_bin_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(scale, "MAX_BINS", 4)
        assert build_histogram([4.0], 1.0).counts.tolist() == [0, 0, 0, 1]
        with pytest.raises(NumericError):
            build_histogram([4.5], 1.0)


class TestMwa:
    def test_hand_middle_bin(self):
        h = build_histogram([0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 2.5] + [2.5] * 5, 1.0)
        assert np.array_equal(h.counts, [2, 4, 6])
        mwa = mwa_smooth(h)
        assert mwa[1] == (2 + 4 + 6) / (1 + 2 + 3)
        assert mwa[0] == (2 + 4) / (1 + 2)
        assert mwa[2] == (4 + 6) / (2 + 3)

    def test_single_bin(self):
        h = build_histogram([0.2, 0.4, 0.6], 1.0)
        assert np.array_equal(mwa_smooth(h), [3.0])

    def test_zero_counts_give_zero(self):
        from edgeprune import Histogram
        h = Histogram(edges=np.arange(4.0), counts=np.zeros(3, dtype=np.int64))
        assert np.array_equal(mwa_smooth(h), [0.0, 0.0, 0.0])


class TestLocalScaleRow:
    def test_uniform_row_single_bin(self):
        row = np.linspace(0.1, 0.9, 10)
        sigma, k = local_scale_row(row, bin_width=1.0)
        assert k == 10
        assert sigma == row.mean()

    def test_spike_cuts_at_density_break(self):
        # Hand-built histogram with bin counts [5, 10, 45, 350]: the first
        # three bins stay at or below their smoothed values, bin 4 exceeds
        # its own, so only the 60 neighbors before it enter the mean.
        row = np.concatenate([
            np.linspace(0.10, 0.90, 5),
            np.linspace(1.05, 1.95, 10),
            np.linspace(2.05, 2.95, 45),
            np.linspace(3.05, 3.95, 350),
        ])
        counts = build_histogram(row, 1.0).counts
        assert np.array_equal(counts, [5, 10, 45, 350])
        mwa = mwa_smooth(build_histogram(row, 1.0))
        assert counts[0] <= mwa[0] and counts[1] <= mwa[1] and counts[2] <= mwa[2]
        assert counts[3] > mwa[3]
        sigma, k = local_scale_row(row, bin_width=1.0)
        assert k == 60
        assert sigma == pytest.approx(row[:60].mean(), abs=0.0)

    def test_spike_in_first_bin_uses_full_row(self):
        # Counts [6, 1, 1]: bin 1 exceeds (6+1)/3, leaving no earlier
        # neighbors, so the whole row is used.
        row = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.5, 2.5])
        counts = build_histogram(row, 1.0).counts
        assert counts[0] > mwa_smooth(build_histogram(row, 1.0))[0]
        sigma, k = local_scale_row(row, 1.0)
        assert k == row.size
        assert sigma == row.mean()

    def test_all_zero_distances_fallback(self):
        sigma, k = local_scale_row(np.zeros(6), bin_width=0.25)
        assert k == 6
        assert sigma == 0.25

    def test_zero_mean_with_positive_tail_uses_smallest_positive(self):
        # Bin counts [3, 6]: the second bin exceeds its smoothed value
        # (6 > 3) while the first does not (3 > 3 is false), so K = 3.
        # The prefix mean is then 0 and sigma falls back to the smallest
        # positive distance in the row.
        row = np.concatenate([np.zeros(3), np.full(6, 1.1)])
        sigma, k = local_scale_row(row, bin_width=1.0)
        assert k == 3
        assert sigma == 1.1

    def test_empty_row_rejected(self):
        with pytest.raises(InputError):
            local_scale_row(np.array([]), 1.0)


@st.composite
def ascending_rows(draw):
    values = draw(st.lists(st.floats(min_value=0.0, max_value=100.0,
                                     allow_nan=False), min_size=1, max_size=60))
    return np.sort(np.asarray(values))


@given(ascending_rows(), st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=150, deadline=None)
def test_local_scale_row_properties(row, width):
    sigma, k = local_scale_row(row, width)
    assert 1 <= k <= row.size
    assert sigma > 0


class TestComputeScales:
    def test_shapes_and_positivity(self):
        ps = gen_synthetic("moons", {"size": 50, "noise": 0.05}, seed=8)
        nt = build_knn(ps, 20)
        ls = compute_scales(nt)
        assert ls.sigma.shape == (ps.n,)
        assert np.all(ls.sigma > 0)
        assert np.all((1 <= ls.kth) & (ls.kth <= 20))

    def test_sigma_equals_prefix_mean(self):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 40}, seed=3)
        nt = build_knn(ps, 15)
        ls = compute_scales(nt)
        for p in range(0, ps.n, 7):
            k = ls.kth[p]
            assert ls.sigma[p] == pytest.approx(nt.distances[p, :k].mean(), rel=1e-15)

    def test_equal_density_blobs_low_variation(self):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 100,
                                     "separation": 25.0, "spread": 1.0}, seed=12)
        ls = compute_scales(build_knn(ps, 40))
        for label in (0, 1):
            sig = ls.sigma[ps.labels == label]
            assert sig.std() / sig.mean() < 0.5

    def test_sparse_blob_has_larger_sigma(self, dataset_c):
        ls = compute_scales(build_knn(dataset_c, 50))
        dense = ls.sigma[dataset_c.labels == 0].mean()
        sparse = ls.sigma[dataset_c.labels == 1].mean()
        assert sparse > dense

    def test_uniform_dilation_scales_sigma_exactly(self):
        # Powers of two keep every float operation exact under scaling.
        ps = gen_synthetic("moons", {"size": 40, "noise": 0.05}, seed=21)
        base = compute_scales(build_knn(ps, 15))
        for c in (0.25, 4.0):
            scaled = compute_scales(build_knn(PointSet(ps.points * c), 15))
            assert np.array_equal(scaled.kth, base.kth)
            assert np.array_equal(scaled.sigma, base.sigma * c)


@st.composite
def edge_aligned_tables(draw):
    """Tables whose bin width is exactly 1 and whose row maxima are often
    whole numbers, i.e. sit exactly on a bin edge.

    At most a fifth of the rows hold multiples of 0.5 up to 4; the rest are 0
    (duplicate points) apart from one global maximum of ceil(sqrt(N * k)).
    The IQR is then 0 and the width falls back to (max - min) /
    ceil(sqrt(N * k)) = 1. Only a per-row bin count puts a row's
    whole-number maximum in that row's last bin.
    """
    n = draw(st.integers(5, 12))
    k = draw(st.integers(2, 8))
    top = math.ceil(math.sqrt(n * k))
    d = np.zeros((n, k))
    for r in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=n // 5, unique=True)):
        halves = draw(st.lists(st.integers(0, min(8, 2 * top - 1)), min_size=k, max_size=k))
        d[r] = np.asarray(halves) / 2
    d[0, -1] = top
    d.sort(axis=1)
    assume(fd_bin_width(d) == 1.0)
    indices = np.array([[q for q in range(n) if q != p][:k] for p in range(n)])
    return NeighborTable(distances=d, indices=indices)


class TestComputeScalesMatchesRows:
    """The whole-table path against the per-row reference."""

    @pytest.mark.parametrize("fixture", ["dataset_a", "dataset_b", "dataset_c"])
    def test_fixtures(self, fixture, request):
        assert_matches_rows(build_knn(request.getfixturevalue(fixture), 50))

    def test_all_zero_rows(self):
        # Five copies of each of three points: with k_max = 4 every row is
        # all zeros and every sigma takes the bin-width fallback.
        pts = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 5, axis=0)
        nt = build_knn(PointSet(pts), 4)
        assert np.all(nt.distances == 0.0)
        assert_matches_rows(nt)
        assert_matches_rows(build_knn(PointSet(pts), 7))

    @given(tie_heavy_tables())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_tables(self, nt):
        assert_matches_rows(nt)

    @given(edge_aligned_tables())
    @settings(max_examples=300, deadline=None)
    def test_row_max_on_a_bin_edge(self, nt):
        assert fd_bin_width(nt.distances) == 1.0
        assert_matches_rows(nt)

    def test_bin_count_beyond_int64_is_numeric_error(self):
        # The Freedman-Diaconis width is 3.3e-301, so row 0's maximum of 1
        # would need 3e300 bins: more than int64 can count, where a cast
        # would give garbage bins without raising.
        rng = np.random.default_rng(0)
        d = np.sort(rng.uniform(1e-300, 2e-300, (8, 4)), axis=1)
        d[0, 3] = 1.0
        indices = np.array([[q for q in range(8) if q != p][:4] for p in range(8)])
        nt = NeighborTable(distances=d, indices=indices)
        assert 2.0**63 <= 1.0 / fd_bin_width(d) < np.inf
        with pytest.raises(NumericError):
            compute_scales(nt)
        assert_matches_rows(nt)

    def test_negative_distance_rejected(self):
        d = np.array([[-1.0, 2.0], [1.0, 2.0], [1.0, 3.0]])
        nt = NeighborTable(distances=d, indices=np.array([[1, 2], [0, 2], [0, 1]]))
        with pytest.raises(InputError):
            compute_scales(nt)


def hand_table(d):
    """A table of the ascending distance rows `d`; row p lists the other points in order."""
    n, k = d.shape
    return NeighborTable(distances=d, indices=np.array([[q for q in range(n) if q != p][:k]
                                                        for p in range(n)]))


def floor_bins(d, width):
    """`scale._floor_divide` on a table whose quotients are all below 2**63."""
    q = d / width
    return scale._floor_divide(d, width, q, q.max(axis=1))


@st.composite
def quotient_tables(draw):
    """A width and a table of cells where one true division and numpy's
    floor_divide can part: whole multiples m * width as rounded, the floats
    just below and above them, zeros, and quotients from 2**51 to 2**62
    (half of them below 2**52, where a quotient can still fall between
    whole numbers).

    Widths run from 1e-3 to 1e3 and down into the subnormal range.
    """
    width = draw(st.one_of(st.floats(1e-3, 1e3),
                           st.floats(2.0**-1022, 2.0**-1000),
                           st.integers(1, 2**20).map(lambda i: i * 2.0**-1074)))
    cell = st.one_of(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 10**6)),
                     st.tuples(st.just(0), st.just(0)),
                     st.tuples(st.just(0), st.floats(2.0**51, 2.0**52)
                               | st.floats(2.0**52, 2.0**62)))
    values = []
    for step, m in draw(st.lists(cell, min_size=1, max_size=64)):
        v = m * width
        values.append(np.nextafter(v, step * np.inf) if step else v)
    values += [0.0] * (-len(values) % 8)
    return np.asarray(values).reshape(-1, 8), width


class TestFloorRule:
    """Bins from one true division equal numpy's floor_divide."""

    @given(quotient_tables())
    @settings(max_examples=300, deadline=None)
    def test_equals_floor_divide(self, table):
        d, width = table
        bins, _ = floor_bins(d, width)
        assert np.array_equal(bins, (d // width).astype(np.int64))

    def test_needs_its_fix_up(self):
        # Both kinds of cell the rule divides again occur here: a quotient
        # that rounded up onto a whole number below 2**51, and one above
        # 2**51 whose floor is not floor_divide's. Without the fix-up the
        # bins differ from floor_divide on each.
        rng = np.random.default_rng(0)
        width = rng.uniform(0.5, 2.0)
        m = rng.integers(1, 10**6, 4000).astype(np.float64)
        d = np.concatenate([np.nextafter(m * width, 0), m * width,
                            rng.uniform(2.0**51, 2.0**52, 4000) * width]).reshape(-1, 8)
        q = d / width
        wrong = np.floor(q) != d // width
        assert np.any(wrong & (q < 2.0**51)) and np.any(wrong & (q >= 2.0**51))
        bins, redone = floor_bins(d, width)
        assert np.array_equal(bins, (d // width).astype(np.int64))
        assert redone >= np.count_nonzero(wrong)


@st.composite
def staircase_tables(draw):
    """Tables whose bin width is exactly 1 and a fifth of whose rows climb
    a staircase of runs that need not spike.

    A staircase row puts runs in consecutive unit bins from bin 0, 1 or 2.
    Each run after the first holds about the least count that keeps the
    run before it from spiking: (3b + 2) * c - prev for a run of count c
    in bin b after a run of count prev, i.e. 1, 2, 9, ... from bin 0. The
    other rows repeat 0.5, so the IQR is 0 and the width falls back to
    (max - min) / ceil(sqrt(N * k)), which row 0's last cell sets to 1.
    """
    n = draw(st.integers(10, 30))
    k = draw(st.integers(12, 50))
    d = np.full((n, k), 0.5)
    for r in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=n // 5, unique=True)):
        b = draw(st.integers(0, 2))
        count, prev, row = draw(st.integers(1, 3)), 0, []
        while len(row) < k:
            row += [b + draw(st.sampled_from([0.25, 0.5, 0.75]))] * count
            prev, count = count, max(1, (3 * b + 2) * count - prev + draw(st.integers(-1, 2)))
            b += 1
        d[r] = row[:k]
    d[0, -1] = d.min() + math.ceil(math.sqrt(n * k))
    assume(fd_bin_width(d) == 1.0)
    return hand_table(d)


class TestFirstSpikeScan:
    """The scan stops at each row's first spike, within its depth bound."""

    def test_staircase_rows(self):
        # At k_max <= 50 a row's scan visits at most 3 runs (see
        # `scale._first_spikes`); K is the start of the last run visited.
        depths = []

        @given(staircase_tables())
        @settings(max_examples=200, deadline=None)
        def check(nt):
            assert_matches_rows(nt)
            ls = compute_scales(nt)
            for p in np.flatnonzero(ls.kth < nt.k_max).tolist():
                depths.append(np.unique(nt.distances[p, :ls.kth[p]] // 1.0).size + 1)

        check()
        assert max(depths) == 3

    def test_logs_width_short_rows_depth_and_divisions(self, caplog):
        # Width 1: row 1 is the staircase 1, 2, 9 from bin 0, which first
        # spikes in its third run (K = 3); row 2's twelve cells sit on a
        # whole number of widths, so each is divided again.
        d = np.full((10, 12), 0.5)
        d[0, -1] = 11.5
        d[1] = [0.5] + [1.5] * 2 + [2.5] * 9
        d[2] = 3.0
        nt = hand_table(d)
        caplog.set_level(logging.DEBUG, logger="edgeprune.scale")
        ls = compute_scales(nt)
        (message,) = [r.getMessage() for r in caplog.records if r.name == "edgeprune.scale"]
        found = re.fullmatch(r"compute_scales: width (\S+), (\d+) of (\d+) rows with "
                             r"K < k_max, deepest run scanned (\d+), (\d+) cells divided again",
                             message)
        assert found, message
        assert float(found[1]) == fd_bin_width(d) == 1.0
        assert [int(v) for v in found.groups()[1:]] == [1, 10, 3, 12]
        assert ls.kth.tolist() == [12, 3] + [12] * 8
        assert_matches_rows(nt)

    def test_no_log_line_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="edgeprune.scale")
        compute_scales(hand_table(np.outer(np.arange(1.0, 6.0), np.arange(1.0, 4.0))))
        assert not [r for r in caplog.records if r.name == "edgeprune.scale"]

    def test_peak_memory_on_a_20k_table(self):
        # The whole-table run analysis peaked at 10.2 times the table's
        # bytes here; the scan keeps the bins, one Boolean table and the
        # rows still undecided.
        d = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, (20_000, 50)), axis=1)
        nt = NeighborTable(distances=d, indices=np.zeros(d.shape, dtype=np.int64))
        tracemalloc.start()
        try:
            compute_scales(nt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d.nbytes


class TestSeventhNeighborScales:
    # Row p of the table is (p + 1) * (1, 2, ..., k_max).
    @pytest.mark.parametrize("k_max, col", [(9, 6), (7, 6), (5, 4), (1, 0)])
    def test_reads_the_seventh_or_last_column(self, k_max, col):
        nt = hand_table(np.outer(np.arange(1.0, 11.0), np.arange(1.0, k_max + 1)))
        ls = seventh_neighbor_scales(nt)
        assert np.array_equal(ls.sigma, nt.distances[:, col])
        assert np.array_equal(ls.kth, np.full(nt.n, col + 1))

    def test_no_zero_seventh_distance_needs_no_table_width(self, monkeypatch):
        def refuse(values):
            raise AssertionError("fd_bin_width called")

        monkeypatch.setattr(scale, "fd_bin_width", refuse)
        nt = hand_table(np.outer(np.arange(1.0, 11.0), np.arange(1.0, 9.0)))
        assert np.array_equal(seventh_neighbor_scales(nt).sigma, nt.distances[:, 6])

    def test_zero_seventh_distance_takes_the_table_width(self):
        # Rows 0 and 1 sit among duplicates: their 7th neighbor is at 0.
        d = np.outer(np.arange(1.0, 11.0), np.arange(1.0, 9.0))
        d[0, :7] = 0.0
        d[1, :] = 0.0
        ls = seventh_neighbor_scales(hand_table(d))
        assert ls.sigma[0] == ls.sigma[1] == fd_bin_width(d)
        assert np.array_equal(ls.sigma[2:], d[2:, 6])
        assert np.all(ls.kth == 7)
