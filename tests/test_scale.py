import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import tie_heavy_tables
from edgeprune import (InputError, NeighborTable, NumericError, PointSet, build_histogram,
                       build_knn, compute_scales, fd_bin_width, gen_synthetic,
                       local_scale_row, mwa_smooth)
from edgeprune import scale


def assert_matches_rows(nt):
    """compute_scales equals local_scale_row on every row, bit for bit.

    A row whose histogram would need more than MAX_BINS bins is refused by
    the per-row reference with NumericError; compute_scales never builds
    the empty bins and still scales it.
    """
    ls = compute_scales(nt)
    width = fd_bin_width(nt.distances)
    for p in range(nt.n):
        if nt.distances[p].max() / width > scale.MAX_BINS:
            with pytest.raises(NumericError):
                local_scale_row(nt.distances[p], width)
            continue
        sigma, k = local_scale_row(nt.distances[p], width)
        assert ls.kth[p] == k, p
        assert ls.sigma[p] == sigma, p


class TestFdBinWidth:
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
        assert np.array_equal(h.ranks, [1, 2, 3])

    def test_value_on_top_edge_in_last_bin(self):
        h = build_histogram([0.5, 2.0], 1.0)
        assert h.counts.sum() == 2
        assert h.counts[-1] == 1

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
        h = Histogram(bin_width=1.0, edges=np.arange(4.0),
                      counts=np.zeros(3, dtype=np.int64), ranks=np.arange(1, 4))
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
    return NeighborTable(distances=d, indices=indices, k_max=k)


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

    def test_negative_distance_rejected(self):
        d = np.array([[-1.0, 2.0], [1.0, 2.0], [1.0, 3.0]])
        nt = NeighborTable(distances=d, indices=np.array([[1, 2], [0, 2], [0, 1]]), k_max=2)
        with pytest.raises(InputError):
            compute_scales(nt)
