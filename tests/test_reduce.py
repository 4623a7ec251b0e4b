import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from conftest import copies_beside_simplex, tie_heavy_points, tie_heavy_tables
from edgeprune import (InputError, NeighborTable, NumericError, PointSet, affinity,
                       affinity_rows, build_histogram, build_knn, compute_scales, embed,
                       export_pairs, fd_bin_width, gen_synthetic, graph_from_table, kmeans,
                       laplacian, load_graph, mutual_knn_graph, mutualize, n_components,
                       reduce_graph, save_graph, threshold_row)
from edgeprune.reduce import (component_labels, connected_components, default_k_max,
                              threshold_survivors)
from edgeprune.scale import LocalScales, seventh_neighbor_scales


class TestAffinity:
    def test_zero_distance_is_one(self):
        assert affinity(0.0, 1.0, 2.0) == 1.0

    def test_unit_exponent(self):
        assert affinity(np.sqrt(2.0), 1.0, 2.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_hand_value(self):
        assert affinity(2.0, 1.0, 2.0) == pytest.approx(np.exp(-2.0), rel=1e-15)

    @pytest.mark.parametrize("sp,sq", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_non_positive_sigma_rejected(self, sp, sq):
        with pytest.raises(InputError):
            affinity(1.0, sp, sq)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            affinity(np.inf, 1.0, 1.0)


class TestAffinityRows:
    def _table(self, seed=0, n=40, k=10):
        ps = gen_synthetic("moons", {"size": n // 2, "noise": 0.05}, seed=seed)
        nt = build_knn(ps, k)
        return nt, compute_scales(nt)

    def test_matches_scalar_calls(self):
        nt, ls = self._table()
        a = affinity_rows(nt, ls)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = int(rng.integers(nt.n))
            j = int(rng.integers(nt.k_max))
            q = nt.indices[p, j]
            assert a[p, j] == affinity(nt.distances[p, j], ls.sigma[p], ls.sigma[q])

    def test_constant_sigma_monotone_in_distance(self):
        nt, _ = self._table()
        ls = LocalScales(sigma=np.full(nt.n, 0.7), kth=np.full(nt.n, nt.k_max))
        a = affinity_rows(nt, ls)
        assert np.all(a[:, 0] >= a[:, -1])

    def test_all_equal_inputs_give_equal_affinities(self):
        dist = np.full((4, 3), 0.5)
        idx = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        from edgeprune import NeighborTable
        nt = NeighborTable(distances=dist, indices=idx)
        ls = LocalScales(sigma=np.full(4, 1.3), kth=np.full(4, 3))
        a = affinity_rows(nt, ls)
        assert np.unique(a).size == 1

    @pytest.mark.parametrize("sigma, message", [
        (np.ones(39), "affinity_rows: scales and table disagree on N"),
        (np.r_[np.ones(39), 0.0], "affinity_rows: scales must be positive"),
        (np.r_[-1.0, np.ones(39)], "affinity_rows: scales must be positive"),
    ], ids=["length", "zero", "negative"])
    def test_unusable_scales_rejected(self, sigma, message):
        nt, _ = self._table()
        with pytest.raises(InputError, match=f"^{message}$"):
            affinity_rows(nt, LocalScales(sigma=sigma, kth=np.ones(len(sigma), np.int64)))

    TINY = np.finfo(np.float64).tiny

    @pytest.mark.parametrize("sigma, d, expected", [
        ((1.0, TINY), 2.0 ** -511, np.exp(-1.0)),  # s = 2**-1022, the smallest normal
        ((1.0, np.nextafter(TINY, 0.0)), 2.0 ** -511, None),  # the largest subnormal s
        ((1e-170, 1e-170), 2.0 ** -511, None),  # s rounds to 0
        ((1.0, np.finfo(np.float64).max), 2.0 ** -511, 1.0),  # the largest finite s
        ((1e155, 1e155), 2.0 ** -511, None),  # s overflows to inf
        ((1.0, np.nan), 2.0 ** -511, None),
        ((1.0, TINY), 1e154, 0.0),  # d^2 / s overflows: the affinity is 0
    ], ids=["at-bound", "below-bound", "zero", "at-max", "overflow", "nan", "ratio-overflow"])
    def test_scale_products_outside_the_normal_range_are_refused(self, sigma, d, expected):
        # Two points d apart; at d = 2**-511, d^2 = 2**-1022, so at s = 2**-1022
        # the ratio is 1. No np.errstate: no overflow warns. The scalar
        # reference applies the same rule.
        nt = NeighborTable(distances=np.full((2, 1), d), indices=np.array([[1], [0]]))
        ls = LocalScales(sigma=np.array(sigma), kth=np.ones(2, np.int64))
        if expected is None:
            for call in (lambda: affinity_rows(nt, ls), lambda: affinity(d, *sigma)):
                with pytest.raises(InputError, match=r"^scale products sigma_p \* sigma_q "
                                                     r"leave float64's normal range$"):
                    call()
        else:
            assert affinity_rows(nt, ls).tolist() == [[expected]] * 2
            assert affinity(d, *sigma) == expected

    def test_values_in_unit_interval(self):
        nt, ls = self._table(seed=3)
        a = affinity_rows(nt, ls)
        assert np.all((a > 0) & (a <= 1))

    @given(tie_heavy_tables(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_bits_of_the_formula(self, nt, data):
        # In place, the quotient is negated rather than d^2: the same bits,
        # also where d^2 / s overflows and the affinity is 0.
        sigma = np.array(data.draw(st.lists(st.floats(2.0**-500, 2.0**500),
                                            min_size=nt.n, max_size=nt.n)))
        with np.errstate(over="ignore"):
            s = sigma[:, None] * sigma[nt.indices]
            expected = np.exp(-(nt.distances * nt.distances) / s)
        a = affinity_rows(nt, LocalScales(sigma=sigma, kth=np.ones(nt.n, np.int64)))
        assert a.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_peak_memory_is_two_tables(self, n):
        # The scale products and d^2 are the only table-sized buffers; out of
        # place, the gather, the products, d^2 and its negation peaked at 4
        # times the table's distance bytes at either size.
        rng = np.random.default_rng(n)
        nt = NeighborTable(distances=np.sort(rng.uniform(0.0, 1.0, (n, 50)), axis=1),
                           indices=rng.integers(0, n, (n, 50)))
        ls = LocalScales(sigma=rng.uniform(0.1, 1.0, n), kth=np.ones(n, np.int64))
        tracemalloc.start()
        try:
            affinity_rows(nt, ls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * nt.distances.nbytes


class TestThresholdRow:
    def test_high_branch_hand_case(self):
        # mu = 0.3, sd = sqrt(0.12): the max 0.9 exceeds mu + sd, so the
        # cutoff is the high branch's.
        kept, t = threshold_row([0.9, 0.1, 0.1, 0.1])
        assert t == pytest.approx(0.3 + np.sqrt(0.12))
        assert kept.tolist() == [0]

    def test_constant_row_low_branch_keeps_all(self):
        # sd = 0, so both branches give t = mu.
        kept, t = threshold_row([0.5, 0.5, 0.5])
        assert t == 0.5
        assert kept.tolist() == [0, 1, 2]

    def test_max_equal_to_cutoff_takes_low_branch(self):
        # mu = 0.5, sd = 0.3: the max 0.8 equals mu + sd, and the branch
        # test is strict, so the low branch keeps both entries.
        row = np.array([0.2, 0.8])
        assert row.max() == row.mean() + row.std()
        kept, t = threshold_row(row)
        assert t == row.mean() - row.std()
        assert kept.tolist() == [0, 1]

    def test_empty_row_rejected(self):
        with pytest.raises(InputError):
            threshold_row([])

    @given(st.lists(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_never_empty_and_branch_rule(self, row):
        row = np.asarray(row)
        kept, t = threshold_row(row)
        assert kept.size >= 1
        assert int(np.argmax(row)) in kept.tolist()
        # threshold_row sums the row as this test does, so t has these bits.
        mu, sd = row.mean(), row.std()
        assert t == (mu + sd if row.max() > mu + sd else mu - sd)
        assert np.all(row[kept] >= t)
        dropped = np.setdiff1d(np.arange(row.size), kept)
        assert np.all(row[dropped] < t)


def graph_from_pairs(n, pairs, weight=0.5):
    src = np.array([p for p, _ in pairs], dtype=np.int64)
    dst = np.array([q for _, q in pairs], dtype=np.int64)
    return mutualize(n, src, dst, np.full(len(pairs), weight))


def threshold_by_rows(a, nt):
    """Per-row reference for threshold_survivors: concatenated threshold_row output."""
    src, dst, w = [], [], []
    for p in range(a.shape[0]):
        kept, _ = threshold_row(a[p])
        src.append(np.full(kept.size, p, dtype=np.int64))
        dst.append(nt.indices[p, kept])
        w.append(a[p, kept])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(w)


def assert_survivors_match_rows(a, nt):
    for got, want in zip(threshold_survivors(a, nt), threshold_by_rows(a, nt)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestThresholdSurvivors:
    @pytest.mark.parametrize("fixture", ["dataset_a", "dataset_b", "dataset_c"])
    def test_fixtures(self, fixture, request):
        nt = build_knn(request.getfixturevalue(fixture), 50)
        assert_survivors_match_rows(affinity_rows(nt, compute_scales(nt)), nt)

    @given(tie_heavy_tables())
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_tables(self, nt):
        # Distinct points 1e-31 apart (the strategy draws float32
        # coordinates) can make the bin width less than 2**-63 of a row's
        # maximum; compute_scales refuses such a table, so it has no
        # affinities to threshold.
        with np.errstate(over="ignore"):
            spans = nt.distances.max(axis=1) / fd_bin_width(nt.distances)
        if not np.all(spans < 2.0**63):
            with pytest.raises(NumericError):
                compute_scales(nt)
            return
        assert_survivors_match_rows(affinity_rows(nt, compute_scales(nt)), nt)

    @given(st.integers(2, 12), st.integers(1, 11), st.data())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_rows(self, n, k, data):
        # Affinities drawn from a few values, so equal entries, constant
        # rows and entries exactly on a cutoff all occur.
        k = min(k, n - 1)
        values = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300, 0.3]),
                                    min_size=n * k, max_size=n * k))
        a = np.asarray(values).reshape(n, k)
        indices = np.array([[q for q in range(n) if q != p][:k] for p in range(n)])
        nt = NeighborTable(distances=np.zeros((n, k)), indices=indices)
        assert_survivors_match_rows(a, nt)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_row_in_either_memory_layout(self, order):
        # Summed column by column, as a Fortran-ordered table's rows would
        # be, this row's cutoff rounds to 0.2000000000000001 and drops column 7.
        a = np.array(np.tile([0.1, 0.7, 0.6, 0.6, 0.7, 0.6, 0.1, 0.2], (2, 1)), order=order)
        nt = NeighborTable(distances=np.zeros((2, 8)), indices=np.tile(np.arange(8), (2, 1)))
        kept, t = threshold_row(a[0])
        assert kept.tolist() == [1, 2, 3, 4, 5, 7] and t == 0.19999999999999996
        assert_survivors_match_rows(a, nt)
        assert threshold_survivors(a, nt)[1].tolist() == kept.tolist() * 2

    @pytest.mark.parametrize("fixture", ["dataset_a", "dataset_b", "dataset_c"])
    def test_fortran_ordered_fixtures(self, fixture, request):
        nt = build_knn(request.getfixturevalue(fixture), 50)
        assert_survivors_match_rows(np.asfortranarray(affinity_rows(nt, compute_scales(nt))), nt)


class TestGraphFromTable:
    def test_equals_reduce_graph(self, dataset_b):
        nt = build_knn(dataset_b, 20)
        g = graph_from_table(nt)
        ref = reduce_graph(dataset_b, 20)
        for got, want in ((g.src, ref.src), (g.dst, ref.dst), (g.weight, ref.weight)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fixture", ["dataset_a", "dataset_b", "dataset_c"])
    def test_fortran_ordered_table(self, fixture, request):
        nt = build_knn(request.getfixturevalue(fixture), 50)
        ft = NeighborTable(distances=np.asfortranarray(nt.distances),
                           indices=np.asfortranarray(nt.indices))
        g, ref = graph_from_table(ft), graph_from_table(nt)
        for got, want in ((g.src, ref.src), (g.dst, ref.dst), (g.weight, ref.weight)):
            assert np.array_equal(got, want)

    def test_keeps_its_table_and_refuses_another_size(self, dataset_b):
        # The spectral back end merges components over the graph's own table.
        nt = build_knn(dataset_b, 20)
        g = graph_from_table(nt)
        assert g.table is nt and mutual_knn_graph(nt).table is nt
        assert reduce_graph(dataset_b, 20).table is not None
        with pytest.raises(InputError, match="table"):
            dataclasses.replace(g, n=g.n + 1)

    def test_seventh_neighbor_graph_equals_its_stages(self, dataset_b):
        g = reduce_graph(dataset_b, 12, seventh_neighbor=True)
        nt = build_knn(dataset_b, 12)
        ls = seventh_neighbor_scales(nt)
        ref = mutualize(nt.n, *threshold_survivors(affinity_rows(nt, ls), nt))
        for got, want in ((g.src, ref.src), (g.dst, ref.dst), (g.weight, ref.weight)):
            assert np.array_equal(got, want)
        assert np.array_equal(g.scales.sigma, ls.sigma)
        assert np.array_equal(g.scales.kth, ls.kth)
        assert np.array_equal(g.table.distances, nt.distances)
        assert np.array_equal(g.table.indices, nt.indices)


def test_array_records_compare_by_identity():
    # Field-wise equality of array fields would raise on two distinct
    # records; each array record is its own value instead, and hashable.
    ps = gen_synthetic("blobs", {"clusters": 2, "size": 20}, seed=3)
    g, twin = reduce_graph(ps, 10), reduce_graph(ps, 10)
    assert g == g and g != twin
    assert np.array_equal(g.weight, twin.weight)
    emb = embed(laplacian(g), 2)
    records = [ps, g.table, g.scales, build_histogram(g.table.distances.ravel(), 0.5), g,
               emb, kmeans(emb.vectors, 2, 0), export_pairs(g, g.table, 0)]
    assert [type(r).__name__ for r in records] == [
        "PointSet", "NeighborTable", "LocalScales", "Histogram", "ReducedGraph",
        "Embedding", "ClusterResult", "PairSet"]
    for r in records:
        assert r == r and r != dataclasses.replace(r)
        assert len({r, r, dataclasses.replace(r)}) == 2


def mutualize_two_sorts(n, src, dst, weight):
    """Reference: the mutual edges and the directed survivors, each sorted
    on its own (mutualize before it sorted once and took a subset)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    keep = src != dst
    src, dst, weight = src[keep], dst[keep], weight[keep]
    mutual = np.isin(src * n + dst, dst * n + src)

    def lexsorted(s, d, w):
        order = np.lexsort((d, s))
        return s[order], d[order], w[order]

    return lexsorted(src[mutual], dst[mutual], weight[mutual]), lexsorted(src, dst, weight)


class TestMutualize:
    @pytest.mark.parametrize("src, dst, weight", [
        ([0, 1], [1], [0.5, 0.5]), ([0, 1], [1, 0], [0.5])], ids=["dst", "weight"])
    def test_unequal_lengths_rejected(self, src, dst, weight):
        with pytest.raises(InputError, match="survivor arrays must have equal length"):
            mutualize(3, src, dst, weight)

    @given(st.integers(1, 25), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_sort_reference(self, n, data):
        # Few vertices and many edges give duplicate directed edges with
        # different weights and self-loops; many vertices leave some isolated.
        m = data.draw(st.integers(0, 60))
        ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
        src = np.array(data.draw(ids), dtype=np.int64)
        dst = np.array(data.draw(ids), dtype=np.int64)
        weight = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        g = mutualize(n, src, dst, weight)
        mutual, directed = mutualize_two_sorts(n, src, dst, weight)
        got = ((g.src, g.dst, g.weight), (g.directed_src, g.directed_dst, g.directed_weight))
        for got_arrays, want_arrays in zip(got, (mutual, directed)):
            for a, b in zip(got_arrays, want_arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_symmetric_input_is_idempotent(self):
        pairs = [(0, 1), (1, 0), (1, 2), (2, 1)]
        g = graph_from_pairs(3, pairs)
        assert g.edge_set() == set(pairs)

    def test_unreciprocated_edge_dropped(self):
        g = graph_from_pairs(3, [(0, 1), (1, 0), (0, 2)])
        assert g.edge_set() == {(0, 1), (1, 0)}
        assert (2, 0) not in g.edge_set()

    def test_random_sets_match_transpose_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 80))
            src = rng.integers(0, n, m)
            dst = (src + rng.integers(1, n, m)) % n  # never a self-loop
            g = mutualize(n, src, dst, rng.uniform(0.1, 1.0, m))
            directed = set(zip(src.tolist(), dst.tolist()))
            expected = {(p, q) for (p, q) in directed if (q, p) in directed}
            assert g.edge_set() == expected

    def test_self_loops_never_survive(self):
        g = mutualize(3, [0, 1, 1], [0, 2, 2], [0.5, 0.5, 0.5])
        assert all(p != q for p, q in g.edge_set())

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(InputError):
            mutualize(2, [0], [5], [0.5])

    @pytest.mark.parametrize("n", [2**32, 3_037_000_500])
    def test_vertex_count_whose_keys_wrap_rejected(self, n):
        # Keys p * n + q would wrap at n * n >= 2**63: at 2**32 the edges
        # came back with src [2**31, 0], out of order.
        with pytest.raises(InputError, match="2\\*\\*63"):
            mutualize(n, [2**31, 0], [0, 2**31], [1.0, 2.0])

    def test_largest_vertex_count_accepted(self):
        n = 3_037_000_499  # n * n < 2**63
        g = mutualize(n, [n - 1, 0], [0, n - 1], [1.0, 2.0])
        assert g.src.tolist() == [0, n - 1] and g.dst.tolist() == [n - 1, 0]

    def test_directed_survivors_retained(self):
        g = graph_from_pairs(3, [(0, 1), (1, 0), (0, 2)])
        directed = set(zip(g.directed_src.tolist(), g.directed_dst.tolist()))
        assert directed == {(0, 1), (1, 0), (0, 2)}


class TestReduceGraph:
    def test_far_blobs_have_zero_cut(self):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 60,
                                     "separation": 100.0, "spread": 1.0}, seed=4)
        g = reduce_graph(ps)
        cross = sum(ps.labels[p] != ps.labels[q] for p, q in g.edge_set())
        assert cross == 0

    def test_ring_plus_blob_economy(self):
        rings = gen_synthetic("circles", {"radii": [3.0], "size": 150, "noise": 0.02},
                              seed=6)
        blob = gen_synthetic("blobs", {"clusters": 1, "size": 100, "spread": 0.4},
                             seed=7)
        ps = PointSet(np.vstack([rings.points, blob.points]))
        g = reduce_graph(ps)
        assert g.edge_count / ps.n ** 2 < 0.20

    def test_single_blob_connected(self):
        ps = gen_synthetic("blobs", {"clusters": 1, "size": 120, "spread": 1.0}, seed=0)
        g = reduce_graph(ps)
        assert n_components(g) == 1

    def test_deterministic(self):
        ps = gen_synthetic("moons", {"size": 60, "noise": 0.06}, seed=14)
        a, b = reduce_graph(ps), reduce_graph(ps)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)

    def test_mutual_symmetry_with_equal_weights(self):
        ps = gen_synthetic("mixed-density", {}, seed=2)
        g = reduce_graph(ps)
        weights = {(p, q): w for p, q, w in
                   zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())}
        for (p, q), w in weights.items():
            assert weights[(q, p)] == w

    def test_weights_in_unit_interval(self):
        ps = gen_synthetic("circles", {"radii": [1.0, 2.5], "size": 40, "noise": 0.03},
                           seed=5)
        g = reduce_graph(ps)
        assert np.all((g.weight > 0) & (g.weight <= 1))

    def test_edge_set_scale_invariant_powers_of_two(self):
        ps = gen_synthetic("moons", {"size": 50, "noise": 0.07}, seed=10)
        base = reduce_graph(ps).edge_set()
        for c in (0.25, 4.0):
            scaled = reduce_graph(PointSet(ps.points * c, ps.labels))
            assert scaled.edge_set() == base

    def test_symmetry_fuzz_random_clouds(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            ps = PointSet(rng.normal(size=(n, 2)))
            g = reduce_graph(ps, min(n - 1, 12))
            edges = g.edge_set()
            assert edges == {(q, p) for p, q in edges}

    def test_default_k_max_cap(self):
        assert default_k_max(20) == 19 and default_k_max(51) == default_k_max(500) == 50
        ps = gen_synthetic("blobs", {"clusters": 1, "size": 20}, seed=1)
        g = reduce_graph(ps)  # N - 1 = 19 < 50
        assert g.n == 20
        assert g.edge_set() == reduce_graph(ps, 19).edge_set()


@st.composite
def scalable_cases(draw):
    """(points, k_max, e): copies of the origin beside a jittered simplex at
    a k_max below the copy count, or a tie-heavy set at any k_max; e keeps
    every nonzero coordinate normal and finite when scaled by 2**e, so the
    scaled points are exactly the drawn ones times 2**e. Half the draws
    take e in [-520, -440], where the copies' scale products underflow."""
    if draw(st.booleans()):
        copies = draw(st.integers(2, 5))
        points = copies_beside_simplex(draw(st.integers(2, 10)), copies,
                                       draw(st.integers(0, 2**32 - 1)))
        k = draw(st.integers(1, copies - 1))
    else:
        points = draw(tie_heavy_points()).points
        k = draw(st.integers(1, len(points) - 1))
    exponents = np.frexp(np.abs(points[points != 0]))[1]
    lo, hi = -1021 - exponents.min(initial=0), 1024 - exponents.max(initial=0)
    e = draw(st.one_of(st.integers(lo, hi), st.integers(max(lo, -520), min(hi, -440))))
    return points, k, int(e)


class TestScaleInvariance:
    @pytest.mark.parametrize("seventh", [False, True], ids=["adaptive", "seventh"])
    @given(scalable_cases())
    # Three copies beside a 10-D simplex scaled by about 1e-150: the copies'
    # scale products underflow to 0, which once gave a graph of no edges.
    @example((copies_beside_simplex(10, 3, 0), 2, -498))
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scaling_keeps_the_graph_or_refuses(self, seventh, case):
        # No np.errstate: under this suite's filters a RuntimeWarning from any
        # stage is an error, so each call either returns or refuses the input.
        points, k, e = case

        def graph(x):
            try:
                return reduce_graph(PointSet(x), k, seventh)
            except (InputError, NumericError):
                return None

        base, scaled = graph(points), graph(np.ldexp(points, e))
        if base is not None and scaled is not None:
            for attr in ("src", "dst", "weight"):
                assert np.array_equal(getattr(scaled, attr), getattr(base, attr)), attr


@st.composite
def edge_lists(draw):
    """(n, src, dst): up to 40 vertices and 3n random undirected edges."""
    n = draw(st.integers(0, 40))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return n, src, dst


def scipy_labels(n, src, dst):
    """scipy's component labels of the undirected edges (src, dst)."""
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return scipy_components(graph, directed=False)[1]


class TestComponents:
    def test_component_labels(self):
        g = graph_from_pairs(5, [(0, 1), (1, 0), (2, 3), (3, 2)])
        labels = component_labels(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3
        assert n_components(g) == 3

    @given(st.integers(1, 30), st.data())
    @settings(max_examples=150, deadline=None)
    def test_partition_matches_union_find(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        g = graph_from_pairs(n, pairs + [(q, p) for p, q in pairs])
        labels = component_labels(g)
        assert labels.shape == (n,)
        assert same_partition(labels, union_find_labels(n, pairs))
        assert n_components(g) == len(set(union_find_labels(n, pairs).tolist()))

    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_labels_equal_scipy(self, edges):
        # Self-loops, repeated pairs, isolated vertices and n = 0 included.
        n, src, dst = edges
        labels = connected_components(n, src, dst)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, scipy_labels(n, src, dst))

    def test_labels_equal_scipy_on_a_shuffled_path(self):
        # One component whose lowest vertex sits anywhere on the path: the
        # labels take several hooking rounds and long pointer jumps.
        order = np.random.default_rng(0).permutation(100_000)
        labels = connected_components(order.size, order[:-1], order[1:])
        assert not labels.any()
        assert np.array_equal(labels, scipy_labels(order.size, order[:-1], order[1:]))

    def test_logs_sizes_at_debug_only(self, caplog):
        g = graph_from_pairs(6, [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
        caplog.set_level(logging.WARNING)
        component_labels(g)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="edgeprune.reduce")
        labels = component_labels(g)
        (message,) = [r.getMessage() for r in caplog.records]
        assert message == ("component_labels: N=6, m=3 components, largest 3 vertices, "
                           "1 isolated vertices")
        assert labels.tolist() == [0, 0, 0, 1, 1, 2]


def union_find_labels(n, pairs):
    """Reference components: the root of each vertex after union-find."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for p, q in pairs:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rq] = rp
    return np.array([find(i) for i in range(n)])


def same_partition(a, b):
    """Two labelings name the same partition when each maps 1:1 onto the other."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        ps = gen_synthetic("moons", {"size": 50, "noise": 0.05}, seed=20)
        g = reduce_graph(ps, 15)
        path = tmp_path / "graph.txt"
        save_graph(g, path, k_max=15, seed=7)
        back, header = load_graph(path)
        assert header == {"n": g.n, "edges": g.edge_count, "k_max": 15, "seed": 7}
        assert back.n == g.n
        assert np.array_equal(back.src, g.src)
        assert np.array_equal(back.dst, g.dst)
        assert np.array_equal(back.weight, g.weight)  # bit-exact weights

    @pytest.mark.parametrize("name", ["dataset_a", "dataset_b", "dataset_c"])
    def test_fixture_roundtrip_bit_exact(self, request, tmp_path, name):
        g = reduce_graph(request.getfixturevalue(name))
        save_graph(g, tmp_path / "graph.txt")
        back, _ = load_graph(tmp_path / "graph.txt")
        for field in ("src", "dst", "weight"):
            assert getattr(back, field).tobytes() == getattr(g, field).tobytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        ps = gen_synthetic("moons", {"size": 20, "noise": 0.05}, seed=20)
        g = reduce_graph(ps, 10)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        header, *edges = path.read_text().splitlines(keepends=True)
        path.write_text(header + "\n" + "  \n".join(edges) + "\n")
        back, _ = load_graph(path)
        for field in ("src", "dst", "weight"):
            assert getattr(back, field).tobytes() == getattr(g, field).tobytes()

    def test_shuffled_file_loads_sorted(self, tmp_path):
        ps = gen_synthetic("moons", {"size": 50, "noise": 0.05}, seed=20)
        nt = build_knn(ps, 15)
        g = graph_from_table(nt)
        path = tmp_path / "graph.txt"
        save_graph(g, path)
        header, *edges = path.read_text().splitlines(keepends=True)
        shuffle = np.random.default_rng(0).permutation(len(edges))
        path.write_text(header + "".join(edges[i] for i in shuffle))
        back, _ = load_graph(path)
        order = np.lexsort((back.weight, back.dst, back.src))
        assert np.array_equal(order, np.arange(back.edge_count))
        for field in ("src", "dst", "weight"):
            assert getattr(back, field).tobytes() == getattr(g, field).tobytes()
        got, want = export_pairs(back, nt, 3), export_pairs(g, nt, 3)
        assert np.array_equal(got.positives, want.positives)
        assert np.array_equal(got.negatives, want.negatives)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0.5\n")
        with pytest.raises(InputError):
            load_graph(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text('{"n": 2, "edges": 3, "k_max": null, "seed": null}\n0 1 0.5\n')
        with pytest.raises(InputError):
            load_graph(path)

    @pytest.mark.parametrize("text", [
        '{"n": 2, "edges": 1}\n0 2 0.5\n',           # id >= n
        '{"n": 2, "edges": 1}\n-1 0 0.5\n',          # negative id
        '{"n": 2, "edges": 1}\n0 1.0 0.5\n',         # non-integer id
        '{"edges": 1}\n0 1 0.5\n',                   # no vertex count
        '{"n": "2", "edges": 1}\n0 1 0.5\n',         # vertex count not an integer
        '{"n": -1, "edges": 0}\n',                    # negative vertex count
        '[2, 1]\n0 1 0.5\n',                         # header not an object
        '{"n": 2, "edges": 1}\n0 1 nan\n',           # nan weight
        '{"n": 2, "edges": 1}\n0 1 inf\n',           # infinite weight
        '{"n": 2, "edges": 1}\n0 1 0\n',             # zero weight
        '{"n": 2, "edges": 1}\n0 1 -0.5\n',          # negative weight
        '{"n": 2, "edges": 1}\n0 1 0.5 7\n',         # extra field
        '{"n": 4, "edges": 3}\n0 1 0.5\n1 2 0.5\n2 3 0.5\n',  # no reverse edges
        '{"n": 2, "edges": 2}\n0 1 0.5\n1 0 0.25\n',   # reverse weight differs
        '{"n": 3, "edges": false}\n',               # edge count a bool (False == 0)
        '{"n": 2, "edges": 2.0}\n0 1 0.5\n1 0 0.5\n',  # edge count a float (2.0 == 2)
    ])
    def test_invalid_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError):
            load_graph(path)
