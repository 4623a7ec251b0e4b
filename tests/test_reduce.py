import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tie_heavy_tables
from edgeprune import (InputError, NeighborTable, NumericError, PointSet, affinity,
                       affinity_rows, build_knn, compute_scales, export_pairs,
                       fd_bin_width, gen_synthetic, graph_from_table, load_graph, mutualize,
                       n_components, reduce_graph, save_graph, threshold_row)
from edgeprune.reduce import component_labels, threshold_survivors
from edgeprune.scale import LocalScales


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

    def test_values_in_unit_interval(self):
        nt, ls = self._table(seed=3)
        a = affinity_rows(nt, ls)
        assert np.all((a > 0) & (a <= 1))


class TestThresholdRow:
    def test_high_branch_hand_case(self):
        kept, rt = threshold_row([0.9, 0.1, 0.1, 0.1])
        assert rt.branch == "high"
        assert rt.mu == pytest.approx(0.3)
        assert rt.sd == pytest.approx(np.sqrt(0.12))
        assert rt.t == pytest.approx(0.3 + np.sqrt(0.12))
        assert kept.tolist() == [0]

    def test_constant_row_low_branch_keeps_all(self):
        kept, rt = threshold_row([0.5, 0.5, 0.5])
        assert rt.branch == "low"
        assert rt.sd == 0.0
        assert rt.t == 0.5
        assert kept.tolist() == [0, 1, 2]

    def test_max_equal_to_cutoff_takes_low_branch(self):
        # mu = 0.5, sd = 0.3: the max 0.8 equals mu + sd, and the branch
        # test is strict, so the low branch keeps both entries.
        kept, rt = threshold_row([0.2, 0.8])
        assert rt.branch == "low"
        assert kept.tolist() == [0, 1]

    def test_empty_row_rejected(self):
        with pytest.raises(InputError):
            threshold_row([])

    @given(st.lists(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_never_empty_and_branch_rule(self, row):
        row = np.asarray(row)
        kept, rt = threshold_row(row)
        assert kept.size >= 1
        assert int(np.argmax(row)) in kept.tolist()
        mu, sd = row.mean(), row.std()
        if row.max() > mu + sd:
            assert rt.branch == "high" and rt.t == pytest.approx(mu + sd)
        else:
            assert rt.branch == "low" and rt.t == pytest.approx(mu - sd)
        assert np.all(row[kept] >= rt.t)
        dropped = np.setdiff1d(np.arange(row.size), kept)
        assert np.all(row[dropped] < rt.t)


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


class TestGraphFromTable:
    def test_equals_reduce_graph(self, dataset_b):
        nt = build_knn(dataset_b, 20)
        g = graph_from_table(nt, compute_scales(nt))
        ref = reduce_graph(dataset_b, 20)
        for got, want in ((g.src, ref.src), (g.dst, ref.dst), (g.weight, ref.weight)):
            assert np.array_equal(got, want)


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
        ps = gen_synthetic("blobs", {"clusters": 1, "size": 20}, seed=1)
        g = reduce_graph(ps)  # N - 1 = 19 < 50
        assert g.n == 20


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

    def test_shuffled_file_loads_sorted(self, tmp_path):
        ps = gen_synthetic("moons", {"size": 50, "noise": 0.05}, seed=20)
        nt = build_knn(ps, 15)
        g = graph_from_table(nt, compute_scales(nt))
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
        assert export_pairs(back, nt, 3) == export_pairs(g, nt, 3)

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
    ])
    def test_invalid_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InputError):
            load_graph(path)
