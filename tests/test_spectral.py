import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprune import (InputError, NumericError, PointSet, ReducedGraph, ari, build_knn,
                       embed, gen_synthetic, kmeans, laplacian, mutual_knn_graph, mutualize,
                       n_components, reduce_graph, spectral_cluster)
from conftest import cpu_s_after, tie_heavy_tables
from edgeprune import knn, reduce, spectral
from edgeprune.data import spawn_rng
from edgeprune.reduce import component_labels, load_graph, save_graph
from edgeprune.spectral import (KMEANS_MAX_ITER, KMEANS_RESTARTS, _assign, _component_partition,
                               _rank_pairs)


def complete_block_graph(blocks, weight=1.0):
    """Disjoint union of complete graphs; blocks is a list of vertex lists."""
    src, dst = [], []
    for block in blocks:
        for p in block:
            for q in block:
                if p != q:
                    src.append(p)
                    dst.append(q)
    n = max(max(b) for b in blocks) + 1
    return mutualize(n, np.array(src), np.array(dst), np.full(len(src), weight))


class TestLaplacian:
    def test_two_vertex_single_edge(self):
        g = complete_block_graph([[0, 1]])
        lap = laplacian(g).toarray()
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        vals = np.linalg.eigvalsh(lap)
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_zero_multiplicity_counts_components(self):
        g = complete_block_graph([[0, 1, 2], [3, 4], [5, 6, 7, 8]])
        vals = np.linalg.eigvalsh(laplacian(g).toarray())
        assert int((vals < 1e-8).sum()) == 3

    def test_isolated_vertex_row_is_zero(self):
        g = complete_block_graph([[0, 1]])
        g = mutualize(3, g.src, g.dst, g.weight)  # vertex 2 isolated
        lap = laplacian(g).toarray()
        assert np.array_equal(lap[2], [0.0, 0.0, 0.0])
        vals = np.linalg.eigvalsh(lap)
        assert int((vals < 1e-8).sum()) == 2  # the edge component and the singleton

    def test_random_graph_symmetric_psd(self):
        rng = np.random.default_rng(8)
        ps = PointSet(rng.normal(size=(10, 2)))
        g = reduce_graph(ps, 5)
        lap = laplacian(g).toarray()
        assert np.array_equal(lap, lap.T)  # exactly symmetric by construction
        vals = np.linalg.eigvalsh(lap)
        assert vals[0] >= -1e-9
        assert vals[-1] <= 2.0 + 1e-9

    def test_many_components_and_isolated_vertices(self):
        ps = gen_synthetic("blobs", {"clusters": 6, "size": 15, "separation": 50.0},
                           seed=2)
        g = reduce_graph(ps, 10)
        g = mutualize(ps.n + 3, g.src, g.dst, g.weight)  # three isolated vertices
        lap = laplacian(g).toarray()
        assert n_components(g) >= 6 + 3
        assert not lap[ps.n:].any()
        vals = np.linalg.eigvalsh(lap)
        assert int((vals < 1e-8).sum()) == n_components(g)

    def test_duplicate_ordered_pair_adds_up(self):
        # (0, 1) twice and (1, 0) once: both sides carry weight 1 in total,
        # so both degrees are 1 and L[0, 1] = L[1, 0] = -1. A builder that
        # counted the pair twice in the degree but subtracted it once gave
        # L[0, 1] = -0.5, which is not a Laplacian.
        src, dst, w = np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([0.5, 0.5, 1.0])
        g = ReducedGraph(n=3, src=src, dst=dst, weight=w,
                         directed_src=src, directed_dst=dst, directed_weight=w)
        expected = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        assert np.array_equal(laplacian(g).toarray(), expected)


class TestEmbed:
    def test_two_cliques_collapse_to_two_points(self):
        g = complete_block_graph([[0, 1, 2, 3], [4, 5, 6]])
        emb = embed(laplacian(g), 2)
        rows = emb.vectors
        for block in ([0, 1, 2, 3], [4, 5, 6]):
            assert np.allclose(rows[block], rows[block[0]], atol=1e-9)
        assert not np.allclose(rows[0], rows[4], atol=1e-3)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_full_eigenbasis_boundary(self):
        g = complete_block_graph([[0, 1, 2], [3, 4, 5]])
        emb = embed(laplacian(g), 6)
        assert emb.vectors.shape == (6, 6)
        assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(emb.eigenvalues) >= -1e-12)

    def test_matches_dense_oracle(self):
        ps = gen_synthetic("circles", {"radii": [1.0, 2.0], "size": 10, "noise": 0.02},
                           seed=3)
        g = reduce_graph(ps, 8)
        lap = laplacian(g)
        emb = embed(lap, 4)
        oracle = np.linalg.eigvalsh(lap.toarray())[:4]
        assert emb.eigenvalues == pytest.approx(oracle, abs=1e-8)

    def test_eigenpair_residuals(self):
        ps = gen_synthetic("moons", {"size": 20, "noise": 0.05}, seed=6)
        g = reduce_graph(ps, 10)
        lap = laplacian(g).toarray()
        vals, vecs = np.linalg.eigh(lap)
        for i in range(3):
            residual = lap @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(residual) < 1e-10

    def test_isolated_vertex_flagged_when_outside_null_basis(self, caplog):
        # A graph with one singleton: whether the isolated vertex appears
        # as a zero row depends on the eigenbasis; every row is unit length
        # or exactly zero, and the DEBUG line counts the zero ones.
        g = complete_block_graph([[0, 1], [2, 3]])
        g = mutualize(5, g.src, g.dst, g.weight)
        with caplog.at_level(logging.DEBUG, logger="edgeprune.spectral"):
            emb = embed(laplacian(g), 2)
        norms = np.linalg.norm(emb.vectors, axis=1)
        zero = np.all(emb.vectors == 0.0, axis=1)
        assert np.allclose(norms[~zero], 1.0, atol=1e-12)
        assert f", {zero.sum()} zero rows" in caplog.text

    def test_cluster_count_bounds(self):
        g = complete_block_graph([[0, 1, 2]])
        with pytest.raises(InputError):
            embed(laplacian(g), 1)
        with pytest.raises(InputError):
            embed(laplacian(g), 4)

    def test_nan_solve_is_numeric_error(self, monkeypatch):
        # NaN fails every comparison, so a check written as `worst > tol`
        # would accept it.
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lambda a, x, **kwargs: (
            np.full(x.shape[1], np.nan), np.full(x.shape, np.nan)))
        g = complete_block_graph([list(range(6)), list(range(6, 12))])
        with pytest.raises(NumericError):
            embed(laplacian(g), 2)

    def test_iterative_path_matches_dense(self, monkeypatch, caplog):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 40, "separation": 12.0},
                           seed=13)
        g = reduce_graph(ps, 15)
        dense = embed(laplacian(g), 3)
        from edgeprune.spectral import _iterative_smallest
        vals, _, _ = _iterative_smallest(laplacian(g), 3)
        assert vals == pytest.approx(dense.eigenvalues, abs=1e-7)
        # `embed` itself takes the LOBPCG branch above DENSE_EIG_LIMIT.
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", g.n - 1)
        with caplog.at_level(logging.DEBUG, logger="edgeprune.spectral"):
            iterative = embed(laplacian(g), 3)
        assert iterative.eigenvalues == pytest.approx(dense.eigenvalues, abs=1e-7)
        assert ", 0 zero rows" in caplog.text
        assert np.allclose(np.linalg.norm(iterative.vectors, axis=1), 1.0, atol=1e-12)
        assert "LOBPCG solver" in caplog.text

    def test_degenerate_null_space_is_solved(self):
        # 54 components for 55 clusters: on this input LAPACK's MRRR routine
        # stops with "Internal Error" (seen at 1 and 2 BLAS threads).
        ps = gen_synthetic("blobs", {"clusters": 5, "size": 20,
                                     "separation": 4.424730265399182}, seed=551921340)
        g = reduce_graph(ps, 6)
        assert n_components(g) == 54
        lap = laplacian(g)
        emb = embed(lap, 55)
        assert emb.eigenvalues == pytest.approx(np.linalg.eigvalsh(lap.toarray())[:55],
                                                abs=1e-8)
        assert np.allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-12)
        assert next(spectral_cluster(g, 55, [0])).labels.shape == (100,)

    def test_failed_mrrr_solve_falls_back_to_evd(self, dataset_a, monkeypatch, caplog):
        lap = laplacian(reduce_graph(dataset_a))
        expected = embed(lap, 3)

        def mrrr_fails(a, **kwargs):
            a[:] = np.nan  # a failed call may leave its matrix overwritten
            raise scipy.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(scipy.linalg, "eigh", mrrr_fails)
        with caplog.at_level(logging.DEBUG, logger="edgeprune.spectral"):
            emb = embed(lap, 3)
        assert emb.eigenvalues == pytest.approx(expected.eigenvalues, abs=1e-10)
        assert ari(dataset_a.labels, kmeans(emb.vectors, 3, 0).labels) == 1.0
        assert "dense (evd after evr failed) solver" in caplog.text

    def test_failed_dense_solve_is_numeric_error(self, monkeypatch):
        def fails(a, **kwargs):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(scipy.linalg, "eigh", fails)
        monkeypatch.setattr(np.linalg, "eigh", fails)
        g = complete_block_graph([list(range(6)), list(range(6, 12))])
        with pytest.raises(NumericError, match="^dense eigensolver failed: Internal Error.$"):
            embed(laplacian(g), 2)

    @pytest.mark.parametrize("path", ["evr", "evd", "LOBPCG"])
    def test_every_solve_has_its_residual_checked(self, monkeypatch, path):
        # Each solver returns the true eigenvalues, with 1e-3 of another
        # eigenvector added to each vector; `embed` refuses them whatever ran.
        g = complete_block_graph([list(range(6)), list(range(6, 12))])
        vals, vecs = np.linalg.eigh(laplacian(g).toarray())
        off = 1e-3 * np.roll(vecs, 1, axis=1)

        def solve(a, x0=None, subset_by_index=None, **kwargs):
            if path == "evd" and subset_by_index is not None:
                raise scipy.linalg.LinAlgError("Internal Error.")
            k = (x0.shape[1] if x0 is not None
                 else subset_by_index[1] + 1 if subset_by_index else len(vals))
            return vals[:k], vecs[:, :k] + off[:, :k]

        monkeypatch.setattr(scipy.linalg, "eigh", solve)
        monkeypatch.setattr(np.linalg, "eigh", solve)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", solve)
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 10 if path == "LOBPCG" else 3000)
        with pytest.raises(NumericError, match="^eigensolver failed to converge: residual "):
            embed(laplacian(g), 2)

    @pytest.mark.parametrize("limit", [3000, 10], ids=["dense", "LOBPCG"])
    def test_negative_eigenvalue_is_numeric_error(self, monkeypatch, limit):
        # Not a Laplacian: one eigenvalue is -1.
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", limit)
        lap = np.diag(np.r_[-1.0, np.linspace(0.0, 2.0, 39)])
        with pytest.raises(NumericError, match="Laplacian not PSD"):
            embed(lap, 2)


def separable_embedding(rng, n_per=20, centers=((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))):
    pts = np.vstack([c + rng.normal(0, 0.1, (n_per, 2)) for c in centers])
    truth = np.repeat(np.arange(len(centers)), n_per)
    return pts, truth


class TestKmeans:
    def test_separable_groups_recovered(self):
        x, truth = separable_embedding(np.random.default_rng(0))
        result = kmeans(x, 3, seed=5)
        assert ari(truth, result.labels) == 1.0
        assert not result.collapsed

    def test_same_seed_identical(self):
        x, _ = separable_embedding(np.random.default_rng(1))
        a = kmeans(x, 3, seed=42)
        b = kmeans(x, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_inertia_beats_random_assignments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        result = kmeans(x, 3, seed=1)
        for _ in range(50):
            labels = np.concatenate([np.arange(3), rng.integers(0, 3, 27)])
            rng.shuffle(labels)
            inertia = sum(((x[labels == j] - x[labels == j].mean(axis=0)) ** 2).sum()
                          for j in range(3))
            assert result.inertia <= inertia + 1e-9

    def test_all_ids_used_on_degenerate_data(self):
        x = np.zeros((8, 2))
        x[7] = [5.0, 5.0]
        result = kmeans(x, 2, seed=0)
        assert set(result.labels.tolist()) == {0, 1}

    def test_collapse_flagged_on_identical_points(self):
        result = kmeans(np.zeros((6, 2)), 3, seed=0)
        assert result.collapsed

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = bad
        with pytest.raises(InputError, match="finite"):
            kmeans(x, 2, seed=0)

    def test_overflowing_squared_distances_rejected(self):
        # Finite vectors whose squared distances overflow to inf: the
        # seeding's draw probabilities would be NaN.
        with pytest.raises(InputError, match="overflow"):
            kmeans(np.array([[0.0], [1e200], [-1e200], [5.0]]), 2, seed=0)

    @pytest.mark.parametrize("n_clusters", [0, -1, 5])
    def test_cluster_count_outside_one_to_n_rejected(self, n_clusters):
        with pytest.raises(InputError):
            kmeans(np.arange(8.0).reshape(4, 2), n_clusters, seed=0)


class TestSpectralCluster:
    def test_disconnected_blocks_recovered_exactly(self):
        g = complete_block_graph([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10]])
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        result = next(spectral_cluster(g, 3, seeds=[3]))
        assert ari(truth, result.labels) == 1.0
        assert n_components(g) == 3

    def test_blobs_end_to_end(self, dataset_a):
        g = reduce_graph(dataset_a)
        result = next(spectral_cluster(g, 3, seeds=[0]))
        assert ari(dataset_a.labels, result.labels) == 1.0
        assert n_components(g) == 3

    def test_permutation_equivariance(self, dataset_a):
        g = reduce_graph(dataset_a)
        result = next(spectral_cluster(g, 3, seeds=[9]))
        assert n_components(g) == 3
        rng = np.random.default_rng(11)
        perm = rng.permutation(dataset_a.n)
        permuted = PointSet(dataset_a.points[perm])
        g2 = reduce_graph(permuted)
        result2 = next(spectral_cluster(g2, 3, seeds=[9]))
        # labels of the permuted run, pulled back to original vertex order
        assert ari(result.labels, result2.labels[np.argsort(perm)]) == 1.0

    def test_deterministic(self, dataset_c):
        g = reduce_graph(dataset_c)
        a = next(spectral_cluster(g, 2, seeds=[77]))
        b = next(spectral_cluster(g, 2, seeds=[77]))
        assert np.array_equal(a.labels, b.labels)

    def test_embeds_once_and_runs_kmeans_per_seed(self, dataset_c, monkeypatch):
        # The 2-NN foil has components its table links to neither of the two
        # largest, so the eigensolver decides.
        g = mutual_knn_graph(build_knn(dataset_c, 2))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return embed(*args, **kwargs)

        monkeypatch.setattr(spectral, "embed", counted)
        results = spectral_cluster(g, 2, seeds=[5, 6, 2**64 - 1])
        assert calls == []  # nothing runs before the first result is asked for
        results = list(results)
        assert len(calls) == 1
        emb = embed(laplacian(g), 2)
        for seed, result in zip([5, 6, 2**64 - 1], results, strict=True):
            expected = kmeans(emb.vectors, 2, seed)
            assert np.array_equal(result.labels, expected.labels)
            assert result.inertia == expected.inertia
            assert result.collapsed == expected.collapsed


# -- the component path against NJW and a per-step Prim reference ------------

def canonical(labels):
    """Labels renumbered by first occurrence: equal exactly for equal partitions."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def prim_partition(g, n_clusters):
    """Reference for the component path: the labels, or None to fall back.

    The C largest components are roots, largest first and ties to the lower
    label. Then, one step at a time, the table entry with the smallest
    (distance, lower component, higher component) among all entries between
    an attached and an unattached component attaches the latter to the
    former's cluster. Components left unattached mean a fallback.
    """
    comp = component_labels(g)
    m = int(comp.max()) + 1
    if m < n_clusters:
        return None
    sizes = np.bincount(comp)
    cluster = np.full(m, -1)
    for rank, c in enumerate(sorted(range(m), key=lambda c: (-sizes[c], c))[:n_clusters]):
        cluster[c] = rank
    if m > n_clusters and g.table is not None:
        nt = g.table
        a = np.repeat(comp, nt.k_max)
        b = comp[nt.indices.ravel()]
        d = nt.distances.ravel()
        while True:
            crossing = np.flatnonzero((cluster[a] >= 0) != (cluster[b] >= 0))
            if crossing.size == 0:
                break
            _, _, _, p, q = min((float(d[i]), min(a[i], b[i]), max(a[i], b[i]), a[i], b[i])
                                for i in crossing)
            if cluster[p] >= 0:
                cluster[q] = cluster[p]
            else:
                cluster[p] = cluster[q]
    return None if (cluster < 0).any() else cluster[comp]


def lexsort_ranking(pair, dist):
    """Distinct pairs in the order of their first entries in one
    (distance, pair) sort of every entry: the ranking's reference."""
    pair = pair[np.lexsort((pair, dist))]
    return pair[np.sort(np.unique(pair, return_index=True)[1])]


def kruskal_partition(g, n_clusters):
    """Reference for the forest: `_component_partition` as it was, Kruskal
    with a scalar union-find (path halving) over the same ranked pairs,
    one pair at a time. Returns (labels, m, unlinked)."""
    m = n_components(g)
    if m < n_clusters:
        return None, m, 0
    roots = np.argsort(-np.bincount(g.components), kind="stable")[:n_clusters]
    cluster = np.full(m, -1, dtype=np.int64)
    cluster[roots] = np.arange(n_clusters)
    pair = np.empty(0, dtype=np.int64)
    if g.table is not None and m > n_clusters:
        a, b = np.repeat(g.components, g.table.k_max), g.components[g.table.indices.ravel()]
        cross = np.flatnonzero(a != b)
        a, b = a[cross], b[cross]
        pair = np.minimum(a, b).astype(np.int64) * m + np.maximum(a, b)
        pair = _rank_pairs(pair, g.table.distances.ravel()[cross])
    # A root component never goes under another, so a tree holds one
    # exactly when the tree's own root is one.
    parent, rooted = list(range(m)), (cluster >= 0).tolist()

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v
    for a, b in zip(*(side.tolist() for side in np.divmod(pair, m))):
        a, b = find(a), find(b)
        if a != b and not (rooted[a] and rooted[b]):
            if rooted[a]:
                a, b = b, a
            parent[a] = b
    cluster = cluster[[find(v) for v in range(m)]]
    unlinked = int((cluster < 0).sum())
    return (None if unlinked else cluster[g.components]), m, unlinked


@st.composite
def block_graphs(draw):
    """Disjoint connected blocks on shuffled vertex ids, some of one vertex
    (isolated), with weights in [0.5, 1]: m components, m >= 2."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(sum(sizes))
    src, dst = [], []
    start = 0
    for size in sizes:
        block = ids[start:start + size]
        start += size
        for i in range(1, size):  # a random spanning tree, then extra edges
            src.append(block[i])
            dst.append(block[rng.integers(i)])
        for _ in range(rng.integers(0, size)):
            p, q = rng.choice(block, 2, replace=False) if size > 1 else (block[0], block[0])
            src.append(p)
            dst.append(q)
    src, dst = np.array(src + dst, dtype=np.int64), np.array(dst + src, dtype=np.int64)
    weight = np.tile(rng.uniform(0.5, 1.0, len(src) // 2), 2)
    g = mutualize(len(ids), src, dst, weight)
    return g, len(sizes)


@st.composite
def tabled_graphs(draw):
    """A tie-heavy k-NN table and a graph on some of its entries, with a
    cluster count from 2 to N: exact distance ties, equal component sizes,
    components the table does not link, and m below, at or above C."""
    nt = draw(tie_heavy_tables(max_n=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = mutual_knn_graph(nt)
    else:
        src = np.repeat(np.arange(nt.n), nt.k_max)
        keep = rng.random(src.size) < draw(st.sampled_from([0.1, 0.5, 1.0]))
        g = dataclasses.replace(
            mutualize(nt.n, src[keep], nt.indices.ravel()[keep], np.ones(int(keep.sum()))),
            table=nt)
    return g, draw(st.integers(2, nt.n))


@st.composite
def grid_graphs(draw):
    """The mutual k-NN graph (k_max 1 to 3) of 200 to 600 integer-grid
    points, over its own table: hundreds of components and exact distance
    ties, with C at 2, m - 1, m or m + 1. On the coarse grids a point has
    more copies than k_max, so its row links only its copies, and such
    components reach no other."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = draw(st.sampled_from([6, 20, 60]))
    points = rng.integers(0, side, (draw(st.integers(200, 600)), 2)).astype(np.float64)
    g = mutual_knn_graph(build_knn(PointSet(points), draw(st.integers(1, 3))))
    m = n_components(g)
    return g, draw(st.sampled_from([2, max(m - 1, 2), m, m + 1]))


def complete_blocks_on_a_line(blocks, k_max=None):
    """`complete_block_graph` on 1-D points: blocks are lists of positions,
    vertex ids run through them in order; the table has k_max columns."""
    positions = [x for block in blocks for x in block]
    ids = np.cumsum([0] + [len(b) for b in blocks])
    g = complete_block_graph([list(range(ids[i], ids[i + 1])) for i in range(len(blocks))])
    nt = build_knn(PointSet(np.array(positions, dtype=np.float64)[:, None]),
                   k_max or len(positions) - 1)
    return dataclasses.replace(g, table=nt)


class TestComponentPath:
    @given(block_graphs(), st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equal_count_matches_njw(self, case, seed):
        # m = C: NJW maps each component to one of C orthonormal points,
        # and k-means separates them whatever basis the solver returns.
        g, m = case
        assert n_components(g) == m
        njw = kmeans(embed(laplacian(g), m).vectors, m, seed)
        result = next(spectral_cluster(g, m, [seed]))
        assert np.array_equal(canonical(result.labels), canonical(njw.labels))
        assert np.array_equal(canonical(result.labels), canonical(component_labels(g)))
        assert result.inertia == 0.0 and not result.collapsed

    @given(tabled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_prim_reference(self, case):
        g, n_clusters = case
        labels, m, unlinked = _component_partition(g, n_clusters)
        expected = prim_partition(g, n_clusters)
        if expected is None:
            assert labels is None
            assert unlinked > 0 or m < n_clusters
        else:
            assert labels is not None and unlinked == 0
            assert labels.tolist() == expected.tolist()

    @given(st.one_of(tabled_graphs(), grid_graphs()))
    @settings(max_examples=200, deadline=None)
    def test_rounds_build_the_kruskal_forest(self, case):
        g, n_clusters = case
        labels, m, unlinked = _component_partition(g, n_clusters)
        expected = kruskal_partition(g, n_clusters)
        assert (m, unlinked) == expected[1:]
        assert (labels is None) == (expected[0] is None)
        if labels is not None:
            assert labels.tolist() == expected[0].tolist()

    def test_rounds_at_least_halve_the_unrooted_trees(self, monkeypatch):
        # A chain of 64 singletons between two roots, the gap after
        # singleton i 10 plus the trailing zeros of i + 1: each round pairs
        # the chain's trees, six rounds join it and the seventh hooks it to
        # a root, the (m - C).bit_length() rounds the docstring allows. One
        # hook per round would take 64.
        chain = np.concatenate(([0], np.cumsum([10 + ((i + 1) & -(i + 1)).bit_length() - 1
                                                for i in range(63)])))
        g = complete_blocks_on_a_line([[-21, -20, -19], *([x] for x in chain),
                                       [chain[-1] + 19, chain[-1] + 20, chain[-1] + 21]],
                                      k_max=2)
        rounds = []
        monkeypatch.setattr(spectral, "_roots",
                            lambda parent: rounds.append(1) or reduce._roots(parent))
        labels, m, unlinked = _component_partition(g, 2)
        assert (m, unlinked) == (66, 0)
        assert len(rounds) <= (m - 2).bit_length() == 7
        assert labels.tolist() == kruskal_partition(g, 2)[0].tolist()

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6).map(lambda i: i / 4)),
                    max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_pair_ranking_matches_a_sort_of_all_entries(self, entries):
        # The ranking by group minimum equals each pair's first position in
        # a (distance, pair) sort of every entry, over exact distance ties.
        pair = np.array([p for p, _ in entries], dtype=np.int64)
        dist = np.array([d for _, d in entries], dtype=np.float64)
        assert _rank_pairs(pair, dist).tolist() == lexsort_ranking(pair, dist).tolist()

    @given(tabled_graphs())
    @settings(max_examples=150, deadline=None)
    def test_merge_matches_the_lexsort_ranking(self, case):
        # The same partition as with the ranking by one sort of every entry,
        # on tie-heavy tables. (Swapped by hand: hypothesis reruns the body.)
        g, n_clusters = case
        labels, m, unlinked = _component_partition(g, n_clusters)
        original = spectral._rank_pairs
        spectral._rank_pairs = lexsort_ranking
        try:
            expected = _component_partition(g, n_clusters)
        finally:
            spectral._rank_pairs = original
        assert (m, unlinked) == expected[1:]
        assert (labels is None) == (expected[0] is None)
        if labels is not None:
            assert labels.tolist() == expected[0].tolist()

    @pytest.mark.parametrize("spec,graph,m", [
        (dict(clusters=5, size=400, separation=10), lambda ps: reduce_graph(ps, 15), 217),
        (dict(clusters=40, size=50, separation=60),
         lambda ps: mutual_knn_graph(build_knn(ps, 5)), 153)], ids=["5x400", "40x50"])
    def test_merge_matches_prim_reference_at_hundreds_of_components(self, spec, graph, m):
        g = graph(gen_synthetic("blobs", spec, seed=3))
        labels, m_found, unlinked = _component_partition(g, spec["clusters"])
        assert (m_found, unlinked) == (m, 0)
        assert labels.tolist() == prim_partition(g, spec["clusters"]).tolist()

    def test_size_tie_at_the_last_root_goes_to_the_lower_label(self):
        # Components 1 and 2 both have two points; component 1 is the second
        # root, and component 2 joins it (19 away, against 38 to component 0).
        g = complete_blocks_on_a_line([[0, 1, 2], [20, 21], [40, 41]])
        labels = next(spectral_cluster(g, 2, [0])).labels
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 1]
        assert prim_partition(g, 2).tolist() == labels.tolist()

    def test_distance_tie_goes_to_the_lower_pair(self):
        # The singleton at 6 is 4 away from both roots: the pair
        # (component 0, component 2) comes before (1, 2).
        g = complete_blocks_on_a_line([[0, 1, 2], [10, 11, 12], [6]])
        labels = next(spectral_cluster(g, 2, [0])).labels
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 0]

    def test_edge_between_two_rooted_trees_is_skipped(self):
        # The singletons at 4 and 5 join each other (1 apart), then root 0
        # (2 from 4). The edge from 5 to root 1 (2.5) would join two rooted
        # trees and is skipped; the singleton at 12.5 still joins root 1 (3).
        g = complete_blocks_on_a_line([[0, 1, 2], [7.5, 8.5, 9.5], [4], [5], [12.5]])
        labels = next(spectral_cluster(g, 2, [0])).labels
        assert labels.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 1]
        assert prim_partition(g, 2).tolist() == labels.tolist()

    def test_unlinked_components_fall_back_to_the_eigensolver(self, dataset_c, monkeypatch):
        # The 2-NN foil's table links 55 of its 116 components to neither of
        # the two largest, so NJW decides, as it did before the component path.
        g = mutual_knn_graph(build_knn(dataset_c, 2))
        labels, m, unlinked = _component_partition(g, 2)
        assert (labels, m, unlinked) == (None, 116, 55)
        expected = kmeans(embed(laplacian(g), 2).vectors, 2, 4)
        embeds = []
        monkeypatch.setattr(spectral, "embed", lambda *a: embeds.append(a) or embed(*a))
        result = next(spectral_cluster(g, 2, [4]))
        assert len(embeds) == 1
        assert result.labels.tobytes() == expected.labels.tobytes()

    def test_components_found_once_per_graph(self, dataset_c, monkeypatch):
        # The graph keeps its components, so every reader shares one
        # `connected_components` pass over the vertices.
        passes = []
        found = reduce.connected_components
        monkeypatch.setattr(reduce, "connected_components",
                            lambda *a, **kw: passes.append(a) or found(*a, **kw))
        g = reduce_graph(dataset_c)  # m = 8 > C = 2: merged
        expected = next(spectral_cluster(g, 2, [0])).labels
        assert n_components(g) == n_components(g) == 8
        assert next(spectral_cluster(g, 2, [0])).labels.tobytes() == expected.tobytes()
        assert len(list(spectral_cluster(g, 3, [0, 1]))) == 2
        assert len(passes) == 1
        assert not g.components.flags.writeable
        assert g.components.tobytes() == component_labels(g).tobytes()

    def test_graph_without_table_uses_components_only_when_m_equals_c(self, tmp_path,
                                                                       dataset_a,
                                                                       monkeypatch):
        g = reduce_graph(dataset_a, 20)
        assert n_components(g) == 8
        save_graph(g, tmp_path / "g.txt")
        loaded, _ = load_graph(tmp_path / "g.txt")
        assert loaded.table is None and g.table is not None
        assert ari(dataset_a.labels, next(spectral_cluster(g, 3, [0])).labels) == 1.0
        assert _component_partition(loaded, 3) == (None, 8, 5)  # no table: m - C unlinked
        embeds = []
        monkeypatch.setattr(spectral, "embed", lambda *a: embeds.append(a) or embed(*a))
        labels = next(spectral_cluster(loaded, 8, [0])).labels
        assert embeds == []
        assert np.array_equal(canonical(labels), canonical(component_labels(g)))
        next(spectral_cluster(loaded, 3, [0]))
        assert len(embeds) == 1

    def test_every_seed_gets_the_partition(self, dataset_a):
        g = reduce_graph(dataset_a, 20)
        results = list(spectral_cluster(g, 3, [0, 1, 2**64 - 1]))
        assert len(results) == 3
        for r in results:
            assert r.labels.tolist() == results[0].labels.tolist()
            assert (r.inertia, r.collapsed) == (0.0, False)

    @pytest.mark.parametrize("n_clusters", [1, 301])
    def test_cluster_count_outside_two_to_n_rejected(self, dataset_a, n_clusters):
        with pytest.raises(InputError):
            next(spectral_cluster(reduce_graph(dataset_a), n_clusters, [0]))


# -- the screened k-means assignment against the all-pairs form ---------------

def tensor_assign(x, centers):
    """Reference assignment: the exact form on every (point, center) pair,
    through an (N, C, d) difference tensor."""
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2


def reference_kmeans(x, n_clusters, seed):
    """k-means++ and Lloyd on `tensor_assign`; returns (labels, inertia, collapsed)."""
    def plus_plus_init(k, rng):
        n = x.shape[0]
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = d2.sum()
            idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
            centers[j] = x[idx]
            d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
        return centers

    def lloyd(k, rng):
        centers = plus_plus_init(k, rng)
        labels, d2 = tensor_assign(x, centers)
        for _ in range(KMEANS_MAX_ITER):
            for _ in range(k):
                counts = np.bincount(labels, minlength=k)
                empty = np.nonzero(counts == 0)[0]
                if empty.size == 0:
                    break
                point_d2 = d2[np.arange(x.shape[0]), labels]
                centers[empty[0]] = x[np.argmax(point_d2)]
                labels, d2 = tensor_assign(x, centers)
            for j in range(k):
                members = labels == j
                if members.any():
                    centers[j] = x[members].mean(axis=0)
            new_labels, d2 = tensor_assign(x, centers)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        return labels, float(d2[np.arange(x.shape[0]), labels].sum())

    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        labels, inertia = lloyd(n_clusters, spawn_rng(seed, r))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia, np.unique(best_labels).size < n_clusters


@st.composite
def assignment_cases(draw):
    """Points and centers where the screen's rounding is large next to the
    distance gaps it has to resolve.

    Integer lattices (exact ties), a few distinct rows repeated (duplicate
    points and duplicate centers), a common offset of 1e8 plus unit noise,
    a 1e-6 cloud with 1e6 outliers, or near-duplicate rows at 1e-160,
    whose squares are subnormal and whose gaps underflow; optionally zero
    rows, as isolated vertices embed, and centers placed on points.
    d = 1..64, C = 1..45. The points are stored by rows or by columns, as
    both eigensolvers return them; the layout decides how the tensor form
    adds up each pair's squares.
    """
    kind = draw(st.sampled_from(["lattice", "duplicates", "offset", "mixed", "subnormal"]))
    n = draw(st.integers(1, 60))
    c = draw(st.integers(1, 45))
    d = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        pool = rng.integers(0, 3, (n + c, d)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.standard_normal((draw(st.integers(1, 4)), d))
        pool = base[rng.integers(0, len(base), n + c)]
    elif kind == "offset":
        pool = 1e8 + rng.standard_normal((n + c, d))
    elif kind == "subnormal":
        base = 1e-160 * rng.standard_normal((draw(st.integers(1, 4)), d))
        pool = base[rng.integers(0, len(base), n + c)] + 1e-163 * rng.integers(0, 2, (n + c, d))
    else:
        pool = 1e-6 * rng.standard_normal((n + c, d))
        pool[rng.random(n + c) < 0.2] *= 1e12
    x, centers = pool[:n], pool[n:]
    if draw(st.booleans()):
        x[rng.random(n) < 0.3] = 0.0
    if draw(st.booleans()):
        centers = x[rng.integers(0, n, c)]
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, centers


def assert_assign_matches(x, centers):
    labels, d2 = _assign(x, centers)
    ref_labels, ref_d2 = tensor_assign(x, centers)
    assert labels.tobytes() == ref_labels.tobytes()
    assert d2.tobytes() == ref_d2[np.arange(len(x)), ref_labels].tobytes()


class TestAssign:
    @given(assignment_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_tensor_form_bit_for_bit(self, case):
        assert_assign_matches(*case)

    def test_duplicate_centers_go_to_the_lower_index(self):
        x = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
        centers = np.array([[5.0, 5.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        labels, d2 = _assign(x, centers)
        assert labels.tolist() == [1, 1, 1]  # (0, 0) and (1, 1) tie 1 against 3
        assert d2.tolist() == [1.0, 2.0, 1.0]
        assert_assign_matches(x, centers)

    @pytest.mark.filterwarnings("error")
    def test_squares_overflowing_in_the_screen_stay_silent(self):
        # Coordinates near 1e160 square to inf in the screen, while every
        # distance is finite; the labels are still the exact ones.
        x = 1e160 + np.array([[0.0], [1e153], [2e153], [3e153]])
        assert_assign_matches(x, x[[0, 3]])
        result = kmeans(x, 2, seed=0)
        assert result.labels.tolist() in ([0, 0, 1, 1], [1, 1, 0, 0])

    def test_allocates_no_point_center_coordinate_tensor(self):
        # The all-pairs form allocates N * C * d doubles, 25.6 MB here;
        # the screen needs a few (N, C) arrays of 0.64 MB.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2000, 40))
        centers = x[rng.choice(2000, 40, replace=False)]
        tracemalloc.start()
        try:
            _assign(x, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.shape[0] * len(centers) * x.shape[1] * 8 / 4


def manyclust_embedding(seed):
    """Embedding of a 40 x 6 toy of the benchmark's many-cluster workload."""
    ps = gen_synthetic("blobs", {"clusters": 40, "size": 6, "separation": 60}, seed=seed)
    return embed(laplacian(reduce_graph(ps)), 40)


def assert_kmeans_matches(x, n_clusters, seed):
    result = kmeans(x, n_clusters, seed)
    labels, inertia, collapsed = reference_kmeans(x, n_clusters, seed)
    assert result.labels.tobytes() == labels.tobytes()
    assert np.float64(result.inertia).tobytes() == np.float64(inertia).tobytes()
    assert result.collapsed == collapsed
    return result


class TestKmeansMatchesTensorForm:
    @pytest.mark.parametrize("name,clusters", [("dataset_a", 3), ("dataset_b", 2),
                                               ("dataset_c", 2)])
    @pytest.mark.parametrize("seed", [0, 31])
    def test_fixture_embeddings(self, request, name, clusters, seed):
        ps = request.getfixturevalue(name)
        emb = embed(laplacian(reduce_graph(ps)), clusters)
        assert_kmeans_matches(emb.vectors, clusters, seed)

    @pytest.mark.parametrize("seed", [0, 5, 21])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_many_cluster_embedding(self, seed, order):
        # embed returns its vectors by columns; seed 21 is an input where
        # summing each pair's squares in the wrong order changes the labels.
        x = np.asarray(manyclust_embedding(seed).vectors, order=order)
        assert_kmeans_matches(x, 40, seed)

    def test_more_clusters_than_distinct_rows(self):
        # Five distinct rows, eight clusters: empty clusters are re-seeded
        # from the farthest point until none can be, and the run collapses.
        base = np.random.default_rng(6).standard_normal((5, 3))
        x = np.repeat(base, 4, axis=0)
        assert assert_kmeans_matches(x, 8, seed=2).collapsed

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_periodic_run_skips_whole_periods(self, monkeypatch, seed):
        # Three distinct rows and five clusters: an emptied cluster is
        # re-seeded onto a point already on a center, and the labels cycle
        # for all KMEANS_MAX_ITER iterations (18,010 assignments per call).
        # Skipping whole periods must leave every bit as running them.
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((3, 13)) * 10.0 ** rng.uniform(-12, 0, 13)
        x = base[rng.integers(0, 3, 12)]
        calls = []

        def counted(u, centers):
            calls.append(len(u))
            return _assign(u, centers)

        monkeypatch.setattr(spectral, "_assign", counted)
        assert_kmeans_matches(x, 5, seed)
        assert len(calls) < 1000

    def test_leaves_no_threads_busy_after_return(self):
        # Same guard as build_knn's: the assignment's product is a BLAS
        # call, and each must run on the calling thread.
        rng = np.random.default_rng(3)
        x = np.repeat(np.eye(40), 50, axis=0) + 0.05 * rng.standard_normal((2000, 40))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        assert cpu_s_after(lambda: kmeans(x, 40, seed=0)) < 0.05

    @pytest.mark.parametrize("cap", [1, 2 ** 62], ids=["cap-1", "no-cap"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_any_product_cap_gives_the_same_bits(self, monkeypatch, cap, order):
        # One multiply-add per BLAS call (1 x 1 tiles, every one a dot
        # product) or one call per assignment.
        monkeypatch.setattr(knn, "_BLAS_SERIAL_MNK", cap)
        assert_kmeans_matches(np.asarray(manyclust_embedding(21).vectors, order=order), 40, 21)


@st.composite
def repeated_rows(draw):
    """A few distinct rows repeated and shuffled, and a cluster count.

    Optionally coordinates of very different sizes (so that the order in
    which a row's squares are summed shows in the bits), zero rows (as
    isolated vertices embed), zeros written as -0.0 in some copies (rows
    equal in value but not in bits), and x stored by columns, as the
    eigensolvers return it. The cluster count may exceed the number of
    distinct rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 5))
    d = draw(st.integers(1, 20))
    base = rng.standard_normal((distinct, d))
    if draw(st.booleans()):
        base *= 10.0 ** rng.uniform(-12, 0, d)
    if draw(st.booleans()):
        base[rng.random(distinct) < 0.5] = 0.0
    if draw(st.booleans()):
        base[rng.random((distinct, d)) < 0.3] = 0.0
    n = draw(st.integers(1, 40))
    x = base[rng.integers(0, distinct, n)]
    if draw(st.booleans()):
        x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    return x, draw(st.integers(1, min(n, distinct + 3))), draw(st.integers(0, 2**32 - 1))


def distinct_row_count(x):
    return len({row.tobytes() for row in x})


class TestKmeansOnDistinctRows:
    """kmeans computes distances once per distinct row; the results must
    still be those of the all-pairs form on every row."""

    @given(repeated_rows())
    @settings(max_examples=80, deadline=None)
    def test_matches_tensor_form_bit_for_bit(self, case):
        assert_kmeans_matches(*case)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_few_distinct_rows_shuffled(self, seed, order):
        # At d >= 8 numpy sums a contiguous row's squares pairwise and a
        # column-stored row's one coordinate at a time, so the distinct rows
        # must be stored as x is.
        rng = np.random.default_rng(seed)
        x = np.asarray(rng.standard_normal((5, 16))[rng.integers(0, 5, 30)], order=order)
        assert_kmeans_matches(x, 2, seed)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_repeated_many_cluster_embedding(self, order):
        v = manyclust_embedding(21).vectors
        x = np.asarray(np.repeat(v, 2, axis=0)[np.random.default_rng(0).permutation(480)],
                       order=order)
        assert_kmeans_matches(x, 40, seed=21)

    @pytest.mark.parametrize("seed", range(12))
    def test_single_distinct_row_by_columns(self, seed):
        # The mean of the copies of one row rounds away from it, so the
        # inertia is a sum of tiny squares; with coordinates of very
        # different sizes its bits depend on the summation order. A single
        # row is both C- and F-contiguous, so the distinct rows of a
        # column-stored x must hold it twice.
        rng = np.random.default_rng(seed)
        row = rng.standard_normal(40) * 10.0 ** rng.uniform(-12, 0, 40)
        assert_kmeans_matches(np.asfortranarray(np.tile(row, (300, 1))), 1, seed)

    def test_zero_and_negative_zero_rows(self):
        x = np.zeros((12, 4))
        x[1::3] = -0.0
        x[2::3, 0] = 1.0
        assert distinct_row_count(x) == 3
        assert_kmeans_matches(x, 2, seed=8)
        assert_kmeans_matches(np.asfortranarray(x), 4, seed=8)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_assigns_only_distinct_rows(self, monkeypatch, order):
        seen = []

        def recording(x, centers):
            seen.append(len(x))
            return _assign(x, centers)

        x = np.asarray(np.repeat(manyclust_embedding(3).vectors, 5, axis=0), order=order)
        monkeypatch.setattr(spectral, "_assign", recording)
        kmeans(x, 40, seed=1)
        distinct = distinct_row_count(x)
        assert distinct <= len(x) // 5
        assert seen and max(seen) <= distinct


class TestLogging:
    def test_embed_and_kmeans_report_at_debug(self, dataset_a, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="edgeprune.spectral")
        lap = laplacian(reduce_graph(dataset_a))
        emb = embed(lap, 3)
        result = kmeans(emb.vectors, 3, seed=0)
        vals, vecs, _ = spectral._dense_smallest(lap, 3)
        worst = np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max()
        assert 0 < worst <= 1e-6
        assert [r.getMessage() for r in caplog.records] == [
            f"embed: N=300, C=3, dense solver, worst residual {worst:.3g}, "
            f"largest eigenvalue {float(emb.eigenvalues[-1])!r}, 0 zero rows",
            # Three components, each embedded as one point.
            f"kmeans: 3 distinct rows of 300, best inertia {result.inertia!r}, collapsed False",
        ]
        assert capsys.readouterr().out == ""

    def test_spectral_cluster_reports_its_path(self, dataset_a, dataset_c, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="edgeprune.spectral")
        for g, n_clusters in ((reduce_graph(dataset_a), 3), (reduce_graph(dataset_a, 20), 3),
                              (mutual_knn_graph(build_knn(dataset_c, 2)), 2)):
            list(spectral_cluster(g, n_clusters, [0]))
        messages = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("spectral_cluster")]
        assert messages == [
            "spectral_cluster: N=300, m=3 components for C=3, components path, "
            "0 unlinked components",
            "spectral_cluster: N=300, m=8 components for C=3, merged path, "
            "0 unlinked components",
            "spectral_cluster: N=300, m=116 components for C=2, eigensolver path, "
            "55 unlinked components",
        ]
        assert capsys.readouterr().out == ""


class TestEmbedSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_input_left_unmodified(self, dataset_a, order):
        lap = np.array(laplacian(reduce_graph(dataset_a)).toarray(), order=order)
        before = lap.tobytes(order="A")
        embed(lap, 3)
        assert lap.tobytes(order="A") == before

    @pytest.mark.parametrize("name,clusters", [("dataset_a", 3), ("dataset_b", 2),
                                               ("dataset_c", 2)])
    def test_equals_eigh_of_the_c_ordered_matrix(self, request, caplog, name, clusters):
        lap = laplacian(reduce_graph(request.getfixturevalue(name)))
        vals, vecs = scipy.linalg.eigh(lap.toarray(), subset_by_index=[0, clusters - 1])
        norms = np.linalg.norm(vecs, axis=1)
        zero = norms <= 1e-12
        expected = vecs / np.where(zero, 1.0, norms)[:, None]
        expected[zero] = 0.0
        # embed reads a dense input as CSR, so both forms give the same bits.
        for form in (lap, lap.toarray()):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="edgeprune.spectral"):
                emb = embed(form, clusters)
            assert emb.eigenvalues.tobytes() == vals.tobytes()
            assert emb.vectors.tobytes() == expected.tobytes()
            assert f", {zero.sum()} zero rows" in caplog.text
