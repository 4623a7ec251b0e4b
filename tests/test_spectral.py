import numpy as np
import pytest

from edgeprune import (InputError, PointSet, ReducedGraph, ari, embed, gen_synthetic,
                       kmeans, laplacian, mutualize, n_components, reduce_graph,
                       spectral_cluster)
from edgeprune.spectral import Embedding


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
        lap = laplacian(g)
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        vals = np.linalg.eigvalsh(lap)
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_zero_multiplicity_counts_components(self):
        g = complete_block_graph([[0, 1, 2], [3, 4], [5, 6, 7, 8]])
        vals = np.linalg.eigvalsh(laplacian(g))
        assert int((vals < 1e-8).sum()) == 3

    def test_isolated_vertex_row_is_zero(self):
        g = complete_block_graph([[0, 1]])
        g = mutualize(3, g.src, g.dst, g.weight)  # vertex 2 isolated
        lap = laplacian(g)
        assert np.array_equal(lap[2], [0.0, 0.0, 0.0])
        vals = np.linalg.eigvalsh(lap)
        assert int((vals < 1e-8).sum()) == 2  # the edge component and the singleton

    def test_random_graph_symmetric_psd(self):
        rng = np.random.default_rng(8)
        ps = PointSet(rng.normal(size=(10, 2)))
        g = reduce_graph(ps, 5)
        lap = laplacian(g)
        assert np.array_equal(lap, lap.T)  # exactly symmetric by construction
        vals = np.linalg.eigvalsh(lap)
        assert vals[0] >= -1e-9
        assert vals[-1] <= 2.0 + 1e-9

    def test_sparse_matches_dense(self):
        ps = gen_synthetic("moons", {"size": 30, "noise": 0.05}, seed=4)
        g = reduce_graph(ps, 10)
        dense = laplacian(g)
        sparse = laplacian(g, sparse=True).toarray()
        assert np.array_equal(dense, sparse)

    def test_many_components_and_isolated_vertices(self):
        ps = gen_synthetic("blobs", {"clusters": 6, "size": 15, "separation": 50.0},
                           seed=2)
        g = reduce_graph(ps, 10)
        g = mutualize(ps.n + 3, g.src, g.dst, g.weight)  # three isolated vertices
        lap = laplacian(g)
        assert np.array_equal(lap, laplacian(g, sparse=True).toarray())
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
        assert np.array_equal(laplacian(g), expected)
        assert np.array_equal(laplacian(g, sparse=True).toarray(), expected)


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
        oracle = np.linalg.eigvalsh(lap)[:4]
        assert emb.eigenvalues == pytest.approx(oracle, abs=1e-8)

    def test_eigenpair_residuals(self):
        ps = gen_synthetic("moons", {"size": 20, "noise": 0.05}, seed=6)
        g = reduce_graph(ps, 10)
        lap = laplacian(g)
        vals, vecs = np.linalg.eigh(lap)
        for i in range(3):
            residual = lap @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(residual) < 1e-10

    def test_isolated_vertex_flagged_when_outside_null_basis(self):
        # A graph with one singleton: whether the isolated vertex appears
        # as a zero row depends on the eigenbasis; the flag must list
        # exactly the rows that were left zero.
        g = complete_block_graph([[0, 1], [2, 3]])
        g = mutualize(5, g.src, g.dst, g.weight)
        emb = embed(laplacian(g), 2)
        for idx in emb.zero_rows:
            assert np.array_equal(emb.vectors[idx], np.zeros(2))

    def test_cluster_count_bounds(self):
        g = complete_block_graph([[0, 1, 2]])
        with pytest.raises(InputError):
            embed(laplacian(g), 1)
        with pytest.raises(InputError):
            embed(laplacian(g), 4)

    def test_iterative_path_matches_dense(self):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 40, "separation": 12.0},
                           seed=13)
        g = reduce_graph(ps, 15)
        dense = embed(laplacian(g), 3)
        from edgeprune.spectral import _iterative_smallest
        vals, _ = _iterative_smallest(laplacian(g, sparse=True), 3)
        assert vals == pytest.approx(dense.eigenvalues, abs=1e-7)


def separable_embedding(rng, n_per=20, centers=((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))):
    pts = np.vstack([c + rng.normal(0, 0.1, (n_per, 2)) for c in centers])
    truth = np.repeat(np.arange(len(centers)), n_per)
    emb = Embedding(vectors=pts, eigenvalues=np.zeros(2),
                    zero_rows=np.array([], dtype=np.int64))
    return emb, truth


class TestKmeans:
    def test_separable_groups_recovered(self):
        emb, truth = separable_embedding(np.random.default_rng(0))
        result = kmeans(emb, 3, seed=5)
        assert ari(truth, result.labels) == 1.0
        assert not result.collapsed

    def test_same_seed_identical(self):
        emb, _ = separable_embedding(np.random.default_rng(1))
        a = kmeans(emb, 3, seed=42)
        b = kmeans(emb, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_inertia_beats_random_assignments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        emb = Embedding(vectors=x, eigenvalues=np.zeros(2),
                        zero_rows=np.array([], dtype=np.int64))
        result = kmeans(emb, 3, seed=1)
        for _ in range(50):
            labels = np.concatenate([np.arange(3), rng.integers(0, 3, 27)])
            rng.shuffle(labels)
            inertia = sum(((x[labels == j] - x[labels == j].mean(axis=0)) ** 2).sum()
                          for j in range(3))
            assert result.inertia <= inertia + 1e-9

    def test_all_ids_used_on_degenerate_data(self):
        x = np.zeros((8, 2))
        x[7] = [5.0, 5.0]
        emb = Embedding(vectors=x, eigenvalues=np.zeros(2),
                        zero_rows=np.array([], dtype=np.int64))
        result = kmeans(emb, 2, seed=0)
        assert set(result.labels.tolist()) == {0, 1}

    def test_collapse_flagged_on_identical_points(self):
        emb = Embedding(vectors=np.zeros((6, 2)), eigenvalues=np.zeros(2),
                        zero_rows=np.array([], dtype=np.int64))
        result = kmeans(emb, 3, seed=0)
        assert result.collapsed

    def test_restart_count_validated(self):
        emb, _ = separable_embedding(np.random.default_rng(3))
        with pytest.raises(InputError):
            kmeans(emb, 2, seed=0, restarts=0)


class TestSpectralCluster:
    def test_disconnected_blocks_recovered_exactly(self):
        g = complete_block_graph([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10]])
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2])
        result = spectral_cluster(g, 3, seed=3)
        assert ari(truth, result.labels) == 1.0
        assert result.n_components == 3

    def test_blobs_end_to_end(self, dataset_a):
        g = reduce_graph(dataset_a)
        result = spectral_cluster(g, 3, seed=0)
        assert ari(dataset_a.labels, result.labels) == 1.0
        assert result.n_components == 3

    def test_permutation_equivariance(self, dataset_a):
        g = reduce_graph(dataset_a)
        result = spectral_cluster(g, 3, seed=9)
        assert result.n_components == 3
        rng = np.random.default_rng(11)
        perm = rng.permutation(dataset_a.n)
        permuted = PointSet(dataset_a.points[perm])
        g2 = reduce_graph(permuted)
        result2 = spectral_cluster(g2, 3, seed=9)
        # labels of the permuted run, pulled back to original vertex order
        assert ari(result.labels, result2.labels[np.argsort(perm)]) == 1.0

    def test_deterministic(self, dataset_c):
        g = reduce_graph(dataset_c)
        a = spectral_cluster(g, 2, seed=77)
        b = spectral_cluster(g, 2, seed=77)
        assert np.array_equal(a.labels, b.labels)
