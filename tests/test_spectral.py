import resource
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeprune import (InputError, NumericError, PointSet, ReducedGraph, ari, embed,
                       gen_synthetic, kmeans, laplacian, mutualize, n_components,
                       reduce_graph, spectral_cluster)
from edgeprune import spectral
from edgeprune.data import spawn_rng
from edgeprune.spectral import KMEANS_MAX_ITER, KMEANS_RESTARTS, Embedding, _assign


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

    def test_nan_solve_is_numeric_error(self, monkeypatch):
        # NaN fails every comparison, so a check written as `worst > tol`
        # would accept it.
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lambda a, x, **kwargs: (
            np.full(x.shape[1], np.nan), np.full(x.shape, np.nan)))
        g = complete_block_graph([list(range(6)), list(range(6, 12))])
        with pytest.raises(NumericError):
            embed(laplacian(g), 2)

    def test_iterative_path_matches_dense(self):
        ps = gen_synthetic("blobs", {"clusters": 2, "size": 40, "separation": 12.0},
                           seed=13)
        g = reduce_graph(ps, 15)
        dense = embed(laplacian(g), 3)
        from edgeprune.spectral import _iterative_smallest
        vals, _ = _iterative_smallest(laplacian(g), 3)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        x = np.arange(8.0).reshape(4, 2)
        x[2, 1] = bad
        emb = Embedding(vectors=x, eigenvalues=np.zeros(2),
                        zero_rows=np.array([], dtype=np.int64))
        with pytest.raises(InputError, match="finite"):
            kmeans(emb, 2, seed=0)

    @pytest.mark.parametrize("n_clusters", [0, -1, 5])
    def test_cluster_count_outside_one_to_n_rejected(self, n_clusters):
        emb = Embedding(vectors=np.arange(8.0).reshape(4, 2), eigenvalues=np.zeros(2),
                        zero_rows=np.array([], dtype=np.int64))
        with pytest.raises(InputError):
            kmeans(emb, n_clusters, seed=0)


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
        g = reduce_graph(dataset_c)
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
            expected = kmeans(emb, 2, seed)
            assert np.array_equal(result.labels, expected.labels)
            assert result.inertia == expected.inertia
            assert result.collapsed == expected.collapsed


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
    emb = Embedding(vectors=x, eigenvalues=np.zeros(n_clusters),
                    zero_rows=np.array([], dtype=np.int64))
    result = kmeans(emb, n_clusters, seed)
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

    def test_leaves_no_threads_busy_after_return(self):
        # Same guard as build_knn's: a threaded BLAS product in the
        # assignment would leave worker threads spinning after kmeans returns.
        def cpu_s():
            r = resource.getrusage(resource.RUSAGE_SELF)
            return r.ru_utime + r.ru_stime

        rng = np.random.default_rng(3)
        x = np.repeat(np.eye(40), 50, axis=0) + 0.05 * rng.standard_normal((2000, 40))
        emb = Embedding(vectors=x / np.linalg.norm(x, axis=1, keepdims=True),
                        eigenvalues=np.zeros(40), zero_rows=np.array([], dtype=np.int64))
        time.sleep(0.5)  # let threads started by earlier tests go idle
        kmeans(emb, 40, seed=0)
        before = cpu_s()
        time.sleep(0.3)
        assert cpu_s() - before < 0.05


class TestEmbedSolve:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_input_left_unmodified(self, dataset_a, order):
        lap = np.array(laplacian(reduce_graph(dataset_a)).toarray(), order=order)
        before = lap.tobytes(order="A")
        embed(lap, 3)
        assert lap.tobytes(order="A") == before

    @pytest.mark.parametrize("name,clusters", [("dataset_a", 3), ("dataset_b", 2),
                                               ("dataset_c", 2)])
    def test_equals_eigh_of_the_c_ordered_matrix(self, request, name, clusters):
        lap = laplacian(reduce_graph(request.getfixturevalue(name)))
        vals, vecs = scipy.linalg.eigh(lap.toarray(), subset_by_index=[0, clusters - 1])
        norms = np.linalg.norm(vecs, axis=1)
        zero = norms <= 1e-12
        expected = vecs / np.where(zero, 1.0, norms)[:, None]
        expected[zero] = 0.0
        # embed reads a dense input as CSR, so both forms give the same bits.
        for form in (lap, lap.toarray()):
            emb = embed(form, clusters)
            assert emb.eigenvalues.tobytes() == vals.tobytes()
            assert emb.vectors.tobytes() == expected.tobytes()
            assert emb.zero_rows.tolist() == np.nonzero(zero)[0].tolist()
