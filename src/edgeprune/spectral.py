"""Spectral clustering on a reduced graph.

Symmetric normalized Laplacian (a CSR matrix), eigenvectors of the
smallest C eigenvalues with row normalization, then seeded k-means with
KMEANS_RESTARTS restarts. Everything is deterministic for a fixed seed:
restarts draw from generators derived from (seed, restart index), and
the best restart is picked by strict inertia comparison.

The dense solve hands LAPACK a Fortran-ordered matrix it may overwrite,
so no second N x N copy is made. k-means assigns points to centers the
way `build_knn` ranks neighbors: a Gram-identity screen on the calling
thread, then the exact difference form on the pairs the screen's
rounding bound cannot rule out. Labels, inertia and collapse are bit
for bit those of the exact form on every (point, center) pair.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .data import Seed, spawn_rng
from .errors import InputError, NumericError
from .knn import _screen_slack
from .reduce import ReducedGraph

# Above this size the dense symmetric solver gives way to an iterative
# smallest-eigenpair method.
DENSE_EIG_LIMIT = 3000

_ZERO_ROW_TOL = 1e-12
KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


@dataclass(frozen=True)
class Embedding:
    """Spectral coordinates: rows are unit length unless flagged as zero."""

    vectors: np.ndarray     # (N, C)
    eigenvalues: np.ndarray  # ascending, length C
    zero_rows: np.ndarray   # indices of rows left identically zero


@dataclass(frozen=True)
class ClusterResult:
    labels: np.ndarray
    inertia: float
    collapsed: bool = False


def laplacian(g: ReducedGraph) -> scipy.sparse.csr_matrix:
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Isolated vertices (zero degree) get an all-zero row, the convention
    that keeps the zero-eigenvalue multiplicity equal to the number of
    connected components, singletons included. The matrix is exactly
    symmetric: the scaling factor for the (p, q) entry is the product
    d_p * d_q, identical in both orders. Repeated ordered pairs add up in
    the CSR matrix as they do in the degrees.
    """
    deg = np.bincount(g.src, weights=g.weight, minlength=g.n)
    inv_sqrt = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    scale = inv_sqrt[g.src] * inv_sqrt[g.dst]
    off = scipy.sparse.csr_matrix((scale * g.weight, (g.src, g.dst)), shape=(g.n, g.n))
    return scipy.sparse.diags(np.where(nz, 1.0, 0.0), format="csr") - off


def embed(lap, n_clusters: int) -> Embedding:
    """Eigenvectors of the C smallest eigenvalues, rows normalized to unit length.

    Rows whose norm is numerically zero (isolated vertices) are left zero
    and reported in `zero_rows`. `lap` may be dense or sparse; it is read
    as CSR, and a dense array is never modified. Up to DENSE_EIG_LIMIT
    vertices it is solved densely, above it by LOBPCG.
    """
    lap = scipy.sparse.csr_matrix(lap)
    n = lap.shape[0]
    if not 2 <= n_clusters <= n:
        raise InputError(f"cluster count must be in [2, {n}], got {n_clusters}")
    if n <= DENSE_EIG_LIMIT:
        # In Fortran order eigh works on the array itself rather than on a
        # hidden copy.
        vals, vecs = scipy.linalg.eigh(lap.toarray(order="F"),
                                       subset_by_index=[0, n_clusters - 1], overwrite_a=True)
    else:
        vals, vecs = _iterative_smallest(lap, n_clusters)
    if not vals[0] >= -1e-9:  # NaN fails this test too
        raise NumericError(f"Laplacian not PSD: smallest eigenvalue {vals[0]:.3e}")
    norms = np.linalg.norm(vecs, axis=1)
    zero_rows = np.nonzero(norms <= _ZERO_ROW_TOL)[0]
    safe = norms.copy()
    safe[norms <= _ZERO_ROW_TOL] = 1.0
    vectors = vecs / safe[:, None]
    vectors[zero_rows] = 0.0
    return Embedding(vectors=vectors, eigenvalues=np.asarray(vals, dtype=np.float64),
                     zero_rows=zero_rows)


def _iterative_smallest(lap, k: int):
    """Smallest eigenpairs by blocked iteration (LOBPCG).

    A block of k vectors resolves degenerate eigenvalues (one zero per
    connected component) that single-vector Lanczos would miss. The
    starting block is drawn from a fixed seed, so results are
    reproducible.
    """
    n = lap.shape[0]
    x0 = np.random.default_rng(np.random.SeedSequence(0x5EED)).standard_normal((n, k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # convergence is checked via residuals
        vals, vecs = scipy.sparse.linalg.lobpcg(lap, x0, largest=False,
                                                tol=1e-10, maxiter=5000)
    residual = lap @ vecs - vecs * vals
    worst = float(np.linalg.norm(residual, axis=0).max())
    if not worst <= 1e-6:  # NaN fails this test too
        raise NumericError(f"eigensolver failed to converge: residual {worst:.3e}")
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def _assign(x: np.ndarray, centers: np.ndarray):
    """Nearest center of every point, and the point's squared distance to it.

    Returns the labels, ties going to the lower center index, and for each
    point the exact form `sum((x - c)**2)` at its label. Both are bit for
    bit those of evaluating the exact form on every (point, center) pair,
    at the cost of one (N x d) by (d x C) product plus the exact form on
    each row's candidates.

    Exactness. Let s_ij be the Gram-identity value |x_i|^2 + |c_j|^2 -
    2 x_i.c_j, e_ij the exact form and E_ij = `_screen_slack` of the
    computed squared norms, which bounds |s_ij - e_ij| with room left for
    the two threshold tests below; without centring or a square root, the
    terms the slack reserves for them are spare. Let T be the row's
    minimum of s_ij + E_ij, reached at center l. Then e_il <= T, and a
    center p with s_ip - E_ip > T has e_ip > T >= e_il: it is not the
    minimum, not even through a tie broken by index. Every other center is
    a candidate, and its exact value is summed in the same order as on all
    pairs, so it has the same bits. The rest are set to inf, so `argmin`
    picks the same label. A non-finite value (only from coordinates near
    the float range limit) fails the test `s - E > T`, which makes the
    center, or the whole row, a candidate.
    """
    n, dim = x.shape
    # Screened values are laid out (C, N), so the minimum over centers runs
    # as C - 1 passes along contiguous rows, not N reductions of length C.
    norm_sums = (centers * centers).sum(axis=1)[:, None] + (x * x).sum(axis=1)
    # einsum without `optimize` never calls BLAS, so no worker threads are
    # left spinning (see the knn module docstring). Unlike the k-NN screen,
    # k-means stays on the calling thread: its restarts on a thread pool
    # saved about a tenth of a call, nothing measurable per command, and
    # cost resident memory.
    screen = norm_sums - 2.0 * np.einsum("jk,ik->ji", centers, x)
    slack = _screen_slack(norm_sums, dim)  # overwrites norm_sums, not read again
    bound = (screen + slack).min(axis=0)
    screen -= slack
    cols, rows = np.divmod(np.flatnonzero(~(screen > bound)), n)
    # The exact form adds up each pair's squares in the order the (N, C, d)
    # all-pairs tensor did. numpy lays that tensor out after x: by rows, each
    # pair's d squares are contiguous and get numpy's pairwise summation; by
    # columns, as both eigensolvers return their vectors, they are added one
    # coordinate at a time.
    diff = x.take(rows, axis=0) - centers.take(cols, axis=0)
    if abs(x.strides[0]) < abs(x.strides[1]):
        diff = np.asfortranarray(diff)
    d2 = np.full((n, len(centers)), np.inf)
    d2[rows, cols] = (diff ** 2).sum(axis=1)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(n), labels]


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining points coincide with a center
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator):
    centers = _plus_plus_init(x, k, rng)
    labels, d2 = _assign(x, centers)
    for _ in range(KMEANS_MAX_ITER):
        # Re-seed any empty cluster from the point farthest from its center.
        for _ in range(k):
            counts = np.bincount(labels, minlength=k)
            empty = np.nonzero(counts == 0)[0]
            if empty.size == 0:
                break
            centers[empty[0]] = x[np.argmax(d2)]
            labels, d2 = _assign(x, centers)
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
        new_labels, d2 = _assign(x, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(d2.sum())
    return labels, inertia


def kmeans(e: Embedding, n_clusters: int, seed: Seed) -> ClusterResult:
    """Seeded k-means++ with the best of KMEANS_RESTARTS restarts by inertia.

    Restart r uses a generator derived from (seed, r), so results equal
    sequential execution no matter how restarts are scheduled. Empty
    clusters are re-seeded from the farthest point; if the data cannot
    support n_clusters distinct groups the result is flagged as collapsed.
    Non-finite vectors, on which no restart has a finite inertia, are refused.
    """
    x = e.vectors
    if not 1 <= n_clusters <= x.shape[0]:
        raise InputError(f"cluster count must be in [1, {x.shape[0]}], got {n_clusters}")
    if not np.isfinite(x).all():
        raise InputError("kmeans: embedding vectors must be finite")
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        labels, inertia = _lloyd(x, n_clusters, spawn_rng(seed, r))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    collapsed = np.unique(best_labels).size < n_clusters
    return ClusterResult(labels=best_labels, inertia=best_inertia, collapsed=collapsed)


def spectral_cluster(g: ReducedGraph, n_clusters: int,
                     seeds: Iterable[Seed]) -> Iterator[ClusterResult]:
    """Laplacian -> embedding -> one seeded `kmeans` per seed, yielded in order.

    The embedding ignores the seed: it is computed once, on the first request.
    """
    emb = embed(laplacian(g), n_clusters)
    for seed in seeds:
        yield kmeans(emb, n_clusters, seed)
