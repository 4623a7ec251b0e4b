"""Spectral clustering on a reduced graph.

Symmetric normalized Laplacian, eigenvectors of the smallest C
eigenvalues with row normalization, then seeded k-means with restarts.
Everything is deterministic for a fixed seed: restarts draw from
generators derived from (seed, restart index), and the best restart is
picked by strict inertia comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .data import Seed, spawn_rng
from .errors import InputError, NumericError
from .reduce import ReducedGraph, n_components

# Above this size the dense symmetric solver gives way to an iterative
# smallest-eigenpair method.
DENSE_EIG_LIMIT = 3000

_ZERO_ROW_TOL = 1e-12
KMEANS_MAX_ITER = 300


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
    n_components: int | None = None
    collapsed: bool = False


def laplacian(g: ReducedGraph, sparse: bool = False):
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Isolated vertices (zero degree) get an all-zero row, the convention
    that keeps the zero-eigenvalue multiplicity equal to the number of
    connected components, singletons included. The matrix is exactly
    symmetric: the scaling factor for the (p, q) entry is the product
    d_p * d_q, identical in both orders. It is built as CSR, where
    repeated ordered pairs add up as they do in the degrees; sparse=False
    returns that matrix densified.
    """
    deg = np.zeros(g.n, dtype=np.float64)
    np.add.at(deg, g.src, g.weight)
    inv_sqrt = np.zeros(g.n, dtype=np.float64)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    scale = inv_sqrt[g.src] * inv_sqrt[g.dst]
    off = scipy.sparse.csr_matrix((scale * g.weight, (g.src, g.dst)), shape=(g.n, g.n))
    lap = scipy.sparse.diags(np.where(nz, 1.0, 0.0), format="csr") - off
    return lap if sparse else lap.toarray()


def embed(lap, n_clusters: int) -> Embedding:
    """Eigenvectors of the C smallest eigenvalues, rows normalized to unit length.

    Rows whose norm is numerically zero (isolated vertices) are left zero
    and reported in `zero_rows`. `lap` may be dense or sparse: up to
    DENSE_EIG_LIMIT vertices it is solved densely, above it by LOBPCG.
    """
    n = lap.shape[0]
    if not 2 <= n_clusters <= n:
        raise InputError(f"cluster count must be in [2, {n}], got {n_clusters}")
    if n <= DENSE_EIG_LIMIT:
        dense = lap.toarray() if scipy.sparse.issparse(lap) else np.asarray(lap)
        vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, n_clusters - 1])
    else:
        vals, vecs = _iterative_smallest(lap, n_clusters)
    if vals[0] < -1e-9:
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
    if not scipy.sparse.issparse(lap):
        lap = scipy.sparse.csr_matrix(lap)
    x0 = np.random.default_rng(np.random.SeedSequence(0x5EED)).standard_normal((n, k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # convergence is checked via residuals
        vals, vecs = scipy.sparse.linalg.lobpcg(lap, x0, largest=False,
                                                tol=1e-10, maxiter=5000)
    residual = lap @ vecs - vecs * vals
    worst = float(np.linalg.norm(residual, axis=0).max())
    if worst > 1e-6:
        raise NumericError(f"eigensolver failed to converge: residual {worst:.3e}")
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def _assign(x: np.ndarray, centers: np.ndarray):
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2


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
            point_d2 = d2[np.arange(x.shape[0]), labels]
            centers[empty[0]] = x[np.argmax(point_d2)]
            labels, d2 = _assign(x, centers)
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
        new_labels, d2 = _assign(x, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(d2[np.arange(x.shape[0]), labels].sum())
    return labels, inertia


def kmeans(e: Embedding, n_clusters: int, seed: Seed, restarts: int = 10) -> ClusterResult:
    """Seeded k-means++ with best-of-restarts by inertia.

    Restart r uses a generator derived from (seed, r), so results equal
    sequential execution no matter how restarts are scheduled. Empty
    clusters are re-seeded from the farthest point; if the data cannot
    support n_clusters distinct groups the result is flagged as collapsed.
    """
    x = e.vectors
    if n_clusters > x.shape[0]:
        raise InputError("more clusters than points")
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        labels, inertia = _lloyd(x, n_clusters, spawn_rng(seed, r))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    collapsed = np.unique(best_labels).size < n_clusters
    return ClusterResult(labels=best_labels, inertia=best_inertia, collapsed=collapsed)


def embed_graph(g: ReducedGraph, n_clusters: int) -> Embedding:
    """Spectral coordinates of a reduced graph: its Laplacian, embedded.

    This is the seed-independent half of `spectral_cluster`; callers that
    cluster one graph under several seeds embed it once and run `kmeans`
    per seed.
    """
    return embed(laplacian(g, sparse=True), n_clusters)


def spectral_cluster(g: ReducedGraph, n_clusters: int, seed: Seed,
                     restarts: int = 10) -> ClusterResult:
    """Cluster a reduced graph: Laplacian -> embedding -> seeded k-means."""
    result = kmeans(embed_graph(g, n_clusters), n_clusters, seed, restarts)
    return replace(result, n_components=n_components(g))
