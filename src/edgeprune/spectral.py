"""Spectral clustering on a reduced graph.

The normalized Laplacian is block-diagonal over the graph's m connected
components, and its null space is spanned by one vector per component
(von Luxburg 2007, section 3). So when m >= C, the C smallest eigenpairs
are a slice of that null space and the partition is a statement about
components; an eigensolver would only add rounding, and which slice it
returns changes with the BLAS thread count. `spectral_cluster` therefore
looks at the components first:

  * the C largest components are the roots (largest first, ties to the
    lower component label), and every component in a root's tree of
    scipy's minimum spanning tree over a super-root takes the root's
    cluster (see `_component_partition`). Edges rank in (smallest
    distance in the graph's k-NN table, lower component, higher
    component) order, and one that would join two rooted trees is
    skipped. When m = C, the roots alone are the answer;
  * when m < C, or when some component reaches no root (as with any
    graph without a table and m > C), it falls back to NJW: Laplacian,
    eigenvectors of the smallest C eigenvalues with row normalization
    (a row of numerically zero norm, as an isolated vertex can give, is
    left zero), then seeded k-means with KMEANS_RESTARTS restarts.

The component path uses no seed, and its tree weighs edges by whole
ranks, exact in float64, so its labels are the same for every seed and
every thread count. The NJW path is deterministic for a fixed seed and
thread count: restarts draw from generators derived from (seed, restart
index), and the best restart is picked by strict inertia comparison.

k-means assigns points to centers the way `build_knn` ranks neighbors:
a Gram-identity screen on the calling thread, then the exact difference
form on the pairs the screen's rounding bound cannot rule out. Labels,
inertia and collapse are bit for bit those of the exact form on every
(point, center) pair.

k-means does its distance work once per distinct embedding row: row
normalization maps each connected component to one point, so thousands
of rows may share a few hundred bit patterns. The k-means++ distance
passes and every assignment run on the distinct rows and are spread back
to all N points. The bits hold because a row's distance to a center
depends only on the row's bits and on how its squares are summed, and
the distinct rows keep x's memory order, so they are summed as x's rows
are. Everything that depends on the number of copies of a row stays
N-long: the seeding's draw probabilities and their sum, the cluster
means, the empty-cluster reseed and the inertia.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .data import Seed, spawn_rng
from .errors import InputError, NumericError
from .knn import _screen_slack
from .reduce import ReducedGraph, n_components

log = logging.getLogger(__name__)

# Above this size the dense symmetric solver gives way to an iterative
# smallest-eigenpair method.
DENSE_EIG_LIMIT = 3000

_ZERO_ROW_TOL = 1e-12
KMEANS_MAX_ITER = 300
KMEANS_RESTARTS = 10


@dataclass(frozen=True, eq=False)
class Embedding:
    """Spectral coordinates: each row is unit length, or zero where the
    eigenvectors leave it numerically zero (an isolated vertex)."""

    vectors: np.ndarray     # (N, C)
    eigenvalues: np.ndarray  # ascending, length C


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """One clustering: a label per vertex, with the k-means inertia and
    collapse flag. On the component path there is no k-means: the inertia
    is 0 and `collapsed` is False."""

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
    and counted in the DEBUG line. `lap` may be dense or sparse; it is read
    as CSR, and a dense array is never modified. Up to DENSE_EIG_LIMIT
    vertices it is solved densely, above it by LOBPCG; any residual
    |Lv - lambda v| above 1e-6 is a NumericError.
    """
    lap = scipy.sparse.csr_matrix(lap)
    n = lap.shape[0]
    if not 2 <= n_clusters <= n:
        raise InputError(f"cluster count must be in [2, {n}], got {n_clusters}")
    solve = _dense_smallest if n <= DENSE_EIG_LIMIT else _iterative_smallest
    vals, vecs, solver = solve(lap, n_clusters)
    worst = float(np.linalg.norm(lap @ vecs - vecs * vals, axis=0).max())
    if not worst <= 1e-6:  # NaN fails this test too
        raise NumericError(f"eigensolver failed to converge: residual {worst:.3e}")
    if not vals[0] >= -1e-9:  # NaN fails this test too
        raise NumericError(f"Laplacian not PSD: smallest eigenvalue {vals[0]:.3e}")
    norms = np.linalg.norm(vecs, axis=1)
    zero = norms <= _ZERO_ROW_TOL
    vectors = vecs / np.where(zero, 1.0, norms)[:, None]
    vectors[zero] = 0.0
    log.debug("embed: N=%d, C=%d, %s solver, worst residual %.3g, largest eigenvalue %r, "
              "%d zero rows", n, n_clusters, solver, worst, float(vals[-1]), zero.sum())
    return Embedding(vectors=vectors, eigenvalues=np.asarray(vals, dtype=np.float64))


def _dense_smallest(lap, k: int):
    """The k smallest eigenpairs of a dense copy of lap, and the solver's name.

    scipy's `eigh` with `subset_by_index` runs LAPACK's MRRR routine
    (`evr`), which computes only the k wanted pairs but can fail with
    "Internal Error" on degenerate spectra, such as a null space of many
    components. numpy's `eigh`, LAPACK's divide and conquer (`evd`), then
    solves a fresh copy (the failed call may have overwritten its matrix)
    for all pairs, at about twice the time, and the k smallest are kept.
    If that fails too, the solve is a NumericError.
    """
    # In Fortran order eigh works on the array itself rather than on a
    # hidden copy, so no second N x N copy is made unless this solve fails.
    try:
        vals, vecs = scipy.linalg.eigh(lap.toarray(order="F"), subset_by_index=[0, k - 1],
                                       overwrite_a=True)
        return vals, vecs, "dense"
    except scipy.linalg.LinAlgError:
        pass  # solved again below
    try:
        vals, vecs = np.linalg.eigh(lap.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dense eigensolver failed: {exc}") from exc
    return vals[:k], vecs[:, :k], "dense (evd after evr failed)"


def _iterative_smallest(lap, k: int):
    """The k smallest eigenpairs by blocked iteration (LOBPCG), and the solver's name.

    A block of k vectors resolves degenerate eigenvalues (one zero per
    connected component) that single-vector Lanczos would miss. The
    starting block is drawn from a fixed seed, so results are
    reproducible.
    """
    n = lap.shape[0]
    x0 = np.random.default_rng(np.random.SeedSequence(0x5EED)).standard_normal((n, k))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `embed` checks convergence by residuals
        vals, vecs = scipy.sparse.linalg.lobpcg(lap, x0, largest=False,
                                                tol=1e-10, maxiter=5000)
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order], "LOBPCG"


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
    # Coordinates above about 1e154 overflow the squares; the non-finite
    # values that follow make candidates, as above, so they are not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        # Screened values are laid out (C, N), so the minimum over centers
        # runs as C - 1 passes along contiguous rows, not N reductions of
        # length C.
        norm_sums = (centers * centers).sum(axis=1)[:, None] + (x * x).sum(axis=1)
        # einsum without `optimize` never calls BLAS, so no worker threads
        # are left spinning (see the knn module docstring). Unlike the k-NN
        # screen, k-means stays on the calling thread: its restarts on a
        # thread pool saved about a tenth of a call, nothing measurable per
        # command, and cost resident memory.
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


def _distinct_rows(x: np.ndarray):
    """The distinct rows of x by bit pattern, and each row's index among them.

    The distinct rows keep x's memory order, so that each one's squares are
    summed as x's own rows are. A single row would be both C- and
    F-contiguous, and numpy sums a contiguous row pairwise; an F-ordered
    x with one distinct row therefore keeps two copies of it. When every
    row is distinct, x itself is returned.
    """
    rows = np.ascontiguousarray(x)
    # One opaque key per row, also when x has no columns.
    keys = np.ndarray(len(rows), np.dtype((np.void, rows.itemsize * rows.shape[1])), rows)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(x):
        return x, np.arange(len(x))
    if abs(x.strides[0]) < abs(x.strides[1]):
        return np.asfortranarray(x[first if len(first) > 1 else first.repeat(2)]), inverse
    return x[first], inverse


def _plus_plus_init(x: np.ndarray, u: np.ndarray, inverse: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of x, with its distances computed on x's distinct rows u."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    # An overflowing distance makes the total non-finite, which is refused.
    with np.errstate(over="ignore"):
        near = ((u - centers[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            d2 = near[inverse]
            total = d2.sum()
            if not np.isfinite(total):
                raise InputError("kmeans: squared distances between vectors overflow")
            if total > 0:
                idx = rng.choice(n, p=d2 / total)
            else:
                idx = rng.integers(n)  # all remaining points coincide with a center
            centers[j] = x[idx]
            near = np.minimum(near, ((u - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, u: np.ndarray, inverse: np.ndarray, k: int,
           rng: np.random.Generator):
    def assign(centers):
        labels, d2 = _assign(u, centers)
        return labels[inverse], d2[inverse]

    centers = _plus_plus_init(x, u, inverse, k, rng)
    labels, d2 = assign(centers)
    # An iteration starts from the centers alone (labels and d2 are their
    # assignment), so once a centers state comes back the run is periodic:
    # whole periods are skipped, which leaves every bit as running them.
    seen: dict[bytes, int] = {}
    it = 0
    while it < KMEANS_MAX_ITER:
        state = centers.tobytes()
        if state in seen:
            period = it - seen[state]
            it += (KMEANS_MAX_ITER - it) // period * period
            if it == KMEANS_MAX_ITER:
                break
        seen[state] = it
        it += 1
        # Re-seed any empty cluster from the point farthest from its center.
        for _ in range(k):
            counts = np.bincount(labels, minlength=k)
            empty = np.nonzero(counts == 0)[0]
            if empty.size == 0:
                break
            centers[empty[0]] = x[np.argmax(d2)]
            labels, d2 = assign(centers)
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
        new_labels, d2 = assign(centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(d2.sum())
    return labels, inertia


def kmeans(x: np.ndarray, n_clusters: int, seed: Seed) -> ClusterResult:
    """Seeded k-means++ on the rows of x, the best of KMEANS_RESTARTS restarts by inertia.

    Restart r uses a generator derived from (seed, r), so results equal
    sequential execution no matter how restarts are scheduled. Empty
    clusters are re-seeded from the farthest point; if the data cannot
    support n_clusters distinct groups the result is flagged as collapsed.
    Non-finite vectors, on which no restart has a finite inertia, are refused,
    and so are vectors whose squared distances overflow.
    """
    if not 1 <= n_clusters <= x.shape[0]:
        raise InputError(f"cluster count must be in [1, {x.shape[0]}], got {n_clusters}")
    if not np.isfinite(x).all():
        raise InputError("kmeans: embedding vectors must be finite")
    u, inverse = _distinct_rows(x)
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        labels, inertia = _lloyd(x, u, inverse, n_clusters, spawn_rng(seed, r))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    collapsed = np.unique(best_labels).size < n_clusters
    log.debug("kmeans: %d distinct rows of %d, best inertia %r, collapsed %s",
              inverse.max() + 1, x.shape[0], best_inertia, collapsed)
    return ClusterResult(labels=best_labels, inertia=best_inertia, collapsed=collapsed)


def _component_partition(g: ReducedGraph, n_clusters: int):
    """The partition the graph's components decide, if they decide one.

    Returns (labels, m, unlinked): labels by cluster rank (0 is the
    largest root), or None when the eigensolver has to decide; m the
    component count; unlinked the components that reach no root.

    Each pair of components the table links gets an edge weighing its
    rank + 1 in (smallest distance, lower id, higher id) order. A
    super-root, vertex m, is tied to each of the C roots at weight 0.5.
    Each (m, root) edge is lighter than every other edge on any cycle
    through it, so it lies on every spanning tree; the other weights are
    distinct, so the minimum spanning tree is unique. It is therefore the
    forest Kruskal grows from the roots in that order, where an edge
    between two rooted trees closes a cycle through m and is skipped.
    Without m, a tree's cluster is the rank of its root, if it has one.
    """
    m = n_components(g)
    if m < n_clusters:
        return None, m, 0
    roots = np.argsort(-np.bincount(g.components), kind="stable")[:n_clusters]
    pair = rank = np.empty(0, dtype=np.int64)
    if g.table is not None:
        a, b = np.repeat(g.components, g.table.k_max), g.components[g.table.indices.ravel()]
        cross = np.flatnonzero(a != b)
        a, b = a[cross], b[cross]
        pair = np.minimum(a, b).astype(np.int64) * m + np.maximum(a, b)
        # A pair's first position in (distance, pair) order is its rank.
        by_key = np.lexsort((pair, g.table.distances.ravel()[cross]))
        pair, rank = np.unique(pair[by_key], return_index=True)
    lo, hi = np.divmod(pair, m)
    edges = scipy.sparse.csr_matrix(
        (np.concatenate([rank + 1.0, np.full(n_clusters, 0.5)]),
         (np.concatenate([lo, np.full(n_clusters, m)]), np.concatenate([hi, roots]))),
        shape=(m + 1, m + 1))
    forest = minimum_spanning_tree(edges)[:m, :m]
    tree = connected_components(forest, directed=False)[1]
    cluster = np.full(m, -1, dtype=np.int64)
    cluster[tree[roots]] = np.arange(n_clusters)
    cluster = cluster[tree]
    unlinked = int((cluster < 0).sum())
    return (None if unlinked else cluster[g.components]), m, unlinked


def spectral_cluster(g: ReducedGraph, n_clusters: int,
                     seeds: Iterable[Seed]) -> Iterator[ClusterResult]:
    """One clustering of g per seed, yielded in order.

    Nothing runs before the first result is asked for. When the graph's
    components decide the partition (see the module docstring), every
    seed gets it, with inertia 0. Otherwise the graph is embedded once
    (Laplacian -> `embed`) and each seed gets its own `kmeans`.
    """
    if not 2 <= n_clusters <= g.n:
        raise InputError(f"cluster count must be in [2, {g.n}], got {n_clusters}")
    labels, m, unlinked = _component_partition(g, n_clusters)
    path = ("eigensolver" if labels is None
            else "components" if m == n_clusters else "merged")
    log.debug("spectral_cluster: N=%d, m=%d components for C=%d, %s path, "
              "%d unlinked components", g.n, m, n_clusters, path, unlinked)
    if labels is not None:
        for _ in seeds:
            yield ClusterResult(labels=labels.copy(), inertia=0.0)
        return
    emb = embed(laplacian(g), n_clusters)
    for seed in seeds:
        yield kmeans(emb.vectors, n_clusters, seed)
