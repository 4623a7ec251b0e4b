"""The paper's reduction as written, one point at a time: the tests' oracle.

The package runs each stage on whole tables. This module states the same
rules per point, in the plainest numpy, and `reference_graph` chains them
from points to the mutual graph. The library's stages must equal it bit
for bit. It uses only the package's public names (`tests/test_tooling.py`
checks), so it never shares code with the stages it checks:

1. `allpairs_oracle`: every pairwise distance, each row sorted by
   (distance, index).
2. `quantile_width`: the Freedman-Diaconis width of the whole table, from
   `np.quantile`.
3. `local_scale_row`: each point's scale, read off its own histogram up
   to the first spike (`mwa_smooth`), or the distance to its 7th
   neighbour.
4. Each row's affinities exp(-d^2 / (sigma_p sigma_q)).
5. `threshold_row`: each row's mean +- std cutoff, then mutual agreement
   over a set of directed survivors.
6. `prim_partition`: the component path of the spectral back end, one
   merge at a time; `reference_partition` runs it on the graph of 1-5.
   It numbers the components with the package's `component_labels`,
   which `tests/test_reduce.py` checks against scipy's.
"""

from __future__ import annotations

import math

import numpy as np

from edgeprune import Histogram, InputError, NeighborTable, ReducedGraph, build_histogram
from edgeprune.reduce import component_labels


def allpairs_oracle(points, k):
    """Independent k-NN: full distance matrix plus a (distance, index) sort."""
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    idx = np.lexsort((np.tile(np.arange(n), (n, 1)), dist), axis=1)[:, :k]
    return np.take_along_axis(dist, idx, axis=1), idx


def quantile_width(values) -> float:
    """`fd_bin_width`'s rule with numpy's own quartiles: the oracle."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.min() == v.max():
        return 1.0
    q25, q75 = np.quantile(v, [0.25, 0.75])
    iqr = float(q75 - q25)
    if iqr == 0.0:
        return (float(v.max()) - float(v.min())) / math.ceil(math.sqrt(v.size))
    return 2.0 * iqr * v.size ** (-1.0 / 3.0)


def mwa_smooth(h: Histogram) -> np.ndarray:
    """Rank-weighted moving average of bin counts.

    MWA_i = (v_{i-1} + v_i + v_{i+1}) / (r_{i-1} + r_i + r_{i+1}) with the
    1-based bin ranks r_i = i; at the boundaries the missing neighbor
    terms drop out of both sums.
    """
    v = np.asarray(h.counts, dtype=np.float64)
    r = np.arange(1, v.size + 1, dtype=np.float64)
    num = v.copy()
    den = r.copy()
    num[1:] += v[:-1]
    den[1:] += r[:-1]
    num[:-1] += v[1:]
    den[:-1] += r[1:]
    return num / den


def local_scale_row(row_distances, bin_width: float) -> tuple[float, int]:
    """Scale and neighbor cutoff for one point's ascending distance row.

    Returns (sigma_p, K). K counts the neighbors that fall before the
    first histogram bin whose raw count strictly exceeds its smoothed
    value; if there is no such bin, if it is the first bin, or if no
    neighbor precedes it, K falls back to the full row. A zero mean
    (duplicate points) falls back to the smallest positive distance in
    the row, or to the bin width when every distance is zero.

    This is the per-row reference that `compute_scales` reproduces
    bit-for-bit on every row of a table. A row that would need more than
    MAX_BINS bins raises NumericError here.
    """
    row = np.asarray(row_distances, dtype=np.float64).ravel()
    if row.size == 0:
        raise InputError("local_scale_row: empty row")
    k_max = row.size
    hist = build_histogram(row, bin_width)
    mwa = mwa_smooth(hist)
    spikes = np.nonzero(hist.counts > mwa)[0]
    if spikes.size == 0 or spikes[0] == 0:
        k = k_max
    else:
        k = int(hist.counts[: spikes[0]].sum())
        if k == 0:
            k = k_max
    sigma = float(row[:k].mean())
    if sigma == 0.0:
        positive = row[row > 0]
        sigma = float(positive.min()) if positive.size else float(bin_width)
    return sigma, k


def threshold_row(row) -> tuple[np.ndarray, float]:
    """Indices of surviving entries of one affinity row, and the cutoff t.

    With mu and sd the row's mean and population std, t is mu + sd when
    max > mu + sd (strictly), otherwise mu - sd; entries >= t survive, so
    the kept set is never empty. This is the per-row reference that
    `threshold_survivors` reproduces on every row of an affinity table.
    """
    row = np.asarray(row, dtype=np.float64).ravel()
    if row.size == 0:
        raise InputError("threshold_row: empty row")
    mu = float(row.mean())
    sd = float(row.std())
    t = mu + sd if float(row.max()) > mu + sd else mu - sd
    return np.nonzero(row >= t)[0], t


def reference_graph(points, k_max: int, seventh_neighbor: bool = False):
    """The mutual graph of `reduce_graph(PointSet(points), k_max, seventh_neighbor)`,
    as (src, dst, weight): both directions of every mutual edge, sorted by (src, dst).

    Raises InputError where the pipeline refuses the input: k_max outside
    [1, N - 1], a table distance whose square overflows, one below 2**-511
    between distinct points (its square is not a normal float64), or a
    scale product that is not a normal float64. A row whose histogram
    would need more than MAX_BINS bins raises NumericError here, where the
    pipeline scales it.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if not 1 <= k_max <= n - 1:
        raise InputError(f"k_max must be in [1, {n - 1}], got {k_max}")
    with np.errstate(over="ignore"):
        dist, idx = allpairs_oracle(points, k_max)
    for p in range(n):
        for d, q in zip(dist[p].tolist(), idx[p].tolist()):
            if d < 2.0**-511 and not np.array_equal(points[p], points[q]):
                raise InputError("squared distances between points underflow float64")
            if not np.isfinite(d):
                raise InputError("squared distances between points overflow float64")

    width = quantile_width(dist)
    sigma = np.empty(n)
    for p in range(n):
        if seventh_neighbor:
            sigma[p] = dist[p, min(7, k_max) - 1]
            if sigma[p] <= 0:
                sigma[p] = width
        else:
            sigma[p] = local_scale_row(dist[p], width)[0]

    directed = {}
    for p in range(n):
        d = dist[p]
        with np.errstate(over="ignore"):
            s = sigma[p] * sigma[idx[p]]
            if not (np.all(s >= np.finfo(np.float64).tiny) and np.all(np.isfinite(s))):
                raise InputError("scale products sigma_p * sigma_q leave float64's normal range")
            affinities = np.exp(-(d * d) / s)
        for j in threshold_row(affinities)[0].tolist():
            directed[p, int(idx[p, j])] = float(affinities[j])

    mutual = sorted((p, q) for p, q in directed if (q, p) in directed)
    src = np.array([p for p, _ in mutual], dtype=np.int64)
    dst = np.array([q for _, q in mutual], dtype=np.int64)
    weight = np.array([directed[e] for e in mutual], dtype=np.float64)
    return src, dst, weight


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


def reference_partition(points, k_max: int, n_clusters: int, seventh_neighbor: bool = False):
    """`prim_partition` of `reference_graph`'s edges over the all-pairs table:
    the labels `spectral_cluster(reduce_graph(PointSet(points), k_max,
    seventh_neighbor), n_clusters, seeds)` gives every seed, or None where
    the components do not decide and the eigensolver does."""
    points = np.asarray(points, dtype=np.float64)
    src, dst, weight = reference_graph(points, k_max, seventh_neighbor)
    dist, idx = allpairs_oracle(points, k_max)
    g = ReducedGraph(len(points), src, dst, weight, src, dst, weight,
                     table=NeighborTable(distances=dist, indices=idx))
    return prim_partition(g, n_clusters)
