"""Locally scaled affinities and the adaptive edge-reduction pipeline.

The pipeline, `reduce_graph`, turns a point set into a sparse mutual graph
in four steps: exact k-NN table, per-point local scales (adaptive, or the
fixed 7th-neighbor distance of comparison runs), pairwise affinities
exp(-d^2 / (sigma_p * sigma_q)) over each point's neighbor row, and a
per-row statistical threshold followed by mutual agreement. A row keeps
its strongest entries: if the row maximum exceeds mean + std the cutoff
is mean + std, otherwise mean - std (population std in both cases);
entries at or above the cutoff survive, so the maximum always does. An
edge enters the final graph only when it survived the rows of both of
its endpoints.

The graph reads only ratios: scaling every coordinate by a power of 2
leaves it invariant, or refused where a distance or a scale product leaves
float64's normal range (bar a subnormal square in a normal distance sum).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.sparse.csgraph import connected_components

from .data import PointSet
from .errors import InputError
from .knn import NeighborTable, build_knn
from .scale import LocalScales, compute_scales, seventh_neighbor_scales

DEFAULT_K_MAX = 50


@dataclass(frozen=True, eq=False)
class ReducedGraph:
    """Sparse mutual affinity graph on n vertices.

    Edges are stored as ordered pairs (both directions of every mutual
    edge), lexicographically sorted. The directed survivor set from
    before mutual agreement is kept for diagnostics. `table` and `scales`
    are the k-NN table and the local scales the graph was built from, when
    it was built from them: references, never saved. The spectral back end
    merges components over the table.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    directed_src: np.ndarray
    directed_dst: np.ndarray
    directed_weight: np.ndarray
    table: NeighborTable | None = field(default=None, repr=False)
    scales: LocalScales | None = field(default=None, repr=False)

    def __post_init__(self):
        for arr in (self.src, self.dst, self.weight,
                    self.directed_src, self.directed_dst, self.directed_weight):
            arr.setflags(write=False)
        if self.table is not None and self.table.n != self.n:
            raise InputError(f"graph has {self.n} vertices but its table {self.table.n} rows")

    @property
    def edge_count(self) -> int:
        """Number of ordered surviving pairs (mutual edges count twice)."""
        return int(self.src.shape[0])

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def pairs(self) -> np.ndarray:
        """Unordered mutual edges, each once, as (P, 2) int64 rows p < q, in edge order."""
        mask = self.src < self.dst
        return np.column_stack((self.src[mask], self.dst[mask]))

    def degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)

    @cached_property
    def components(self) -> np.ndarray:
        """`component_labels(self)`, found on first use and kept, read-only."""
        labels = component_labels(self)
        labels.setflags(write=False)
        return labels

    def to_sparse(self):
        from scipy.sparse import csr_matrix

        return csr_matrix((self.weight, (self.src, self.dst)), shape=(self.n, self.n))


def _scaled_exp(d, sigma_p, sigma_q):
    """exp(-d^2 / s) with s = sigma_p * sigma_q, elementwise, or InputError
    when some product s is not a normal float64 (finite, >= tiny = 2**-1022)."""
    with np.errstate(over="ignore"):  # products refused below; ratios give exp(-inf) = 0
        s = sigma_p * sigma_q
        if not (s.min() >= np.finfo(np.float64).tiny and np.isfinite(s.max())):
            raise InputError("scale products sigma_p * sigma_q leave float64's normal range")
        return np.exp(-(d * d) / s)


def affinity(d: float, sigma_p: float, sigma_q: float) -> float:
    """Similarity of two points: exp(-d^2 / (sigma_p * sigma_q)), in [0, 1].

    The scalar reference for `affinity_rows`, with its range rule."""
    if not np.isfinite(d):
        raise InputError("affinity: distance must be finite")
    if sigma_p <= 0 or sigma_q <= 0:
        raise InputError(f"affinity: scales must be positive, got {sigma_p}, {sigma_q}")
    return float(_scaled_exp(np.float64(d), np.float64(sigma_p), np.float64(sigma_q)))


def affinity_rows(nt: NeighborTable, ls: LocalScales) -> np.ndarray:
    """Affinity of every (point, neighbor) cell of the table, shape (N, k_max).

    Each scale product s = sigma_p * sigma_q is formed once and must be a
    normal float64 (finite, >= tiny = 2**-1022), or the input is refused.
    With d^2 0 or normal (`build_knn`, Range), scaling the coordinates by
    2**e then keeps the bits of r = d^2 / s. A subnormal s is off by up to
    eps tiny (eps = 2**-53), and where d > 0, d^2 >= tiny > s: r and exp(-r)
    are off by up to eps r^2 relative, 5.6e5 eps where exp(-r) > 0 (r < 745).
    """
    if ls.sigma.shape[0] != nt.n:
        raise InputError("affinity_rows: scales and table disagree on N")
    if np.any(ls.sigma <= 0):
        raise InputError("affinity_rows: scales must be positive")
    return _scaled_exp(nt.distances, ls.sigma[:, None], ls.sigma[nt.indices])


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


def mutualize(n: int, src, dst, weight) -> ReducedGraph:
    """Keep a directed survivor (p, q) only when (q, p) also survived.

    The inputs are parallel arrays of directed survivor edges; the output
    stores both directions of every mutual edge, each with the weight the
    forward survivor carried. Edges are found by their keys p*n + q, so
    n**2 must stay below 2**63; a larger n is refused.
    """
    if int(n) * int(n) >= 2**63:
        raise InputError(f"mutualize: {n} vertices give keys n * n of 2**63 or more")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    if src.shape != dst.shape or src.shape != weight.shape:
        raise InputError("mutualize: survivor arrays must have equal length")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise InputError("mutualize: vertex id out of range")
    keep = np.flatnonzero(src != dst)  # drop self-loops defensively
    # One stable sort of the directed survivors by key, which orders them
    # by (src, dst); the mutual edges are a subset and come out sorted too.
    key = src[keep] * n + dst[keep]
    by_key = np.argsort(key, kind="stable")
    order, key = keep[by_key], key[by_key]
    src, dst, weight = src[order], dst[order], weight[order]
    # An edge is mutual when its reverse key is among the sorted keys.
    reverse = dst * n + src
    mutual = key.take(np.searchsorted(key, reverse), mode="clip") == reverse
    return ReducedGraph(n=n, src=src[mutual], dst=dst[mutual], weight=weight[mutual],
                        directed_src=src, directed_dst=dst, directed_weight=weight)


def threshold_survivors(affinities: np.ndarray, nt: NeighborTable):
    """Directed survivor arrays (src, dst, weight) from per-row thresholding.

    All rows are thresholded at once; the survivors of row p are those
    `threshold_row(affinities[p])` keeps, in row order, with rows in
    ascending order. The rows are read in C order, as `threshold_row`
    reads each one: their sums then add the same terms in the same order.
    """
    affinities = np.ascontiguousarray(affinities)
    mu = affinities.mean(axis=1)
    sd = affinities.std(axis=1)
    high = affinities.max(axis=1) > mu + sd
    t = np.where(high, mu + sd, mu - sd)
    src, col = np.nonzero(affinities >= t[:, None])
    return src, nt.indices[src, col], affinities[src, col]


def graph_from_table(nt: NeighborTable, seventh_neighbor: bool = False) -> ReducedGraph:
    """Table-to-graph half of the pipeline: scales -> affinities -> threshold -> mutual.

    The scales are `compute_scales`, or with `seventh_neighbor` the fixed
    `seventh_neighbor_scales` of comparison runs; the graph keeps them and the table.
    """
    ls = seventh_neighbor_scales(nt) if seventh_neighbor else compute_scales(nt)
    a = affinity_rows(nt, ls)
    return replace(mutualize(nt.n, *threshold_survivors(a, nt)), table=nt, scales=ls)


def mutual_knn_graph(nt: NeighborTable) -> ReducedGraph:
    """The comparison foil: unit-weight edge iff each point is in the other's k-NN."""
    src = np.repeat(np.arange(nt.n, dtype=np.int64), nt.k_max)
    return replace(mutualize(nt.n, src, nt.indices.ravel(), np.ones(src.size)), table=nt)


def default_k_max(n: int) -> int:
    """k_max of an n-point run that sets none: min(n - 1, DEFAULT_K_MAX). The
    reduction, not k_max, decides which edges survive, so it need only be generous."""
    return min(n - 1, DEFAULT_K_MAX)


def reduce_graph(ps: PointSet, k_max: int | None = None,
                 seventh_neighbor: bool = False) -> ReducedGraph:
    """Full reduction pipeline: k-NN -> scales -> affinities -> threshold -> mutual.

    `graph_from_table` on the table of `build_knn(ps, k_max)`; k_max
    defaults to `default_k_max(N)`, and `seventh_neighbor` picks the scales."""
    nt = build_knn(ps, default_k_max(ps.n) if k_max is None else k_max)
    return graph_from_table(nt, seventh_neighbor)


def component_labels(g: ReducedGraph) -> np.ndarray:
    """Connected-component label per vertex; isolated vertices get their own."""
    return connected_components(g.to_sparse(), directed=False)[1]


def n_components(g: ReducedGraph) -> int:
    return int(g.components.max()) + 1 if g.n else 0


def save_graph(g: ReducedGraph, path, k_max: int | None = None,
               seed: int | None = None) -> None:
    """Write a graph as a JSON header line followed by 'p q w' edge lines.

    Weights carry 17 significant digits, so a load reproduces them
    bit-exactly. Directed survivors are diagnostics and are not stored.
    """
    header = {"n": g.n, "edges": g.edge_count, "k_max": k_max, "seed": seed}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for p, q, w in zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist()):
            fh.write(f"{p} {q} {w:.17g}\n")


def load_graph(path) -> tuple[ReducedGraph, dict]:
    """Read a graph written by save_graph; returns (graph, header).

    Raises InputError unless the header is a JSON object with an integer
    vertex count "n" >= 0 and an integer edge count "edges" equal to the
    number of edge lines, every edge id is an integer in [0, n), every
    weight is finite and positive, and every edge (p, q, w) has its
    reverse (q, p, w), as save_graph writes it. The edges come back
    sorted by (p, q, w), whatever the line order of the file. The loaded
    graph's directed survivor set is set equal to its edge set, which
    preserves every stored invariant.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: missing JSON header line") from exc
        if not isinstance(header, dict):
            raise InputError(f"{path}: header line is not a JSON object")
        n = header.get("n")
        if type(n) is not int or n < 0:
            raise InputError(f"{path}: header vertex count 'n' must be an integer >= 0, "
                             f"got {n!r}")
        src, dst, weight = [], [], []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                p, q, w = line.split()
                src.append(int(p))
                dst.append(int(q))
                weight.append(float(w))
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: expected 'p q w' with integer "
                                 f"ids and a numeric weight") from exc
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    edges = header.get("edges")
    if type(edges) is not int or edges != len(src):
        raise InputError(f"{path}: header edge count {edges} "
                         f"does not match {len(src)} edge lines")
    if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise InputError(f"{path}: vertex id outside [0, {n})")
    if not np.all(np.isfinite(weight) & (weight > 0)):
        raise InputError(f"{path}: edge weights must be finite and positive")
    fwd, rev = np.lexsort((weight, dst, src)), np.lexsort((weight, src, dst))
    if not (np.array_equal(src[fwd], dst[rev]) and np.array_equal(dst[fwd], src[rev])
            and np.array_equal(weight[fwd], weight[rev])):
        raise InputError(f"{path}: graph is not symmetric: some edge (p, q, w) "
                         f"has no reverse edge (q, p, w)")
    src, dst, weight = src[fwd], dst[fwd], weight[fwd]
    g = ReducedGraph(n=n, src=src, dst=dst, weight=weight,
                     directed_src=src, directed_dst=dst, directed_weight=weight)
    return g, header
