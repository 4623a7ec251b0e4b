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

A graph's connected components are labelled in numpy, by hooking and
pointer jumping, and numbered as scipy's `connected_components` numbers
them; only `ReducedGraph.to_sparse` imports scipy.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import PointSet
from .errors import InputError
from .knn import NeighborTable, build_knn
from .scale import LocalScales, compute_scales, seventh_neighbor_scales

log = logging.getLogger(__name__)

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


def affinity_rows(nt: NeighborTable, ls: LocalScales) -> np.ndarray:
    """Affinity exp(-d^2 / (sigma_p * sigma_q)), in [0, 1], of every
    (point, neighbor) cell of the table, shape (N, k_max).

    Each scale product s = sigma_p * sigma_q is formed once and must be a
    normal float64 (finite, >= tiny = 2**-1022), or the input is refused.
    With d^2 0 or normal (`build_knn`, Range), scaling the coordinates by
    2**e then keeps the bits of r = d^2 / s. A subnormal s is off by up to
    eps tiny (eps = 2**-53), and where d > 0, d^2 >= tiny > s: r and exp(-r)
    are off by up to eps r^2 relative, 5.6e5 eps where exp(-r) > 0 (r < 745).

    s is formed in place over the gathered sigma_q, and d^2 in one more
    table-sized buffer, which is divided, negated and exponentiated in
    place. Negating the quotient, not d^2, keeps the bits of
    exp(-(d * d) / s): rounding is symmetric in the sign.
    """
    if ls.sigma.shape[0] != nt.n:
        raise InputError("affinity_rows: scales and table disagree on N")
    if np.any(ls.sigma <= 0):
        raise InputError("affinity_rows: scales must be positive")
    s = ls.sigma[nt.indices]
    with np.errstate(over="ignore"):  # products refused below; ratios give exp(-inf) = 0
        np.multiply(s, ls.sigma[:, None], out=s)
        if not (s.min() >= np.finfo(np.float64).tiny and np.isfinite(s.max())):
            raise InputError("scale products sigma_p * sigma_q leave float64's normal range")
        r = np.multiply(nt.distances, nt.distances)
        np.divide(r, s, out=r)
        np.negative(r, out=r)
        return np.exp(r, out=r)


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

    All rows are thresholded at once. With mu and sd a row's mean and
    population std, its cutoff t is mu + sd when max > mu + sd (strictly),
    otherwise mu - sd; entries >= t survive, so no row is left empty. The
    survivors come in row order, with rows in ascending order. The rows are
    read in C order, as a single row is: each row's sums then add the same
    terms in the same order as the per-row rule in `tests/reference.py`.
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
    The affinity table is freed before `mutualize` runs.
    """
    ls = seventh_neighbor_scales(nt) if seventh_neighbor else compute_scales(nt)
    survivors = threshold_survivors(affinity_rows(nt, ls), nt)
    return replace(mutualize(nt.n, *survivors), table=nt, scales=ls)


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


def connected_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each of n vertices under the undirected edges (src, dst).

    Components are numbered 0, 1, ... in the order of their lowest vertex,
    as scipy's `connected_components` numbers them, and the labels are
    int32, as scipy's are. Self-loops and repeated edges change nothing.

    Every vertex points to a parent with a lower id, so each tree's root
    is its lowest vertex. A round hooks every root that an edge leaves to
    the lowest root across those edges, then jumps pointers until each
    vertex points at its root. Each edge is carried as the roots of its
    ends, and dropped once they are one.
    """
    parent, a, b = np.arange(n), src, dst
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        parent = _roots(parent)
        a, b = parent[a], parent[b]
        cross = np.flatnonzero(a != b)
        a, b = a[cross], b[cross]
    return (np.cumsum(parent == np.arange(n), dtype=np.int32) - 1)[parent]


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each vertex's root in a forest given by parent pointers (roots point at themselves)."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return parent
        parent = up


def component_labels(g: ReducedGraph) -> np.ndarray:
    """Connected-component label per vertex; isolated vertices get their own."""
    forward = g.src < g.dst  # each edge once; self-loops join nothing
    labels = connected_components(g.n, g.src[forward], g.dst[forward])
    if log.isEnabledFor(logging.DEBUG):  # the counts cost a pass over the edges
        sizes = np.bincount(labels)
        log.debug("component_labels: N=%d, m=%d components, largest %d vertices, "
                  "%d isolated vertices", g.n, sizes.size, sizes.max(initial=0),
                  g.n - np.count_nonzero(g.degrees()))
    return labels


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
