"""Positive/negative training-pair export for Siamese-style consumers.

Positives are exactly the mutual edges of the reduced graph, one record
per unordered pair. Negatives are chosen per point: a point with
positive degree d contributes its d farthest in-row neighbors that are
not graph edges. The counts therefore adapt to local density instead of
being fixed at some k. Selection is deterministic; the seed only breaks
ties among equal distances and drives the fallback sampling used when a
point's neighbor row has no non-edges left.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Seed, _spawn_choices, spawn_rng
from .errors import InputError
from .knn import NeighborTable
from .reduce import ReducedGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PairSet:
    """Training pairs as read-only (P, 2) int64 arrays, one pair per row."""

    positives: np.ndarray  # unordered mutual edges (p, q), p < q, each once
    negatives: np.ndarray  # (anchor, other); anchor's degree many, grouped by anchor

    def __post_init__(self):
        self.positives.setflags(write=False)
        self.negatives.setflags(write=False)

    @property
    def total(self) -> int:
        return len(self.positives) + len(self.negatives)


def export_pairs(g: ReducedGraph, nt: NeighborTable, seed: Seed) -> PairSet:
    """Build training pairs from a reduced graph and its neighbor table.

    Both inputs must come from the same point set. Points with zero
    positive degree contribute nothing (logged). When a point's row is
    exhausted (every neighbor is an edge), the remaining negatives are
    sampled uniformly from its non-neighbors; if even those run out the
    point simply gets fewer negatives.

    The table is read in its own order. One search of the graph's keys
    marks the cells that are edges (`_edge_cells`), and one sort orders
    each row: its non-edges farthest first, then its edges
    (`_farthest_first`). A point takes the first min(degree, non-edges)
    ids of its sorted row. No sparse matrix is built.

    A point costs O(degree + k_max) plus its draw, never O(N): its pool
    of non-neighbors is not built. The draw picks ranks in the pool, and
    the sorted blocked ids b (the point, its graph neighbors and its
    table row) map rank j to the id j + #{b : b - rank(b) <= j},
    since b - rank(b) counts the pool members below b. numpy's choice
    draws the same ranks from the pool's size as from the pool array,
    which it then indexes, so the sample is the same. Point p's ranks are
    `spawn_rng(seed, 1, p).choice(pool size, size=count, replace=False)`,
    computed for all short points at once by `data._spawn_choices`, which
    hands a point to that generator where numpy takes its tail shuffle
    (a pool above 10,000 and a count above pool // 50), where its count
    is above the number of short points or `_spawn_choices`' cap, or
    where Lemire's method redraws a word (checked on numpy 2.4.6).

    At DEBUG, one line gives the points with edges, the points that fell
    back, the ranks drawn and the points left short of negatives.
    """
    if g.n != nt.n:
        raise InputError(f"graph has {g.n} vertices but table has {nt.n} rows")
    n = g.n
    need = g.degrees()
    if log.isEnabledFor(logging.DEBUG):
        for p in np.flatnonzero(need == 0).tolist():
            log.debug("point %d has no mutual edges; contributes no pairs", p)

    edge = _edge_cells(g, nt)
    in_row = nt.k_max - np.count_nonzero(edge, axis=1)
    take = np.minimum(need, in_row)
    anchor = np.repeat(np.arange(n), take)
    other = _farthest_first(nt, seed, edge)[np.arange(nt.k_max) < take[:, None]]

    short = np.flatnonzero(in_row < need)
    drawn = np.empty(0, dtype=np.int64)
    if short.size:
        drawn_by, drawn = _fallback(g, need, short, nt.indices[short], in_row[short], seed)
        # Each point's sampled negatives go right after its in-row ones.
        at = np.searchsorted(anchor, drawn_by, side="right")
        anchor, other = np.insert(anchor, at, drawn_by), np.insert(other, at, drawn)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("export_pairs: %d of %d points have edges, %d fell back, %d ranks drawn, "
                  "%d short of negatives", np.count_nonzero(need), n, short.size, drawn.size,
                  np.count_nonzero(np.bincount(anchor, minlength=n) < need))
    return PairSet(positives=g.pairs(), negatives=np.column_stack((anchor, other)))


def _edge_cells(g, nt):
    """Whether each cell (p, q) of the table is an edge of `g`, shape (N, k_max).

    The graph's keys p * n + q are sorted, since its edges are, so one
    searchsorted finds every cell; the sentinel n * n tops them all.
    """
    n = g.n
    keys = np.append(g.src * n + g.dst, n * n)
    query = np.arange(n, dtype=np.int64)[:, None] * n + nt.indices
    found = np.searchsorted(keys, query)
    # Every query is below the sentinel, so every position is in range.
    return keys.take(found, out=found, mode="clip") == query


def _farthest_first(nt, seed, edge):
    """Each row's ids: its non-edges farthest first, then its edges.

    One sort of the keys (k_max - run + k_max * edge) * n + tie_rank[id],
    where run counts the row's distinct distances up to the cell (rows
    ascend), so the order is `lexsort((tie_rank[ids], -distances, edge))`.
    A key modulo n is tie_rank[id], a permutation, so the sorted keys give
    the ids themselves.
    """
    n, k_max = nt.distances.shape
    tie_rank = spawn_rng(seed, 0).permutation(n)
    key = np.ones((n, k_max), dtype=np.int64)
    np.not_equal(nt.distances[:, 1:], nt.distances[:, :-1], out=key[:, 1:])
    np.cumsum(key, axis=1, out=key)  # the run of each cell
    np.subtract(k_max, key, out=key)
    key[edge] += k_max
    key *= n
    key += tie_rank[nt.indices]
    key.sort(axis=1)
    key %= n
    ids = np.empty(n, dtype=np.int64)
    ids[tie_rank] = np.arange(n)
    return ids[key]


def _fallback(g, degrees, short, rows, in_row, seed):
    """Sampled negatives (anchors, ids) of the exhausted points `short`.

    `degrees` are the graph's; `rows` and `in_row` are the table rows of
    `short` and their non-edge counts. A short point takes all its row's
    non-edges, so it draws from every point that is neither itself, a
    graph neighbor nor in its row, grouped by anchor in `short`'s order.
    A point's graph neighbors are its slice of `g.dst`, as the edges are
    sorted by (src, dst). One `_spawn_choices` call draws every point's
    ranks: for point p they equal `spawn_rng(seed, 1, p).choice(pool,
    size=extra, replace=False)` bit for bit (checked on numpy 2.4.6; that
    generator is built for the points that `_spawn_choices` does not
    compute, as `export_pairs` says).
    """
    n = g.n
    need = degrees[short]
    # Blocked ids of every short point s at once, as sorted keys
    # s * n + id. Dropping repeats absorbs self-loops, repeated edges and
    # edge cells (np.unique would hash them first, twenty times slower).
    s = np.arange(short.size, dtype=np.int64)
    by = np.repeat(s, need)
    start = (np.cumsum(degrees) - degrees)[short]  # each short point's first edge
    edge = np.arange(by.size) + np.repeat(start - (np.cumsum(need) - need), need)
    blocked = np.sort(np.concatenate([s * n + short, by * n + g.dst[edge],
                                      (s[:, None] * n + rows).ravel()]))
    blocked = blocked[np.concatenate(([True], blocked[1:] != blocked[:-1]))]
    first = np.searchsorted(blocked, s * n)
    size = np.diff(first, append=blocked.size)
    # s * n + b - rank(b) over the blocked b of s is sorted, and the
    # count of its values <= s * n + j is #{b : b - rank(b) <= j}.
    below = blocked - (np.arange(blocked.size) - np.repeat(first, size))

    pool = n - size
    extra = np.minimum(need - in_row, pool)
    rank = _spawn_choices(seed, 1, short, pool, extra)
    for i in np.flatnonzero(in_row + extra < need).tolist():
        log.warning("point %d: only %d of %d negatives available",
                    short[i], in_row[i] + extra[i], need[i])
    segment = np.repeat(s, extra)
    drawn = rank + np.searchsorted(below, segment * n + rank, side="right") - first[segment]
    return short[segment], drawn


# Records save_pairs writes per block; bounds its extra memory.
_BLOCK = 4096


def save_pairs(ps: PairSet, path) -> None:
    """Write pairs as JSON lines: {"p": ..., "q": ..., "label": 1|0}.

    The bytes are those of json.dumps of each record. Each id's decimal
    string is formed once per call: ids below min(max id + 1, record
    count) come from one table of strings, so its size follows the
    records, not the largest id, and any other id is formatted with
    str() in its own block. A block of records is gathered from the
    table into one list of pieces and written with one join.
    """
    groups = ((1, ps.positives), (0, ps.negatives))
    top = max((int(pairs.max()) + 1 for _, pairs in groups if pairs.size), default=0)
    # Never empty, so that `take` always has an entry to clip to.
    table = np.fromiter(map(str, range(max(min(top, ps.total), 1))), dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for label, pairs in groups:
            # Each record's pieces: p, ', "q": ', q, and its end joined to
            # the next record's start; the block's first start is added
            # and its last is cut.
            end = ', "label": %d}\n{"p": ' % label
            for i in range(0, len(pairs), _BLOCK):
                ids = pairs[i:i + _BLOCK].ravel()
                text = table.take(ids, mode="clip")
                for j in np.flatnonzero((ids < 0) | (ids >= table.size)).tolist():
                    text[j] = str(int(ids[j]))
                pieces = [None, ', "q": ', None, end] * (ids.size // 2)
                pieces[::2] = text.tolist()
                fh.write('{"p": ' + "".join(pieces)[:-len('{"p": ')])
