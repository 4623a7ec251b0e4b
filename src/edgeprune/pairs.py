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

    A point costs O(degree + k_max) plus its draw, never O(N): its pool
    of non-neighbors is not built. The draw picks ranks in the pool, and
    the sorted blocked ids b (the point, its graph neighbors and its
    in-row negatives) map rank j to the id j + #{b : b - rank(b) <= j},
    since b - rank(b) counts the pool members below b. numpy's choice
    draws the same ranks from the pool's size as from the pool array,
    which it then indexes, so the sample is the same. Point p's ranks are
    `spawn_rng(seed, 1, p).choice(pool size, size=count, replace=False)`,
    computed for all short points at once by `data._spawn_choices`
    (equal to numpy's own choice, checked on numpy 2.4.6).

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

    # Farthest first; the row is ascending by distance, equal distances
    # fall back to the seeded rank. Only non-edges are candidates, and a
    # point takes as many of them as its degree.
    tie_rank = spawn_rng(seed, 0).permutation(n)
    cand = np.take_along_axis(
        nt.indices, np.lexsort((tie_rank[nt.indices], -nt.distances), axis=1), axis=1)
    csr = g.to_sparse()
    non_edge = _non_edges(csr, cand)
    in_row = non_edge.sum(axis=1)
    anchor, col = np.nonzero(non_edge & (np.cumsum(non_edge, axis=1) <= need[:, None]))
    other = cand[anchor, col]

    short = np.flatnonzero(in_row < need)
    drawn = np.empty(0, dtype=np.int64)
    if short.size:
        drawn_by, drawn = _fallback(csr, short, cand[short], non_edge[short],
                                    in_row[short], need[short], seed)
        # Each point's sampled negatives go right after its in-row ones.
        at = np.searchsorted(anchor, drawn_by, side="right")
        anchor, other = np.insert(anchor, at, drawn_by), np.insert(other, at, drawn)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("export_pairs: %d of %d points have edges, %d fell back, %d ranks drawn, "
                  "%d short of negatives", np.count_nonzero(need), n, short.size, drawn.size,
                  np.count_nonzero(np.bincount(anchor, minlength=n) < need))
    return PairSet(positives=g.pairs(), negatives=np.column_stack((anchor, other)))


def _non_edges(csr, cand):
    """Whether each id q in row p of `cand` is not an edge (p, q) of `csr`.

    The CSR keys p * n + q are sorted and distinct, so one searchsorted
    finds every query; the sentinel n * n tops them all.
    """
    n = csr.shape[0]
    keys = np.append(np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(csr.indptr))
                     + csr.indices, n * n)
    query = np.arange(n, dtype=np.int64)[:, None] * n + cand
    return keys[np.searchsorted(keys, query)] != query


def _fallback(csr, short, cand, non_edge, in_row, need, seed):
    """Sampled negatives (anchors, ids) of the exhausted points `short`.

    The other arguments are their rows; each point draws from every
    point that is neither itself, a graph neighbor nor an in-row
    negative, and the result is grouped by anchor in the order of
    `short`. One `_spawn_choices` call draws every point's ranks: for
    point p they equal `spawn_rng(seed, 1, p).choice(pool, size=extra,
    replace=False)` bit for bit (checked on numpy 2.4.6; the per-point
    generators are not built).
    """
    n = csr.shape[0]
    # Blocked ids of every short point s at once, as sorted keys
    # s * n + id. Dropping repeats absorbs self-loops and repeated edges
    # (np.unique would hash them first, twenty times slower here).
    s = np.arange(short.size, dtype=np.int64)
    adjacent = csr[short]
    row, col = np.nonzero(non_edge)
    blocked = np.sort(np.concatenate([
        s * n + short,
        np.repeat(s, np.diff(adjacent.indptr)) * n + adjacent.indices,
        row * n + cand[row, col]]))
    blocked = blocked[np.concatenate(([True], blocked[1:] != blocked[:-1]))]
    size = np.bincount(blocked // n, minlength=short.size)
    first = np.cumsum(size) - size
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


# Records save_pairs formats per write; bounds its extra memory.
_BLOCK = 4096


def save_pairs(ps: PairSet, path) -> None:
    """Write pairs as JSON lines: {"p": ..., "q": ..., "label": 1|0}."""
    # Formatted directly, byte-identical to json.dumps of each record:
    # one % of a repeated line template per block of records.
    with open(path, "w", encoding="utf-8") as fh:
        for label, pairs in ((1, ps.positives), (0, ps.negatives)):
            line = '{"p": %s, "q": %s, "label": ' + str(label) + '}\n'
            for i in range(0, len(pairs), _BLOCK):
                block = pairs[i:i + _BLOCK]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
