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

from .data import Seed, spawn_rng
from .errors import InputError
from .knn import NeighborTable
from .reduce import ReducedGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairSet:
    positives: list[tuple[int, int]]  # unordered mutual edges, each once
    negatives: list[tuple[int, int]]  # (anchor, other); anchor's degree many

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
    """
    if g.n != nt.n:
        raise InputError(f"graph has {g.n} vertices but table has {nt.n} rows")
    n = g.n
    positives = sorted(g.pairs())
    need = g.degrees()
    if log.isEnabledFor(logging.DEBUG):
        for p in np.flatnonzero(need == 0).tolist():
            log.debug("point %d has no mutual edges; contributes no pairs", p)

    # Farthest first; the row is ascending by distance, equal distances
    # fall back to the seeded rank. Only non-edges are candidates, and a
    # point takes as many of them as its degree.
    tie_rank = spawn_rng(seed, 0).permutation(n)
    order = np.lexsort((tie_rank[nt.indices], -nt.distances), axis=1)
    cand = np.take_along_axis(nt.indices, order, axis=1)
    non_edge = ~np.isin(np.arange(n)[:, None] * n + cand, g.src * n + g.dst)
    taken = non_edge & (np.cumsum(non_edge, axis=1) <= need[:, None])
    anchor, col = np.nonzero(taken)
    other = cand[anchor, col]

    # Exhausted rows: sample the rest from every point that is neither p,
    # a neighbor in the graph, nor already chosen from the row.
    short = np.flatnonzero(non_edge.sum(axis=1) < need)
    if short.size:
        csr = g.to_sparse()
        indptr, adjacency = csr.indptr, csr.indices
        blocked = np.zeros(n, dtype=bool)
        extra_anchor, extra_count, extra_other = [], [], []
        for p in short.tolist():
            chosen = cand[p, non_edge[p]]
            block = np.concatenate(([p], adjacency[indptr[p]:indptr[p + 1]], chosen))
            blocked[block] = True
            pool = np.flatnonzero(~blocked)
            blocked[block] = False
            missing = int(need[p]) - chosen.size
            extra = min(missing, pool.size)
            if extra > 0:
                rng = spawn_rng(seed, 1, p)
                extra_other.append(rng.choice(pool, size=extra, replace=False))
                extra_anchor.append(p)
                extra_count.append(extra)
            if extra < missing:
                log.warning("point %d: only %d of %d negatives available",
                            p, chosen.size + extra, int(need[p]))
        if extra_anchor:
            # A stable sort by anchor puts each point's sampled negatives
            # right after its in-row ones.
            anchor = np.concatenate([anchor, np.repeat(extra_anchor, extra_count)])
            other = np.concatenate([other, *extra_other])
            by_anchor = np.argsort(anchor, kind="stable")
            anchor, other = anchor[by_anchor], other[by_anchor]
    negatives = list(zip(anchor.tolist(), other.tolist()))
    return PairSet(positives=positives, negatives=negatives)


def save_pairs(ps: PairSet, path) -> None:
    """Write pairs as JSON lines: {"p": ..., "q": ..., "label": 1|0}."""
    # Formatted directly, byte-identical to json.dumps of each record; a
    # generator keeps no second copy of the file in memory.
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f'{{"p": {p}, "q": {q}, "label": 1}}\n' for p, q in ps.positives)
        fh.writelines(f'{{"p": {p}, "q": {q}, "label": 0}}\n' for p, q in ps.negatives)
