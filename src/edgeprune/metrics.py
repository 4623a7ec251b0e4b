"""Clustering-quality and graph-economy metrics.

ACC is the best-mapping hit rate between two labelings, with the mapping
found by a maximum-weight full bipartite matching on the contingency
matrix (scipy.sparse.csgraph's LAPJVsp, after Jonker & Volgenant 1987).
ARI is computed from the four pair-agreement counts: pairs grouped
together in both labelings (n11), separated in both (n00), and the two
mixed cases. E% measures graph economy as surviving ordered pairs over
the full graph size N*N, diagonal included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import InputError
from .reduce import ReducedGraph


def _check_labels(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(truth, dtype=np.int64).ravel()
    p = np.asarray(pred, dtype=np.int64).ravel()
    if t.size == 0 or p.size == 0:
        raise InputError("labelings must be non-empty")
    if t.size != p.size:
        raise InputError(f"label lengths differ: {t.size} vs {p.size}")
    if t.min() < 0 or p.min() < 0:
        raise InputError("label ids must be non-negative")
    return t, p


def contingency(truth, pred) -> np.ndarray:
    """Count matrix M[i, j] = |{points with the i-th truth id and the j-th pred id}|.

    Rows and columns are the ids that occur, in ascending order; an id
    that does not occur would only add a zero row or column, which
    changes neither ACC nor ARI.
    """
    t, p = _check_labels(truth, pred)
    t_ids, t = np.unique(t, return_inverse=True)
    p_ids, p = np.unique(p, return_inverse=True)
    cells = np.bincount(t * p_ids.size + p, minlength=t_ids.size * p_ids.size)
    return cells.reshape(t_ids.size, p_ids.size)


@dataclass(frozen=True)
class PairCounts:
    """Agreement counts over all N(N-1)/2 unordered point pairs."""

    n11: int
    n00: int
    n01: int
    n10: int

    @classmethod
    def from_labels(cls, truth, pred) -> "PairCounts":
        m = contingency(truth, pred)
        n = int(m.sum())
        # Pairs within each cell, truth class and predicted cluster; Python
        # ints from here on, so the products in `ari` cannot overflow.
        same_both, same_truth, same_pred = (int((c * (c - 1) // 2).sum())
                                            for c in (m, m.sum(axis=1), m.sum(axis=0)))
        n11 = same_both
        n01 = same_truth - same_both
        n10 = same_pred - same_both
        n00 = math.comb(n, 2) - n11 - n01 - n10
        return cls(n11=n11, n00=n00, n01=n01, n10=n10)


def acc(truth, pred) -> float:
    """Best-mapping clustering accuracy in [0, 1].

    Maximizes the hit count over one-to-one mappings of predicted ids to
    truth ids: a maximum-weight full matching of the smaller side of the
    contingency matrix M, solved on M + 1. The shift makes every cell an
    explicit edge, so a full matching always exists, and it adds
    min(rows, cols) to every full matching's total, so the maximizer is
    unchanged.
    """
    m = contingency(truth, pred)
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(m + 1.0), maximize=True)
    return float(m[rows, cols].sum()) / float(m.sum())


def ari(truth, pred) -> float:
    """Adjusted Rand index from pair counts:
    2(n00*n11 - n01*n10) / ((n00+n01)(n01+n11) + (n00+n10)(n10+n11)).

    The denominator is (pairs split by pred)(pairs joined by truth) +
    (pairs split by truth)(pairs joined by pred), so it is 0 only when
    both labelings are the same trivial partition: one cluster, all
    singletons, or N < 2. The index is then 1, as for any two equal
    partitions (Hubert & Arabie 1985).
    """
    pc = PairCounts.from_labels(truth, pred)
    numer = 2 * (pc.n00 * pc.n11 - pc.n01 * pc.n10)
    denom = ((pc.n00 + pc.n01) * (pc.n01 + pc.n11)
             + (pc.n00 + pc.n10) * (pc.n10 + pc.n11))
    if denom == 0:
        return 1.0
    return numer / denom


def edge_percentage(g: ReducedGraph) -> float:
    """Surviving ordered pairs over the full graph size N*N, N >= 1."""
    if g.n == 0:
        raise InputError("edge_percentage: graph has no vertices")
    return g.edge_count / float(g.n * g.n)
