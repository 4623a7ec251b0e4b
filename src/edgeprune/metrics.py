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
    """Count matrix M[i, j] = |{points with truth i and pred j}|."""
    t, p = _check_labels(truth, pred)
    rows, cols = int(t.max()) + 1, int(p.max()) + 1
    m = np.zeros((rows, cols), dtype=np.int64)
    np.add.at(m, (t, p), 1)
    return m


@dataclass(frozen=True)
class PairCounts:
    """Agreement counts over all N(N-1)/2 unordered point pairs."""

    n11: int
    n00: int
    n01: int
    n10: int

    @property
    def total(self) -> int:
        return self.n11 + self.n00 + self.n01 + self.n10

    @classmethod
    def from_labels(cls, truth, pred) -> "PairCounts":
        m = contingency(truth, pred)
        n = int(m.sum())
        same_both = sum(math.comb(int(c), 2) for c in m.ravel())
        same_truth = sum(math.comb(int(c), 2) for c in m.sum(axis=1))
        same_pred = sum(math.comb(int(c), 2) for c in m.sum(axis=0))
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


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel by first occurrence, so equal partitions compare equal."""
    first_seen: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, v in enumerate(labels.tolist()):
        out[i] = first_seen.setdefault(v, len(first_seen))
    return out


def ari(truth, pred) -> float:
    """Adjusted Rand index from pair counts:
    2(n00*n11 - n01*n10) / ((n00+n01)(n01+n11) + (n00+n10)(n10+n11)).

    A zero denominator (e.g. both labelings put everything in one
    cluster) yields 1 when the labelings are identical as partitions,
    else 0.
    """
    t, p = _check_labels(truth, pred)
    pc = PairCounts.from_labels(t, p)
    numer = 2 * (pc.n00 * pc.n11 - pc.n01 * pc.n10)
    denom = ((pc.n00 + pc.n01) * (pc.n01 + pc.n11)
             + (pc.n00 + pc.n10) * (pc.n10 + pc.n11))
    if denom == 0:
        return 1.0 if np.array_equal(_canonical(t), _canonical(p)) else 0.0
    return numer / denom


def edge_percentage(g: ReducedGraph) -> float:
    """Surviving ordered pairs over the full graph size N*N."""
    return g.edge_count / float(g.n * g.n)
