"""Exact k-nearest-neighbor tables: a Gram-identity screen, then exact re-ranking.

A table row is the k_max points closest to the row's point, sorted by
(distance, index), with distances from the coordinate-difference form
`sqrt(sum((x_p - x_q)**2))`. That form gives duplicate points a distance
of exactly zero, and breaking ties by the smaller index makes the table
deterministic.

Computing that form for every pair costs an N x N x d difference tensor.
Instead, `build_knn` screens each row with squared distances from the
Gram identity (one matrix product per chunk of rows), keeps every point
the screen cannot rule out, and evaluates the exact form on those
candidates only. The screen's error bound is derived in `_screen_slack`
(k-means' assignment uses it too) and applied in `build_knn`; it
guarantees the candidates contain the true first k_max, ties included,
so the table is bit-for-bit the one the exact form gives on every pair.

The product runs in numpy's own einsum loop, on the calling thread. A
threaded BLAS product leaves its worker threads spinning on the other
cores for about 0.1 s after each call, longer than the whole k-NN stage
at a few thousand points, so the stages after it would run beside
busy cores and their time would depend on what else the machine runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PointSet
from .errors import InputError

_CHUNK = 256


@dataclass(frozen=True)
class NeighborTable:
    """Per-point sorted nearest neighbors: row r lists r's k_max closest points."""

    distances: np.ndarray  # (N, k_max), ascending per row
    indices: np.ndarray    # (N, k_max), neighbor ids, never the row id itself

    def __post_init__(self):
        self.distances.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    @property
    def k_max(self) -> int:
        return self.distances.shape[1]

    def prefix(self, k: int) -> NeighborTable:
        """The first k columns of every row, as a table of its own.

        Rows are sorted by (distance, index), so this equals
        `build_knn(ps, k)` on the points the table was built from.
        """
        if not 1 <= k <= self.k_max:
            raise InputError(f"k must be in [1, {self.k_max}], got {k}")
        return NeighborTable(distances=np.ascontiguousarray(self.distances[:, :k]),
                             indices=np.ascontiguousarray(self.indices[:, :k]))


def _screen_slack(norm_sums: np.ndarray, dim: int) -> np.ndarray:
    """Bound on the gap between a Gram-identity screen and the exact form.

    For points a, b in d dimensions write u = 2**-53 (unit roundoff),
    q = |a|^2 + |b|^2, r = |a - b|^2 in real arithmetic,
    s = fl(Q_a + Q_b - 2 a.b) for the screened value, with Q the computed
    squared norms, and e = fl(sum((a - b)**2)) for the exact form. With
    the standard model fl(x op y) = (x op y)(1 + delta), |delta| <= u, and
    any summation order (so any product kernel):
      * screen: the norms and the dot product carry gamma_d q each
        (|a.b| <= q / 2 before the factor 2); the sum and the subtraction
        at most 3u q, using r <= 2q. So |s - r| <= (2d + 3) u q.
      * exact form: one rounding each for the difference, the square and
        the d - 1 additions of non-negative terms, so
        |e - r| <= (d + 2) u r <= (2d + 4) u q.
    Together |s - e| <= (4d + 7) u q. The bound returned is
    4 (d + 6) u (Q_a + Q_b), which leaves 17u q for what a caller adds:
    one u covers Q against q and the second-order terms; centring the
    coordinates first (as `build_knn` does) moves each difference by at
    most u (|a| + |b|), so the squared distance by at most 4u q; comparing
    square roots needs a 4u relative margin, at most 8u q; and two
    threshold tests round values of at most about 2q, at most 4u q. The
    relative model does not cover gradual underflow, so (d + 4) times the
    smallest normal number is added.

    `norm_sums` holds Q_a + Q_b for every screened pair.
    """
    return 4 * (dim + 6) * 2.0 ** -53 * norm_sums + (dim + 4) * np.finfo(np.float64).tiny


def build_knn(ps: PointSet, k_max: int) -> NeighborTable:
    """Exact k-NN: screen each row with Gram-identity distances, re-rank the survivors.

    Requires 1 <= k_max <= N - 1. Each row is sorted by (distance, index),
    so equal distances keep the lower-index neighbor first. The result is
    bit-for-bit the table of the exact difference form over all pairs;
    the cost is one (chunk x d) by (d x N) product per chunk of rows plus
    the exact form on each row's candidates, which is the whole row only
    when the screen's rounding bound swamps the row's distance gaps.

    Exactness. Write s_ij for the screened squared distance from the
    centred coordinates, e_ij for the exact form's sum before its square
    root and E_ij = `_screen_slack(Q_i + Q_j, d)` with Q the computed
    squared norms of the centred points; `_screen_slack` derives
    |s_ij - e_ij| <= E_ij, with room left for centring, the square root
    and the two threshold tests below.
    Let T be the k_max-th smallest value of s_ij + E_ij in row i, self
    excluded. The k_max points j at or below T have exact sums below T
    with room left for the square-root margin, and a point p with
    s_ip - E_ip > T has an exact sum above T, so its rounded distance is
    strictly above theirs: it cannot be among the first k_max, not even
    through a tie broken by index. Every other point is a candidate. A
    non-finite value (only from coordinates near the float range limit)
    fails the test `s - E > T`, which makes the point, or the whole row, a
    candidate. The bound assumes no finite intermediate overflows.
    """
    x = ps.points
    n, dim = x.shape
    if not 1 <= k_max <= n - 1:
        raise InputError(f"k_max must be in [1, {n - 1}], got {k_max}")

    c = x - x.mean(axis=0)
    sq = (c * c).sum(axis=1)
    ct = np.ascontiguousarray(c.T)  # (d, N): einsum's inner loop runs along N
    distances = np.empty((n, k_max), dtype=np.float64)
    indices = np.empty((n, k_max), dtype=np.int64)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        rows = np.arange(start, stop)

        # Screen: Gram-identity squared distances and their per-pair slack.
        # einsum without `optimize` never calls BLAS (see the module docstring).
        gram = np.einsum("ki,kj->ij", ct[:, start:stop], ct)
        screen = sq[rows, None] + sq - 2.0 * gram
        screen[rows - start, rows] = np.inf  # exclude self
        slack = _screen_slack(sq[rows, None] + sq, dim)
        upper = screen + slack
        upper.partition(k_max - 1, axis=1)
        screen -= slack
        keep = ~(screen > upper[:, k_max - 1, None])

        # Pack each row's candidates left-aligned; pad with index n, which
        # sorts after every real candidate, and there are at least k_max.
        count = np.count_nonzero(keep, axis=1)
        cand = np.full((stop - start, int(count.max())), n, dtype=np.int64)
        cand[np.arange(cand.shape[1]) < count[:, None]] = np.flatnonzero(keep) % n

        # Re-rank: the exact form over the contiguous last axis, as on all pairs.
        diff = x.take(np.minimum(cand, n - 1), axis=0)
        np.subtract(x[start:stop, None, :], diff, out=diff)
        diff *= diff
        dist = np.sqrt(diff.sum(axis=2))
        dist[(cand == rows[:, None]) | (cand == n)] = np.inf
        order = np.lexsort((cand, dist), axis=1)[:, :k_max]
        indices[start:stop] = np.take_along_axis(cand, order, axis=1)
        distances[start:stop] = np.take_along_axis(dist, order, axis=1)
    return NeighborTable(distances=distances, indices=indices)
