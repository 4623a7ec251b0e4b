"""Exact brute-force k-nearest-neighbor tables.

Distances are Euclidean and computed from coordinate differences (not the
expanded dot-product identity), so duplicate points get a distance of
exactly zero. Ties are broken by the smaller point index, which makes the
table deterministic.
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
    k_max: int

    def __post_init__(self):
        self.distances.setflags(write=False)
        self.indices.setflags(write=False)

    @property
    def n(self) -> int:
        return self.distances.shape[0]

    def prefix(self, k: int) -> NeighborTable:
        """The first k columns of every row, as a table of its own.

        Rows are sorted by (distance, index), so this equals
        `build_knn(ps, k)` on the points the table was built from.
        """
        if not 1 <= k <= self.k_max:
            raise InputError(f"k must be in [1, {self.k_max}], got {k}")
        return NeighborTable(distances=np.ascontiguousarray(self.distances[:, :k]),
                             indices=np.ascontiguousarray(self.indices[:, :k]), k_max=k)


def build_knn(ps: PointSet, k_max: int) -> NeighborTable:
    """Exact k-NN by brute force, O(N^2 d).

    Requires 1 <= k_max <= N - 1. Each row is sorted by (distance, index),
    so equal distances keep the lower-index neighbor first.
    """
    x = ps.points
    n = x.shape[0]
    if not 1 <= k_max <= n - 1:
        raise InputError(f"k_max must be in [1, {n - 1}], got {k_max}")

    distances = np.empty((n, k_max), dtype=np.float64)
    indices = np.empty((n, k_max), dtype=np.int64)
    ids = np.arange(n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        diff = x[start:stop, None, :] - x[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        rows = np.arange(start, stop)
        dist[rows - start, rows] = np.inf  # exclude self
        order = np.lexsort((np.broadcast_to(ids, dist.shape), dist), axis=1)
        take = order[:, :k_max]
        indices[start:stop] = take
        distances[start:stop] = np.take_along_axis(dist, take, axis=1)
    return NeighborTable(distances=distances, indices=indices, k_max=k_max)
