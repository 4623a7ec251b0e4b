"""Exact k-nearest-neighbor tables: kd blocks, a Gram-identity screen, then exact re-ranking.

A table row is the k_max points closest to the row's point, sorted by
(distance, index), with distances from the coordinate-difference form
`sqrt(sum((x_p - x_q)**2))`. That form gives duplicate points a distance
of exactly zero, and breaking ties by the smaller index makes the table
deterministic.

Computing that form for every pair costs an N x N x d difference tensor.
Instead, `build_knn` groups the points into kd blocks of at most `_CHUNK`
points (median splits on the widest coordinate, Friedman, Bentley &
Finkel 1977) and gives each block a centre and a radius. For the rows of
one block, the triangle inequality rules out every block whose nearest
possible point lies beyond the farthest point of the nearest blocks that
hold k_max + 1 points (Elkan 2003 prunes k-means this way). The columns
left are screened with squared distances from the Gram identity (one
matrix product per block), every point the screen's rounding bound cannot
rule out is kept, and the exact form runs on those candidates only. Both
bounds are derived in `build_knn` (the screen's slack in `_screen_slack`,
which k-means' assignment uses too); together they guarantee that the
candidates contain the true first k_max, ties included, so the table is
bit for bit the one the exact form gives on every pair. In low dimension
a block's bound leaves only the blocks around it; in high dimension every
block may qualify, and the screen runs over all N columns.

The blocks run on a pool of threads, one per usable CPU (the process's
affinity set). Each block writes only its own rows of the table, and each
row is the exact one whichever thread screens it, so the table does not
depend on the worker count or the scheduling; the pool is joined before
`build_knn` returns. The products run on BLAS, but only on the calling
thread: a threaded BLAS product leaves its worker threads spinning on the
other cores for about 0.1 s after each call, longer than the whole k-NN
stage at a few thousand points, so the stages after it would run beside
busy cores and their time would depend on what else the machine runs.
`_product` therefore computes a product in tiles of at most
`_BLAS_SERIAL_MNK` = 262,144 multiply-adds (M x N x K): OpenBLAS runs a
matrix product of at most SMP_THRESHOLD_MIN x GEMM_MULTITHREAD_THRESHOLD
= 65536 x 4 multiply-adds on the calling thread, whatever its thread
count. (numpy sends a one-row or one-column tile to gemv, which OpenBLAS
keeps serial up to a larger size.) Rows are split only when
K > 262,144 / M, and tiles are split evenly, so a tile is one row by one
column (a dot product, which OpenBLAS threads above 10,000 terms) only
when the whole product is, or when K > 131,072. The screen's slack holds
for any product kernel (see `_screen_slack`), so the tiling moves no bit
of the table.

At DEBUG, the `edgeprune.knn` logger reports the block count, the mean
share of N screened per row, the mean number of candidates per row, the
number of BLAS product calls and the largest call's multiply-adds.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import PointSet
from .errors import InputError

log = logging.getLogger(__name__)

_CHUNK = 64           # points per kd block: the rows one worker screens at once
_SCRATCH_ROWS = 256   # rows in flight over all workers: caps workers and re-rank groups
_BLAS_SERIAL_MNK = 262_144  # multiply-adds per product call (see the module docstring)
_RERANK_BYTES = 2**19  # most bytes of one re-rank slice's difference tensor


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
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
    any summation order (so any product kernel; a fused multiply-add rounds
    once where the model allows two, so it is covered too):
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

    `norm_sums` holds Q_a + Q_b for every screened pair; the bound is
    written over it in place, and returned.
    """
    norm_sums *= 4 * (dim + 6) * 2.0 ** -53
    norm_sums += (dim + 4) * np.finfo(np.float64).tiny
    return norm_sums


def _spans(total: int, most: int) -> list:
    """The fewest consecutive slices that cover range(total) with at most
    `most` each; their lengths differ by at most one."""
    count = max(1, -(-total // most))
    edges = [i * total // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _tiles(m: int, n: int, k: int) -> tuple:
    """Row and column slices tiling an (m x k) by (k x n) product: every
    tile has at most `_BLAS_SERIAL_MNK` multiply-adds when k is at most
    that, and rows are split only when a one-column tile would exceed it."""
    rows = _spans(m, max(1, _BLAS_SERIAL_MNK // max(k, 1)))
    height = -(-m // len(rows))
    return rows, _spans(n, max(1, _BLAS_SERIAL_MNK // (max(height, 1) * max(k, 1))))


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> tuple:
    """`a @ b` into `out`, one BLAS call per tile of `_tiles`, each on the
    calling thread (see the module docstring). Returns the number of calls
    and the largest call's multiply-adds."""
    (m, k), n = a.shape, b.shape[1]
    rows, cols = _tiles(m, n, k)
    for r in rows:
        for c in cols:
            np.matmul(a[r], b[:, c], out=out[r, c])
    return len(rows) * len(cols), -(-m // len(rows)) * -(-n // len(cols)) * k


def _kd_blocks(c: np.ndarray) -> tuple:
    """kd blocks of at most `_CHUNK` points: (order, bounds, centres, radii).

    `order` lists the points block by block, block b being
    order[bounds[b]:bounds[b + 1]]; its centre is the mean of its points
    and its radius the largest computed distance from them to the centre.
    Each level splits every block of more than `_CHUNK` points along its
    widest coordinate, at the rank that gives each side whole shares of
    the ceil(size / `_CHUNK`) blocks it needs (the median when that count
    is even), so blocks end up nearly full. One stable sort orders every
    block of a level: by block, then by its coordinate, ties in kd order.
    """
    n = len(c)
    order = np.arange(n)
    bounds = np.array([0, n])
    while True:
        pts = c[order]
        starts, sizes = bounds[:-1], np.diff(bounds)
        need = -(-sizes // _CHUNK)
        if not (need > 1).any():
            break
        widths = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        block = np.repeat(np.arange(len(sizes)), sizes)
        key = pts[np.arange(n), np.argmax(widths, axis=1)[block]]
        order = order[np.lexsort((key, block))]
        cuts = starts + sizes * (need // 2) // need
        bounds = np.sort(np.concatenate([bounds, cuts[need > 1]]))
    centres = np.add.reduceat(pts, starts) / sizes[:, None]
    pts -= np.repeat(centres, sizes, axis=0)
    radii = np.sqrt(np.maximum.reduceat((pts * pts).sum(axis=1), starts))
    return order, bounds, centres, radii


def build_knn(ps: PointSet, k_max: int) -> NeighborTable:
    """Exact k-NN: screen each kd block's near columns, re-rank the survivors.

    Requires 1 <= k_max <= N - 1. Each row is sorted by (distance, index),
    so equal distances keep the lower-index neighbor first. The result is
    bit-for-bit the table of the exact difference form over all pairs;
    the cost is one (block x d) by (d x columns) product per block, over
    the columns of the blocks its bound cannot rule out, plus the exact
    form on each row's candidates.

    Below, eps = 2**-53, c are the centred coordinates, Q their computed
    squared norms, S = sqrt(max Q) the largest centred norm and e_ij the
    exact form's sum before its square root.

    Screen. The screened value is u_ij = Q_j - (2 c_i).c_j; scaling by 2
    is exact, so this is one product. Q_i + u_ij is the Gram-identity
    value without the rounding of the sum Q_i + Q_j, so `_screen_slack`
    bounds |Q_i + u_ij - e_ij| by `_screen_slack(Q_i + Q_j)`, with room
    left for centring, the square root and the threshold test; the
    per-row scalar E_i = `_screen_slack(Q_i + max_j Q_j)` is at least that
    for every j. Let T_i be the k_max-th smallest u_ij over the row's
    screened columns, self excluded. The k_max points at or below T_i have
    e_ij <= Q_i + T_i + E_i, and a point p with u_ip > T_i + 2 E_i has
    e_ip >= Q_i + u_ip - E_i > Q_i + T_i + E_i, with room for the square
    root, so its rounded distance is strictly above theirs: it cannot be
    among the first k_max, not even through a tie broken by index. Q_i is
    common to the row and is never added. The test is written
    `not (u > T + 2E)`, so a non-finite value (only from coordinates near
    the float range limit) makes the point, or the whole row, a candidate.

    Blocks. A block B has a centre m_B (the mean of its points) and a
    radius R_B: the computed max over i in B of |c_i - m_B|, plus
    mu = 4 (d + 7) eps S + 3 tau with tau = sqrt((d + 4) tiny). With D the
    computed distance between two centres, U(B, J) = D + R_B + R_J and
    L(B, J) = D - R_B - R_J. Let rho_B be the largest U(B, K) over the
    nearest blocks K, in order of U, that hold k_max + 1 points: each row
    of B has k_max points other than itself among them. Only the columns
    of blocks J with L(B, J) <= rho_B are screened. Why a point p of a
    block with L > rho_B is beyond those k_max points: every computed
    distance (D, a radius, a table distance) has at most d + 4 roundings
    and a true value of at most 2S, so it is within (d + 4) eps S + tau
    of the true one (tau for gradual underflow); centring moves a pair's
    distance by at most 2 eps S; and forming R, L or U rounds values of
    at most 6S, at most 14 eps S per bound. So, for the row's point i, a
    point j of a block K and the point p,
    |c_i - c_p| - |c_i - c_j| > 4 mu - 6 ((d + 4) eps S + tau) - 28 eps S,
    and their table distances differ by more than
    4 mu - 8 ((d + 4) eps S + tau) - 32 eps S > 0: p's rounded distance is
    strictly above theirs. Where 16 max Q overflows, the distances behind
    these bounds may too; mu is then infinite and no block is ruled out.

    Threads. Blocks run on min(usable CPUs, blocks, `_SCRATCH_ROWS` /
    `_CHUNK`) threads. The blocks, in kd order, form groups of
    `_SCRATCH_ROWS` / (workers x `_CHUNK`); worker w screens the blocks of
    groups w, w + workers, ... into its own buffers and re-ranks each
    group at once, and its exception is raised here. So at most
    `_SCRATCH_ROWS` rows are re-ranked at a time over all workers, each
    group in slices of candidate columns, and of rows where one column of
    the group is too many, whose difference tensor (rows x columns x d)
    takes at most `_RERANK_BYTES` = 512 KiB, for any d up to 65,536. So the
    re-rank's memory does not grow with d: 2000 points of 32-D blobs at
    k_max 50 take 4 slices of a 1.6-MiB group of 128 rows per worker. This
    thread and the workers ignore numpy's overflow and invalid flags: a
    non-finite value only makes candidates (see Screen), and a non-finite
    table distance is refused (see Range).

    Range. Below tiny = 2**-1022, the smallest normal number, results
    are subnormal and carry an absolute error of up to eps tiny, not a
    relative one; a square below eps tiny is 0. The exact form adds d
    non-negative squares, and a sum of subnormals is exact, so e_ij carries
    at most d eps tiny beyond its relative rounding: at most d eps of e_ij
    when e_ij >= tiny, but all of it below, where distinct points may get
    distance 0 (points 1e-165 apart get an all-zero table). The square
    root is correctly rounded and 2**-511 = sqrt(tiny) is a float, so a
    table distance is below 2**-511 exactly when its e_ij is below tiny.
    Only those cells are inspected: each must join two points with equal
    coordinates, whose distance is exactly 0, or the input is refused. At
    the other end, e_ij overflows for points sqrt(max) = 1.34e154 apart
    (max the largest float64), and such a table is refused too. So duplicate
    points run, and every other distance is in [2**-511, fl(sqrt(max))],
    as accurate as the rounding bounds above say, and squares to a normal.
    """
    x = ps.points
    n, dim = x.shape
    if not 1 <= k_max <= n - 1:
        raise InputError(f"k_max must be in [1, {n - 1}], got {k_max}")

    with np.errstate(over="ignore", invalid="ignore"):
        c = x - x.mean(axis=0)
        sq = (c * c).sum(axis=1)
        top = sq.max()
        order, bounds, centres, radii = _kd_blocks(c)
    if top <= np.finfo(np.float64).max / 16:
        radii += (4 * (dim + 7) * 2.0 ** -53 * np.sqrt(top)
                  + 3 * np.sqrt((dim + 4) * np.finfo(np.float64).tiny))
    else:
        radii[:] = np.inf
    sizes = np.diff(bounds)
    blocks = len(sizes)
    block_of = np.empty(n, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(blocks), sizes)
    # (d, N): each product tile reads a (d, columns) slice of the screened
    # columns; an (N, d) right operand, transposed, was slower.
    ct = np.ascontiguousarray(c.T)
    del c  # the workers read ct
    distances = np.empty((n, k_max), dtype=np.float64)
    indices = np.empty((n, k_max), dtype=np.int64)

    workers = max(1, min(_usable_cpus(), blocks, _SCRATCH_ROWS // _CHUNK))
    per_group = max(1, _SCRATCH_ROWS // (workers * _CHUNK))
    groups = range(0, blocks, per_group)
    # One buffer set per worker, allocated by this thread: sets allocated in
    # the worker threads raised a 2000-point `cluster` run's peak RSS by 8%.
    # Each set: the screened values, the keep mask, and the screened columns
    # of ct, whose buffer then holds the values' partition.
    size = min(_CHUNK, n) * n
    buffers = [(np.empty(size), np.empty(size, dtype=bool), np.empty(max(_CHUNK, dim) * n))
               for _ in range(workers)]

    def screen_block(b: int, scratch: tuple) -> tuple:
        """Block b's rows, each row's candidate count, the candidates (row by
        row, ascending ids) and the cells screened, product calls and
        largest call's multiply-adds."""
        rows = order[bounds[b]:bounds[b + 1]]
        gap = centres - centres[b]
        dist = np.sqrt((gap * gap).sum(axis=1))
        reach = radii + radii[b]
        upper = dist + reach
        nearest = np.argsort(upper)
        rho = upper[nearest[np.searchsorted(np.cumsum(sizes[nearest]), k_max + 1)]]
        cols = np.flatnonzero(~(dist - reach > rho)[block_of])

        shape = (len(rows), len(cols))
        u, keep, part = (a[:shape[0] * shape[1]].reshape(shape) for a in scratch)
        near = scratch[2][:dim * len(cols)].reshape(dim, len(cols))
        np.take(ct, cols, axis=1, out=near, mode="clip")  # "clip" writes unbuffered
        calls, largest = _product(2.0 * ct[:, rows].T, near, u)
        np.subtract(sq[cols], u, out=u)
        u[np.arange(len(rows)), np.searchsorted(cols, rows)] = np.inf  # exclude self
        np.copyto(part, u)  # over `near`, which the product has consumed
        part.partition(k_max - 1, axis=1)
        limit = part[:, k_max - 1] + 2.0 * _screen_slack(sq[rows] + top, dim)
        np.greater(u, limit[:, None], out=keep)
        np.logical_not(keep, out=keep)
        row, col = np.divmod(np.flatnonzero(keep), len(cols))
        return rows, np.bincount(row, minlength=len(rows)), cols[col], (u.size, calls, largest)

    def rank_group(first: int, scratch: tuple) -> np.ndarray:
        """Screen and re-rank the group of blocks from `first`; returns its
        screened cells, candidates, product calls and largest call."""
        rows, count, ids, stats = zip(*(screen_block(b, scratch)
                                        for b in range(first, min(first + per_group, blocks))))
        rows, count, ids = map(np.concatenate, (rows, count, ids))
        # Pack each row's candidates left-aligned; pad with index n, which
        # sorts after every real candidate, and there are at least k_max.
        cand = np.full((len(rows), int(count.max())), n, dtype=np.int64)
        cand[np.arange(cand.shape[1]) < count[:, None]] = ids

        # Re-rank: the exact form over the contiguous last axis, as on all
        # pairs, in slices of candidate columns whose difference tensor
        # stays within `_RERANK_BYTES`, and of rows too when one column of
        # the group's rows would not; a pair's sum is the same in any
        # slice. Candidates ascend by id, so a stable sort by distance is
        # the (distance, index) order.
        dist = np.empty(cand.shape)
        for r in _spans(len(rows), max(1, _RERANK_BYTES // (8 * dim))):
            here = x[rows[r], None, :]
            for c in _spans(cand.shape[1], max(1, _RERANK_BYTES // (8 * dim * len(here)))):
                diff = x.take(np.minimum(cand[r, c], n - 1), axis=0)
                np.subtract(here, diff, out=diff)
                diff *= diff
                np.sqrt(diff.sum(axis=2), out=dist[r, c])
        dist[(cand == rows[:, None]) | (cand == n)] = np.inf
        best = np.argsort(dist, axis=1, kind="stable")[:, :k_max]
        indices[rows] = np.take_along_axis(cand, best, axis=1)
        distances[rows] = np.take_along_axis(dist, best, axis=1)
        cells, calls, largest = np.array(stats).T
        return np.array([cells.sum(), len(ids), calls.sum(), largest.max()])

    def rank_rows(worker: int) -> list:
        # One call per group: a group's arrays are freed before the next one's.
        with np.errstate(over="ignore", invalid="ignore"):
            return [rank_group(first, buffers[worker]) for first in groups[worker::workers]]

    with ThreadPoolExecutor(workers) as pool:
        stats = np.array([group for worker in pool.map(rank_rows, range(workers))
                          for group in worker])
    screened, candidates, calls = stats[:, :3].sum(axis=0)
    low = np.flatnonzero(distances < 2.0 ** -511)  # see Range
    if (x.take(low // k_max, axis=0) != x.take(indices.ravel()[low], axis=0)).any():
        raise InputError("squared distances between points underflow float64")
    if not np.isfinite(distances).all():  # see Range
        raise InputError("squared distances between points overflow float64")
    log.debug("build_knn: N=%d, %d blocks, %.3f of N screened per row, "
              "%.1f candidates per row, %d products of at most %d multiply-adds",
              n, blocks, screened / n / n, candidates / n, calls, stats[:, 3].max())
    return NeighborTable(distances=distances, indices=indices)
