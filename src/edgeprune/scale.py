"""Local scale estimation from neighbor-distance histograms.

Each point gets a bandwidth sigma_p describing the density around it:
the mean distance to its first K neighbors, where K is chosen by looking
for the first density break in a histogram of the point's neighbor
distances. All per-point histograms share one global bin width obtained
from the Freedman-Diaconis rule over every distance in the neighbor
table, and are anchored at distance zero so bins are comparable across
points. Its quartiles are numpy's default linear rule (Hyndman & Fan
1996, type 7), selected here from one partitioned copy of the table:
`np.quantile` gives the same bits but imports `numpy.ma` on first use.

The density break is detected by smoothing the histogram with a moving
weighted average that divides the usual 3-bin window sum by the window's
bin ranks, which discounts far bins: with counts v_i and 1-based ranks
r_i = i, MWA_i = (v_{i-1} + v_i + v_{i+1}) / (r_{i-1} + r_i + r_{i+1}),
where a missing neighbor drops out of both sums. The first bin whose raw
count strictly exceeds its own smoothed value is read as a spike of
neighbors with different surrounding density; only neighbors in earlier
bins enter sigma_p. When no spike exists, or when it sits in the very
first bin (so no earlier neighbors exist), the whole row is used. A zero
mean (duplicate points) falls back to the row's smallest positive
distance, or to the bin width when every distance is zero.

`compute_scales` finds every row's K without building a histogram. Its
bins come from one true division by the width, divided again with
numpy's floor_divide only on the few cells where the two can part. It
then scans each row's runs of equal bin from the start and stops at the
row's first spike. Counts along runs that do not spike must grow fast,
so at k_max <= 81 no row's scan goes past its third run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .knn import NeighborTable

# Most bins a histogram may have. More come only from a bin width tiny
# next to the values, and the histogram's arrays take about 32 bytes a
# bin, so the count could exhaust memory.
MAX_BINS = 2**24

# numpy's floor_divide equals the floor of the true quotient below this.
_EXACT_QUOTIENT = 2.0**51

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-width histogram anchored at 0."""

    edges: np.ndarray   # nbins + 1 ascending boundaries, edges[0] == 0
    counts: np.ndarray  # per-bin value counts


@dataclass(frozen=True, eq=False)
class LocalScales:
    """sigma[p] > 0 is the scale of point p, read from its first kth[p] neighbors."""

    sigma: np.ndarray
    kth: np.ndarray

    def __post_init__(self):
        self.sigma.setflags(write=False)
        self.kth.setflags(write=False)


def fd_bin_width(values) -> float:
    """Freedman-Diaconis bin width: 2 * IQR * n^(-1/3).

    Quartiles follow Hyndman & Fan's (1996) type 7, the linear rule: the
    q-quartile of the sorted values s sits at virtual index h = (n - 1) q,
    and with j = floor(h), t = h - j it is s_j + (s_{j+1} - s_j) t, or
    s_{j+1} - (s_{j+1} - s_j)(1 - t) when t >= 0.5, so that t = 1 would
    give s_{j+1} exactly. That is numpy's default `np.quantile`, bit for
    bit, but selected here by one `np.partition` of a copy: `np.quantile`
    calls `np.unique`, whose first call imports `numpy.ma` (about 10 ms and
    1.3 MB of a process) for nothing else. Degenerate inputs fall back to
    (max - min) / ceil(sqrt(n)) when the IQR is zero, and to a unit width
    of 1 when all values are equal.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise InputError("fd_bin_width: empty input")
    if not np.all(np.isfinite(v)):
        raise InputError("fd_bin_width: values must be finite")
    vmin, vmax = float(v.min()), float(v.max())
    if vmax == vmin:
        return 1.0
    h = (v.size - 1) * np.array([0.25, 0.75])  # exact, and h < n - 1 when n >= 2
    j = np.floor(h).astype(np.intp)
    s = np.partition(v, np.concatenate((j, j + 1)))
    q25, q75 = (_lerp(s[i], s[i + 1], t) for i, t in zip(j.tolist(), (h - j).tolist()))
    iqr = float(q75 - q25)
    if iqr == 0.0:
        return (vmax - vmin) / math.ceil(math.sqrt(v.size))
    return 2.0 * iqr * v.size ** (-1.0 / 3.0)


def _lerp(a, b, t):
    """numpy's linear interpolation from a to b at weight t in [0, 1)."""
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def build_histogram(values, bin_width: float) -> Histogram:
    """Bin non-negative values into [0, w), [w, 2w), ... with the last bin
    closed on the right.

    Raises NumericError, before allocating any bin, when the values would
    need more than MAX_BINS bins.
    """
    if bin_width <= 0 or not math.isfinite(bin_width):
        raise InputError(f"bin width must be positive, got {bin_width}")
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise InputError("histogram needs at least one value")
    if np.any(v < 0):
        raise InputError("histogram values must be non-negative")
    span = float(v.max()) / bin_width
    if not span <= MAX_BINS:
        raise NumericError(f"histogram would need {span:.3g} bins of width {bin_width:.3g}, "
                           f"more than {MAX_BINS}")
    nbins = max(1, math.ceil(span))
    idx = np.minimum((v // bin_width).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    edges = np.arange(nbins + 1, dtype=np.float64) * bin_width
    return Histogram(edges=edges, counts=counts)


def compute_scales(nt: NeighborTable) -> LocalScales:
    """Local scales for every point of a neighbor table, all rows at once.

    The Freedman-Diaconis width is computed once over all N * k_max
    distances and shared by the rows; each row keeps its own bin count,
    ceil(row max / width). Bins are floor(d / width), from one true
    division; only cells where that can differ from numpy's
    `d // width` (a positive whole quotient, or one of 2**51 or more)
    are divided again (`_floor_divide` derives the rule). Because a row
    is ascending, its bin indices are non-decreasing, so its occupied
    bins are the runs of equal bin index. An empty bin can never exceed
    its non-negative smoothed value, so only runs are tested for a
    spike. Each row's runs are scanned from its start, and a row leaves
    the scan at its first spiking run; at k_max <= 81 no row visits more
    than 3 runs (`_first_spikes` derives the bound). Each row equals, bit
    for bit, `local_scale_row` of `tests/reference.py`, which builds the
    row's histogram, wherever that has at most MAX_BINS bins; rows above
    that are scaled here too. A row whose bin count does not fit in int64
    (a width below 2**-63 of the row maximum) raises NumericError.

    At DEBUG, one line gives the width, the rows with K < k_max, the
    runs the deepest row's scan visited and the cells the floor fix-up
    divided again.
    """
    d = nt.distances
    width = fd_bin_width(d)
    if d.min() < 0:
        raise InputError("compute_scales: distances must be non-negative")
    n, k_max = d.shape
    with np.errstate(over="ignore"):  # an infinite span is refused below
        q = np.divide(d, width, order="C")
    # Division by a positive constant keeps the order, so this is the
    # row maximum divided by the width.
    span = q.max(axis=1)
    if not np.all(span < 2.0**63):
        raise NumericError(f"compute_scales: a row spans {span.max():.3g} bins of width "
                           f"{width:.3g}, more than int64 can count")
    nbins = np.maximum(np.ceil(span).astype(np.int64), 1)
    bins, redone = _floor_divide(d, width, q, span)
    del q  # each N * k_max temporary is freed once read, to bound the peak
    np.minimum(bins, nbins[:, None] - 1, out=bins)
    kth, depth = _first_spikes(bins, nbins)
    del bins
    if log.isEnabledFor(logging.DEBUG):
        log.debug("compute_scales: width %.6g, %d of %d rows with K < k_max, deepest run "
                  "scanned %d, %d cells divided again", width, np.count_nonzero(kth < k_max), n,
                  depth, redone)

    if np.all(kth == k_max):  # every row's mean, without a gathered copy
        sigma = np.ascontiguousarray(d).mean(axis=1)
    else:
        sigma = np.empty(n, dtype=np.float64)
        for k in np.flatnonzero(np.bincount(kth)).tolist():
            rows = np.flatnonzero(kth == k)
            sigma[rows] = d[rows, :k].mean(axis=1)
    zero = np.flatnonzero(sigma == 0.0)
    if zero.size:
        smallest = np.where(d[zero] > 0, d[zero], np.inf).min(axis=1)
        sigma[zero] = np.where(np.isfinite(smallest), smallest, width)
    return LocalScales(sigma=sigma, kth=kth)


def _floor_divide(d, width, q, span) -> tuple[np.ndarray, int]:
    """`d // width` as int64, from the true quotients q = d / width.

    Returns the bins and the number of cells divided again. Every
    quotient must be below 2**63 (`span` holds each row's largest).

    numpy's floor_divide(a, b), for finite a >= 0 and b > 0, takes the
    exact remainder m = fmod(a, b) and rounds (a - m) / b to the nearest
    whole number. (a - m) / b lies within a few ulps of trunc(a / b),
    a whole number, so below 2**51 that rounding lands on trunc(a / b)
    exactly. The correctly rounded quotient q = fl(a / b) is monotone in
    a / b, so floor(q) is trunc(a / b) too unless q rounded up onto a
    whole number; q can only round down onto a whole number that a / b
    already reaches. So a cell is divided again only where q is a
    positive whole number, or where q >= 2**51, in the rows whose span
    reaches it. A zero quotient needs no second division: it means
    a < b, where both rules give 0. Casting q >= 0 to int64 truncates,
    which is its floor.
    """
    bins = q.astype(np.int64)
    again = bins == q
    big = np.flatnonzero(span >= _EXACT_QUOTIENT)
    if big.size:
        again[big] |= q[big] >= _EXACT_QUOTIENT
    cells = np.flatnonzero(again)
    cells = cells[q.ravel()[cells] > 0]
    if cells.size:
        at = np.unravel_index(cells, d.shape)
        bins[at] = (d[at] // width).astype(np.int64)
    return bins, cells.size


def _first_spikes(bins, nbins) -> tuple[np.ndarray, int]:
    """K of every row, scanning its runs of equal bin from the start.

    Returns kth and the number of runs the deepest row visited. A row
    stops at its first spiking run; only rows still undecided go on to
    their next run. A run of count c in bin b has smoothing window
    (prev + c + next) / den, where prev and next count the adjacent runs
    in bins b - 1 and b + 1, and den = 3b + 3, or 2b + 1 in the row's
    last bin. It fails to spike only when prev + next >= (den - 1) * c.

    Depth bound. In an ascending row, bins rise along the runs, so run i
    sits in bin b_i >= i - 1 and only run i + 1 can follow it in bin
    b_i + 1. A run that fails to spike outside the row's last bin needs
    prev + next >= (3 b_i + 2) * c_i. For the first run (no prev) that
    is c_2 >= 2 c_1; by induction c_i >= 2 c_{i-1}, so
    c_{i+1} >= (3 b_i + 2) c_i - c_{i-1} >= (3 i - 1.5) c_i. So the
    counts of a chain of runs that do not spike grow at least as
    1, 2, 9, 70, ..., and the scan reaches its m-th run only when the
    row holds c_1 + ... + c_m cells: 3 for the 2nd run, 12 for the 3rd,
    82 for the 4th. So at k_max <= 81 (the default is at most 50) it
    visits at most 3 runs, whatever the table, and its cost stays a few
    passes over N * k_max. The scan
    needs no bound to be exact: a row that runs out of runs keeps
    K = k_max.
    """
    n, k_max = bins.shape
    # ends[p, j]: column j is the last of a run of row p not yet visited.
    ends = np.ones((n, k_max), dtype=bool)
    np.not_equal(bins[:, 1:], bins[:, :-1], out=ends[:, :-1])
    kth = np.full(n, k_max, dtype=np.int64)
    rows = np.arange(n)
    start = np.zeros(n, dtype=np.int64)
    stop = ends.argmax(axis=1) + 1
    prev_bin = prev_count = np.zeros(n, dtype=np.int64)
    depth = 0
    while rows.size:
        depth += 1
        # Consume each run's end but the row's last; the next run ends
        # at the first end left. A row's last run is its own next run,
        # of count 0.
        last = stop == k_max
        ends[rows, stop - 1] = last
        next_stop = ends[rows].argmax(axis=1) + 1
        b = bins[rows, start]
        count = stop - start
        num = count.astype(np.float64)
        num += np.where(prev_bin == b - 1, prev_count, 0)
        num += np.where(bins[rows, next_stop - 1] == b + 1, next_stop - stop, 0)
        den = 2 * b + 1 + np.where(b + 1 < nbins[rows], b + 2, 0)
        spike = count > num / den
        # A spike in the row's first run keeps the full row.
        cut = spike & (start > 0)
        kth[rows[cut]] = start[cut]
        go = ~(spike | last)
        rows, start, stop = rows[go], stop[go], next_stop[go]
        prev_bin, prev_count = b[go], count[go]
    return kth, depth


def seventh_neighbor_scales(nt: NeighborTable) -> LocalScales:
    """The fixed scale of self-tuning spectral clustering (Zelnik-Manor &
    Perona 2004), for comparison runs: sigma[p] is the distance to p's 7th
    neighbor, or to its k_max-th when k_max < 7, and kth[p] that neighbor's
    rank. A zero (duplicate points) falls back to `fd_bin_width` of the table."""
    col = min(7, nt.k_max) - 1
    sigma = nt.distances[:, col].copy()
    if np.any(sigma <= 0):
        sigma[sigma <= 0] = fd_bin_width(nt.distances)
    return LocalScales(sigma=sigma, kth=np.full(nt.n, col + 1, dtype=np.int64))
