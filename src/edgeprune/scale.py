"""Local scale estimation from neighbor-distance histograms.

Each point gets a bandwidth sigma_p describing the density around it:
the mean distance to its first K neighbors, where K is chosen by looking
for the first density break in a histogram of the point's neighbor
distances. All per-point histograms share one global bin width obtained
from the Freedman-Diaconis rule over every distance in the neighbor
table, and are anchored at distance zero so bins are comparable across
points.

The density break is detected by smoothing the histogram with a moving
weighted average that divides the usual 3-bin window sum by the window's
bin ranks, which discounts far bins. The first bin whose raw count
strictly exceeds its own smoothed value is read as a spike of neighbors
with different surrounding density; only neighbors in earlier bins enter
sigma_p. When no spike exists, or when it sits in the very first bin (so
no earlier neighbors exist), the whole row is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .knn import NeighborTable

# Most bins a histogram may have. More come only from a bin width tiny
# next to the values, and the histogram's arrays take about 32 bytes a
# bin, so the count could exhaust memory.
MAX_BINS = 2**24


@dataclass(frozen=True)
class Histogram:
    """Fixed-width histogram anchored at 0, with 1-based bin ranks."""

    bin_width: float
    edges: np.ndarray   # nbins + 1 ascending boundaries, edges[0] == 0
    counts: np.ndarray  # per-bin value counts
    ranks: np.ndarray   # 1..nbins; rank 1 holds the closest values


@dataclass(frozen=True)
class LocalScales:
    """sigma[p] > 0 is the mean distance to the first kth[p] neighbors of p."""

    sigma: np.ndarray
    kth: np.ndarray

    def __post_init__(self):
        self.sigma.setflags(write=False)
        self.kth.setflags(write=False)


def fd_bin_width(values) -> float:
    """Freedman-Diaconis bin width: 2 * IQR * n^(-1/3).

    Quantiles use linear interpolation. Degenerate inputs fall back to
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
    q25, q75 = np.quantile(v, [0.25, 0.75])
    iqr = float(q75 - q25)
    if iqr == 0.0:
        return (vmax - vmin) / math.ceil(math.sqrt(v.size))
    return 2.0 * iqr * v.size ** (-1.0 / 3.0)


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
    ranks = np.arange(1, nbins + 1, dtype=np.int64)
    return Histogram(bin_width=float(bin_width), edges=edges, counts=counts, ranks=ranks)


def mwa_smooth(h: Histogram) -> np.ndarray:
    """Rank-weighted moving average of bin counts.

    MWA_i = (v_{i-1} + v_i + v_{i+1}) / (r_{i-1} + r_i + r_{i+1}); at the
    boundaries the missing neighbor terms drop out of both sums.
    """
    v = np.asarray(h.counts, dtype=np.float64)
    r = np.asarray(h.ranks, dtype=np.float64)
    num = v.copy()
    den = r.copy()
    num[1:] += v[:-1]
    den[1:] += r[:-1]
    num[:-1] += v[1:]
    den[:-1] += r[1:]
    return num / den


def local_scale_row(row_distances, bin_width: float) -> tuple[float, int]:
    """Scale and neighbor cutoff for one point's ascending distance row.

    Returns (sigma_p, K). K counts the neighbors that fall before the
    first histogram bin whose raw count strictly exceeds its smoothed
    value; if there is no such bin, if it is the first bin, or if no
    neighbor precedes it, K falls back to the full row. A zero mean
    (duplicate points) falls back to the smallest positive distance in
    the row, or to the bin width when every distance is zero.

    This is the per-row reference that `compute_scales` reproduces
    bit-for-bit on every row of a table. A row that would need more than
    MAX_BINS bins raises NumericError here.
    """
    row = np.asarray(row_distances, dtype=np.float64).ravel()
    if row.size == 0:
        raise InputError("local_scale_row: empty row")
    k_max = row.size
    hist = build_histogram(row, bin_width)
    mwa = mwa_smooth(hist)
    spikes = np.nonzero(hist.counts > mwa)[0]
    if spikes.size == 0 or spikes[0] == 0:
        k = k_max
    else:
        k = int(hist.counts[: spikes[0]].sum())
        if k == 0:
            k = k_max
    sigma = float(row[:k].mean())
    if sigma == 0.0:
        positive = row[row > 0]
        sigma = float(positive.min()) if positive.size else float(bin_width)
    return sigma, k


def compute_scales(nt: NeighborTable) -> LocalScales:
    """Local scales for every point of a neighbor table, all rows at once.

    The Freedman-Diaconis width is computed once over all N * k_max
    distances and shared by the rows; each row keeps its own bin count,
    ceil(row max / width). Because a row is ascending, its bin indices
    are non-decreasing, so its occupied bins are the runs of equal bin
    index. An empty bin can never exceed its non-negative smoothed value,
    so only runs are tested for a spike. The result equals
    `local_scale_row(nt.distances[p], width)` for every row p that the
    reference can histogram; no bins are allocated here, so rows above
    MAX_BINS bins are scaled too.
    """
    d = nt.distances
    width = fd_bin_width(d)
    if d.min() < 0:
        raise InputError("compute_scales: distances must be non-negative")
    n, k_max = d.shape
    nbins = np.maximum(np.ceil(d.max(axis=1) / width).astype(np.int64), 1)
    bins = np.minimum((d // width).astype(np.int64), nbins[:, None] - 1).ravel()

    # Runs of equal bin index within a row, in row-major order.
    starts = np.ones(bins.size, dtype=bool)
    starts[1:] = bins[1:] != bins[:-1]
    starts[::k_max] = True
    first = np.flatnonzero(starts)
    row = first // k_max
    col = first % k_max
    b = bins[first]
    count = np.diff(np.append(first, bins.size))
    # Two consecutive runs share a smoothing window only when they sit in
    # adjacent bins of the same row. The window's rank sum is b (0 for
    # the first bin) + (b + 1), plus b + 2 unless b is the row's last bin.
    adjacent = (row[1:] == row[:-1]) & (b[1:] == b[:-1] + 1)
    num = count.astype(np.float64)
    num[1:] += np.where(adjacent, count[:-1], 0)
    num[:-1] += np.where(adjacent, count[1:], 0)
    den = 2 * b + 1 + np.where(b + 1 < nbins[row], b + 2, 0)
    spike = count > num / den

    # K is the position of the first spiking run; a spike in the row's
    # first run (position 0) or no spike at all keeps the full row.
    kth = np.full(n, k_max, dtype=np.int64)
    spike_rows, at = np.unique(row[spike], return_index=True)
    first_spike = col[spike][at]
    kth[spike_rows] = np.where(first_spike > 0, first_spike, k_max)

    sigma = np.empty(n, dtype=np.float64)
    for k in np.unique(kth).tolist():
        rows = np.flatnonzero(kth == k)
        sigma[rows] = d[rows, :k].mean(axis=1)
    zero = np.flatnonzero(sigma == 0.0)
    if zero.size:
        smallest = np.where(d[zero] > 0, d[zero], np.inf).min(axis=1)
        sigma[zero] = np.where(np.isfinite(smallest), smallest, width)
    return LocalScales(sigma=sigma, kth=kth)
