"""Point-set ingestion, synthetic dataset generators and deterministic seeding.

Every generator is a pure function of its parameters and a seed: the same
call always reproduces bit-identical coordinates. CSV files are plain
comma-separated text with '.' as the decimal separator; an optional header
row is detected when no cell of the first row parses as a number.
"""

from __future__ import annotations

import inspect
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# A seed is a plain unsigned 64-bit integer. All randomized steps derive
# their generators from it through `spawn_rng`, so equal seeds give
# bit-identical results everywhere downstream.
Seed = int

# Seeds lie in [0, SEED_RANGE); derived seeds wrap around at it.
SEED_RANGE = 2**64


def check_seed(seed: Seed) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise InputError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < SEED_RANGE:
        raise InputError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def spawn_rng(seed: Seed, *stream: int) -> np.random.Generator:
    """Deterministic generator for `seed`, optionally keyed by a sub-stream."""
    return np.random.default_rng(np.random.SeedSequence([check_seed(seed), *stream]))


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in R^d with optional ground-truth labels.

    Labels, when present, are class ids forming a contiguous range 0..C-1.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InputError(f"points must be a 2-D array, got ndim={pts.ndim}")
        n, d = pts.shape
        if n < 2:
            raise InputError(f"need at least 2 points, got {n}")
        if d < 1:
            raise InputError("points must have at least one coordinate")
        if not np.all(np.isfinite(pts)):
            raise InputError("points contain non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (n,):
                raise InputError(
                    f"labels length {lab.shape} does not match point count {n}"
                )
            ids = np.unique(lab)
            if ids[0] != 0 or ids[-1] != len(ids) - 1:
                raise InputError("label ids must form a contiguous range from 0")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_classes(self) -> int:
        if self.labels is None:
            raise InputError(f"point set {self.name!r} has no labels")
        return int(self.labels.max()) + 1


def _parse_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _encode_labels(raw: list[str]) -> np.ndarray:
    """Map raw label cells to contiguous ids 0..C-1 in sorted value order."""
    numeric = [_parse_number(c) for c in raw]
    if all(v is not None for v in numeric):
        keys: list = numeric  # type: ignore[assignment]
    else:
        keys = raw
    order = {v: i for i, v in enumerate(sorted(set(keys)))}
    return np.array([order[k] for k in keys], dtype=np.int64)


def load_csv(path, label_column: int | None = None) -> PointSet:
    """Load a point set from a CSV file.

    `label_column` is a 0-based column index; that column is extracted as
    class labels and re-encoded to 0..C-1 (silently, if not already
    contiguous); a label that parses as NaN is refused. All remaining
    cells must parse as finite reals. Parse failures report the 1-based
    row number of the offending line. A leading UTF-8 byte-order mark, as
    Excel writes, is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise InputError(f"{path}: file is empty")

    first_cells = rows[0][1].split(",")
    if all(_parse_number(c.strip()) is None for c in first_cells):
        rows = rows[1:]  # header row
    if not rows:
        raise InputError(f"{path}: no data rows")

    arity = len(rows[0][1].split(","))
    if label_column is not None and not 0 <= label_column < arity:
        raise InputError(f"label column {label_column} out of range for {arity} columns")

    coords: list[list[float]] = []
    raw_labels: list[str] = []
    for rownum, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != arity:
            raise InputError(
                f"{path}: row {rownum} has {len(cells)} cells, expected {arity}"
            )
        vec = []
        for j, cell in enumerate(cells):
            if j == label_column:
                # NaN equals no value, itself included, so it names no class.
                if math.isnan(_parse_number(cell) or 0.0):
                    raise InputError(f"{path}: row {rownum}: label {cell!r} is NaN")
                raw_labels.append(cell)
                continue
            value = _parse_number(cell)
            if value is None or not math.isfinite(value):
                raise InputError(f"{path}: row {rownum}: cannot parse {cell!r} as a number")
            vec.append(value)
        coords.append(vec)

    if len(coords) < 2:
        raise InputError(f"{path}: need at least 2 data rows, got {len(coords)}")
    labels = _encode_labels(raw_labels) if label_column is not None else None
    return PointSet(np.array(coords, dtype=np.float64), labels,
                    name=os.path.basename(str(path)))


def save_csv(ps: PointSet, path) -> None:
    """Write a point set as CSV; labels, if present, go in the last column.

    Coordinates are written with shortest round-trip precision, so
    load_csv(save_csv(ps)) reproduces every value exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ps.n):
            cells = [repr(float(x)) for x in ps.points[i]]
            if ps.labels is not None:
                cells.append(str(int(ps.labels[i])))
            fh.write(",".join(cells) + "\n")


def _whole(value, what: str) -> int:
    """`value` as an int; `what` names it when it is not a whole number."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise InputError(f"{what} must be a whole number, got {value!r}")


def _as_counts(size, groups: int, what: str) -> list[int]:
    if not np.iterable(size):
        counts = [_whole(size, f"{what}: size")] * groups
    else:
        counts = [_whole(s, f"{what}: size") for s in size]
        if len(counts) != groups:
            raise InputError(f"{what}: got {len(counts)} sizes for {groups} groups")
    if any(c < 2 for c in counts):
        raise InputError(f"{what}: every group needs at least 2 points")
    return counts


def _check_array_size(n: int, dim: int, what: str) -> None:
    """Refuse n points in `dim` coordinates whose float64 array numpy
    cannot size: its byte count must be below 2**63."""
    if n * dim * 8 >= 2**63:
        raise InputError(f"{what}: parameters too large: {n} points in {dim} dimensions")


def _check_scale(value, what: str, positive: bool = False) -> None:
    """Refuse a spread, noise, radius or separation that is NaN, infinite
    or negative, or with `positive` also zero, or not a real number;
    `what` names it."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise InputError(f"{what} must be finite and {sign}, got {value!r}")


def _as_floats(value, groups: int | None, what: str, name: str,
               positive: bool = False) -> list[float]:
    """`value` as one float per group: one real for every group, or a list
    of one per group (with groups None, as many as given). `_check_scale`
    checks each before it is converted, naming it `what: name`."""
    listed = np.iterable(value) and not isinstance(value, str)
    vals = list(value) if listed else [value] * (groups or 1)
    for v in vals:
        _check_scale(v, f"{what}: {name}", positive)
    if groups is not None and len(vals) != groups:
        raise InputError(f"{what}: got {len(vals)} values for {groups} groups")
    return [float(v) for v in vals]


def _unit_vectors(theta: np.ndarray) -> np.ndarray:
    """Directions on the unit circle with Euclidean norm exactly 1.0."""
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # One or two renormalization passes pin the norm to exactly 1.
    for _ in range(3):
        norms = np.sqrt((u * u).sum(axis=1))
        if np.all(norms == 1.0):
            break
        u = u / norms[:, None]
    return u


def _gen_blobs(seed, clusters=3, size=50, spread=1.0, separation=10.0, dim=2):
    clusters = _whole(clusters, "blobs: clusters")
    dim = _whole(dim, "blobs: dim")
    if clusters < 1 or dim < 1:
        raise InputError("blobs: clusters and dim must be positive")
    counts = _as_counts(size, clusters, "blobs")
    spreads = _as_floats(spread, clusters, "blobs", "spread")
    _check_scale(separation, "blobs: separation")
    _check_array_size(sum(counts), dim, "blobs")
    centers = np.zeros((clusters, dim))
    if clusters > 1:
        angles = 2.0 * np.pi * np.arange(clusters) / clusters
        if dim == 1:
            centers[:, 0] = separation * np.arange(clusters)
        else:
            centers[:, 0] = separation * np.cos(angles)
            centers[:, 1] = separation * np.sin(angles)
    rng = spawn_rng(seed)
    chunks, labels = [], []
    for c, (count, sd) in enumerate(zip(counts, spreads)):
        chunks.append(centers[c] + rng.normal(0.0, sd, (count, dim)) if sd > 0
                      else np.tile(centers[c], (count, 1)))
        labels.append(np.full(count, c, dtype=np.int64))
    return PointSet(np.vstack(chunks), np.concatenate(labels), name="blobs")


def _gen_circles(seed, radii=(1.0, 3.0), size=200, noise=0.0):
    radii = _as_floats(radii, None, "circles", "radii", positive=True)
    _check_scale(noise, "circles: noise")
    counts = _as_counts(size, len(radii), "circles")
    _check_array_size(sum(counts), 2, "circles")
    rng = spawn_rng(seed)
    chunks, labels = [], []
    for c, (radius, count) in enumerate(zip(radii, counts)):
        # Evenly spaced angles; the noise term supplies all randomness.
        theta = 2.0 * np.pi * np.arange(count) / count
        ring = radius * _unit_vectors(theta)
        if noise > 0:
            ring = ring + rng.normal(0.0, noise, (count, 2))
        chunks.append(ring)
        labels.append(np.full(count, c, dtype=np.int64))
    return PointSet(np.vstack(chunks), np.concatenate(labels), name="circles")


def _gen_moons(seed, size=100, noise=0.05):
    counts = _as_counts(size, 2, "moons")
    _check_array_size(sum(counts), 2, "moons")
    _check_scale(noise, "moons: noise")
    rng = spawn_rng(seed)
    t1 = np.pi * np.arange(counts[0]) / counts[0]
    t2 = np.pi * np.arange(counts[1]) / counts[1]
    upper = np.stack([np.cos(t1), np.sin(t1)], axis=1)
    lower = np.stack([1.0 - np.cos(t2), 0.5 - np.sin(t2)], axis=1)
    pts = np.vstack([upper, lower])
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, pts.shape)
    labels = np.concatenate([np.zeros(counts[0], np.int64), np.ones(counts[1], np.int64)])
    return PointSet(pts, labels, name="moons")


def _gen_mixed_density(seed, size_dense=150, size_sparse=50, spread_dense=0.3,
                       spread_sparse=1.5, separation=8.0, dim=2):
    _check_scale(spread_dense, "mixed-density: spread_dense", positive=True)
    _check_scale(spread_sparse, "mixed-density: spread_sparse", positive=True)
    _check_scale(separation, "mixed-density: separation")
    counts = _as_counts([_whole(size_dense, "mixed-density: size_dense"),
                         _whole(size_sparse, "mixed-density: size_sparse")], 2, "mixed-density")
    dim = _whole(dim, "mixed-density: dim")
    if dim < 1:
        raise InputError("mixed-density: dim must be positive")
    _check_array_size(sum(counts), dim, "mixed-density")
    rng = spawn_rng(seed)
    dense = rng.normal(0.0, spread_dense, (counts[0], dim))
    center = np.zeros(dim)
    center[0] = separation
    sparse = center + rng.normal(0.0, spread_sparse, (counts[1], dim))
    labels = np.concatenate([np.zeros(counts[0], np.int64), np.ones(counts[1], np.int64)])
    return PointSet(np.vstack([dense, sparse]), labels, name="mixed-density")


_GENERATORS = {
    "blobs": _gen_blobs,
    "circles": _gen_circles,
    "moons": _gen_moons,
    "mixed-density": _gen_mixed_density,
}

SYNTHETIC_KINDS = tuple(sorted(_GENERATORS))


def gen_synthetic(kind: str, params: dict | None = None, seed: Seed = 0) -> PointSet:
    """Generate a labeled synthetic point set.

    kind is one of 'blobs', 'circles', 'moons' or 'mixed-density'; params
    are the keyword arguments of the matching generator. Identical
    (kind, params, seed) triples reproduce identical point sets. Unusable
    params raise InputError, a count too large to index or allocate too.
    """
    if kind not in _GENERATORS:
        raise InputError(f"unknown synthetic kind {kind!r}; choose from {SYNTHETIC_KINDS}")
    params = dict(params or {})
    accepted = list(inspect.signature(_GENERATORS[kind]).parameters)[1:]  # all but seed
    for key in params:
        if key not in accepted:
            raise InputError(f"{kind}: unknown parameter {key!r}; "
                             f"{kind} takes {', '.join(accepted)}")
    try:
        return _GENERATORS[kind](seed, **params)
    except TypeError as exc:
        raise InputError(f"{kind}: {exc}") from exc
    except (OverflowError, MemoryError) as exc:
        raise InputError(f"{kind}: parameters too large: {exc}") from exc
