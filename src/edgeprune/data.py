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
# their generators from it through `spawn_rng`, or, where many keyed
# generators would each draw a few samples, take those same draws from
# `_spawn_choices`, which computes at once the lanes that draw no more
# than there are lanes and no more than its cap; so equal seeds give
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
    """Deterministic generator for `seed`, optionally keyed by a sub-stream.

    `_spawn_choices(seed, stream, keys, ...)` gives, bit for bit, what
    `spawn_rng(seed, stream, key).choice(...)` draws for each key; it
    builds a key's generator only for the lanes it does not batch.
    """
    return np.random.default_rng(np.random.SeedSequence([check_seed(seed), *stream]))


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): 32-bit constants.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Draws per block of lanes in `_spawn_choices`, which bounds its scratch
# (under 100 bytes a draw), and the largest count it batches (see there).
_CHOICE_DRAWS, _BATCH_COUNT = 2**13, 192


def _words32(value: int) -> list[int]:
    """An integer's little-endian uint32 words, as SeedSequence reads it."""
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hashes(mult: int, init: int, count: int) -> np.ndarray:
    """SeedSequence's first `count` hash constants from `init`, as (xor,
    multiplier) pairs: (2, count, 1) uint32 for broadcasting over lanes."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _M32)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)[:, :, None]


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 `value` rows with `consts` from `_hashes`."""
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return value ^ (value >> 16)


def _seed_words(seed: Seed, stream: int, keys: np.ndarray) -> np.ndarray:
    """`SeedSequence([seed, stream, key]).generate_state(4, np.uint64)` for
    a stream and every key below 2**32, as a (4, lanes) uint64 array.

    The seed's one or two words, the stream's and the key's fill at most
    the pool of 4, which runs as one (4, lanes) uint32 array; numpy wraps
    uint32 array arithmetic mod 2**32 without a warning.
    """
    prefix = [*_words32(check_seed(seed)), stream]
    entropy = np.zeros((4, keys.size), dtype=np.uint32)  # 0-padded
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = keys
    consts = _hashes(_MULT_A, _INIT_A, 16)
    pool = _hash(entropy, consts[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[:, 4 + 3 * src:7 + 3 * src]))
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hashes(_MULT_B, _INIT_B, 8)).astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(a * b) mod 2**128 on (high, low) uint64 words; numpy wraps uint64
    array products mod 2**64, so the low word is a_lo * b_lo and the high
    one adds the carry of that product from its 32-bit halves."""
    x0, x1, y0, y1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    mid = x1 * y0 + ((x0 * y0) >> 32)
    carry = (x0 * y1 + (mid & _M32)) >> 32
    return x1 * y1 + (mid >> 32) + carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _lcg_jumps(steps: int) -> np.ndarray:
    """(A_t, C_t) for t < steps, as (4, steps) uint64 words (A high, A low,
    C high, C low): t steps of PCG64's LCG take state s to A_t s + C_t inc,
    with A_t = MULT**t and C_t = MULT**(t - 1) + ... + 1, mod 2**128."""
    out, a, c = [], 1, 0
    for _ in range(steps):
        out.append((a >> 64, a & 2**64 - 1, c >> 64, c & 2**64 - 1))
        a, c = (a * _PCG_MULT) & 2**128 - 1, (c * _PCG_MULT + 1) & 2**128 - 1
    return np.array(out, dtype=np.uint64).reshape(-1, 4).T


_JUMPS = _lcg_jumps(_BATCH_COUNT + 2)   # read at t + 2 for a batched lane's output t


def _pcg64_start(words: np.ndarray) -> np.ndarray:
    """The PCG64s that (4, lanes) uint64 `words` seed, one per column, as
    SeedSequence's `generate_state(4, np.uint64)` gives them: (4, lanes)
    uint64 rows s high, s low, inc high, inc low.

    Seeding takes initstate = words (0, 1) and inc = words (2, 3) shifted
    left by one, plus 1, then sets state = (initstate + inc) * MULT + inc;
    s is initstate + inc.
    """
    w0, w1, w2, w3 = words
    inc_hi, inc_lo = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    s_lo = w1 + inc_lo
    return np.array([w0 + inc_hi + (s_lo < w1), s_lo, inc_hi, inc_lo])


def _pcg64_outputs(start: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Output `index` (from 0) of each PCG64 in `start` ((4, M) words of
    `_pcg64_start`, one column per index): `random_raw(index + 1)[index]`.

    Every output steps the state first, so output t reads state A s + C inc
    with (A, C) = `_JUMPS` at t + 2 (t below `_BATCH_COUNT`), the same
    factors for every generator; the output is XSL-RR.
    """
    index = index + 2
    hi, lo = _mul128(_JUMPS[0].take(index), _JUMPS[1].take(index), start[0], start[1])
    hi2, lo2 = _mul128(_JUMPS[2].take(index), _JUMPS[3].take(index), start[2], start[3])
    lo += lo2
    hi += hi2
    hi += lo < lo2
    lo ^= hi
    rot = hi >> 58
    return (lo >> rot) | (lo << ((64 - rot) & 63))


def _spawn_choices(seed: Seed, stream: int, keys, sizes, counts) -> np.ndarray:
    """For each lane i, `spawn_rng(seed, stream, keys[i]).choice(sizes[i],
    size=counts[i], replace=False)`, concatenated lane by lane (checked
    against numpy 2.4.6); the stream and keys below 2**32, sizes below 2**31.

    A lane goes to its own generator when numpy samples it by its tail
    shuffle (size above 10,000, count above size // 50) or its count exceeds
    the number of lanes, as the shuffle below takes a step per swap index,
    or the cap `_BATCH_COUNT` = 192, past which numpy is faster (2000 lanes
    from 5000: even at a count of 192, numpy 25% ahead at 256; numpy 2.4.6,
    2-core VM). The others, the batch, follow numpy's Floyd branch on its
    streams: v = bounded(j) for j in [size - count, size), taking j if v is
    taken already, else v; then Fisher-Yates, swapping i with bounded(i) for
    i = count - 1 down to 1, each step for all lanes at once. bounded(r) is
    Lemire's method: m = u * (r + 1) for a 32-bit word u (an output's low
    half, then its high half), redrawn while m mod 2**32 < (2**32 - r - 1)
    mod (r + 1), result m >> 32. The words are read in blocks of under
    `_CHOICE_DRAWS` + 2 * `_BATCH_COUNT` draws, which bound the scratch, as
    if none were redrawn; a lane where one is (each draw with probability
    below size / 2**32) goes to its own generator too.
    """
    keys, sizes, counts = (np.asarray(a, dtype=np.int64) for a in (keys, sizes, counts))
    if not 0 <= stream < 2**32 or (keys >= 2**32).any() or (sizes >= 2**31).any():
        raise ValueError("the stream and keys must be below 2**32 and sizes below 2**31")
    own = ((sizes > 10_000) & (counts > sizes // 50)) | (
        counts > min(keys.size, _BATCH_COUNT))
    floyd = np.where(own, 0, counts)
    out = np.empty(int(counts.sum()), dtype=np.int64)
    first = np.cumsum(counts) - counts
    if floyd.any():
        draws = np.maximum(2 * floyd - 1, 0)
        ends = np.flatnonzero(np.diff(np.cumsum(draws) // _CHOICE_DRAWS))   # a block's last lane
        cuts = [0, *(ends + 1).tolist(), keys.size]
        start = _pcg64_start(_seed_words(seed, stream, keys))
        swaps = np.maximum(floyd - 1, 0)
        edge = np.concatenate(([0], np.cumsum(swaps)))   # each lane's first swap target
        target = np.empty(edge[-1], dtype=np.int64)
        for a, b in zip(cuts[:-1], cuts[1:]):
            own[a + _floyd_block(out, target[edge[a]:edge[b]], first[a:b], start[:, a:b],
                                 sizes[a:b], floyd[a:b])] = True
        # Swap u of every lane with more than u swaps at once: sorted, they lead.
        lane = np.argsort(-swaps)
        top, base, at = (first + swaps)[lane], first[lane], edge[lane]
        for u, n in enumerate(np.searchsorted(-swaps[lane], -np.arange(swaps.max())).tolist()):
            i, j = top[:n] - u, base[:n] + target[at[:n] + u]
            out[i], out[j] = out[j], out[i]
    for i in np.flatnonzero(own).tolist():
        out[first[i]:first[i] + counts[i]] = spawn_rng(seed, stream, keys[i]).choice(
            sizes[i], size=counts[i], replace=False)
    return out


def _floyd_block(out, target, first, start, sizes, counts):
    """Floyd's picks of a block of lanes (counts up to `_BATCH_COUNT`) into
    out[first:first + count], and their swap targets bounded(count - 1),
    ..., bounded(1) into `target`; returns the lanes where Lemire's method
    redraws a word, once a word. bounded(0) (a first pick when count =
    size) reads a word numpy skips, giving 0 too."""
    draws = np.maximum(2 * counts - 1, 0)   # words, in count 64-bit outputs
    t = np.arange(draws.sum()) - np.repeat(np.cumsum(draws) - draws, draws)
    c = np.repeat(counts, draws)
    pick = t < c
    bound = np.where(pick, t + np.repeat(sizes, draws) - c, 2 * c - 1 - t)
    at = np.cumsum(counts) - counts
    k = np.arange(counts.sum()) - np.repeat(at, counts)   # a lane's outputs, and its picks
    raw = _pcg64_outputs(np.repeat(start, counts, axis=1), k)
    word = 2 * np.repeat(at, draws) + np.maximum(t - np.repeat(counts == sizes, draws), 0)
    span = (bound + 1).astype(np.uint64)
    m = raw.astype("<u8", copy=False).view("<u4")[word] * span   # low halves first
    # m mod 2**32 < (2**32 - span) mod span can only hold below span.
    low = np.flatnonzero((m & _M32) < span)
    reject = low[(m[low] & _M32) < (2**32 - span[low]) % span[low]]
    value = (m >> 32).astype(np.int64)
    out[np.repeat(first, counts) + k] = _floyd(value[pick], sizes - counts, counts)
    target[:] = value[~pick]
    return np.repeat(np.arange(counts.size), draws)[reject]


def _floyd(v, offset, pre):
    """Floyd's picks from his draws v (`pre` per lane, j = offset + t for
    draw t): every earlier v is taken, so v_t is a repeat, and j_t taken in
    its place, when it equals an earlier v, or the j of an earlier repeat
    s = v_t - offset. Sorted keys (lane, v, t) find the earlier v."""
    first = np.cumsum(pre) - pre
    t = np.arange(v.size) - np.repeat(first, pre)
    vbits, tbits = int(v.max(initial=0)).bit_length(), int(pre.max(initial=0)).bit_length()
    key = np.sort((((np.repeat(np.arange(pre.size), pre) << vbits) | v) << tbits) | t)
    dup = np.empty(v.size, dtype=bool)
    dup[first[key >> (vbits + tbits)] + (key & ((1 << tbits) - 1))] = \
        np.diff(key >> tbits, prepend=-1) == 0
    s = v - np.repeat(offset, pre)
    earlier = (s >= 0) & (s < t)
    at_s = np.arange(v.size) + np.where(earlier, s - t, 0)   # draw s of the same lane
    repeat = dup
    while not np.array_equal(repeat, nxt := dup | (earlier & repeat[at_s])):
        repeat = nxt
    return np.where(repeat, t + np.repeat(offset, pre), v)


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points in R^d with optional ground-truth labels.

    Labels, when present, are class ids forming a contiguous range 0..C-1.
    The set keeps read-only copies of both, so the caller's arrays stay
    writeable and a write to them does not reach the set.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
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
            lab = np.array(_label_ids(self.labels))
            if lab.shape != (n,):
                raise InputError(
                    f"labels length {lab.shape} does not match point count {n}"
                )
            # The range first, so that no count is sized by a stray large id.
            if not (lab.min() == 0 and lab.max() < n and np.bincount(lab).all()):
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


def _encode_labels(raw: list[str], numeric: list[float | None]) -> np.ndarray:
    """Map raw label cells to contiguous ids 0..C-1 in sorted value order;
    `numeric` holds each cell's `_parse_number`."""
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

    Cells are parsed a column at a time: every line is split once, and
    each numeric column is one pass of `float(cell.strip())`, which also
    takes cells padded with the separators U+001C-U+001F that `float`
    alone refuses. Only when a column fails (a row of the wrong arity, a
    cell that is not a number, a non-finite value or a NaN label) does
    one pass over the rows name the first offending row.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().split("\n")  # universal newlines: every line ends in \n
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

    coords, raw_labels, label_values = (_parse_columns(rows, arity, label_column)
                                        or _name_fault(path, rows, arity, label_column))
    if len(coords) < 2:
        raise InputError(f"{path}: need at least 2 data rows, got {len(coords)}")
    labels = _encode_labels(raw_labels, label_values) if label_column is not None else None
    return PointSet(coords, labels, name=os.path.basename(str(path)))


def _parse_columns(rows, arity, label_column):
    """(coordinates, raw labels, their `_parse_number`s) of `rows`, parsed
    by column; None when some row is bad, for `_name_fault` to name."""
    split = [line.split(",") for _, line in rows]
    if any(len(cells) != arity for cells in split):
        return None
    columns = list(zip(*split))
    raw_labels, label_values = [], []
    if label_column is not None:
        raw_labels = [cell.strip() for cell in columns.pop(label_column)]
        label_values = [_parse_number(cell) for cell in raw_labels]
        if any(math.isnan(v or 0.0) for v in label_values):
            return None
    coords = np.empty((len(rows), len(columns)), dtype=np.float64)
    for j, column in enumerate(columns):
        try:
            coords[:, j] = np.fromiter(map(float, map(str.strip, column)), dtype=np.float64,
                                       count=len(rows))
        except ValueError:
            return None
    return (coords, raw_labels, label_values) if np.isfinite(coords).all() else None


def _name_fault(path, rows, arity, label_column):
    """Raise InputError naming the first bad row of `rows`, and in it the
    first bad cell from the left. It checks what `_parse_columns` checks,
    so it finds a bad row wherever that returned None; if it finds none,
    the two checks disagree and it raises AssertionError."""
    for rownum, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != arity:
            raise InputError(f"{path}: row {rownum} has {len(cells)} cells, expected {arity}")
        for j, cell in enumerate(cells):
            value = _parse_number(cell)
            # NaN equals no value, itself included, so it names no class.
            if j == label_column and math.isnan(value or 0.0):
                raise InputError(f"{path}: row {rownum}: label {cell!r} is NaN")
            if j != label_column and (value is None or not math.isfinite(value)):
                raise InputError(f"{path}: row {rownum}: cannot parse {cell!r} as a number")
    raise AssertionError(f"{path}: the column parse refused rows the fault pass accepts")


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


def _is_whole(value) -> bool:
    return isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())


def _whole(value, what: str) -> int:
    """`value` as an int; `what` names it when it is not a whole number."""
    if _is_whole(value):
        return int(value)
    raise InputError(f"{what} must be a whole number, got {value!r}")


def _label_ids(labels) -> np.ndarray:
    """`labels` as an int64 array, refusing (InputError, naming the first)
    a label that is not a whole number within int64, which a cast would
    truncate, or refuse with some other error. Bools and whole floats pass."""
    raw = np.asarray(labels)
    flat = raw.ravel()
    if raw.dtype.kind == "f":  # NaN and infinities fail every comparison
        bad = ~((np.floor(flat) == flat) & (flat >= -2.0**63) & (flat < 2.0**63))
    elif raw.dtype.kind in "biu":
        bad = flat > np.iinfo(np.int64).max  # only uint64 can be
    else:  # objects (as ints past int64 give), strings, complex
        bad = np.array([not (_is_whole(v) and -2**63 <= v < 2**63) for v in flat.tolist()],
                       dtype=bool)
    if bad.any():
        raise InputError("labels must be whole numbers within int64, got "
                         f"{flat.tolist()[np.argmax(bad)]!r}")
    return raw.astype(np.int64, copy=False)


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
