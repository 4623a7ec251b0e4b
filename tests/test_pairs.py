import dataclasses
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_set, tie_heavy_tables
from edgeprune import (InputError, PairSet, PointSet, build_knn, export_pairs,
                       gen_synthetic, load_graph, mutualize, reduce_graph, save_pairs)
from edgeprune.data import spawn_rng
from edgeprune.pairs import _BLOCK, _edge_cells, _farthest_first


def pair_array(pairs):
    """A list of (p, q) pairs as the (P, 2) int64 array a PairSet holds."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def export_pairs_loop(g, nt, seed):
    """Per-point reference for export_pairs; also returns its warnings."""
    positives = sorted(g.pairs().tolist())
    degrees = g.degrees()
    adjacency = [set() for _ in range(g.n)]
    for p, q in zip(g.src.tolist(), g.dst.tolist()):
        adjacency[p].add(q)
    tie_rank = spawn_rng(seed, 0).permutation(g.n)
    negatives, warnings = [], []
    for p in range(g.n):
        need = int(degrees[p])
        if need == 0:
            continue
        row = nt.indices[p]
        non_edges = [int(q) for q in row.tolist() if q not in adjacency[p]]
        dist_of = {int(q): float(d) for q, d in zip(row.tolist(), nt.distances[p])}
        non_edges.sort(key=lambda q: (-dist_of[q], tie_rank[q]))
        chosen = non_edges[:need]
        if len(chosen) < need:
            pool = np.array([q for q in range(g.n)
                             if q != p and q not in adjacency[p] and q not in set(chosen)],
                            dtype=np.int64)
            extra = min(need - len(chosen), pool.size)
            if extra > 0:
                rng = spawn_rng(seed, 1, p)
                chosen.extend(int(q) for q in rng.choice(pool, size=extra, replace=False))
            if len(chosen) < need:
                warnings.append(f"point {p}: only {len(chosen)} of {need} negatives available")
        negatives.extend((p, q) for q in chosen)
    return PairSet(positives=pair_array(positives), negatives=pair_array(negatives)), warnings


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def assert_matches_loop(g, nt, seed):
    handler = _Collect()
    logger = logging.getLogger("edgeprune.pairs")
    logger.addHandler(handler)
    try:
        got = export_pairs(g, nt, seed)
    finally:
        logger.removeHandler(handler)
    want, warnings = export_pairs_loop(g, nt, seed)
    assert got.positives.dtype == got.negatives.dtype == np.int64
    assert np.array_equal(got.positives, want.positives)
    assert np.array_equal(got.negatives, want.negatives)
    assert handler.messages == warnings
    return got


def with_loops_and_repeats(g, rng):
    """`g` with self-loops on about a fifth of its vertices and a second
    copy of about a fifth of its edges, both ways, sorted by (src, dst)
    as a loaded graph is."""
    loops = np.flatnonzero(rng.random(g.n) < 0.2)
    again = np.flatnonzero(rng.random(g.edge_count) < 0.2)
    src = np.concatenate([g.src, loops, g.src[again], g.dst[again]])
    dst = np.concatenate([g.dst, loops, g.dst[again], g.src[again]])
    order = np.lexsort((dst, src))
    return dataclasses.replace(g, src=src[order], dst=dst[order], weight=np.ones(src.size))


@st.composite
def graphs_on_tables(draw):
    """A table plus a symmetric graph on the same vertices.

    The graph is either the mutual graph of the table's own rows (every
    row exhausted, so every point with edges falls back) or a random
    edge set whose density runs from empty (zero degrees) to complete
    (fallback pools that run out). Either may carry self-loops and
    repeated pairs, as a loaded graph may.
    """
    nt = draw(tie_heavy_tables(max_n=25))
    n = nt.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        src = np.repeat(np.arange(n), nt.k_max)
        g = mutualize(n, src, nt.indices.ravel(), np.ones(src.size))
    else:
        density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
        upper = np.triu(rng.random((n, n)) < density, k=1)
        p, q = np.nonzero(upper | upper.T)
        g = mutualize(n, p, q, np.ones(p.size))
    return nt, with_loops_and_repeats(g, rng) if draw(st.booleans()) else g


def logged_counts(caplog, g, nt, seed):
    """export_pairs' result and the counts of its DEBUG line: points with
    edges, points, fallbacks, ranks drawn and points short of negatives."""
    caplog.set_level(logging.DEBUG, logger="edgeprune.pairs")
    result = export_pairs(g, nt, seed)
    (message,) = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("export_pairs: ")]
    match = re.fullmatch(r"export_pairs: (\d+) of (\d+) points have edges, (\d+) fell back, "
                         r"(\d+) ranks drawn, (\d+) short of negatives", message)
    return result, [int(count) for count in match.groups()]


def hexagon():
    """Six points on a unit circle; each vertex's nearest two are its ring
    neighbors, the next two sit one step further."""
    theta = 2.0 * np.pi * np.arange(6) / 6
    return PointSet(np.stack([np.cos(theta), np.sin(theta)], axis=1))


def cycle_graph(n, weight=0.8):
    src = np.concatenate([np.arange(n), np.arange(n)])
    dst = np.concatenate([(np.arange(n) + 1) % n, (np.arange(n) - 1) % n])
    return mutualize(n, src, dst, np.full(2 * n, weight))


class TestExportPairs:
    def test_degree_two_cycle(self):
        ps = hexagon()
        g = cycle_graph(6)
        nt = build_knn(ps, 4)
        result = export_pairs(g, nt, seed=0)
        assert result.positives.tolist() == [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]
        per_point = {p: 0 for p in range(6)}
        for p, _ in result.negatives.tolist():
            per_point[p] += 1
        assert per_point == {p: 2 for p in range(6)}
        # Negatives for each anchor are its two farthest in-row non-edges,
        # which on the hexagon are the two second-ring neighbors.
        positives = set(map(tuple, result.positives.tolist()))
        for p, q in result.negatives.tolist():
            assert (min(p, q), max(p, q)) not in positives
            assert q in {(p + 2) % 6, (p + 4) % 6}

    def test_positives_equal_mutual_edges(self, dataset_b):
        g = reduce_graph(dataset_b, 10)
        nt = build_knn(dataset_b, 10)
        result = export_pairs(g, nt, seed=3)
        assert sorted(result.positives.tolist()) == sorted(g.pairs().tolist())

    def test_counts_match_degree_without_exhaustion(self, dataset_b):
        g = reduce_graph(dataset_b, 10)
        nt = build_knn(dataset_b, 10)
        result = export_pairs(g, nt, seed=3)
        degrees = g.degrees()
        per_point = np.zeros(g.n, dtype=int)
        for p, _ in result.negatives.tolist():
            per_point[p] += 1
        assert np.array_equal(per_point, degrees)

    def test_no_self_pairs_no_overlap(self, dataset_b):
        g = reduce_graph(dataset_b, 12)
        nt = build_knn(dataset_b, 12)
        result = export_pairs(g, nt, seed=1)
        pos = {frozenset(p) for p in result.positives.tolist()}
        for p, q in result.negatives.tolist():
            assert p != q
            assert frozenset((p, q)) not in pos

    def test_exhausted_row_falls_back_to_sampling(self):
        # Two far triangles, k_max = 2: every neighbor of every point is a
        # mutual edge, so in-row negatives are exhausted and the fallback
        # samples from the other triangle.
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
        ps = PointSet(np.vstack([tri, tri + [100.0, 0.0]]))
        g = reduce_graph(ps, 2)
        assert g.degrees().tolist() == [2] * 6
        nt = build_knn(ps, 2)
        result = export_pairs(g, nt, seed=5)
        per_point = np.zeros(6, dtype=int)
        for p, q in result.negatives.tolist():
            per_point[p] += 1
            assert (p < 3) != (q < 3)  # sampled from the far triangle
        assert per_point.tolist() == [2] * 6

    def test_zero_degree_point_contributes_nothing(self, caplog):
        g = cycle_graph(4)
        g = mutualize(5, g.src, g.dst, g.weight)  # vertex 4 isolated
        theta = 2.0 * np.pi * np.arange(4) / 4
        pts = np.vstack([np.stack([np.cos(theta), np.sin(theta)], 1), [[9.0, 9.0]]])
        nt = build_knn(PointSet(pts), 3)
        caplog.set_level(logging.DEBUG, logger="edgeprune.pairs")
        result = export_pairs(g, nt, seed=0)
        assert all(p != 4 for p, _ in result.negatives.tolist())
        assert all(4 not in pair for pair in result.positives.tolist())
        # Each ring point's row holds its two edges and the opposite point,
        # so it draws its second negative: point 4, the only one left.
        assert [r.getMessage() for r in caplog.records] == [
            "point 4 has no mutual edges; contributes no pairs",
            "export_pairs: 4 of 5 points have edges, 4 fell back, 4 ranks drawn, "
            "0 short of negatives"]

    def test_logs_points_fallbacks_draws_and_shortfalls(self, caplog):
        # Forty points, ten copies each, k_max = 9: every row holds only
        # edges, so every point falls back and draws all its negatives.
        ps = PointSet(np.repeat(np.random.default_rng(4).normal(size=(40, 2)) * 10, 10, axis=0))
        g = reduce_graph(ps, 9)
        result, counts = logged_counts(caplog, g, build_knn(ps, 9), seed=11)
        assert counts == [400, 400, 400, len(result.negatives), 0]
        # The complete graph on five points leaves every point short.
        n = 5
        p, q = np.nonzero(~np.eye(n, dtype=bool))
        caplog.clear()
        _, counts = logged_counts(caplog, mutualize(n, p, q, np.ones(p.size)),
                                  build_knn(PointSet(np.arange(10.0).reshape(n, 2)), 2), seed=0)
        assert counts == [5, 5, 5, 0, 5]

    def test_positives_independent_of_seed(self, dataset_b):
        g = reduce_graph(dataset_b, 10)
        nt = build_knn(dataset_b, 10)
        assert np.array_equal(export_pairs(g, nt, seed=0).positives,
                              export_pairs(g, nt, seed=99).positives)

    def test_deterministic_for_fixed_seed(self, dataset_b):
        g = reduce_graph(dataset_b, 10)
        nt = build_knn(dataset_b, 10)
        a = export_pairs(g, nt, seed=7)
        b = export_pairs(g, nt, seed=7)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)

    def test_arrays_read_only(self, dataset_b):
        result = export_pairs(reduce_graph(dataset_b, 10), build_knn(dataset_b, 10), seed=3)
        assert result.positives.shape[1] == result.negatives.shape[1] == 2
        assert not result.positives.flags.writeable
        assert not result.negatives.flags.writeable

    def test_peak_memory_on_duplicate_rows(self):
        # 40 distinct points from 5 blobs, each repeated 30 times in a row:
        # every point falls back, and 17,400 positives and 34,800
        # negatives come out. As arrays they peak at about 4.4 MiB; lists
        # of (int, int) tuples would take 7.8 MiB.
        rng = np.random.default_rng(1)
        angles = 2.0 * np.pi * (np.arange(40) % 5) / 5
        centers = 10.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ps = PointSet(np.repeat(centers + rng.normal(size=(40, 2)), 30, axis=0))
        nt = build_knn(ps, 50)
        g = reduce_graph(ps, 50)
        tracemalloc.start()
        try:
            result = export_pairs(g, nt, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.negatives) == int(g.degrees().sum())
        assert peak <= 6 * 2**20, f"export_pairs peaked at {peak / 2**20:.2f} MiB"

    def test_size_mismatch_rejected(self, dataset_b):
        g = reduce_graph(dataset_b, 10)
        other = gen_synthetic("moons", {"size": 30}, seed=0)
        with pytest.raises(InputError):
            export_pairs(g, build_knn(other, 5), seed=0)


@st.composite
def duplicate_heavy_tables(draw):
    """k-NN table of a few grid points each repeated up to 40 times in a
    row, as the `pairs` benchmark input is: rows of long zero runs."""
    distinct = draw(st.integers(1, 5))
    grid = draw(st.lists(st.integers(0, 3), min_size=2 * distinct, max_size=2 * distinct))
    copies = draw(st.integers(2, 40))
    points = np.repeat(np.asarray(grid, dtype=np.float64).reshape(distinct, 2), copies, axis=0)
    n = len(points)
    return build_knn(PointSet(points), draw(st.integers(1, min(n - 1, 50))))


class TestFarthestFirst:
    """The one-key order against the lexsorts it replaces."""

    @staticmethod
    def assert_equals_lexsort(nt, seed):
        # An edgeless graph: every cell is a non-edge.
        tie_rank = spawn_rng(seed, 0).permutation(nt.n)
        order = np.lexsort((tie_rank[nt.indices], -nt.distances), axis=1)
        want = np.take_along_axis(nt.indices, order, axis=1)
        got = _farthest_first(nt, seed, np.zeros(nt.indices.shape, dtype=bool))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @given(tie_heavy_tables(), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_tables(self, nt, seed):
        self.assert_equals_lexsort(nt, seed)

    @given(duplicate_heavy_tables(), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_duplicate_heavy_rows(self, nt, seed):
        self.assert_equals_lexsort(nt, seed)

    def test_fixture(self, dataset_b):
        self.assert_equals_lexsort(build_knn(dataset_b, 30), seed=3)

    @given(st.one_of(tie_heavy_tables(), duplicate_heavy_tables()), st.integers(0, 2**64 - 1),
           st.sampled_from([0.1, 0.5, 0.9, 1.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_edges_go_last(self, nt, seed, density, mask_seed):
        edge = np.random.default_rng(mask_seed).random(nt.indices.shape) < density
        tie_rank = spawn_rng(seed, 0).permutation(nt.n)
        order = np.lexsort((tie_rank[nt.indices], -nt.distances, edge), axis=1)
        want = np.take_along_axis(nt.indices, order, axis=1)
        assert np.array_equal(_farthest_first(nt, seed, edge), want)


@given(graphs_on_tables())
@settings(max_examples=200, deadline=None)
def test_edge_cells_are_the_graphs_edges(case):
    # Per cell, whether (row, id) is an edge; self-loops and repeated
    # pairs included.
    nt, g = case
    edges = edge_set(g)
    want = [[(p, q) in edges for q in row] for p, row in enumerate(nt.indices.tolist())]
    assert _edge_cells(g, nt).tolist() == want


class TestExportPairsMatchesLoop:
    """The whole-array export against the per-point reference loop."""

    @pytest.mark.parametrize("k_max", [4, 10, 30])
    def test_fixture(self, dataset_b, k_max):
        nt = build_knn(dataset_b, k_max)
        assert_matches_loop(reduce_graph(dataset_b, k_max), nt, seed=3)

    def test_every_point_falls_back(self):
        # Forty points, ten copies each: every row holds only duplicates,
        # all of them edges, so every negative is sampled.
        rng = np.random.default_rng(4)
        ps = PointSet(np.repeat(rng.normal(size=(40, 2)) * 10, 10, axis=0))
        nt = build_knn(ps, 9)
        g = reduce_graph(ps, 9)
        result = assert_matches_loop(g, nt, seed=11)
        assert len(result.negatives) == int(g.degrees().sum())

    def test_pool_runs_out(self):
        # The complete graph on five points leaves no negative at all.
        n = 5
        p, q = np.nonzero(~np.eye(n, dtype=bool))
        g = mutualize(n, p, q, np.ones(p.size))
        nt = build_knn(PointSet(np.arange(10.0).reshape(n, 2)), 2)
        result = assert_matches_loop(g, nt, seed=0)
        assert result.negatives.tolist() == []

    @given(graphs_on_tables(), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_fuzz(self, case, seed):
        nt, g = case
        assert_matches_loop(g, nt, seed)


class TestExportPairsBeyondTheFuzz:
    """Cases graphs_on_tables cannot build: a graph loaded from a file,
    and pools at and above numpy's tail-shuffle size."""

    @pytest.mark.parametrize("size, draws", [
        (60, 7),              # Floyd's algorithm
        (12_000, 200),        # still Floyd: draws <= size // 50
        (12_000, 241),        # tail shuffle: size > 10,000 and draws > size // 50
        (10_001, 9_000),      # tail shuffle over most of the pool
    ])
    def test_choice_from_pool_is_pool_at_choice_from_size(self, size, draws):
        # export_pairs draws ranks from the pool's size and maps them to
        # ids; that is the sample the pool array itself would give.
        pool = np.sort(spawn_rng(7, 2).choice(3 * size, size=size, replace=False))
        from_pool = spawn_rng(7, 1, size).choice(pool, draws, replace=False)
        from_size = spawn_rng(7, 1, size).choice(pool.size, draws, replace=False)
        assert np.array_equal(from_pool, pool[from_size])

    def test_tail_shuffle_fallback(self):
        # A clique of 250 duplicates among 10,250 scattered points: each
        # clique point needs 249 negatives from a pool of 10,250, which
        # takes numpy's tail-shuffle branch. Only the clique falls back.
        rng = np.random.default_rng(8)
        clique, n = 250, 10_500
        pts = np.vstack([np.zeros((clique, 2)), rng.normal(size=(n - clique, 2)) * 100])
        nt = build_knn(PointSet(pts), 5)
        p, q = np.nonzero(~np.eye(clique, dtype=bool))
        g = mutualize(n, p, q, np.ones(p.size))
        pool = n - clique
        assert pool > 10_000 and clique - 1 > pool // 50
        result = assert_matches_loop(g, nt, seed=12)
        assert len(result.negatives) == clique * (clique - 1)

    def test_loaded_graph_with_self_loops_and_repeated_pair(self, tmp_path):
        # Twelve points on a line, k_max = 2: the path's edges exhaust
        # every inner row. Vertices 3 and 7 carry self-loops and the pair
        # (5, 6) is stored twice; both raise the degree but block no
        # more of the pool than once.
        nt = build_knn(PointSet(np.stack([np.arange(12.0), np.zeros(12)], axis=1)), 2)
        edges = [(i, i + 1) for i in range(11)] + [(5, 6)]
        lines = [f"{p} {q} 0.5" for a, b in edges for p, q in ((a, b), (b, a))]
        lines += ["3 3 0.5", "7 7 0.5"]
        path = tmp_path / "graph.txt"
        path.write_text(json.dumps({"n": 12, "edges": len(lines)}) + "\n"
                        + "\n".join(lines) + "\n")
        g, _ = load_graph(path)
        assert g.degrees()[[3, 5, 6, 7]].tolist() == [3, 3, 3, 3]
        assert_matches_loop(g, nt, seed=2)


def json_lines(positives, negatives):
    return "".join(
        [json.dumps({"p": p, "q": q, "label": 1}) + "\n" for p, q in positives]
        + [json.dumps({"p": p, "q": q, "label": 0}) + "\n" for p, q in negatives])


class TestSavePairs:
    def test_jsonl_format(self, tmp_path):
        ps = hexagon()
        result = export_pairs(cycle_graph(6), build_knn(ps, 4), seed=0)
        path = tmp_path / "pairs.jsonl"
        save_pairs(result, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == result.total
        labels = {r["label"] for r in records}
        assert labels == {0, 1}
        positives = [[r["p"], r["q"]] for r in records if r["label"] == 1]
        assert positives == result.positives.tolist()

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=20),
           st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_json_dumps(self, tmp_path_factory, positives, negatives):
        path = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
        save_pairs(PairSet(positives=pair_array(positives), negatives=pair_array(negatives)),
                   path)
        assert path.read_bytes() == json_lines(positives, negatives).encode("utf-8")

    @pytest.mark.parametrize("n_pos, n_neg", [
        (_BLOCK, _BLOCK),              # exactly one block each
        (2 * _BLOCK + 1, _BLOCK - 1),  # one record past a block boundary
        (0, 3 * _BLOCK),
    ])
    def test_bytes_equal_json_dumps_across_blocks(self, tmp_path, n_pos, n_neg):
        rng = np.random.default_rng(n_pos + n_neg)
        ids = rng.integers(0, 2**40, size=(n_pos + n_neg, 2))
        positives, negatives = ids[:n_pos], ids[n_pos:]
        path = tmp_path / "pairs.jsonl"
        save_pairs(PairSet(positives=positives, negatives=negatives), path)
        assert path.read_bytes() == json_lines(positives.tolist(),
                                               negatives.tolist()).encode("utf-8")

    def test_empty_pair_set_writes_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        save_pairs(PairSet(positives=pair_array([]), negatives=pair_array([])), path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("digits", range(1, 20))
    def test_bytes_equal_json_dumps_at_digit_edges(self, tmp_path, digits):
        # Ids on both sides of every power of ten up to 2**63 - 1, among as
        # many small ids, so some sit inside the table of strings and
        # some beyond it.
        edges = [10**digits - 1, 10**digits, 2**63 - 1]
        ids = [i for i in edges + [0, 1, 9, 10] if i < 2**63]
        positives = [(p, q) for p in ids for q in ids if p < q]
        negatives = [(q, p) for p, q in positives]
        path = tmp_path / "pairs.jsonl"
        save_pairs(PairSet(positives=pair_array(positives), negatives=pair_array(negatives)),
                   path)
        assert path.read_bytes() == json_lines(positives, negatives).encode("utf-8")

    def test_bytes_equal_json_dumps_with_ids_beyond_the_table(self, tmp_path):
        # 300 records of dense ids below 200 and a few ids at, around and
        # far beyond the table's bound, min(max id + 1, records) = 300.
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 200, size=(300, 2))
        ids[[3, 50, 151, 299], [0, 1, 0, 1]] = [299, 300, 301, 10**12]
        ids[7] = [2**63 - 1, 2**40]
        path = tmp_path / "pairs.jsonl"
        save_pairs(PairSet(positives=ids[:120], negatives=ids[120:]), path)
        assert path.read_bytes() == json_lines(ids[:120].tolist(),
                                               ids[120:].tolist()).encode("utf-8")

    def test_memory_follows_the_records_not_the_largest_id(self, tmp_path):
        # Ten records with ids near 2**62: a table of strings up to the
        # largest id could never be built, one up to the record count is
        # ten strings.
        ids = 2**62 + np.arange(20, dtype=np.int64).reshape(10, 2)
        path = tmp_path / "pairs.jsonl"
        tracemalloc.start()
        try:
            save_pairs(PairSet(positives=ids[:4], negatives=ids[4:]), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == json_lines(ids[:4].tolist(),
                                               ids[4:].tolist()).encode("utf-8")
        assert peak <= 64 * 2**10, f"save_pairs peaked at {peak / 2**10:.1f} KiB"
