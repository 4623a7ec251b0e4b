import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeprune import InputError, PointSet, gen_synthetic, load_csv, save_csv
from edgeprune import data
from edgeprune.data import _BATCH_COUNT, _spawn_choices, check_seed, spawn_rng


def write(tmp_path, text, name="points.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ps = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert ps.n == 3 and ps.dim == 2
        assert ps.labels is None
        assert np.array_equal(ps.points, [[1, 2], [3, 4], [5, 6]])

    def test_label_column(self, tmp_path):
        ps = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"), label_column=1)
        assert ps.n == 3 and ps.dim == 1
        assert np.array_equal(ps.labels, [0, 1, 2])  # re-encoded from {2, 4, 6}

    def test_parse_error_names_row(self, tmp_path):
        with pytest.raises(InputError, match="row 1"):
            load_csv(write(tmp_path, "1,x\n3,4\n5,6\n"))

    def test_parse_error_names_later_row(self, tmp_path):
        with pytest.raises(InputError, match="row 2"):
            load_csv(write(tmp_path, "1,2\n3,oops\n5,6\n"))

    def test_header_autodetected(self, tmp_path):
        ps = load_csv(write(tmp_path, "x,y\n1,2\n3,4\n"))
        assert ps.n == 2

    def test_mixed_first_row_is_not_header(self, tmp_path):
        # A row with any numeric cell is data, so the bad cell is an error.
        with pytest.raises(InputError, match="row 1"):
            load_csv(write(tmp_path, "1,x\n3,4\n"))

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(InputError, match="row 2"):
            load_csv(write(tmp_path, "1,2\n3\n5,6\n"))

    def test_non_contiguous_labels_reencoded(self, tmp_path):
        ps = load_csv(write(tmp_path, "0,9\n1,5\n2,9\n"), label_column=1)
        assert np.array_equal(ps.labels, [1, 0, 1])

    def test_string_labels(self, tmp_path):
        ps = load_csv(write(tmp_path, "0,b\n1,a\n2,b\n"), label_column=1)
        assert np.array_equal(ps.labels, [1, 0, 1])

    # "\x1c0" parses only once stripped, as every cell is (this column was
    # once parsed by rows, hence the id).
    @pytest.mark.parametrize("first", ["0", "\x1c0"], ids=["by-column", "by-row"])
    def test_numeric_labels_ordered_by_value(self, tmp_path, first):
        # Labels that all parse are one class per value, in value order:
        # "10" after "2", and "1", "1.0" and " 1e0" alike.
        text = f"{first},10\n1,2\n2,1.0\n3,1\n4, 1e0\n5,-inf\n"
        ps = load_csv(write(tmp_path, text), label_column=1)
        assert ps.labels.tolist() == [3, 2, 1, 1, 1, 0]

    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan"])
    def test_nan_label_rejected_naming_its_row(self, tmp_path, cell):
        # No NaN equals another, so each NaN label used to become its own class.
        text = f"0,0,1\n0,1,{cell}\n1,0,{cell}\n9,9,1\n9,8,{cell}\n8,9,1\n"
        with pytest.raises(InputError, match="row 2"):
            load_csv(write(tmp_path, text), label_column=2)

    def test_single_row_rejected(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(write(tmp_path, "1,2\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(InputError, match="row 1"):
            load_csv(write(tmp_path, "inf,2\n3,4\n"))

    @pytest.mark.parametrize("header", ["", "x,y\n"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # Excel writes UTF-8 CSV files with a leading byte-order mark.
        text = header + "0.0,1\n2.5,-3\n4,5e-1\n"
        plain = load_csv(write(tmp_path, text))
        marked = load_csv(write(tmp_path, "\ufeff" + text, name="bom.csv"))
        assert marked.points.tobytes() == plain.points.tobytes()

    @pytest.mark.parametrize("text, label_column, message", [
        # A parse error before an arity error, and the reverse.
        ("1,2\n3,x\n5\n", None, "row 2: cannot parse 'x' as a number"),
        ("1,2\n3\n5,x\n", None, "row 2 has 1 cells, expected 2"),
        # A NaN label before a parse error, and after one.
        ("1,2,0\n3,4,nan\n5,x,1\n", 2, "row 2: label 'nan' is NaN"),
        ("1,2,0\n3,y,1\n5,6, NaN \n", 2, "row 2: cannot parse 'y' as a number"),
        # An inf cell before an arity error, and after one.
        ("1,2\n3, inf\n5,6,7\n", None, "row 2: cannot parse 'inf' as a number"),
        ("1,2\n3,4,5\n-inf,6\n", None, "row 2 has 3 cells, expected 2"),
        # Within a row, cells are read left to right.
        ("1,2,0\nx,4,nan\n", 2, "row 2: cannot parse 'x' as a number"),
        ("1,2,0\n3,4,nan\n", 0, "row 2: cannot parse 'nan' as a number"),
    ])
    def test_first_of_two_faults_is_named(self, tmp_path, text, label_column, message):
        path = write(tmp_path, text)
        with pytest.raises(InputError) as info:
            load_csv(path, label_column=label_column)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_row_numbers_under_other_line_endings(self, tmp_path, newline):
        # Blank lines count, as with \n endings.
        text = newline.join(["1,2", "", "3,4", "5,x", ""])
        path = tmp_path / "points.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(InputError, match="row 4: cannot parse 'x'"):
            load_csv(path)
        path.write_bytes(text.replace("x", "6").encode("utf-8"))
        assert load_csv(path).points.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_cells_float_does_not_strip(self, tmp_path):
        # str.strip() removes the separators \x1c-\x1f, float() does not:
        # such a cell still parses, as float(cell.strip()) always did.
        ps = load_csv(write(tmp_path, "\x1c1, 2\t\n3,\u20034\x1f\n"))
        assert ps.points.tolist() == [[1, 2], [3, 4]]
        assert ps.points.flags.c_contiguous

    def test_padded_cells_need_no_fault_pass(self, tmp_path, monkeypatch):
        # Cells padded with \x1c-\x1f fail float() but not float(cell.strip()),
        # the column parse's rule, so no row is named.
        def unused(*args):
            raise AssertionError("the fault pass ran on a valid file")
        monkeypatch.setattr(data, "_name_fault", unused)
        plain = load_csv(write(tmp_path, "1.5,2,a\n-3,4e2,b\n5,6,a\n"), label_column=2)
        text = "\x1c1.5,2\x1d,a\n-3\x1e,\x1f4e2 ,\x1cb\n 5,\x1f\x1c6,a\x1d\n"
        padded = load_csv(write(tmp_path, text, name="padded.csv"), label_column=2)
        assert padded.points.tobytes() == plain.points.tobytes()
        assert padded.labels.tolist() == plain.labels.tolist() == [0, 1, 0]

    def test_fault_pass_that_finds_no_fault_says_so(self, tmp_path, monkeypatch):
        # Should the column parse refuse a file the fault pass accepts, the
        # call stops there, rather than unpacking None.
        monkeypatch.setattr(data, "_parse_columns", lambda *args: None)
        with pytest.raises(AssertionError, match="the fault pass accepts"):
            load_csv(write(tmp_path, "1,2\n3,4\n"))

    @pytest.mark.parametrize("text, message", [
        ("\x1c1,2\n3,4\nx,6\n", "row 3: cannot parse 'x' as a number"),   # same column
        ("\x1c1,2\n3,4\n5,x\n", "row 3: cannot parse 'x' as a number"),   # a later column
        ("1,\x1f2\n3, inf\x1e\n", "row 2: cannot parse 'inf' as a number"),
    ])
    def test_fault_after_a_padded_cell_is_named(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(InputError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.normal(size=(20, 4)) * 1e3,
                      labels=rng.integers(0, 3, 20) * 0 + np.arange(20) % 3)
        path = tmp_path / "roundtrip.csv"
        save_csv(ps, path)
        back = load_csv(path, label_column=4)
        assert np.array_equal(back.points, ps.points)
        assert np.array_equal(back.labels, ps.labels)


class TestPointSet:
    def test_too_few_points(self):
        with pytest.raises(InputError):
            PointSet(np.zeros((1, 2)))

    def test_label_length_mismatch(self):
        with pytest.raises(InputError):
            PointSet(np.zeros((3, 2)), labels=[0, 1])

    def test_callers_arrays_stay_writeable(self):
        # Already float64 points and int64 labels, which np.asarray would
        # return as they are: the set freezes its own copies, not these.
        x, lab = np.arange(6.0).reshape(3, 2), np.array([0, 1, 1])
        ps = PointSet(x, lab)
        x[0, 0], lab[0] = 9.0, 1
        assert ps.points[0, 0] == 0.0 and ps.labels.tolist() == [0, 1, 1]
        assert not (ps.points.flags.writeable or ps.labels.flags.writeable)

    def test_labels_must_be_contiguous(self):
        with pytest.raises(InputError):
            PointSet(np.zeros((3, 2)), labels=[0, 2, 2])

    @pytest.mark.parametrize("labels", [[0, 1, 2**40], [-1, 0, 1]], ids=["huge", "negative"])
    def test_label_range_is_checked_before_counting(self, labels):
        # Ids are counted only once they lie in [0, N): a count sized by
        # 2**40 would need 8 TiB.
        with pytest.raises(InputError, match="label ids must form a contiguous range from 0"):
            PointSet(np.zeros((3, 2)), labels=labels)

    @pytest.mark.parametrize("labels, shown", [
        ([0.9, 1.5, 0.2], "0.9"),                  # a cast would give [0, 1, 0]
        ([0, 1, 1.5], "1.5"),
        (["a", "b", "a"], "'a'"),
        ([0, 1, 2**70], str(2**70)),               # an OverflowError, cast
        (np.array([0, 2**63, 1], dtype=np.uint64), str(2**63)),
        ([0.0, np.nan, 1.0], "nan"),
        ([0.0, 1.0, np.inf], "inf"),
        ([0, 1, 1 + 1j], "0j"),                    # no complex label is a whole number
    ], ids=["fractions", "one-fraction", "strings", "past-int64", "uint64", "nan", "inf",
            "complex"])
    def test_labels_that_are_not_whole_int64_rejected(self, labels, shown):
        with pytest.raises(InputError, match=r"^labels must be whole numbers within int64, "
                                             rf"got {re.escape(shown)}$"):
            PointSet(np.zeros((3, 2)), labels=labels)

    @pytest.mark.parametrize("labels", [[1.0, 0.0, 1.0], np.array([True, False, True]),
                                        np.array([1, 0, 1], dtype=np.uint8)],
                             ids=["whole-floats", "bools", "uint8"])
    def test_whole_labels_of_any_number_type_accepted(self, labels):
        ps = PointSet(np.zeros((3, 2)), labels=labels)
        assert ps.labels.dtype == np.int64 and ps.labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("points, message", [
        (np.zeros(3), "points must be a 2-D array, got ndim=1"),
        (np.zeros((3, 0)), "points must have at least one coordinate"),
        (np.array([[0.0], [np.inf]]), "points contain non-finite coordinates"),
        (np.array([[0.0], [np.nan]]), "points contain non-finite coordinates"),
    ], ids=["1-D", "no-columns", "inf", "nan"])
    def test_unusable_arrays_rejected(self, points, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            PointSet(points)

    def test_class_count_needs_labels(self):
        with pytest.raises(InputError, match="^point set 'grid' has no labels$"):
            PointSet(np.zeros((2, 2)), name="grid").n_classes

    def test_points_read_only(self):
        ps = PointSet(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 1.0


class TestGenerators:
    def test_blobs_balanced(self):
        ps = gen_synthetic("blobs", {"clusters": 3, "size": 50,
                                     "separation": 15.0, "spread": 1.0}, seed=7)
        assert ps.n == 150
        assert np.array_equal(np.bincount(ps.labels), [50, 50, 50])

    def test_one_dimensional_blobs_lie_on_a_line(self):
        # In 1-D the centres are separation apart along the one axis.
        ps = gen_synthetic("blobs", {"clusters": 3, "size": 4, "spread": 0.0,
                                     "separation": 2.5, "dim": 1}, seed=3)
        assert np.array_equal(ps.points[:, 0], np.repeat([0.0, 2.5, 5.0], 4))
        assert np.array_equal(ps.labels, np.repeat([0, 1, 2], 4))

    @pytest.mark.parametrize("kind, params, message", [
        ("blobs", {"separation": [1, 2]},
         "blobs: separation must be finite and non-negative, got [1, 2]"),
        ("blobs", {"foo": 1},
         "blobs: unknown parameter 'foo'; blobs takes clusters, size, spread, "
         "separation, dim"),
        ("blobs", {"seed": 5},
         "blobs: unknown parameter 'seed'; blobs takes clusters, size, spread, "
         "separation, dim"),
        ("moons", {"radii": 2}, "moons: unknown parameter 'radii'; moons takes size, noise"),
        ("blobs", {"spread": "x"}, "blobs: spread must be finite and non-negative, got 'x'"),
        ("blobs", {"spread": [1, "a"]},
         "blobs: spread must be finite and non-negative, got 'a'"),
        ("blobs", {"spread": None}, "blobs: spread must be finite and non-negative, got None"),
        ("circles", {"radii": "ab"}, "circles: radii must be finite and positive, got 'ab'"),
    ], ids=["list-separation", "unknown-key", "seed-key", "moons-radii", "text-spread",
            "text-in-spreads", "none-spread", "text-radii"])
    def test_unusable_params_are_named(self, kind, params, message):
        with pytest.raises(InputError) as exc:
            gen_synthetic(kind, params)
        assert str(exc.value) == message

    def test_circles_zero_noise_unit_ring_exact(self):
        ps = gen_synthetic("circles", {"radii": [1.0, 3.0], "size": 40, "noise": 0.0},
                           seed=1)
        ring1 = ps.points[ps.labels == 0]
        norms = np.sqrt((ring1 ** 2).sum(axis=1))
        assert np.all(norms == 1.0)

    @pytest.mark.parametrize("kind,params", [
        ("blobs", {"clusters": 2, "size": 30}),
        ("circles", {"radii": [1.0, 2.0], "size": 25, "noise": 0.05}),
        ("moons", {"size": 40, "noise": 0.08}),
        ("mixed-density", {"size_dense": 40, "size_sparse": 15}),
    ])
    def test_determinism(self, kind, params):
        first = gen_synthetic(kind, params, seed=99)
        second = gen_synthetic(kind, params, seed=99)
        assert np.array_equal(first.points, second.points)
        assert np.array_equal(first.labels, second.labels)

    def test_different_seed_differs(self):
        a = gen_synthetic("moons", {"size": 40, "noise": 0.08}, seed=0)
        b = gen_synthetic("moons", {"size": 40, "noise": 0.08}, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_labels_present_and_contiguous(self):
        for kind in ("blobs", "circles", "moons", "mixed-density"):
            ps = gen_synthetic(kind, seed=4)
            assert ps.labels is not None
            assert ps.labels.min() == 0

    @pytest.mark.parametrize("kind, params, name", [
        ("blobs", {"clusters": 2.5, "size": 30}, "clusters"),
        ("blobs", {"dim": 2.7}, "dim"),
        ("blobs", {"clusters": 2, "size": [10.5, 20]}, "size"),
        ("blobs", {"size": 10.5}, "size"),
        ("blobs", {"clusters": [1, 2]}, "clusters"),
        ("moons", {"size": 50.5}, "size"),
        ("circles", {"size": [20, 30.5]}, "size"),
        ("mixed-density", {"dim": 2.5}, "dim"),
        ("mixed-density", {"size_sparse": 20.5}, "size_sparse"),
    ])
    def test_count_that_is_not_whole_rejected_by_name(self, kind, params, name):
        with pytest.raises(InputError, match=f"{kind}: {name} must be a whole number"):
            gen_synthetic(kind, params, seed=0)

    def test_whole_float_count_accepted(self):
        as_float = gen_synthetic("blobs", {"clusters": 3.0, "size": 10.0, "dim": 2.0}, seed=0)
        as_int = gen_synthetic("blobs", {"clusters": 3, "size": 10, "dim": 2}, seed=0)
        assert np.array_equal(as_float.points, as_int.points)
        assert np.array_equal(as_float.labels, as_int.labels)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown synthetic kind"):
            gen_synthetic("spirals", {}, seed=0)

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            gen_synthetic("blobs", {"wobble": 3}, seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InputError):
            gen_synthetic("moons", {"noise": -0.1}, seed=0)

    @pytest.mark.parametrize("kind, params, name", [
        ("blobs", {"spread": float("nan")}, "spread"),
        ("blobs", {"clusters": 2, "spread": [1.0, float("nan")]}, "spread"),
        ("blobs", {"separation": float("inf")}, "separation"),
        ("circles", {"noise": float("nan")}, "noise"),
        ("circles", {"radii": [float("nan"), 1.0]}, "radii"),
        ("moons", {"noise": float("nan")}, "noise"),
        ("mixed-density", {"spread_dense": float("nan")}, "spread_dense"),
        ("mixed-density", {"spread_sparse": float("inf")}, "spread_sparse"),
        ("mixed-density", {"separation": float("nan")}, "separation"),
    ])
    def test_non_finite_scale_rejected_by_name(self, kind, params, name):
        # NaN fails every comparison, so a `< 0` test alone lets it through
        # and a NaN noise is read as no noise at all.
        with pytest.raises(InputError, match=f"{kind}: {name} must be finite"):
            gen_synthetic(kind, params, seed=0)

    @pytest.mark.parametrize("params", [
        {"clusters": 1e20, "size": 2},   # more groups than an index can count
        {"clusters": 2, "size": 1e12},   # 14.6 TiB of coordinates, refused at once
    ])
    def test_oversized_count_is_input_error(self, params):
        with pytest.raises(InputError, match="blobs: parameters too large"):
            gen_synthetic("blobs", params, seed=0)


class TestSeed:
    def test_range_enforced(self):
        with pytest.raises(InputError):
            check_seed(-1)
        with pytest.raises(InputError):
            check_seed(2 ** 64)
        assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1

    def test_non_integer_rejected(self):
        with pytest.raises(InputError):
            check_seed(1.5)


def choices_loop(seed, lanes):
    """`_spawn_choices`' reference: one numpy Generator per lane."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        spawn_rng(seed, 1, key).choice(size, size=count, replace=False)
        for key, size, count in lanes])


@st.composite
def choice_lanes(draw):
    """(key, size, count) lanes, most of them batched: counts run from 0 to
    the size and to the number of lanes, count = size included. Some
    counts pass the lanes (up to the batch cap), and sizes above 10,000
    take numpy's tail shuffle once the count passes size // 50; numpy
    draws those lanes."""
    lanes = []
    n = draw(st.one_of(st.integers(0, 8), st.integers(0, 140)))
    for _ in range(n):
        size = draw(st.one_of(st.integers(1, n), st.integers(1, 300),
                              st.integers(10_001, 10_400)))
        most = min(size, n)
        count = draw(st.one_of(st.just(0), st.just(most), st.integers(0, most),
                               st.integers(0, min(size, _BATCH_COUNT))))
        lanes.append((draw(st.integers(0, 2**32 - 1)), size, count))
    return lanes


# Two blocks of batched lanes (the first 258 lanes, then 14), each with
# two lanes that numpy draws itself, the pinned rejecting lane (5664,
# 10**6, 3) and a tail lane, beside Floyd lanes of counts 49, 8, 0 and
# the size.
BLOCK_LANES = [(10, 5_000, 49), (5664, 10**6, 3), (11, 1_170, 8), (12, 12_000, 241),
               (13, 300, 0), (14, 130, 130)]
TWO_BLOCKS = BLOCK_LANES + [(k, 9_000, 16) for k in range(20, 280)] + BLOCK_LANES


def counted_spawn_rng(monkeypatch):
    """The streams `_spawn_choices` builds generators for, in call order."""
    streams = []

    def counted(seed, *stream):
        streams.append(tuple(int(s) for s in stream))
        return spawn_rng(seed, *stream)
    monkeypatch.setattr(data, "spawn_rng", counted)
    return streams


class TestSpawnChoices:
    """`_spawn_choices` against numpy's own Generator.choice, lane by lane."""

    @given(st.integers(0, 2**64 - 1), choice_lanes())
    @settings(max_examples=200, deadline=None)
    # bounded(0): a count equal to the size skips a word.
    @example(0, [(0, 1, 1), (1, 1, 0), (2, 7, 7), (3, 7, 0), (4, 5, 5), (5, 9, 2), (6, 300, 7)])
    # Batched counts 240 of 12,000 beside tail lanes of 241.
    @example(2**64 - 1, [(k, 12_000, 241 - k % 2) for k in range(250)] + [(4, 10_001, 10_001)])
    @example(3, [(k, 10_200, 100) for k in range(130)] + [(8, 130, 130)])  # four blocks
    @example(0, [(5664, 10**6, 3), (1, 10**6, 3), (2, 50, 3)])  # a Lemire rejection
    @example(0, TWO_BLOCKS)
    # 600 batched lanes of counts 64 to the cap: long swap loops across lanes.
    @example(5, [(k, 5_000, _BATCH_COUNT - k % 129) for k in range(600)])
    def test_matches_one_generator_per_lane(self, seed, lanes):
        keys, sizes, counts = np.array(lanes, dtype=np.int64).reshape(-1, 3).T
        got = _spawn_choices(seed, 1, keys, sizes, counts)
        assert got.dtype == np.int64
        assert np.array_equal(got, choices_loop(seed, lanes))

    def test_pinned_lane_rejects_a_draw(self, monkeypatch):
        # Seed 0, key 5664, size 10**6, count 3: Floyd's first draw is
        # bounded(999_997), and Lemire's method rejects the stream's first
        # 32-bit word (m mod 2**32 below (2**32 - span) mod span), which
        # happens with probability about 2e-4 at this bound. With two
        # companions the lane is batched, and only its rejection hands it
        # to numpy.
        raw = np.random.PCG64(np.random.SeedSequence([0, 1, 5664])).random_raw(1)
        span = 10**6 - 3 + 1
        assert (int(raw[0]) & 0xFFFFFFFF) * span % 2**32 < (2**32 - span) % span
        lanes = [(1, 10**6, 3), (5664, 10**6, 3), (2, 50, 3)]
        streams = counted_spawn_rng(monkeypatch)
        got = _spawn_choices(0, 1, *np.array(lanes).T)
        assert streams == [(1, 5664)]
        assert np.array_equal(got, choices_loop(0, lanes))

    @pytest.mark.parametrize("lanes", [
        [(3, 10_000, 10_000)],                       # a count above the lanes
        [(0, 200, 5), (1, 200, 5), (2, 200, 0)],     # counts above the lanes, and 0
        [(k, 1_000, _BATCH_COUNT + 1) for k in range(_BATCH_COUNT + 2)],  # above the cap
    ])
    def test_lanes_past_the_batch_go_to_numpy(self, monkeypatch, lanes):
        # A call that leaves no draw to the batch does not seed streams by hand.
        streams = counted_spawn_rng(monkeypatch)

        def unused(*args):
            raise AssertionError("a lane was batched")
        monkeypatch.setattr(data, "_seed_words", unused)
        got = _spawn_choices(0, 1, *np.array(lanes).T)
        assert streams == [(1, key) for key, _, count in lanes if count]
        assert np.array_equal(got, choices_loop(0, lanes))

    def test_lane_blocks_bound_the_scratch(self):
        # 10,000 lanes of 20 draws from 99,000 (numpy's Floyd branch): with
        # the words read in blocks of `_CHOICE_DRAWS` draws the call peaks
        # near 4.5 MiB, about 3 MiB of it the output and the swap targets;
        # with all lanes in one block it took 40.6 MiB.
        lanes = [(key, 99_000, 20) for key in range(10_000)]
        keys, sizes, counts = np.array(lanes, dtype=np.int64).T
        tracemalloc.start()
        try:
            got = _spawn_choices(7, 1, keys, sizes, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"_spawn_choices peaked at {peak / 2**20:.2f} MiB"
        assert np.array_equal(got[-40:], choices_loop(7, lanes[-2:]))

    def test_keys_and_sizes_in_range(self):
        with pytest.raises(ValueError):
            _spawn_choices(0, 1, [2**32], [5], [1])
        with pytest.raises(ValueError):
            _spawn_choices(0, 1, [0], [2**31], [1])
        with pytest.raises(ValueError):
            _spawn_choices(0, 2**32, [0], [5], [1])
