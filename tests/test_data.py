import numpy as np
import pytest

from edgeprune import InputError, PointSet, gen_synthetic, load_csv, save_csv
from edgeprune.data import check_seed


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

    def test_labels_must_be_contiguous(self):
        with pytest.raises(InputError):
            PointSet(np.zeros((3, 2)), labels=[0, 2, 2])

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
