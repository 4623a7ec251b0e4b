import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conftest import copies_beside_simplex
from edgeprune import (InputError, PointSet, __version__, acc, affinity_rows, ari,
                       build_histogram, build_knn, compute_scales, fd_bin_width,
                       gen_synthetic, mutual_knn_graph, n_components, save_csv,
                       spectral_cluster)
from edgeprune import cli, reduce, spectral
from edgeprune.cli import (RunConfig, build_reduced, cmd_cluster, cmd_sweep, main,
                           parse_synthetic_spec)

BLOBS = "blobs:clusters=3,size=40,separation=15,spread=1"


def count_calls(monkeypatch, name, module=cli):
    """Count the calls made to a function through its name in `module`."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestSpecParsing:
    def test_kind_only(self):
        assert parse_synthetic_spec("moons") == ("moons", {})

    def test_params_and_lists(self):
        kind, params = parse_synthetic_spec("circles:radii=1+3,size=200,noise=0.05")
        assert kind == "circles"
        assert params == {"radii": [1, 3], "size": 200, "noise": 0.05}

    def test_hyphenated_keys(self):
        _, params = parse_synthetic_spec("mixed-density:size-dense=80,size-sparse=20")
        assert params == {"size_dense": 80, "size_sparse": 20}

    def test_bad_item_rejected(self):
        with pytest.raises(InputError):
            parse_synthetic_spec("blobs:sep")


class TestClusterCommand:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        base = ["cluster", "--synthetic", BLOBS, "--seed", "7", "--repeats", "3"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_repeats_one_summary_equals_run(self, tmp_path):
        cfg = RunConfig(command="cluster", synthetic=BLOBS, seed=3, repeats=1,
                        out_dir=str(tmp_path))
        cmd_cluster(cfg)
        rows = read_rows(tmp_path / "metrics.csv")
        run, mean, std = rows[0], rows[1], rows[2]
        assert mean["repeat"] == "mean" and std["repeat"] == "std"
        for col in ("acc", "ari", "edge_pct"):
            assert float(mean[col]) == float(run[col])
            assert float(std[col]) == 0.0

    def test_config_echo_header(self, tmp_path):
        cfg = RunConfig(command="cluster", synthetic=BLOBS, seed=1, repeats=1,
                        out_dir=str(tmp_path))
        cmd_cluster(cfg)
        first = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        echo = json.loads(first[2:])
        assert echo["seed"] == 1 and echo["command"] == "cluster"

    def test_config_echo_keys(self):
        assert RunConfig(command="cluster").echo() == {
            "command": "cluster", "input_path": None, "synthetic": None,
            "label_column": None, "k_max": None, "clusters": None, "seed": 0,
            "repeats": 1, "baseline_k": 2, "param": None, "grid": [],
            "seventh_neighbor_scale": False}

    def test_per_repeat_seeds_derived(self, tmp_path):
        cfg = RunConfig(command="cluster", synthetic=BLOBS, seed=10, repeats=3,
                        out_dir=str(tmp_path))
        cmd_cluster(cfg)
        rows = read_rows(tmp_path / "metrics.csv")
        assert [r["seed"] for r in rows[:3]] == ["10", "11", "12"]

    def test_unlabeled_csv_is_input_error(self, tmp_path):
        csv = tmp_path / "points.csv"
        csv.write_text("0,0\n1,0\n0,1\n1,1\n")
        code = main(["cluster", "--input", str(csv), "--clusters", "2",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["cluster", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("column", ["0", "7"])
    def test_label_column_refused_with_synthetic(self, tmp_path, column):
        # Synthetic data carries its own labels; the option would only be
        # echoed into the result file as if it had shaped the run.
        assert main(["cluster", "--synthetic", BLOBS, "--label-column", column,
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "metrics.csv").exists()

    def test_nan_labels_refused(self, tmp_path):
        csv = tmp_path / "nan.csv"
        csv.write_text("0,0,nan\n0,1,nan\n1,0,nan\n9,9,1\n9,8,1\n8,9,1\n")
        assert main(["cluster", "--input", str(csv), "--label-column", "2",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "metrics.csv").exists()

    def test_labeled_csv_runs(self, tmp_path, dataset_c):
        csv = tmp_path / "mixed.csv"
        save_csv(dataset_c, csv)
        code = main(["cluster", "--input", str(csv), "--label-column",
                     str(dataset_c.dim), "--out", str(tmp_path), "--seed", "2"])
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()

    def test_seventh_neighbor_scale_mode(self, tmp_path):
        cfg = RunConfig(command="cluster", synthetic=BLOBS, seed=4, repeats=1,
                        out_dir=str(tmp_path), seventh_neighbor_scale=True)
        rows = cmd_cluster(cfg)
        assert rows[0]["acc"] == 1.0


    @pytest.mark.parametrize("solve", [
        lambda a, x: (np.full(x.shape[1], np.nan), np.full(x.shape, np.nan)),
        lambda a, x: (np.zeros(x.shape[1]), x),  # finite, but no eigenpair
    ], ids=["nan", "wrong-pair"])
    def test_failed_iterative_solve_exits_3(self, tmp_path, monkeypatch, capsys, solve):
        monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lambda a, x, **kwargs: solve(a, x))
        # Two components for three clusters (m < C): the eigensolver decides.
        assert main(["cluster", "--synthetic", "blobs:clusters=2,size=30", "--clusters", "3",
                     "--out", str(tmp_path)]) == 3
        assert "eigensolver failed to converge" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_failed_dense_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        def fails(a, **kwargs):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(scipy.linalg, "eigh", fails)
        monkeypatch.setattr(np.linalg, "eigh", fails)
        # Both dense solves fail on a graph the eigensolver decides (m < C).
        assert main(["cluster", "--synthetic", "blobs:clusters=2,size=30", "--clusters", "3",
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numeric error: dense eigensolver failed: "
                                           "Internal Error.\n")
        assert not (tmp_path / "metrics.csv").exists()

    def test_degenerate_null_space_exits_0(self, tmp_path):
        # LAPACK's MRRR routine fails on this graph's spectrum (54 components
        # for 55 clusters); divide and conquer solves it.
        assert main(["cluster", "--synthetic",
                     "blobs:clusters=5,size=20,separation=4.424730265399182",
                     "--seed", "551921340", "--k-max", "6", "--clusters", "55",
                     "--out", str(tmp_path)]) == 0
        assert read_rows(tmp_path / "metrics.csv")[0]["n_components"] == "54"

    def test_embeds_once_and_matches_spectral_cluster(self, tmp_path, monkeypatch):
        embeds = count_calls(monkeypatch, "embed", spectral)
        kmeans = count_calls(monkeypatch, "kmeans", spectral)
        # Three components for four clusters (m < C): the eigensolver decides.
        assert main(["cluster", "--synthetic", BLOBS, "--seed", "7", "--repeats", "3",
                     "--clusters", "4", "--out", str(tmp_path)]) == 0
        assert len(embeds) == 1 and len(kmeans) == 3
        # Each repeat equals a spectral_cluster result at its seed.
        ps = gen_synthetic("blobs", parse_synthetic_spec(BLOBS)[1], seed=7)
        graph = build_reduced(ps, 50)
        assert n_components(graph) == 3
        rows = read_rows(tmp_path / "metrics.csv")[:3]
        for row, result in zip(rows, spectral_cluster(graph, 4, [7, 8, 9]), strict=True):
            assert row["acc"] == repr(acc(ps.labels, result.labels))
            assert row["ari"] == repr(ari(ps.labels, result.labels))
            assert row["n_components"] == str(n_components(graph))

    @pytest.mark.parametrize("argv,graphs", [
        (["cluster", "--repeats", "3"], 1),
        (["sweep", "--param", "baseline-k", "--grid", "2,4"], 3)], ids=["cluster", "sweep"])
    def test_one_components_pass_per_graph(self, tmp_path, monkeypatch, argv, graphs):
        # The CSV's n_components and the back end read the graph's
        # `components`: one `connected_components` pass per graph, made
        # through `component_labels`.
        passes = count_calls(monkeypatch, "connected_components", reduce)
        labels = count_calls(monkeypatch, "component_labels", reduce)
        assert main([*argv, "--synthetic", BLOBS, "--seed", "7", "--out", str(tmp_path)]) == 0
        assert len(passes) == len(labels) == graphs
        assert len({id(g) for g, in labels}) == graphs


class TestSweepCommand:
    def test_grid_of_one_matches_cluster(self, tmp_path):
        common = dict(synthetic=BLOBS, seed=5, repeats=2)
        cluster_rows = cmd_cluster(RunConfig(command="cluster",
                                             out_dir=str(tmp_path / "c"), **common))
        sweep_rows = cmd_sweep(RunConfig(command="sweep", param="k-max", grid=[50],
                                         out_dir=str(tmp_path / "s"), **common))
        assert len(sweep_rows) == 2
        for cr, sr in zip(cluster_rows, sweep_rows):
            assert sr["acc"] == cr["acc"] and sr["ari"] == cr["ari"]
            assert sr["edge_pct"] == cr["edge_pct"]

    def test_baseline_sweep_reduced_rows_flat(self, tmp_path):
        cfg = RunConfig(command="sweep", synthetic=BLOBS, seed=6, repeats=2,
                        param="baseline-k", grid=[2, 4, 8], out_dir=str(tmp_path))
        rows = cmd_sweep(cfg)
        reduced = [r for r in rows if r["method"] == "reduced"]
        assert len(reduced) == 6  # 2 repeats x 3 grid points
        by_repeat = {}
        for r in reduced:
            by_repeat.setdefault(r["repeat"], set()).add((r["acc"], r["ari"]))
        for values in by_repeat.values():
            assert len(values) == 1  # constant across the swept grid
        baseline_params = {r["param"] for r in rows if r["method"] == "baseline"}
        assert baseline_params == {2, 4, 8}

    def test_baseline_fluctuates_while_reduced_is_flat(self, tmp_path):
        # On dense+sparse data a mutual 2-NN graph shatters the sparse
        # cluster while larger k repairs it; the reduced pipeline ignores
        # the swept parameter entirely.
        spec = ("mixed-density:size-dense=200,size-sparse=100,"
                "spread-dense=0.3,spread-sparse=2.0,separation=10")
        cfg = RunConfig(command="sweep", synthetic=spec, seed=5, repeats=3,
                        param="baseline-k", grid=[2, 6, 12, 20],
                        out_dir=str(tmp_path))
        rows = cmd_sweep(cfg)
        medians = {}
        for method in ("baseline", "reduced"):
            by_k = {}
            for r in rows:
                if r["method"] == method:
                    by_k.setdefault(r["param"], []).append(r["ari"])
            medians[method] = [float(np.median(v)) for _, v in sorted(by_k.items())]
        assert max(medians["baseline"]) - min(medians["baseline"]) > 0.1
        assert max(medians["reduced"]) - min(medians["reduced"]) == 0.0

    @pytest.mark.parametrize("param,grid", [("k-max", [2, 9, 5, 30]),
                                            ("baseline-k", [2, 6, 60])])
    def test_one_table_matches_one_build_per_grid_point(self, tmp_path, param, grid):
        # A sweep slices one table; sweeps over single grid points build
        # their tables at that point's k. The CSV bodies must agree byte
        # for byte (the '# {...}' echo lines differ in the grid).
        base = ["sweep", "--synthetic", BLOBS, "--seed", "4", "--repeats", "2",
                "--param", param]
        whole = tmp_path / "whole"
        assert main(base + ["--grid", ",".join(map(str, grid)), "--out", str(whole)]) == 0
        body = (whole / "sweep.csv").read_text().splitlines()[1:]
        expected = body[:1]
        for k in grid:
            one = tmp_path / f"k{k}"
            extra = ["--k-max", str(k)] if param == "baseline-k" else []
            assert main(base + ["--grid", str(k), "--out", str(one)] + extra) == 0
            expected += (one / "sweep.csv").read_text().splitlines()[2:]
        if param == "baseline-k":
            # The reduced rows come from the default k_max, not from k.
            expected = [line for line in expected if not line.startswith("reduced")]
            body = [line for line in body if not line.startswith("reduced")]
        assert body == expected

    def test_builds_one_table(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "build_knn")
        cmd_sweep(RunConfig(command="sweep", synthetic=BLOBS, param="baseline-k",
                            grid=[2, 4, 70], out_dir=str(tmp_path)))
        assert [args[1] for args in calls] == [70]

    @pytest.mark.parametrize("param,grid", [("k-max", "2,500"), ("k-max", "0,5"),
                                            ("k-max", "5,-1"), ("baseline-k", "2,500"),
                                            ("baseline-k", "0,2")])
    def test_out_of_range_grid_writes_nothing(self, tmp_path, param, grid):
        assert main(["sweep", "--synthetic", BLOBS, "--param", param,
                     "--grid", grid, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_k_max_option_refused_when_k_max_is_swept(self, tmp_path, capsys):
        assert main(["sweep", "--synthetic", BLOBS, "--param", "k-max", "--grid", "5,10",
                     "--k-max", "30", "--out", str(tmp_path)]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_grid_rejected(self, tmp_path):
        assert main(["sweep", "--synthetic", BLOBS, "--param", "k-max",
                     "--grid", "", "--out", str(tmp_path)]) == 2


class TestBaselineCommand:
    def test_full_k_is_near_complete(self, tmp_path):
        n = 30
        code = main(["baseline-knn", "--synthetic", f"blobs:clusters=2,size={n // 2}",
                     "--baseline-k", str(n - 1), "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        rows = read_rows(tmp_path / "baseline_metrics.csv")
        assert float(rows[0]["edge_pct"]) == (n * n - n) / n ** 2

    def test_mutual_graph_construction(self, dataset_c):
        g = mutual_knn_graph(build_knn(dataset_c, 2))
        edges = g.edge_set()
        assert edges == {(q, p) for p, q in edges}
        assert np.all(g.weight == 1.0)


    @pytest.mark.parametrize("option", [["--k-max", "5"], ["--seventh-neighbor-scale"]])
    def test_reduction_options_refused(self, tmp_path, capsys, option):
        # The foil is built at --baseline-k and has no local scales.
        with pytest.raises(SystemExit) as exc:
            main(["baseline-knn", "--synthetic", BLOBS, *option, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "baseline_metrics.csv").exists()

    def test_embeds_once(self, tmp_path, monkeypatch):
        embeds = count_calls(monkeypatch, "embed", spectral)
        assert main(["baseline-knn", "--synthetic", BLOBS, "--repeats", "4",
                     "--out", str(tmp_path)]) == 0
        assert len(embeds) == 1
        assert len(read_rows(tmp_path / "baseline_metrics.csv")) == 4 + 2

class TestReduceAndPairsCommands:
    def test_reduce_writes_graph_and_histogram(self, tmp_path):
        code = main(["reduce", "--synthetic", BLOBS, "--out", str(tmp_path),
                     "--similarity-histogram"])
        assert code == 0
        from edgeprune import load_graph
        g, header = load_graph(tmp_path / "graph.txt")
        assert header["k_max"] == 50 and g.n == 120
        hist_lines = (tmp_path / "similarity_histogram.csv").read_text().splitlines()
        assert hist_lines[1] == "bin_lo,bin_hi,count"
        total = sum(int(line.split(",")[2]) for line in hist_lines[2:])
        assert total == 120 * 50

    @pytest.mark.parametrize("seventh", [False, True])
    def test_histogram_reuses_table_and_scales(self, tmp_path, monkeypatch, seventh):
        # The graph's table and scales come from the library's pipeline.
        knn_calls = [count_calls(monkeypatch, "build_knn", m) for m in (cli, reduce)]
        scale_calls = [count_calls(monkeypatch, "compute_scales", m) for m in (cli, reduce)]
        argv = ["reduce", "--synthetic", BLOBS, "--k-max", "20", "--out", str(tmp_path),
                "--similarity-histogram"] + (["--seventh-neighbor-scale"] if seventh else [])
        assert main(argv) == 0
        assert sum(map(len, knn_calls)) == 1 and sum(map(len, scale_calls)) == 1
        # The histogram shows the adaptive-scale affinities of a fresh table.
        nt = build_knn(gen_synthetic("blobs", parse_synthetic_spec(BLOBS)[1], seed=0), 20)
        values = affinity_rows(nt, compute_scales(nt)).ravel()
        hist = build_histogram(values, fd_bin_width(values))
        lines = (tmp_path / "similarity_histogram.csv").read_text().splitlines()[2:]
        edges = hist.edges.tolist()
        assert lines == [f"{lo!r},{hi!r},{c}"
                         for lo, hi, c in zip(edges, edges[1:], hist.counts.tolist())]
        # Plain numbers, not numpy scalar reprs such as 'np.float64(0.1)'.
        assert all(float(v) >= 0 for line in lines for v in line.split(","))

    def test_default_k_max_is_n_minus_one_below_51_points(self, tmp_path):
        assert main(["reduce", "--synthetic", "blobs:clusters=1,size=20",
                     "--out", str(tmp_path)]) == 0
        header = json.loads((tmp_path / "graph.txt").read_text().splitlines()[0])
        assert header["k_max"] == 19

    @pytest.mark.parametrize("spec", ["blobs:spread=nan", "circles:noise=nan",
                                      "moons:noise=nan", "mixed-density:spread_dense=nan",
                                      "blobs:clusters=1e20,size=2",
                                      "blobs:clusters=2,size=1e12",
                                      # sizes of 2**63 and up; a dim below 1
                                      "moons:size=1e20", "circles:size=1e20",
                                      "blobs:size=1e20", "mixed-density:size_dense=1e20",
                                      "mixed-density:dim=0", "mixed-density:dim=-1",
                                      # point arrays of 2**63 bytes and up
                                      "blobs:size=4e18", "moons:size=4e18",
                                      "circles:size=4e18", "blobs:size=4e18,dim=4",
                                      "mixed-density:size_sparse=3e18,dim=8",
                                      "circles:radii=1+2+3,size=3e18",
                                      "blobs:dim=1e20", "mixed-density:dim=1e20"])
    def test_unusable_synthetic_spec_is_input_error(self, tmp_path, spec):
        assert main(["reduce", "--synthetic", spec, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "graph.txt").exists()

    def test_histogram_bin_limit_exits_3(self, tmp_path):
        # A near-regular simplex: every affinity is exp(-1) to within 1e-12,
        # so the Freedman-Diaconis width asks for about 1e12 bins.
        rng = np.random.default_rng(0)
        save_csv(PointSet(np.eye(12) + 1e-12 * rng.standard_normal((12, 12))),
                 tmp_path / "simplex.csv")
        # The histogram is made before graph.txt is written, so nothing is.
        assert main(["reduce", "--input", str(tmp_path / "simplex.csv"),
                     "--similarity-histogram", "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    def test_pairs_builds_one_table(self, tmp_path, monkeypatch):
        calls = [count_calls(monkeypatch, "build_knn", m) for m in (cli, reduce)]
        assert main(["pairs", "--synthetic", BLOBS, "--k-max", "10",
                     "--out", str(tmp_path)]) == 0
        assert sum(map(len, calls)) == 1

    @pytest.mark.parametrize("argv", [["reduce"], ["reduce", "--seventh-neighbor-scale"],
                                      ["pairs"], ["cluster", "--label-column", "1"],
                                      ["baseline-knn", "--label-column", "1"],
                                      ["sweep", "--label-column", "1", "--param", "k-max",
                                       "--grid", "2,5"],
                                      ["sweep", "--label-column", "1", "--param", "baseline-k",
                                       "--grid", "2"]])
    def test_overflowing_distances_are_one_input_error(self, tmp_path, capsys, argv):
        # Finite coordinates whose squared distances overflow float64 make
        # an all-inf k-NN table; no command builds a graph from it, and the
        # k-NN stage warns of nothing (an error under this suite's filters).
        rng = np.random.default_rng(0)
        points = np.column_stack((1e200 * rng.standard_normal(60), np.repeat([0, 1], 30)))
        np.savetxt(tmp_path / "huge.csv", points, delimiter=",")
        code = main([argv[0], "--input", str(tmp_path / "huge.csv"), *argv[1:],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: squared distances between points overflow float64\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["reduce"], ["cluster"]])
    @pytest.mark.parametrize("scale", [1e-165, 1e-162])
    def test_underflowing_distances_are_one_input_error(self, tmp_path, capsys, argv, scale):
        # Three 1-D blobs scaled down until squared distances underflow:
        # at 1e-165 the exact form gives every pair distance 0, at 1e-162
        # some pairs; no command builds a graph from such a table.
        ps = gen_synthetic("blobs", {"clusters": 3, "size": 15, "dim": 1}, seed=1)
        np.savetxt(tmp_path / "tiny.csv", np.column_stack((scale * ps.points, ps.labels)),
                   delimiter=",")
        code = main([argv[0], "--input", str(tmp_path / "tiny.csv"), "--label-column", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: squared distances between points underflow float64\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def copies_csv(tmp_path, scale):
        # Labels in column 10: the three copies are class 0, the simplex 1.
        points = np.column_stack((scale * copies_beside_simplex(10, 3, 0),
                                  np.repeat([0, 1], [3, 10])))
        np.savetxt(tmp_path / "copies.csv", points, delimiter=",")
        return ["--input", str(tmp_path / "copies.csv"), "--label-column", "10"]

    @pytest.mark.parametrize("argv", [["reduce"], ["pairs"], ["cluster"]],
                             ids=["reduce", "pairs", "cluster"])
    @pytest.mark.parametrize("mode", [[], ["--seventh-neighbor-scale"]], ids=["adaptive", "7th"])
    def test_underflowing_scale_products_are_one_input_error(self, tmp_path, capsys, argv,
                                                              mode):
        # Three copies of the origin beside a simplex, scaled by 1e-150: the
        # copies' scales, about 1e-165, multiply to 0. At scale 1 the graph
        # is the copies' triangle.
        assert main(["reduce", *self.copies_csv(tmp_path, 1.0), "--k-max", "2", *mode,
                     "--out", str(tmp_path / "one")]) == 0
        assert json.loads((tmp_path / "one" / "graph.txt").read_text().splitlines()[0])[
            "edges"] == 6
        capsys.readouterr()
        assert main([*argv, *self.copies_csv(tmp_path, 1e-150), "--k-max", "2", *mode,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: scale products sigma_p * sigma_q "
                                           "leave float64's normal range\n")
        assert not (tmp_path / "out").exists()

    def test_failed_similarity_histogram_writes_nothing(self, tmp_path, capsys):
        # At k_max 3, 33 of the 39 affinities are exp(-3) to within 1e-15, so
        # the Freedman-Diaconis width is 1.6e-16: the copies' affinities of 1
        # would need 6.27e15 bins.
        assert main(["reduce", *self.copies_csv(tmp_path, 1.0), "--k-max", "3",
                     "--similarity-histogram", "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric error: histogram would need 6.27e+15 bins")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["baseline-knn"],
                                      ["sweep", "--param", "baseline-k", "--grid", "2",
                                       "--k-max", "2"],
                                      ["sweep", "--param", "k-max", "--grid", "2"]])
    def test_far_clusters_with_a_finite_table_run(self, tmp_path, argv):
        # Three tight clusters 1e300 apart: their squared norms overflow, but
        # at k = 2 every neighbor lies in the point's own cluster, so the
        # table is finite and the run goes through without a warning.
        far = gen_synthetic("blobs", {"clusters": 3, "size": 3, "separation": 1e300}, seed=1)
        save_csv(far, tmp_path / "far.csv")
        assert main([argv[0], "--input", str(tmp_path / "far.csv"), "--label-column", "2",
                     *argv[1:], "--out", str(tmp_path / "out")]) == 0

    def test_pairs_writes_jsonl(self, tmp_path):
        code = main(["pairs", "--synthetic", BLOBS, "--k-max", "10",
                     "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        records = [json.loads(line) for line in
                   (tmp_path / "pairs.jsonl").read_text().splitlines()]
        assert {r["label"] for r in records} == {0, 1}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "report ACC/ARI/E%" in capsys.readouterr().out


def test_one_parser_serves_calls_in_a_row(tmp_path, capsys):
    # `main` builds its parser once per process, so a parse must leave
    # nothing behind: each call writes what it writes on its own.
    calls = [["pairs", "--synthetic", BLOBS, "--k-max", "10"], ["cluster", "--synthetic", BLOBS]]

    def written(argv, out):
        assert main([*argv, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    alone = []
    for i, argv in enumerate(calls):
        cli._build_parser.cache_clear()
        alone.append(written(argv, tmp_path / f"alone{i}"))
    cli._build_parser.cache_clear()
    assert [written(argv, tmp_path / f"row{i}") for i, argv in enumerate(calls)] == alone
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "report ACC/ARI/E%" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["reduce"], "exactly one of --input and --synthetic is required"),
    (["reduce", "--input", "two.csv", "--synthetic", "blobs"],
     "exactly one of --input and --synthetic is required"),
    (["cluster", "--synthetic", "blobs", "--repeats", "0"], "--repeats must be >= 1"),
    (["sweep", "--synthetic", "blobs", "--param", "k-max", "--grid", "a,b"],
     "bad --grid 'a,b': invalid literal for int() with base 10: 'a'"),
    (["reduce", "--synthetic", "blobs:size=x"], "cannot parse parameter value 'x'"),
    (["cluster", "--synthetic", "blobs", "--clusters", "1"], "need at least 2 clusters, got 1"),
    (["reduce", "--input", "empty.csv"], "empty.csv: file is empty"),
    (["reduce", "--input", "header.csv"], "header.csv: no data rows"),
    (["cluster", "--input", "two.csv", "--label-column", "5"],
     "label column 5 out of range for 2 columns"),
    (["reduce", "--synthetic", "blobs:clusters=0"], "blobs: clusters and dim must be positive"),
    (["reduce", "--synthetic", "blobs:clusters=2,size=3+4+5"], "blobs: got 3 sizes for 2 groups"),
    (["reduce", "--synthetic", "blobs:clusters=2,size=1"],
     "blobs: every group needs at least 2 points"),
    (["reduce", "--synthetic", "blobs:clusters=2,spread=1+2+3"],
     "blobs: got 3 values for 2 groups"),
])
def test_input_refusals_are_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header.csv").write_text("x,y\n")
    np.savetxt(tmp_path / "two.csv", np.arange(20.0).reshape(10, 2), delimiter=",")
    assert main([*argv, "--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["reduce"], ["cluster"], ["pairs"], ["baseline-knn"],
                                  ["sweep", "--param", "k-max", "--grid", "2,4"]])
def test_unset_options_take_the_config_defaults(argv):
    args = cli._build_parser().parse_args(argv + ["--synthetic", BLOBS])
    extra = {"param": "k-max", "grid": [2, 4]} if argv[0] == "sweep" else {}
    assert cli._config_from_args(args) == RunConfig(command=argv[0], synthetic=BLOBS, **extra)


def test_csv_cells_of_numpy_scalars_are_plain_numbers(tmp_path):
    cli._write_csv(RunConfig(command="cluster", out_dir=str(tmp_path)), "t.csv", ["a", "b"],
                   [{"a": np.float64(0.25), "b": np.int64(3)}])
    assert (tmp_path / "t.csv").read_text().splitlines()[2] == "0.25,3"


def test_module_entry_point():
    # `python -m edgeprune` from a source checkout, without installing.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "edgeprune", "--version"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"edgeprune {__version__}"


def test_far_clusters_run_with_runtime_warnings_as_errors(tmp_path):
    # A process that turns every RuntimeWarning into an error: the k-NN
    # stage's overflowing squares must not reach it.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "edgeprune",
                           "baseline-knn", "--synthetic",
                           "blobs:separation=1e300,clusters=3,size=3", "--out", str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_commands_leave_scipy_optimize_and_spatial_unimported(tmp_path):
    # scipy.optimize costs about 0.3 s of every process's start and
    # scipy.spatial (the KD-tree) about 0.1 s; no command may import
    # either, directly or through a scipy module it uses.
    src = Path(__file__).resolve().parents[1] / "src"
    script = f"""
import sys
from edgeprune import cli
spec = "blobs:clusters=2,size=20,separation=15,spread=1"
k_max = ["--k-max", "10"]
for argv in (["cluster", "--clusters", "2", *k_max], ["pairs", *k_max], ["reduce", *k_max],
             ["baseline-knn", "--clusters", "2"],
             ["sweep", "--clusters", "2", "--param", "k-max", "--grid", "5,10"]):
    assert cli.main([*argv, "--synthetic", spec, "--out", {str(tmp_path)!r}]) == 0, argv
print(sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.spatial"))))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv, path", [
    (None, None),
    (["reduce"], None),
    (["reduce", "--similarity-histogram"], None),
    (["pairs"], None),
    (["pairs", "--input"], None),
    (["cluster", "--clusters", "3"], "components"),
    (["sweep", "--clusters", "3", "--param", "baseline-k", "--grid", "4,10"], "components"),
    (["baseline-knn", "--clusters", "3", "--baseline-k", "10"], "components"),
    (["cluster", "--clusters", "4"], "eigensolver"),
], ids=["import", "reduce", "reduce-histogram", "pairs", "pairs-csv", "cluster-components",
        "sweep-baseline-k", "baseline-knn", "cluster-eigensolver"])
def test_only_the_commands_that_use_scipy_import_it(tmp_path, argv, path):
    # scipy.sparse and its csgraph cost about 0.3 s of a process's start.
    # The package, `reduce`, `pairs` and the back end's components path
    # (the sweep's 4-NN foil takes the merged path) use no scipy routine;
    # the eigensolver path does. numpy.ma (about 8 ms and 1.3 MB) is loaded
    # by a plain `np.unique` or `np.quantile`, and by scipy, so only the
    # eigensolver path may load it. Each case runs in a fresh interpreter, so
    # no command's imports hide another's; each path is named by its DEBUG line.
    src = Path(__file__).resolve().parents[1] / "src"
    script = """
import logging, sys
logging.basicConfig(level=logging.DEBUG, format="%(message)s")
import edgeprune
code = 0
if len(sys.argv) > 1:
    from edgeprune.cli import main
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules,
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3])
"""
    if argv is None:
        argv = []
    elif argv[-1] == "--input":
        save_csv(gen_synthetic("blobs", {"clusters": 3, "size": 40, "separation": 15},
                               seed=1), tmp_path / "points.csv")
        argv = [*argv, str(tmp_path / "points.csv"), "--out", str(tmp_path / "out")]
    else:
        argv = [*argv, "--synthetic", BLOBS, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, masked, loaded = proc.stdout.splitlines()[-1].split(" ", 2)
    assert code == "0", proc.stderr
    if path is not None:
        assert f"C={argv[2]}, {path} path" in proc.stderr
    if path == "eigensolver":
        assert loaded.startswith("['scipy'")
        assert masked == "True"
    else:
        assert loaded == "[]"
        assert masked == "False"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("argv", [["reduce", "--similarity-histogram"], ["pairs"],
                                  ["cluster", "--repeats", "2"]])
def test_outputs_do_not_depend_on_usable_cpus(tmp_path, argv):
    # The k-NN screen runs on one thread per usable CPU; a child pinned to
    # one CPU must write the same bytes as a child with all of them. BLAS
    # gets one thread in both, since the eigensolver's output may depend on
    # its thread count (see the README).
    src = Path(__file__).resolve().parents[1] / "src"
    script = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from edgeprune.cli import main
sys.exit(main(sys.argv[2:]))
"""
    spec = "blobs:clusters=3,size=150,separation=8,spread=1.5"
    outs = []
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        proc = subprocess.run([sys.executable, "-c", script, cpus, *argv, "--synthetic", spec,
                               "--seed", "4", "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] and outs[0] == outs[1]


# Fixture (c): its reduced graph has 8 components and its 6-NN foil 4, for
# 2 clusters (m > C). An eigensolver returns its own basis of the null
# space, which changes with the BLAS thread count; the component path does
# not solve.
FIXTURE_C = ("mixed-density:size-dense=200,size-sparse=100,spread-dense=0.3,"
             "spread-sparse=2.0,separation=10")


@pytest.mark.parametrize("command,spec,extra,name", [
    ("cluster", FIXTURE_C, ["--repeats", "3"], "metrics.csv"),
    ("baseline-knn", FIXTURE_C, ["--repeats", "3", "--baseline-k", "6"],
     "baseline_metrics.csv"),
    # At 32-D the k-NN screen's BLAS products are split into column tiles.
    ("reduce", "blobs:clusters=2,size=500,separation=10,dim=32", [], "graph.txt")],
    ids=["cluster", "baseline-knn", "reduce-32d"])
def test_metrics_do_not_depend_on_blas_threads(tmp_path, command, spec, extra, name):
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "edgeprune", command, "--synthetic", spec,
                               "--seed", "5", *extra, "--out", str(out)],
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / name).read_bytes())
    assert outs[0] == outs[1]
