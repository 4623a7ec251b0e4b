"""Tests of the benchmark itself, at toy input sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path, *args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args,
         "--work-dir", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    words = "\n".join(lines[:-1])
    printed = LAYER_UNITS if trace else {m["name"]: m["unit"] for m in listed}
    for name, unit in printed.items():
        line = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        assert re.search(line, words, re.MULTILINE), name
    assert (tmp_path / "results" / f"{workload}.seed5.trace{trace}.json").is_file()


def test_same_seed_regenerates_identical_inputs(tmp_path):
    for name in run.WORKLOADS:
        a = run.make_inputs(name, 7, "full", tmp_path / "a")
        b = run.make_inputs(name, 7, "full", tmp_path / "b")
        c = run.make_inputs(name, 8, "full", tmp_path / "c")
        if run.WORKLOADS[name].command == "pairs":
            data = [Path(i.argv[2]).read_bytes() for i in (a, b, c)]
            assert data[0] == data[1] != data[2]
        else:
            assert a.argv == b.argv != c.argv
        assert a.n == b.n == c.n


def _patched_run(monkeypatch, tmp_path, workload, trace, patch):
    ep = run.import_edgeprune()
    patch(ep, monkeypatch)
    return run.run(workload, 5, 0.3, trace, "toy", tmp_path)


def test_wrong_metric_in_output_counts_as_failure(monkeypatch, tmp_path):
    def patch(ep, mp):
        mp.setattr(ep.cli, "edge_percentage", lambda g: 0.5)

    result = _patched_run(monkeypatch, tmp_path, "blobs2d-3k", False, patch)
    assert result["failed"] == result["attempted"] > 0
    assert result["values"]["ok_frac"] == 0.0
    assert run.report(result)["correct"] is False


def test_corrupted_pair_file_counts_as_failure(monkeypatch, tmp_path):
    def patch(ep, mp):
        save = ep.pairs.save_pairs

        def save_and_corrupt(pair_set, path):
            save(pair_set, path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('{"p": 0, "q": 1, "label": 0}\n')

        mp.setattr(ep.cli, "save_pairs", save_and_corrupt)

    result = _patched_run(monkeypatch, tmp_path, "dup-pairs-1.2k", False, patch)
    assert result["failed"] > 0 and result["values"]["ok_frac"] < 1.0


def test_numeric_error_exit_code_counts_as_failure(monkeypatch, tmp_path):
    def patch(ep, mp):
        cluster = ep.cli.spectral_cluster

        def fail_on_workload(g, *args, **kwargs):
            if g.n == 200:  # the toy blobs2d input; the warm-up has 300 points
                raise ep.NumericError("injected")
            return cluster(g, *args, **kwargs)

        mp.setattr(ep.cli, "spectral_cluster", fail_on_workload)

    result = _patched_run(monkeypatch, tmp_path, "blobs2d-3k", False, patch)
    assert result["failed"] > 0
    assert "exit code 3" in result["failures"][0]


def test_changed_graph_fails_the_traced_check(monkeypatch, tmp_path):
    def patch(ep, mp):
        build = ep.cli.build_reduced

        def nudged(*args, **kwargs):
            g = build(*args, **kwargs)
            return ep.ReducedGraph(g.n, g.src, g.dst, g.weight * (1 + 2**-40),
                                   g.directed_src, g.directed_dst, g.directed_weight)

        mp.setattr(ep.cli, "build_reduced", nudged)

    result = _patched_run(monkeypatch, tmp_path, "blobs2d-3k", True, patch)
    assert any("graph sha256" in f for f in result["failures"])


def test_traced_counts_on_toy_pairs(tmp_path):
    result = run.run("dup-pairs-1.2k", 5, 0.3, True, "toy", tmp_path)
    v = result["values"]
    assert result["failed"] == 0
    assert v["knn.calls"] == 2 and v["knn.useful_ratio"] == 0.5
    assert v["pairs.fallback_points"] == 300
    assert (tmp_path / "trace" / "dup-pairs-1.2k.seed5.spans.jsonl").is_file()


def test_exits_nonzero_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(tmp_path / "work", "--workload", "blobs2d-3k", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_verdicts():
    parent = [(s, v) for s, v in enumerate([10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 9.9, 10.1])]
    faster = [(s, v * 0.8) for s, v in parent]
    slower = [(s, v * 1.3) for s, v in parent]
    same = [(s, v + (0.05 if s % 2 else -0.05)) for s, v in parent]
    noisy = [(s, v * (0.5 if s % 2 else 1.5)) for s, v in parent]

    def word(change, bound=0.1):
        pairs = compare.pair_up(parent, change)
        return compare.verdict([v for _, v in parent], [v for _, v in change],
                               pairs, False, bound)[0]

    assert word(faster) == "improved"
    assert word(slower) == "regressed"
    assert word(same) == "no worse"
    assert word(noisy) == "unresolved"
    assert word(slower, bound=None) == "regressed"
