"""Checks on the test configuration and on the names the benchmark relies on."""

import ast
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import edgeprune
from edgeprune import data, save_csv, spectral
from edgeprune.cli import main

from test_cli import count_calls

ROOT = Path(__file__).resolve().parents[1]
SPEC = "blobs:clusters=2,size=20,separation=15,spread=1"


def test_failing_property_prints_its_example(tmp_path):
    # Explaining a failing example imports libcst, which warns about a
    # deprecated mypy_extensions API; the warning filters must let the
    # report through instead of aborting the test run.
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0
    """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                           "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert proc.returncode == 1


def load_spans():
    """perfbench/spans.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_run(monkeypatch):
    """perfbench/run.py, loaded by path; it imports spans as a top-level module."""
    monkeypatch.setitem(sys.modules, "spans", load_spans())
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_pairs_workload_writes_its_recorded_bytes(tmp_path, monkeypatch):
    # The benchmark checks each dup-pairs-1.2k op's pairs.jsonl against
    # the SHA-256 recorded in references.json; a change to the pairs path
    # that moves a byte fails here before it fails every benchmark op.
    run = load_run(monkeypatch)
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    cases = [("toy", seed) for seed in (0, 7, 14, 21, 28)] + [("full", 5), ("full", 26)]
    for size, seed in cases:
        inputs = run.make_inputs("dup-pairs-1.2k", seed, size, tmp_path / "in")
        out = tmp_path / f"{size}-{seed}"
        assert main([*inputs.argv, "--out", str(out)]) == 0
        sha = hashlib.sha256((out / "pairs.jsonl").read_bytes()).hexdigest()
        assert sha == references[size]["dup-pairs-1.2k"][str(seed)]["pairs_sha256"], (size, seed)


def test_benchmark_traced_names_exist():
    for module, names in load_spans().TRACED.items():
        package_module = importlib.import_module(f"edgeprune.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"{module}.{name}"
    assert isinstance(spectral.DENSE_EIG_LIMIT, int)


def test_benchmark_reads_these_record_fields():
    # perfbench/tests builds a ReducedGraph from its first seven fields by
    # position; the tracer reads the other fields named here.
    def names(record):
        return [f.name for f in dataclasses.fields(record)]

    assert names(edgeprune.ReducedGraph)[:7] == [
        "n", "src", "dst", "weight", "directed_src", "directed_dst", "directed_weight"]
    assert "kth" in names(edgeprune.LocalScales)
    assert {"inertia", "collapsed"} <= set(names(edgeprune.ClusterResult))
    assert {"positives", "negatives"} <= set(names(edgeprune.PairSet))


def test_benchmark_counts_the_pairs_it_writes(tmp_path):
    # The tracer counts a PairSet's fields with len(); they are (P, 2)
    # arrays, so the counts are the label-1 and label-0 lines written.
    tracer = load_spans().Tracer(edgeprune)
    tracer.install()
    try:
        assert tracer.run_op(lambda: main(["pairs", "--synthetic", SPEC,
                                           "--out", str(tmp_path / "out")])) == 0
        tracer.finish_op(tmp_path / "scratch")
    finally:
        tracer.uninstall()
    labels = [json.loads(line)["label"]
              for line in (tmp_path / "out" / "pairs.jsonl").read_text().splitlines()]
    values = tracer.op_values[0]
    assert values["pairs.positives"] == labels.count(1) > 0
    assert values["pairs.negatives"] == labels.count(0) > 0


def test_benchmark_traces_the_eigensolver_path(tmp_path):
    # Three blobs 2 apart make one component for three clusters (m < C), so
    # the op builds one graph, embeds it once, densely, and runs k-means
    # per repeat: a signature change in `laplacian`, `embed` or `kmeans`
    # that the tracer cannot follow fails here.
    tracer = load_spans().Tracer(edgeprune)
    tracer.install()
    try:
        assert tracer.run_op(lambda: main(["cluster", "--synthetic",
                                           "blobs:clusters=3,size=40,separation=2",
                                           "--repeats", "2", "--out", str(tmp_path / "out")])) == 0
        tracer.finish_op(tmp_path / "scratch")
    finally:
        tracer.uninstall()
    values = tracer.op_values[0]
    assert values["reduce.components"] == 1
    assert values["spectral.embed.calls"] == 1
    assert values["spectral.dense_calls"] == 1
    assert values["spectral.embed_useful_ratio"] == 1.0
    assert len(set(tracer.graph_shas[0])) == 1


def test_commands_call_the_names_the_benchmark_wraps(tmp_path, monkeypatch):
    # The tracer sees a call only when it goes through the name it wraps
    # in cli's globals.
    reduced = count_calls(monkeypatch, "build_reduced")
    edge_pct = count_calls(monkeypatch, "edge_percentage")
    clustered = count_calls(monkeypatch, "spectral_cluster")
    saved = count_calls(monkeypatch, "save_pairs")
    assert main(["cluster", "--synthetic", SPEC, "--repeats", "2", "--out", str(tmp_path)]) == 0
    assert len(reduced) == 1 and len(edge_pct) == 1 and len(clustered) == 1
    # One call per graph: the reduced graph and one foil per grid point.
    assert main(["sweep", "--synthetic", SPEC, "--param", "baseline-k", "--grid", "2,4",
                 "--out", str(tmp_path)]) == 0
    assert len(clustered) == 1 + 3
    assert main(["pairs", "--synthetic", SPEC, "--out", str(tmp_path)]) == 0
    assert len(saved) == 1 and len(reduced) == 2
    assert main(["reduce", "--synthetic", SPEC, "--out", str(tmp_path)]) == 0
    assert len(reduced) == 3


def test_readme_library_example_runs(capsys):
    # The example under "## Library" runs as written, so an API change that
    # leaves the README behind fails here.
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})
    acc, ari, edge_pct = map(float, capsys.readouterr().out.split())
    assert 0 <= acc <= 1 and -1 <= ari <= 1 and 0 < edge_pct < 100


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # Every command under "## Command line" runs as written, in a working
    # directory that holds the example's iris.csv (4-D, labels in column 4).
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("edgeprune ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    save_csv(edgeprune.gen_synthetic("blobs", {"clusters": 3, "size": 50, "dim": 4}, seed=2),
             tmp_path / "iris.csv")
    for argv in commands:  # results/ lands in tmp_path
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "results" / "metrics.csv").exists()


def test_ci_pins_the_versions_the_corpus_was_recorded_with():
    # tests/golden.json holds output hashes that numpy and scipy releases
    # may move; the tier-1 workflow installs the versions it records.
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    golden = json.loads((ROOT / "tests" / "golden.json").read_text(encoding="utf-8"))
    for name in ("numpy", "scipy"):
        assert f"{name}=={golden[name]}" in workflow, name


def test_reference_uses_no_private_name_of_the_package():
    # tests/reference.py is the spec the stages are checked against; a
    # private helper it imported would be checked against itself.
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    bound, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                path = ".".join(filter(None, (getattr(node, "module", None), alias.name)))
                if path.split(".")[0] == "edgeprune":
                    bound.add(alias.asname or alias.name.split(".")[0])
                    if any(part.startswith("_") for part in path.split(".")):
                        private.append(path)
    for node in ast.walk(tree):
        base = node
        while isinstance(base, ast.Attribute):
            base = base.value
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(base, ast.Name) and base.id in bound):
            private.append(ast.unparse(node))
    assert bound and not private, private


def test_batched_draws_follow_numpy_layer_by_layer():
    # export_pairs' fallback draws recompute numpy's streams for many
    # points at once (data._spawn_choices). A numpy release that changes
    # a layer fails here, and the message names the layer.
    keys = np.array([0, 1, 1199, 2**32 - 1])
    for seed in (0, 3, 2**32 - 1, 2**32, 2**64 - 1):
        sequences = [np.random.SeedSequence([seed, 1, int(key)]) for key in keys]
        words = data._seed_words(seed, 1, keys)
        want = np.array([s.generate_state(4, np.uint64) for s in sequences]).T
        assert np.array_equal(words, want), \
            f"SeedSequence.generate_state moved (seed {seed}) under numpy {np.__version__}"
        start = np.repeat(data._pcg64_start(words), 40, axis=1)
        got = data._pcg64_outputs(start, np.tile(np.arange(40), keys.size))
        want = np.concatenate([np.random.PCG64(s).random_raw(40) for s in sequences])
        assert np.array_equal(got, want), \
            f"PCG64.random_raw moved (seed {seed}) under numpy {np.__version__}"
        # 248 lanes, so that counts up to 248 are batched: 5 of 5, 8 of
        # 1170 and 240 of 12,000; 241 of 12,000 takes numpy's tail shuffle.
        lanes = np.append(np.arange(247), keys[-1])
        sizes = np.resize([5, 1170, 12_000, 12_000], 248)
        counts = np.resize([5, 8, 240, 241], 248)
        got = data._spawn_choices(seed, 1, lanes, sizes, counts)
        want = np.concatenate([
            np.random.default_rng(np.random.SeedSequence([seed, 1, int(key)])).choice(
                k, size=e, replace=False) for key, k, e in zip(lanes, sizes, counts)])
        assert np.array_equal(got, want), \
            f"Generator.choice moved (seed {seed}) under numpy {np.__version__}"
