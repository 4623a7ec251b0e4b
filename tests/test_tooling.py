"""Checks on the test configuration and on the names the benchmark relies on."""

import importlib
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

from edgeprune import spectral
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


def test_benchmark_traced_names_exist():
    for module, names in load_spans().TRACED.items():
        package_module = importlib.import_module(f"edgeprune.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"{module}.{name}"
    assert isinstance(spectral.DENSE_EIG_LIMIT, int)


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
    assert len(saved) == 1
