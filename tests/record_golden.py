"""The byte-identity corpus: CLI forms and the hashes of what each one writes.

For every form in FORMS, `run_form` records the exit code, the SHA-256 of
stderr (with the package's log warnings, as a plain run prints them) and
the SHA-256 of every file the command writes. stdout is left out: it
carries wall times and the output path. Each form runs in its own
directory, from relative paths, so no message names a temporary path.
Forms on the eigensolver path run in a fresh interpreter with one
OpenBLAS thread, since the dense solver's bits depend on the thread count.

`tests/test_golden.py` checks every form against `tests/golden.json`.
After a change that alters outputs on purpose, re-record with

    PYTHONPATH=src python3 tests/record_golden.py

and list every form whose hashes moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"

BLOBS = "blobs:clusters=3,size=30,separation=8,spread=1.5"
MIXED = ("mixed-density:size-dense=80,size-sparse=40,spread-dense=0.3,"
         "spread-sparse=2.0,separation=10")

# name -> (argv without --out, whether it runs in a fresh interpreter)
FORMS = {
    "reduce": (["reduce", "--synthetic", "moons:size=60,noise=0.05", "--seed", "2"], False),
    "reduce-histogram": (["reduce", "--synthetic", BLOBS, "--similarity-histogram"], False),
    "reduce-histogram-7th": (["reduce", "--synthetic", MIXED, "--similarity-histogram",
                              "--seventh-neighbor-scale"], False),
    "reduce-32d": (["reduce", "--synthetic", "blobs:clusters=2,size=75,separation=10,dim=32",
                    "--seed", "1", "--similarity-histogram"], False),
    "reduce-scaled": (["reduce", "--input", "scaled.csv", "--k-max", "12"], False),
    "reduce-scaled-tiny": (["reduce", "--input", "tiny.csv", "--k-max", "12"], False),
    # The manyclust-2k spec at a tenth of its size: 10 components for 10
    # clusters. At full size and seed 3 it has 42 components for 40.
    "cluster-components": (["cluster", "--synthetic", "blobs:clusters=10,size=20,separation=60",
                            "--repeats", "2"], False),
    "cluster-merged": (["cluster", "--synthetic", "blobs:clusters=40,size=50,separation=60",
                        "--seed", "3", "--repeats", "2"], False),
    "cluster-7th": (["cluster", "--synthetic", "circles:size=60+90,noise=0.02",
                     "--seventh-neighbor-scale"], False),
    "cluster-string-labels": (["cluster", "--input", "named.csv", "--label-column", "2"],
                              False),
    "cluster-eigensolver": (["cluster", "--synthetic", "blobs:clusters=3,size=40,separation=2",
                             "--repeats", "3"], True),
    # N = 3200 is above DENSE_EIG_LIMIT, and fewer components than
    # clusters: LOBPCG solves it.
    "cluster-lobpcg": (["cluster", "--synthetic", "blobs:clusters=8,size=400,separation=3"],
                       True),
    "pairs-dup": (["pairs", "--input", "dup.csv", "--label-column", "2", "--seed", "7"],
                  False),
    "pairs-synthetic": (["pairs", "--synthetic", BLOBS, "--k-max", "10", "--seed", "3"], False),
    "pairs-7th": (["pairs", "--synthetic", MIXED, "--k-max", "12", "--seventh-neighbor-scale"],
                  False),
    # Short points that draw 20 (batched) and 198 (past the batch's cap of
    # 192, so numpy's own generator) negatives each.
    "pairs-draw-cap": (["pairs", "--input", "groups.csv", "--k-max", "198", "--seed", "5"],
                       False),
    "sweep-k-max": (["sweep", "--synthetic", MIXED, "--param", "k-max", "--grid", "4,8,16",
                     "--repeats", "2"], False),
    "sweep-baseline-k": (["sweep", "--synthetic", MIXED, "--param", "baseline-k",
                          "--grid", "4,10", "--k-max", "20"], False),
    "baseline-knn": (["baseline-knn", "--synthetic", MIXED, "--baseline-k", "6",
                      "--repeats", "2"], False),
    "refuse-one-cluster": (["cluster", "--synthetic", BLOBS, "--clusters", "1"], False),
    "refuse-unknown-kind": (["reduce", "--synthetic", "spirals"], False),
    "refuse-missing-file": (["pairs", "--input", "missing.csv"], False),
    "refuse-bad-cell": (["reduce", "--input", "bad.csv"], False),
    "refuse-k-max-0": (["reduce", "--synthetic", BLOBS, "--k-max", "0"], False),
    "refuse-scale-products": (["pairs", "--input", "copies.csv", "--label-column", "10",
                               "--k-max", "2"], False),
    "numeric-histogram-bins": (["reduce", "--input", "simplex.csv",
                                "--similarity-histogram"], False),
}


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(float(c)) for c in row) + "\n")


def write_inputs(work: Path) -> None:
    """The CSV inputs the forms read, each a pure function of fixed seeds."""
    rng = np.random.default_rng(20261022)
    # 10 points from 5 blobs, each written 30 times in a row.
    labels = np.arange(10) % 5
    angle = 2.0 * np.pi * labels / 5
    points = 10.0 * np.column_stack((np.cos(angle), np.sin(angle))) + rng.normal(0, 1, (10, 2))
    _write_rows(work / "dup.csv", [(*p, str(c)) for p, c in
                                   zip(np.repeat(points, 30, axis=0), np.repeat(labels, 30))])
    # Three named blobs, under a header row.
    names = np.repeat(["alpha", "beta", "gamma"], 25)
    points = np.repeat([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]], 25, axis=0)
    points += rng.normal(0, 1, points.shape)
    _write_rows(work / "named.csv", [("x", "y", "label"),
                                     *[(*p, str(c)) for p, c in zip(points, names)]])
    # 1e150-scaled blobs.
    points = np.repeat([[0.0, 0.0], [6.0, 0.0]], 20, axis=0) + rng.normal(0, 1, (40, 2))
    _write_rows(work / "scaled.csv", 1e150 * points)
    (work / "bad.csv").write_text("1.0,2.0\n3.0,x\n", encoding="utf-8")
    # Three copies of the origin beside a jittered unit simplex, scaled by
    # 1e-150: the copies' scales multiply to 0. Labels in column 10.
    simplex = np.eye(10) + 1e-15 * rng.standard_normal((10, 10))
    copies = np.vstack([np.zeros((3, 10)), simplex])
    _write_rows(work / "copies.csv", np.column_stack((1e-150 * copies,
                                                      np.repeat([0, 1], [3, 10]))))
    # A near-regular simplex: its affinities ask for about 1e12 histogram bins.
    _write_rows(work / "simplex.csv", np.eye(12) + 1e-12 * rng.standard_normal((12, 12)))
    # 1e-150-scaled blobs: the squares stay normal, so the graph is built.
    points = np.repeat([[0.0, 0.0], [6.0, 0.0]], 20, axis=0) + rng.normal(0, 1, (40, 2))
    _write_rows(work / "tiny.csv", 1e-150 * points)
    # 200 and 110 copies of two points beside 100 scattered ones. At k_max
    # 198 the first 199 copies of the first point have 198 edges each and
    # no non-edge in their rows; those of the second have 109 edges and
    # 89 non-edges.
    points = np.vstack([np.repeat(rng.normal(0, 10, (2, 2)), [200, 110], axis=0),
                        40 + rng.normal(0, 5, (100, 2))])
    _write_rows(work / "groups.csv", points)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_form(name: str, work: Path) -> dict:
    """Run one form in the empty directory `work`: its exit code, stderr hash
    and output-file hashes."""
    argv, fresh = FORMS[name]
    write_inputs(work)
    argv = [*argv, "--out", "out"]
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "edgeprune", *argv], cwd=work,
                              env={**os.environ, "PYTHONPATH": str(SRC),
                                   "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, timeout=300)
        code, err = proc.returncode, proc.stderr
    else:
        from edgeprune.cli import main

        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setLevel(logging.WARNING)
        logger = logging.getLogger("edgeprune")
        logger.addHandler(handler)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stream):
                code = main(argv)
        finally:
            os.chdir(cwd)
            logger.removeHandler(handler)
        err = stream.getvalue().encode()
    out = work / "out"
    files = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit": code, "stderr": _sha(err), "files": files}


def main() -> None:
    forms = {}
    for name in FORMS:
        with tempfile.TemporaryDirectory() as work:
            forms[name] = run_form(name, Path(work))
        print(name, forms[name]["exit"], sorted(forms[name]["files"]))
    import scipy

    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                                  "forms": forms}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
