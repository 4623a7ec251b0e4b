"""End-to-end and per-layer benchmark of edgeprune.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports edgeprune
from `src/` of that checkout. Each operation is one in-process call of
`edgeprune.cli.main([...])`; the next one starts only when the previous
one has returned (a closed loop with one client). Operations repeat for
`--seconds`, every output is checked against the reference recorded in
`perfbench/references.json`, and the last line of standard output is one
JSON object with the metrics `BENCHMARK.json` lists for the mode:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Scratch files and one result file per run go to `.perfbench/`.

A run cycles through INPUTS_PER_RUN inputs, each a pure function of
`--seed` and one of REF_SEEDS recorded input seeds, so every op has a
recorded reference to check against. Record the references with
`python3 perfbench/record.py` whenever a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

REF_SEEDS = 32      # distinct inputs per workload, each with a recorded reference
INPUTS_PER_RUN = 4  # inputs one run cycles through, so a run's medians span inputs
SETUP_PROBES = 4    # fresh processes timed for setup_s; the median is reported
WARM_UP_SPEC = "blobs:clusters=3,size=100"


@dataclass(frozen=True)
class Workload:
    command: str   # edgeprune subcommand run by one operation
    full: dict     # input parameters at benchmark size
    toy: dict      # the same input at test size
    repeats: int = 1


# Each input loads a different layer; they replace the single ladder of
# 2-D blob sizes (a 10k 2-D op takes about 25 s, and 300-point fixtures
# mostly time Python overhead). Sizes keep one op near 2 s on two cores.
# BENCHMARK.json lists all but blobs2d-3k (see NOTES.md).
WORKLOADS = {
    # k-NN dominates (brute force, O(N^2 d)); low dimension, where a
    # KD-tree wins. N=3200 is above DENSE_EIG_LIMIT, so LOBPCG embeds its
    # 5 components; a per-component eigensolver should barely move it.
    # Its run-to-run spread reached the 0.25 bound, so it is run by hand.
    "blobs2d-3k": Workload("cluster", dict(clusters=5, size=640, separation=10),
                           dict(clusters=5, size=40, separation=10)),
    # k-NN at 32-D: a tree gains little and the brute-force difference
    # tensor dominates peak memory. Dense eigensolver (N=2000). Two blobs:
    # with five, the 20-40 fragments the reduction leaves at 32-D make the
    # ARI jump between 0.47, 0.77 and 0.98 from seed to seed.
    "blobs32d-2k": Workload("cluster", dict(clusters=2, size=1000, separation=10, dim=32),
                            dict(clusters=2, size=75, separation=10, dim=32)),
    # The spectral layer dominates: 40 clusters and 40+ components, dense
    # eigh of the whole graph and k-means with C=40. The second repeat
    # embeds the same graph again (embedding reuse, per-component solve).
    "manyclust-2k": Workload("cluster", dict(clusters=40, size=50, separation=60),
                             dict(clusters=40, size=6, separation=60), repeats=2),
    # The pair-export write path: every point has more duplicates than
    # half its k-NN row, so each takes the O(N) fallback pool. Exact ties,
    # zero-distance scale fallbacks and CSV parsing inside the op; the
    # pairs command builds the k-NN table twice.
    "dup-pairs-1.2k": Workload("pairs", dict(distinct=40, copies=30),
                               dict(distinct=10, copies=30)),
}


class SetupError(RuntimeError):
    """The benchmark cannot start: no sources, no references, failed warm-up."""


@dataclass
class Inputs:
    argv: list      # the op's command line, without --out
    n: int          # points per op
    labels: np.ndarray | None = None  # truth for the pairs ARI


# -- inputs ------------------------------------------------------------------

def input_seeds(seed: int) -> list[int]:
    """The recorded input seeds one run cycles through."""
    step = REF_SEEDS // INPUTS_PER_RUN
    return [(seed + j * step) % REF_SEEDS for j in range(INPUTS_PER_RUN)]


def make_inputs(name: str, input_seed: int, size: str, work_dir: Path) -> Inputs:
    """Generate the workload's input; identical for identical arguments."""
    w = WORKLOADS[name]
    params = w.full if size == "full" else w.toy
    if w.command == "cluster":
        spec = "blobs:" + ",".join(f"{k}={v}" for k, v in params.items())
        argv = ["cluster", "--synthetic", spec, "--seed", str(input_seed)]
        if w.repeats > 1:
            argv += ["--repeats", str(w.repeats)]
        return Inputs(argv, params["clusters"] * params["size"])
    path = work_dir / f"input-{input_seed}.csv"
    labels = write_duplicate_csv(path, input_seed, params["distinct"], params["copies"])
    return Inputs(["pairs", "--input", str(path), "--label-column", "2"], labels.size, labels)


def write_duplicate_csv(path: Path, input_seed: int, distinct: int, copies: int) -> np.ndarray:
    """`distinct` points from 5 blobs, each written `copies` times in a row."""
    rng = np.random.default_rng(np.random.SeedSequence([input_seed, 0xD0]))
    labels = np.arange(distinct) % 5
    angles = 2.0 * np.pi * labels / 5
    centers = 10.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = centers + rng.normal(0.0, 1.0, (distinct, 2))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for (x, y), c in zip(np.repeat(points, copies, axis=0).tolist(),
                             np.repeat(labels, copies).tolist()):
            fh.write(f"{x!r},{y!r},{c}\n")
    return np.repeat(labels, copies)


# -- set-up ------------------------------------------------------------------

def import_edgeprune():
    if not (SRC / "edgeprune" / "__init__.py").is_file():
        raise SetupError(f"no edgeprune sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import edgeprune
    import edgeprune.cli

    return edgeprune


def setup(name: str, seed: int, size: str, work_dir: Path):
    """Import edgeprune, write the inputs and run one small warm-up command."""
    ep = import_edgeprune()
    inputs = [make_inputs(name, s, size, work_dir) for s in input_seeds(seed)]
    rc, _, err = call_cli(ep, [WORKLOADS[name].command, "--synthetic", WARM_UP_SPEC],
                          work_dir / "warm-up")
    if rc != 0:
        raise SetupError(f"warm-up command failed with exit code {rc}: {err}")
    return ep, inputs


def time_setup(name: str, seed: int, size: str, work_dir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to a finished set-up, per probe.

    The probe prints the system-wide monotonic clock when it is ready, so
    its exit is not timed.
    """
    samples = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed), "--size", size,
               "--work-dir", str(work_dir / f"probe-{k}")]
        tic = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        word, _, ready = proc.stdout.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(ready) - tic)
    return samples


# -- one operation -----------------------------------------------------------

def call_cli(ep, argv: list, out_dir: Path, tracer: Tracer | None = None):
    """Run one CLI command in-process; returns (exit code, seconds, stderr text).

    With a tracer, the command runs as one traced op.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.iterdir():
        stale.unlink()
    err = io.StringIO()
    with open(os.devnull, "w", encoding="utf-8") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(err):
        def command():
            return ep.cli.main([*argv, "--out", str(out_dir)])

        tic = time.perf_counter()
        try:
            rc = tracer.run_op(command) if tracer else command()
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - tic
    return rc, wall, err.getvalue()


def call_traced(ep, tracer: Tracer, argv: list, out_dir: Path, scratch: Path):
    """`call_cli` as one traced op: wrap the layers, run, unwrap, derive its values."""
    tracer.install()
    try:
        result = call_cli(ep, argv, out_dir, tracer)
    finally:
        tracer.uninstall()
    tracer.finish_op(scratch)
    return result


def read_metrics_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [r for r in csv.DictReader(lines) if r["repeat"].isdigit()]


def check_output(name: str, out_dir: Path, ref: dict) -> str | None:
    """None when the op's output files match the reference, else the mismatch."""
    try:
        if WORKLOADS[name].command == "pairs":
            sha = file_sha256(out_dir / "pairs.jsonl")
            return None if sha == ref["pairs_sha256"] else f"pairs.jsonl sha256 {sha}"
        rows = read_metrics_csv(out_dir / "metrics.csv")
    except (OSError, KeyError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if len(rows) != len(ref["ari"]):
        return f"{len(rows)} repeats in metrics.csv, expected {len(ref['ari'])}"
    for row, ref_ari in zip(rows, ref["ari"]):
        if float(row["edge_pct"]) != ref["edge_pct"]:
            return f"edge_pct {row['edge_pct']} != {ref['edge_pct']!r}"
        if int(row["n_components"]) != ref["n_components"]:
            return f"n_components {row['n_components']} != {ref['n_components']}"
        if float(row["ari"]) < ref_ari:
            return f"ari {row['ari']} below the reference {ref_ari!r}"
    return None


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def adjusted_rand(a, b) -> float:
    """Adjusted Rand index of two labelings (Hubert & Arabie)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    both, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / pairs(np.array([ai.size]))
    top = (rows + cols) / 2
    return 1.0 if top == expected else (both - expected) / (top - expected)


def output_ari(name: str, out_dir: Path, inputs: Inputs) -> float:
    """ARI of the op's result: last repeat for cluster, positive-pair components for pairs."""
    if WORKLOADS[name].command == "cluster":
        return float(read_metrics_csv(out_dir / "metrics.csv")[-1]["ari"])
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    src, dst = [], []
    with open(out_dir / "pairs.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["label"] == 1:
                src.append(rec["p"])
                dst.append(rec["q"])
    n = inputs.n
    graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return adjusted_rand(inputs.labels, connected_components(graph, directed=False)[1])


# -- runs --------------------------------------------------------------------

def load_references(name: str, seed: int, size: str) -> list[dict]:
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    try:
        return [references[size][name][str(s)] for s in input_seeds(seed)]
    except KeyError:
        raise SetupError(f"no {size} references recorded for {name}; "
                         "run perfbench/record.py") from None


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        work_dir: Path = Path(".perfbench")) -> dict:
    """One benchmark run; returns the result record (metrics, ops, environment)."""
    refs = load_references(name, seed, size)
    work = work_dir / "work" / name
    setup_samples = [] if trace else time_setup(name, seed, size, work)
    ep, inputs = setup(name, seed, size, work / "main")
    out_dir = work / "out"
    walls, traced_walls, failures = [], [], []
    aris: dict[int, float] = {}  # input index -> ARI of its first correct op
    tracer = Tracer(ep) if trace else None
    per_input = 2 if trace else 1  # in a traced run each input runs untraced, then traced
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = trace and len(traced_walls) < len(walls)
        j = (k // per_input) % len(inputs)
        k += 1
        ref = refs[j]
        gc.collect()
        if traced:
            rc, wall, err = call_traced(ep, tracer, inputs[j].argv, out_dir, work / "graph")
            traced_walls.append(wall)
        else:
            rc, wall, err = call_cli(ep, inputs[j].argv, out_dir)
            walls.append(wall)
        problem = f"exit code {rc}: {err.strip()}" if rc != 0 else check_output(name, out_dir, ref)
        if problem is None and traced and set(tracer.graph_shas[-1]) != {ref["graph_sha256"]}:
            problem = f"graph sha256 {tracer.graph_shas[-1]}"
        if problem is not None:
            failures.append(problem)
            print(f"op {len(walls) + len(traced_walls)} failed: {problem}", file=sys.stderr)
        elif j not in aris:
            aris[j] = output_ari(name, out_dir, inputs[j])
        if time.perf_counter() >= deadline and k >= per_input * len(inputs):
            break

    attempted = len(walls) + len(traced_walls)
    values = {"op_s": statistics.median(walls)}
    values["points_per_s"] = inputs[0].n / values["op_s"]
    if setup_samples:
        values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ari"] = statistics.median(aris.values()) if len(aris) == len(inputs) else 0.0
    values["ok_frac"] = 1.0 - len(failures) / attempted
    if trace:
        values.update(tracer.layer_metrics(statistics.median(traced_walls) - values["op_s"]))
        tracer.dump(work_dir / "trace" / f"{name}.seed{seed}.spans.jsonl")
    return {"workload": name, "seed": seed, "input_seeds": input_seeds(seed),
            "trace": int(trace), "size": size, "attempted": attempted,
            "failed": len(failures), "failures": failures[:5], "values": values,
            "op_walls": walls, "traced_walls": traced_walls,
            "setup_samples": setup_samples, "env": environment()}


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spec_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict) -> dict:
    """Print the run in words, then return the driver's one-line JSON object."""
    values = result["values"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"(input seeds {result['input_seeds']}), trace {result['trace']}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    print(f"op_s is the median of {len(result['op_walls'])} untraced ops")
    if result["setup_samples"]:
        print(f"setup_s is the median of {len(result['setup_samples'])} fresh processes")
    units = {m["name"]: m["unit"] for m in spec_metrics(False)}
    units.update(LAYER_UNITS if result["trace"] else {})
    for name, unit in units.items():
        if name in values:
            print(f"  {name:30s} {values[name]:.6g} {unit}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics(bool(result["trace"]))}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full",
                        help="toy inputs are for the benchmark's own tests")
    parser.add_argument("--work-dir", type=Path, default=Path(".perfbench"))
    parser.add_argument("--probe-setup", action="store_true",
                        help="set up once, print 'ready <monotonic clock>' and exit "
                             "(used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.probe_setup:
            setup(args.workload, args.seed, args.size, args.work_dir)
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size, args.work_dir)
        line = report(result)
    except (SetupError, ImportError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = args.work_dir / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, result=line), indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
