"""Record the reference outputs the benchmark checks every op against.

    python3 perfbench/record.py [--workload NAME ...]

For each size, workload and input seed 0..REF_SEEDS-1 this runs one traced
op and stores what a correct op must reproduce: for `cluster`, the
`edge_pct`, `n_components` and per-repeat ARI of `metrics.csv`; for
`pairs`, the sha256 of `pairs.jsonl`; for both, the sha256 of the
`save_graph` file of the reduced graph. Run from the root of the checkout
whose outputs are the reference; it rewrites `perfbench/references.json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
from spans import Tracer


def make_reference(ep, name: str, input_seed: int, size: str, work_dir: Path) -> dict:
    """Run one traced op of `name` on `input_seed` and return what it produced."""
    inputs = run.make_inputs(name, input_seed, size, work_dir)
    tracer = Tracer(ep)
    rc, _, err = run.call_traced(ep, tracer, inputs.argv, work_dir / "out", work_dir / "graph")
    if rc != 0:
        raise run.SetupError(f"{name} seed {input_seed}: exit code {rc}: {err}")
    (graph_sha,) = tracer.graph_shas[-1]
    ref = {"graph_sha256": graph_sha}
    if run.WORKLOADS[name].command == "pairs":
        ref["pairs_sha256"] = run.file_sha256(work_dir / "out" / "pairs.jsonl")
        return ref
    rows = run.read_metrics_csv(work_dir / "out" / "metrics.csv")
    ref["edge_pct"] = float(rows[0]["edge_pct"])
    ref["n_components"] = int(rows[0]["n_components"])
    ref["ari"] = [float(r["ari"]) for r in rows]
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--size", action="append", choices=["full", "toy"])
    parser.add_argument("--work-dir", type=Path, default=Path(".perfbench"))
    args = parser.parse_args(argv)
    ep = run.import_edgeprune()
    refs = {}
    if run.REFERENCES.is_file():
        refs = json.loads(run.REFERENCES.read_text())
    for size in args.size or ["full", "toy"]:
        for name in args.workload or sorted(run.WORKLOADS):
            table = refs.setdefault(size, {}).setdefault(name, {})
            for seed in range(run.REF_SEEDS):
                table[str(seed)] = make_reference(ep, name, seed, size,
                                                  args.work_dir / "record" / name)
                print(f"{size} {name} seed {seed}: {table[str(seed)]}", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
