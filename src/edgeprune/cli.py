"""Command-line harness for the reduction pipeline.

Subcommands:

  reduce        build the reduced graph and write it as an edge list
  cluster       reduce + spectral clustering, with per-repeat metrics
  pairs         export positive/negative training pairs as JSON lines
  sweep         re-run the pipeline over a parameter grid (long-format CSV)
  baseline-knn  mutual unweighted k-NN graph as a comparison foil

The reducing commands build each graph with the library's pipeline,
`reduce_graph`, or with its table half `graph_from_table` where a sweep
shares one table; the scale rules and the default k_max live there. The
metric commands cluster each graph with one `spectral_cluster` call,
which decides the partition from the graph's components or embeds it
once for all repeats; `baseline-knn` is `cluster` on `mutual_knn_graph`.

Every command is deterministic for a fixed configuration; repeat i uses
seed + i. Output CSVs start with a '# {...}' config echo line so a
result file identifies the run that produced it. Wall-clock timings go
to stdout only, keeping the files byte-reproducible.

Exit codes: 0 success, 2 input error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import SEED_RANGE, PointSet, Seed, check_seed, gen_synthetic, load_csv
from .errors import InputError, NumericError
from .knn import build_knn
from .metrics import acc, ari, edge_percentage
from .pairs import export_pairs, save_pairs
from .reduce import (ReducedGraph, affinity_rows, default_k_max, graph_from_table,
                     mutual_knn_graph, n_components, save_graph)
# perfbench/spans.py wraps the name `build_reduced` and perfbench/tests patches it.
from .reduce import reduce_graph as build_reduced
from .scale import build_histogram, compute_scales, fd_bin_width
from .spectral import spectral_cluster

@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    synthetic: str | None = None
    label_column: int | None = None
    k_max: int | None = None
    clusters: int | None = None
    seed: Seed = 0
    repeats: int = 1
    out_dir: str = "."
    baseline_k: int = 2
    param: str | None = None
    grid: list[int] = field(default_factory=list)
    seventh_neighbor_scale: bool = False
    similarity_histogram: bool = False

    def echo(self) -> dict:
        """The config echoed atop each result file: all but the output options."""
        skip = ("out_dir", "similarity_histogram")
        return {k: v for k, v in asdict(self).items() if k not in skip}


def _parse_value(text: str):
    if "+" in text:
        return [_parse_value(t) for t in text.split("+")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"cannot parse parameter value {text!r}") from exc


def parse_synthetic_spec(spec: str) -> tuple[str, dict]:
    """Parse 'kind' or 'kind:key=value,key=value'; lists use '+', e.g. radii=1+3."""
    kind, _, rest = spec.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise InputError(f"bad synthetic parameter {item!r}; expected key=value")
            params[key.strip().replace("-", "_")] = _parse_value(value.strip())
    return kind.strip(), params


def load_dataset(cfg: RunConfig) -> PointSet:
    if (cfg.input_path is None) == (cfg.synthetic is None):
        raise InputError("exactly one of --input and --synthetic is required")
    if cfg.input_path is not None:
        return load_csv(cfg.input_path, label_column=cfg.label_column)
    if cfg.label_column is not None:
        raise InputError("--label-column applies to --input, not to --synthetic")
    kind, params = parse_synthetic_spec(cfg.synthetic)
    return gen_synthetic(kind, params, seed=cfg.seed)


def _labeled_dataset(cfg: RunConfig) -> tuple[PointSet, int]:
    """The labeled input of a metric command, and its cluster count."""
    ps = load_dataset(cfg)
    if ps.labels is None:
        raise InputError("this command computes metrics and needs labeled input; "
                         "pass --label-column or use --synthetic")
    n_clusters = cfg.clusters if cfg.clusters is not None else ps.n_classes
    if n_clusters < 2:
        raise InputError(f"need at least 2 clusters, got {n_clusters}")
    return ps, n_clusters


def _output(cfg: RunConfig, name: str) -> Path:
    """Path of the output file `name`; creates the output directory."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(cfg: RunConfig, name: str, columns: list[str], rows: list[dict]) -> None:
    path = _output(cfg, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(cfg.echo(), sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in columns) + "\n")
    print(f"wrote {path}")


def _summary_rows(rows: list[dict], metric_cols: list[str]) -> list[dict]:
    out = []
    for stat, fn in (("mean", np.mean), ("std", np.std)):
        row = {"repeat": stat}
        for col in metric_cols:
            row[col] = float(fn([r[col] for r in rows]))
        out.append(row)
    return out


_METRIC_COLS = ["acc", "ari", "edge_pct", "n_components"]


def _score_repeats(cfg: RunConfig, truth: np.ndarray, graph: ReducedGraph,
                   n_clusters: int):
    """Yield one metric row per seeded repeat; repeat i uses seed + i."""
    seeds = [(cfg.seed + i) % SEED_RANGE for i in range(cfg.repeats)]
    shared = {"edge_pct": edge_percentage(graph), "n_components": n_components(graph)}
    for i, result in enumerate(spectral_cluster(graph, n_clusters, seeds)):
        yield {"repeat": i, "seed": seeds[i], "acc": acc(truth, result.labels),
               "ari": ari(truth, result.labels), **shared}


def cmd_cluster(cfg: RunConfig) -> list[dict]:
    """Cluster and score `repeats` times with derived seeds.

    `cluster` scores the reduced graph; `baseline-knn` scores the mutual
    k-NN comparison foil with the same metrics and no reduction step.
    """
    ps, n_clusters = _labeled_dataset(cfg)
    # The graph ignores the seed and is identical for every repeat.
    if cfg.command == "baseline-knn":
        graph = mutual_knn_graph(build_knn(ps, cfg.baseline_k))
        filename = "baseline_metrics.csv"
    else:
        graph = build_reduced(ps, cfg.k_max, cfg.seventh_neighbor_scale)
        filename = "metrics.csv"
    rows = []
    total = tic = time.perf_counter()
    for row in _score_repeats(cfg, ps.labels, graph, n_clusters):
        toc = time.perf_counter()
        print(f"repeat {row['repeat']}: acc={row['acc']:.4f} ari={row['ari']:.4f} "
              f"e%={row['edge_pct']:.4f} components={row['n_components']} "
              f"wall={toc - tic:.3f}s")
        rows.append(row)
        tic = toc
    print(f"total wall time: {time.perf_counter() - total:.3f}s")
    _write_csv(cfg, filename, ["repeat", "seed", *_METRIC_COLS],
               rows + _summary_rows(rows, _METRIC_COLS))
    return rows


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Run the pipeline across a parameter grid.

    --param k-max sweeps the pipeline's own k_max. --param baseline-k
    sweeps the foil's k and repeats the (grid-independent) pipeline row
    at every grid point, which is what makes its curve flat.
    """
    if not cfg.grid:
        raise InputError("sweep needs a non-empty --grid")
    if cfg.param == "k-max" and cfg.k_max is not None:
        raise InputError("--param k-max takes its values from --grid, not --k-max")
    ps, n_clusters = _labeled_dataset(cfg)
    rows: list[dict] = []

    def run(graph, method, param):
        return [{**r, "method": method, "param": param}
                for r in _score_repeats(cfg, ps.labels, graph, n_clusters)]

    # One table at the largest k the sweep needs; every grid point takes
    # its leading columns, which equal a table built at that k.
    if cfg.param == "k-max":
        nt = build_knn(ps, max(cfg.grid))
        for k in cfg.grid:
            graph = graph_from_table(nt.prefix(k), cfg.seventh_neighbor_scale)
            rows.extend(run(graph, "reduced", k))
            print(f"k_max={k}: done")
    else:
        k_max = default_k_max(ps.n) if cfg.k_max is None else cfg.k_max
        nt = build_knn(ps, max(k_max, *cfg.grid))
        reduced = graph_from_table(nt.prefix(k_max), cfg.seventh_neighbor_scale)
        reduced_rows = run(reduced, "reduced", 0)
        for k in cfg.grid:
            baseline = mutual_knn_graph(nt.prefix(k))
            rows.extend(run(baseline, "baseline", k))
            for r in reduced_rows:
                rows.append({**r, "param": k})
            print(f"baseline k={k}: done")

    _write_csv(cfg, "sweep.csv", ["method", "param", "repeat", "acc", "ari", "edge_pct"], rows)
    return rows


def cmd_reduce(cfg: RunConfig) -> ReducedGraph:
    """Build the reduced graph and save it (plus optional diagnostics)."""
    graph = build_reduced(load_dataset(cfg), cfg.k_max, cfg.seventh_neighbor_scale)
    nt = graph.table
    if cfg.similarity_histogram:
        # Always the adaptive-scale affinities; made first, so a failed run writes nothing.
        scales = compute_scales(nt) if cfg.seventh_neighbor_scale else graph.scales
        values = affinity_rows(nt, scales).ravel()
        hist = build_histogram(values, fd_bin_width(values))
    path = _output(cfg, "graph.txt")
    save_graph(graph, path, k_max=nt.k_max, seed=cfg.seed)
    print(f"n={graph.n} ordered_edges={graph.edge_count} e%={edge_percentage(graph):.4f}")
    print(f"wrote {path}")
    if cfg.similarity_histogram:
        edges = hist.edges.tolist()
        _write_csv(cfg, "similarity_histogram.csv", ["bin_lo", "bin_hi", "count"],
                   [{"bin_lo": lo, "bin_hi": hi, "count": count}
                    for lo, hi, count in zip(edges, edges[1:], hist.counts.tolist())])
    return graph


def cmd_pairs(cfg: RunConfig):
    """Export positive/negative pairs from the reduced graph."""
    graph = build_reduced(load_dataset(cfg), cfg.k_max, cfg.seventh_neighbor_scale)
    pair_set = export_pairs(graph, graph.table, cfg.seed)
    path = _output(cfg, "pairs.jsonl")
    save_pairs(pair_set, path)
    print(f"positives={len(pair_set.positives)} negatives={len(pair_set.negatives)} "
          f"total={pair_set.total}")
    print(f"wrote {path}")
    return pair_set


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="edgeprune",
        description="Parameter-free k-NN graph reduction, spectral clustering "
                    "and evaluation metrics.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # An option left off the command line is left off the namespace too,
    # so RunConfig's field defaults are the only defaults.
    unset = {"argument_default": argparse.SUPPRESS}
    inputs = argparse.ArgumentParser(add_help=False, **unset)
    src = inputs.add_argument_group("input")
    src.add_argument("--input", dest="input_path", metavar="INPUT",
                     help="CSV file of points (one row per point)")
    src.add_argument("--synthetic",
                     help="synthetic spec, e.g. blobs or circles:radii=1+3,size=200")
    src.add_argument("--label-column", type=int,
                     help="0-based CSV column holding class labels")
    inputs.add_argument("--seed", type=int, help="base random seed")
    inputs.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")

    reduction = argparse.ArgumentParser(add_help=False, **unset)
    reduction.add_argument("--k-max", type=int,
                           help="neighbors per point fed to the reduction "
                                "(default min(N-1, 50))")
    reduction.add_argument("--seventh-neighbor-scale", action="store_true",
                           help="comparison mode: use the fixed 7th-neighbor "
                                "distance as each point's scale instead of the "
                                "adaptive estimate")

    metric = argparse.ArgumentParser(add_help=False, **unset)
    metric.add_argument("--clusters", type=int,
                        help="number of clusters (default: class count of input)")
    metric.add_argument("--repeats", type=int,
                        help="number of seeded repeats (default 1)")

    p = sub.add_parser("reduce", parents=[inputs, reduction], **unset,
                       help="build and save the reduced graph")
    p.add_argument("--similarity-histogram", action="store_true",
                   help="also write the FD-binned histogram of all affinities; "
                        "these are the adaptive-scale affinities, also under "
                        "--seventh-neighbor-scale")

    sub.add_parser("cluster", parents=[inputs, reduction, metric],
                   help="cluster the reduced graph and report ACC/ARI/E%%")

    sub.add_parser("pairs", parents=[inputs, reduction],
                   help="export positive/negative pairs as JSON lines")

    p = sub.add_parser("sweep", parents=[inputs, reduction, metric],
                       help="run the pipeline over a parameter grid")
    p.add_argument("--param", choices=["k-max", "baseline-k"], required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated integer grid, e.g. 2,4,8,16")

    # The foil is built at --baseline-k; it has no reduction to configure.
    p = sub.add_parser("baseline-knn", parents=[inputs, metric], **unset,
                       help="mutual unweighted k-NN comparison run")
    p.add_argument("--baseline-k", type=int,
                   help="k of the mutual k-NN baseline graph (default 2)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the parsed options; every option's dest is a field."""
    values = dict(vars(args))
    if "grid" in values:
        try:
            values["grid"] = [int(v) for v in args.grid.split(",") if v.strip()]
        except ValueError as exc:
            raise InputError(f"bad --grid {args.grid!r}: {exc}") from exc
    cfg = RunConfig(**values)
    if cfg.repeats < 1:
        raise InputError("--repeats must be >= 1")
    cfg.seed = check_seed(cfg.seed)
    return cfg


_DISPATCH = {
    "reduce": cmd_reduce,
    "cluster": cmd_cluster,
    "pairs": cmd_pairs,
    "sweep": cmd_sweep,
    "baseline-knn": cmd_cluster,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _DISPATCH[cfg.command](cfg)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
