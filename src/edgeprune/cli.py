"""Command-line harness for the reduction pipeline.

Subcommands:

  reduce        build the reduced graph and write it as an edge list
  cluster       reduce + spectral clustering, with per-repeat metrics
  pairs         export positive/negative training pairs as JSON lines
  sweep         re-run the pipeline over a parameter grid (long-format CSV)
  baseline-knn  mutual unweighted k-NN graph as a comparison foil

Every command is deterministic for a fixed configuration; repeat i uses
seed + i. Output CSVs start with a '# {...}' config echo line so a
result file identifies the run that produced it. Wall-clock timings go
to stdout only, keeping the files byte-reproducible.

Exit codes: 0 success, 2 input error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import PointSet, Seed, check_seed, gen_synthetic, load_csv
from .errors import InputError, NumericError
from .knn import NeighborTable, build_knn
from .metrics import acc, ari, edge_percentage
from .pairs import export_pairs, save_pairs
from .reduce import (DEFAULT_K_MAX, ReducedGraph, affinity_rows, graph_from_table,
                     mutualize, n_components, save_graph)
from .scale import LocalScales, build_histogram, compute_scales, fd_bin_width
from .spectral import embed_graph, kmeans

_SEED_MOD = 2**64


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
        keys = ("command", "input_path", "synthetic", "label_column", "k_max",
                "clusters", "seed", "repeats", "baseline_k", "param", "grid",
                "seventh_neighbor_scale")
        return {k: getattr(self, k) for k in keys}


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
    kind, params = parse_synthetic_spec(cfg.synthetic)
    return gen_synthetic(kind, params, seed=cfg.seed)


def _require_labels(ps: PointSet) -> np.ndarray:
    if ps.labels is None:
        raise InputError("this command computes metrics and needs labeled input; "
                         "pass --label-column or use --synthetic")
    return ps.labels


def _effective_k_max(cfg: RunConfig, ps: PointSet) -> int:
    return cfg.k_max if cfg.k_max is not None else min(ps.n - 1, DEFAULT_K_MAX)


def _table_scales(nt: NeighborTable, seventh_neighbor: bool) -> LocalScales:
    """Adaptive local scales, or the fixed seventh-neighbor distance.

    The seventh-neighbor variant replaces the adaptive per-point scale
    with the distance to the 7th neighbor (a legacy heuristic, kept for
    comparison runs only).
    """
    if not seventh_neighbor:
        return compute_scales(nt)
    col = min(7, nt.k_max) - 1
    sigma = nt.distances[:, col].copy()
    sigma[sigma <= 0] = fd_bin_width(nt.distances)
    return LocalScales(sigma=sigma, kth=np.full(nt.n, col + 1, dtype=np.int64))


def build_reduced(ps: PointSet, k_max: int, seventh_neighbor: bool = False) -> ReducedGraph:
    """Pipeline graph; optionally with the fixed seventh-neighbor scale."""
    nt = build_knn(ps, k_max)
    return graph_from_table(nt, _table_scales(nt, seventh_neighbor))


def _mutual_knn(nt: NeighborTable) -> ReducedGraph:
    src = np.repeat(np.arange(nt.n, dtype=np.int64), nt.k_max)
    dst = nt.indices.ravel()
    weight = np.ones(src.size, dtype=np.float64)
    return mutualize(nt.n, src, dst, weight)


def build_baseline_knn(ps: PointSet, k: int) -> ReducedGraph:
    """Mutual unweighted k-NN graph: edge iff each point is in the other's k-NN."""
    return _mutual_knn(build_knn(ps, k))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(cfg.echo(), sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")


def _summary_rows(rows: list[dict], metric_cols: list[str]) -> list[dict]:
    out = []
    for stat, fn in (("mean", np.mean), ("std", np.std)):
        row = {"repeat": stat}
        for col in metric_cols:
            row[col] = float(fn([r[col] for r in rows]))
        out.append(row)
    return out


_METRIC_COLS = ["acc", "ari", "edge_pct", "n_components"]


def _n_clusters(cfg: RunConfig, ps: PointSet) -> int:
    n_clusters = cfg.clusters if cfg.clusters is not None else ps.n_classes
    if n_clusters < 2:
        raise InputError(f"need at least 2 clusters, got {n_clusters}")
    return n_clusters


def _score_repeats(cfg: RunConfig, truth: np.ndarray, graph: ReducedGraph,
                   n_clusters: int):
    """Yield one metric row per seeded repeat; repeat i uses seed + i.

    The embedding and the component count do not depend on the seed, so
    they are computed once and only k-means runs per repeat.
    """
    emb = embed_graph(graph, n_clusters)
    shared = {"edge_pct": edge_percentage(graph), "n_components": n_components(graph)}
    for i in range(cfg.repeats):
        seed_i = (cfg.seed + i) % _SEED_MOD
        labels = kmeans(emb, n_clusters, seed_i).labels
        yield {"repeat": i, "seed": seed_i, "acc": acc(truth, labels),
               "ari": ari(truth, labels), **shared}


def _cluster_and_write(cfg: RunConfig, truth: np.ndarray, graph: ReducedGraph,
                       n_clusters: int, filename: str) -> list[dict]:
    """Score every repeat on `graph`, print each, and write the metrics CSV."""
    rows = []
    total = tic = time.perf_counter()
    for row in _score_repeats(cfg, truth, graph, n_clusters):
        toc = time.perf_counter()
        print(f"repeat {row['repeat']}: acc={row['acc']:.4f} ari={row['ari']:.4f} "
              f"e%={row['edge_pct']:.4f} components={row['n_components']} "
              f"wall={toc - tic:.3f}s")
        rows.append(row)
        tic = toc
    print(f"total wall time: {time.perf_counter() - total:.3f}s")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / filename, cfg, ["repeat", "seed", *_METRIC_COLS],
               rows + _summary_rows(rows, _METRIC_COLS))
    print(f"wrote {out / filename}")
    return rows


def cmd_cluster(cfg: RunConfig) -> list[dict]:
    """Reduce, cluster and score `repeats` times with derived seeds."""
    ps = load_dataset(cfg)
    truth = _require_labels(ps)
    n_clusters = _n_clusters(cfg, ps)
    # The graph ignores the seed and is identical for every repeat.
    graph = build_reduced(ps, _effective_k_max(cfg, ps), cfg.seventh_neighbor_scale)
    return _cluster_and_write(cfg, truth, graph, n_clusters, "metrics.csv")


def cmd_baseline_knn(cfg: RunConfig) -> list[dict]:
    """Mutual k-NN comparison foil: same metrics, no reduction step."""
    ps = load_dataset(cfg)
    truth = _require_labels(ps)
    n_clusters = _n_clusters(cfg, ps)
    graph = build_baseline_knn(ps, cfg.baseline_k)
    return _cluster_and_write(cfg, truth, graph, n_clusters, "baseline_metrics.csv")


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Run the pipeline across a parameter grid.

    --param k-max sweeps the pipeline's own k_max. --param baseline-k
    sweeps the foil's k and repeats the (grid-independent) pipeline row
    at every grid point, which is what makes its curve flat.
    """
    if not cfg.grid:
        raise InputError("sweep needs a non-empty --grid")
    if cfg.param not in ("k-max", "baseline-k"):
        raise InputError("--param must be 'k-max' or 'baseline-k'")
    ps = load_dataset(cfg)
    truth = _require_labels(ps)
    n_clusters = _n_clusters(cfg, ps)
    rows: list[dict] = []

    def run(graph, method, param):
        return [{**r, "method": method, "param": param}
                for r in _score_repeats(cfg, truth, graph, n_clusters)]

    # One table at the largest k the sweep needs; every grid point takes
    # its leading columns, which equal a table built at that k.
    if cfg.param == "k-max":
        nt = build_knn(ps, max(cfg.grid))
        for k in cfg.grid:
            table = nt.prefix(int(k))
            graph = graph_from_table(table, _table_scales(table, cfg.seventh_neighbor_scale))
            rows.extend(run(graph, "reduced", int(k)))
            print(f"k_max={k}: done")
    else:
        k_max = _effective_k_max(cfg, ps)
        nt = build_knn(ps, max(k_max, *cfg.grid))
        table = nt.prefix(k_max)
        reduced = graph_from_table(table, _table_scales(table, cfg.seventh_neighbor_scale))
        reduced_rows = run(reduced, "reduced", 0)
        for k in cfg.grid:
            baseline = _mutual_knn(nt.prefix(int(k)))
            rows.extend(run(baseline, "baseline", int(k)))
            for r in reduced_rows:
                rows.append({**r, "param": int(k)})
            print(f"baseline k={k}: done")

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", cfg,
               ["method", "param", "repeat", "acc", "ari", "edge_pct"], rows)
    print(f"wrote {out / 'sweep.csv'}")
    return rows


def cmd_reduce(cfg: RunConfig) -> ReducedGraph:
    """Build the reduced graph and save it (plus optional diagnostics)."""
    ps = load_dataset(cfg)
    k_max = _effective_k_max(cfg, ps)
    nt = build_knn(ps, k_max)
    scales = _table_scales(nt, cfg.seventh_neighbor_scale)
    graph = graph_from_table(nt, scales)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out / "graph.txt", k_max=k_max, seed=cfg.seed)
    print(f"n={graph.n} ordered_edges={graph.edge_count} "
          f"e%={edge_percentage(graph):.4f}")
    print(f"wrote {out / 'graph.txt'}")
    if cfg.similarity_histogram:
        # The histogram always shows the adaptive-scale affinities.
        if cfg.seventh_neighbor_scale:
            scales = compute_scales(nt)
        values = affinity_rows(nt, scales).ravel()
        hist = build_histogram(values, fd_bin_width(values))
        with open(out / "similarity_histogram.csv", "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(cfg.echo(), sort_keys=True) + "\n")
            fh.write("bin_lo,bin_hi,count\n")
            for i, count in enumerate(hist.counts.tolist()):
                fh.write(f"{hist.edges[i]!r},{hist.edges[i + 1]!r},{count}\n")
        print(f"wrote {out / 'similarity_histogram.csv'}")
    return graph


def cmd_pairs(cfg: RunConfig):
    """Export positive/negative pairs from the reduced graph."""
    ps = load_dataset(cfg)
    k_max = _effective_k_max(cfg, ps)
    nt = build_knn(ps, k_max)
    graph = graph_from_table(nt, _table_scales(nt, cfg.seventh_neighbor_scale))
    pair_set = export_pairs(graph, nt, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_pairs(pair_set, out / "pairs.jsonl")
    print(f"positives={len(pair_set.positives)} negatives={len(pair_set.negatives)} "
          f"total={pair_set.total}")
    print(f"wrote {out / 'pairs.jsonl'}")
    return pair_set


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeprune",
        description="Parameter-free k-NN graph reduction, spectral clustering "
                    "and evaluation metrics.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input")
    src.add_argument("--input", help="CSV file of points (one row per point)")
    src.add_argument("--synthetic",
                     help="synthetic spec, e.g. blobs or circles:radii=1+3,size=200")
    src.add_argument("--label-column", type=int, default=None,
                     help="0-based CSV column holding class labels")
    common.add_argument("--k-max", type=int, default=None,
                        help="neighbors per point fed to the reduction "
                             "(default min(N-1, 50))")
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seventh-neighbor-scale", action="store_true",
                        help="comparison mode: use the fixed 7th-neighbor "
                             "distance as each point's scale instead of the "
                             "adaptive estimate")

    metric = argparse.ArgumentParser(add_help=False)
    metric.add_argument("--clusters", type=int, default=None,
                        help="number of clusters (default: class count of input)")
    metric.add_argument("--repeats", type=int, default=1,
                        help="number of seeded repeats (default 1)")

    p = sub.add_parser("reduce", parents=[common],
                       help="build and save the reduced graph")
    p.add_argument("--similarity-histogram", action="store_true",
                   help="also write the FD-binned histogram of all affinities; "
                        "these are the adaptive-scale affinities, also under "
                        "--seventh-neighbor-scale")

    sub.add_parser("cluster", parents=[common, metric],
                   help="cluster the reduced graph and report ACC/ARI/E%")

    sub.add_parser("pairs", parents=[common],
                   help="export positive/negative pairs as JSON lines")

    p = sub.add_parser("sweep", parents=[common, metric],
                       help="run the pipeline over a parameter grid")
    p.add_argument("--param", choices=["k-max", "baseline-k"], required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated integer grid, e.g. 2,4,8,16")

    p = sub.add_parser("baseline-knn", parents=[common, metric],
                       help="mutual unweighted k-NN comparison run")
    p.add_argument("--baseline-k", type=int, default=2,
                   help="k of the mutual k-NN baseline graph (default 2)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    grid: list[int] = []
    if getattr(args, "grid", None):
        try:
            grid = [int(v) for v in str(args.grid).split(",") if v.strip()]
        except ValueError as exc:
            raise InputError(f"bad --grid {args.grid!r}: {exc}") from exc
    repeats = getattr(args, "repeats", 1)
    if repeats < 1:
        raise InputError("--repeats must be >= 1")
    return RunConfig(
        command=args.command,
        input_path=args.input,
        synthetic=args.synthetic,
        label_column=args.label_column,
        k_max=args.k_max,
        clusters=getattr(args, "clusters", None),
        seed=check_seed(args.seed),
        repeats=repeats,
        out_dir=args.out,
        baseline_k=getattr(args, "baseline_k", 2),
        param=getattr(args, "param", None),
        grid=grid,
        seventh_neighbor_scale=args.seventh_neighbor_scale,
        similarity_histogram=getattr(args, "similarity_histogram", False),
    )


_DISPATCH = {
    "reduce": cmd_reduce,
    "cluster": cmd_cluster,
    "pairs": cmd_pairs,
    "sweep": cmd_sweep,
    "baseline-knn": cmd_baseline_knn,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _DISPATCH[cfg.command](cfg)
    except (InputError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
