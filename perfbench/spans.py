"""Span tracing of edgeprune's layers from outside the package.

`Tracer.install()` replaces the public layer functions listed in
`TRACED` with timing wrappers, in every loaded edgeprune module that
binds them (for example both `edgeprune.cli.build_knn` and
`edgeprune.reduce.build_knn`), so repeated and nested calls are seen as
they really happen. Each call becomes one span: name, start, end, parent
span and op id. Spans stay in memory; the arguments and results of the
current op are kept only until `finish_op()` has derived its counts.

Self time is a span's duration minus the time its direct children cover
(calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Layer boundaries: module -> public functions wrapped there.
TRACED = {
    "data": ["gen_synthetic", "load_csv"],
    "knn": ["build_knn"],
    "scale": ["compute_scales"],
    "reduce": ["reduce_graph", "affinity_rows", "threshold_survivors",
               "mutualize", "component_labels"],
    "spectral": ["spectral_cluster", "laplacian", "embed", "kmeans"],
    "metrics": ["acc", "ari", "edge_percentage"],
    "pairs": ["export_pairs", "save_pairs"],
    "cli": ["build_reduced"],
}

# Span name -> the layer metric its self time is charged to. Glue spans
# (reduce_graph, spectral_cluster, build_reduced) and the op root are not
# listed: their self time is part of `cli.other.s`.
SELF_TIME = {
    "data.gen_synthetic": "data.load.s",
    "data.load_csv": "data.load.s",
    "knn.build_knn": "knn.s",
    "scale.compute_scales": "scale.s",
    "reduce.affinity_rows": "reduce.affinity.s",
    "reduce.threshold_survivors": "reduce.threshold.s",
    "reduce.mutualize": "reduce.mutualize.s",
    "reduce.component_labels": "reduce.components.s",
    "spectral.laplacian": "spectral.laplacian.s",
    "spectral.embed": "spectral.embed.s",
    "spectral.kmeans": "spectral.kmeans.s",
    "metrics.acc": "metrics.s",
    "metrics.ari": "metrics.s",
    "metrics.edge_percentage": "metrics.s",
    "pairs.export_pairs": "pairs.export.s",
    "pairs.save_pairs": "pairs.save.s",
}

ROOT = "cli.main"

# Every per-layer value the traced run reports, with its unit.
LAYER_UNITS = {
    "data.load.s": "s",
    "knn.s": "s", "knn.calls": "count", "knn.useful_ratio": "1",
    "knn.dist_evals": "count", "knn.bytes_computed": "B",
    "scale.s": "s", "scale.k_mean": "count", "scale.k_full_frac": "1",
    "scale.zero_sigma_rows": "count",
    "reduce.affinity.s": "s", "reduce.threshold.s": "s",
    "reduce.mutualize.s": "s", "reduce.components.s": "s",
    "reduce.rows_high": "count", "reduce.directed_edges": "count",
    "reduce.mutual_edges": "count", "reduce.mutual_ratio": "1",
    "reduce.components": "count", "reduce.isolated": "count",
    "spectral.laplacian.s": "s", "spectral.embed.s": "s",
    "spectral.embed.calls": "count", "spectral.lobpcg_calls": "count",
    "spectral.dense_calls": "count", "spectral.embed_useful_ratio": "1",
    "spectral.kmeans.s": "s", "spectral.kmeans.inertia": "1",
    "spectral.kmeans_collapsed": "count",
    "metrics.s": "s",
    "pairs.export.s": "s", "pairs.save.s": "s",
    "pairs.fallback_points": "count", "pairs.positives": "count",
    "pairs.negatives": "count", "pairs.bytes_written": "B",
    "cli.other.s": "s", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[dict] = []
        self.op_values: list[dict] = []  # derived per-op values, in op order
        self.graph_shas: list[list[str]] = []
        self._calls: list[tuple] = []  # (span, args, result) of the open op
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = _edgeprune_modules(self.package)
        for short, names in TRACED.items():
            module = getattr(self.package, short)
            for fname in names:
                orig = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"id": idx, "name": name, "op": self._op, "parent": self._stack[-1],
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self._calls.append((span, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- ops --------------------------------------------------------------
    def run_op(self, call):
        """Run `call()` as one op under a root span; returns its result."""
        self._op = len(self.op_values)
        idx = len(self.spans)
        root = {"id": idx, "name": ROOT, "op": self._op, "parent": None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(root)
        self._stack = [idx]
        try:
            return call()
        finally:
            root["end"] = time.perf_counter()
            self._stack = []

    def finish_op(self, scratch: Path) -> None:
        """Derive the op's per-layer values and graph hashes; drop its arguments."""
        op = self._op
        values = _self_times([s for s in self.spans if s["op"] == op])
        values.update(_counts(self._calls, self.package))
        graphs = {id(r): r for _, _, r in self._calls
                  if isinstance(r, self.package.ReducedGraph)}
        shas = [graph_sha256(g, self.package.reduce.save_graph, scratch)
                for g in graphs.values()]
        self.op_values.append(values)
        self.graph_shas.append(shas)
        self._calls = []
        self._op = None

    def layer_metrics(self, overhead_s: float) -> dict:
        """Median over traced ops of every per-layer value."""
        out = {}
        for name in LAYER_UNITS:
            if name == "trace.overhead_s":
                out[name] = overhead_s
            else:
                out[name] = statistics.median(v.get(name, 0.0) for v in self.op_values)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        covered = _child_time(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                own = (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
                fh.write(json.dumps(dict(s, self=own)) + "\n")


def _edgeprune_modules(package) -> list:
    prefix = package.__name__
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


def _child_time(spans) -> dict:
    """Span id -> total duration of its direct children."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return covered


def _self_times(spans) -> dict:
    """Per-layer self time of one op's spans, plus `cli.other.s`."""
    covered = _child_time(spans)
    values = dict.fromkeys(sorted(set(SELF_TIME.values())), 0.0)
    wall = 0.0
    for s in spans:
        if s["name"] == ROOT:
            wall = s["end"] - s["start"]
        elif s["name"] in SELF_TIME:
            own = (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
            values[SELF_TIME[s["name"]]] += own
    values["cli.other.s"] = wall - sum(values.values())
    return values


def graph_sha256(g, save_graph, scratch: Path) -> str:
    """sha256 of the file `save_graph` writes for `g` (no k_max or seed in the header)."""
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "graph.txt"
    save_graph(g, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _graph_key(g) -> str:
    h = hashlib.sha256(str(g.n).encode())
    for arr in (g.src, g.dst, g.weight):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counts(calls, package) -> dict:
    """Counts of one op, from the arguments and results its spans saw."""
    from scipy.sparse.csgraph import connected_components

    by: dict[str, list] = {}
    for span, args, result in calls:
        by.setdefault(span["name"], []).append((args, result))
    v: dict[str, float] = {}

    knn = by.get("knn.build_knn", [])
    tables = {(hashlib.sha256(args[0].points.tobytes()).hexdigest(), int(args[1]))
              for args, _ in knn}
    v["knn.calls"] = len(knn)
    v["knn.useful_ratio"] = _ratio(len(tables), len(knn))
    v["knn.dist_evals"] = sum(args[0].n ** 2 for args, _ in knn)
    # Bytes of the float64 difference tensor the brute force builds (computed).
    v["knn.bytes_computed"] = sum(args[0].n ** 2 * args[0].dim * 8 for args, _ in knn)

    kth, full, zero = [], 0, 0
    for (nt,), ls in by.get("scale.compute_scales", []):
        kth.append(ls.kth)
        full += int((ls.kth == nt.k_max).sum())
        zero += int((nt.distances[np.arange(nt.n), ls.kth - 1] == 0).sum())
    rows = sum(k.size for k in kth)
    v["scale.k_mean"] = _ratio(sum(float(k.sum()) for k in kth), rows)
    v["scale.k_full_frac"] = _ratio(full, rows)
    v["scale.zero_sigma_rows"] = zero

    high = directed = 0
    for args, result in by.get("reduce.threshold_survivors", []):
        a = args[0]
        high += int((a.max(axis=1) > a.mean(axis=1) + a.std(axis=1)).sum())
        directed += int(result[0].size)
    graphs = [g for _, g in by.get("reduce.mutualize", [])]
    mutual = sum(g.edge_count for g in graphs)
    v["reduce.rows_high"] = high
    v["reduce.directed_edges"] = directed
    v["reduce.mutual_edges"] = mutual
    v["reduce.mutual_ratio"] = _ratio(mutual, directed)
    v["reduce.components"] = v["reduce.isolated"] = 0
    if graphs:
        g = graphs[-1]
        v["reduce.components"] = int(connected_components(g.to_sparse())[0])
        v["reduce.isolated"] = g.n - int(np.unique(g.src).size)

    lap_graph = {id(lap): _graph_key(args[0]) for args, lap in by.get("spectral.laplacian", [])}
    embeds = by.get("spectral.embed", [])
    limit = package.spectral.DENSE_EIG_LIMIT
    lobpcg = sum(1 for args, _ in embeds if args[0].shape[0] > limit)
    distinct = {lap_graph.get(id(args[0]), id(args[0])) for args, _ in embeds}
    v["spectral.embed.calls"] = len(embeds)
    v["spectral.lobpcg_calls"] = lobpcg
    v["spectral.dense_calls"] = len(embeds) - lobpcg
    v["spectral.embed_useful_ratio"] = _ratio(len(distinct), len(embeds))
    km = [r for _, r in by.get("spectral.kmeans", [])]
    v["spectral.kmeans.inertia"] = _ratio(sum(r.inertia for r in km), len(km))
    v["spectral.kmeans_collapsed"] = sum(1 for r in km if r.collapsed)

    fallback = positives = negatives = 0
    for (g, nt, _seed), pair_set in by.get("pairs.export_pairs", []):
        row_keys = np.arange(g.n)[:, None] * g.n + nt.indices
        non_edges = (~np.isin(row_keys, g.src * g.n + g.dst)).sum(axis=1)
        fallback += int((g.degrees() > non_edges).sum())
        positives += len(pair_set.positives)
        negatives += len(pair_set.negatives)
    v["pairs.fallback_points"] = fallback
    v["pairs.positives"] = positives
    v["pairs.negatives"] = negatives
    v["pairs.bytes_written"] = sum(os.path.getsize(args[1])
                                   for args, _ in by.get("pairs.save_pairs", []))
    return v
