"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of the result files run.py writes
(`.perfbench/results/` after runs, or a copy of it). Prints one row per
workload and metric: each side's median and quartiles, the pair win rate
of the change, and a verdict by the rule of the choosing-metrics method:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
- unresolved: a bounded metric whose run-to-run spread is wider than its
  bound, unless every change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound (for per-layer metrics, which have no bound: the mirror of
  the improved rule);
- no worse / no change: otherwise.

Runs pair by seed where both sides ran the same seeds, else by order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(path: Path) -> dict:
    """(workload, trace) -> list of (seed, {metric: value}), sorted by seed."""
    runs: dict = {}
    for f in sorted(path.glob("*.json")):
        rec = json.loads(f.read_text())
        values = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), []).append((rec["seed"], values))
    for rows in runs.values():
        rows.sort(key=lambda r: r[0])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(parent: list, change: list) -> list[tuple[float, float]]:
    p_seeds = [s for s, _ in parent]
    c_seeds = [s for s, _ in change]
    if sorted(p_seeds) == sorted(c_seeds):
        c_by_seed = dict(change)
        return [(pv, c_by_seed[s]) for s, pv in parent]
    return list(zip((v for _, v in parent), (v for _, v in change)))


def verdict(p: list[float], c: list[float], pairs: list, higher: bool,
            bound: float | None) -> tuple[str, float]:
    def better(a, b):
        return a > b if higher else a < b

    wins = sum(1 for pv, cv in pairs if better(cv, pv))
    losses = sum(1 for pv, cv in pairs if better(pv, cv))
    rate = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    apart = abs(cm - pm) > (p3 - p1)
    if pairs and rate >= 0.9 and apart and better(cm, pm):
        return "improved", rate
    if bound is None:
        worse = pairs and losses / len(pairs) >= 0.9 and apart and better(pm, cm)
        return ("regressed" if worse else "no change"), rate
    spread = max(spread_of(p), spread_of(c))
    if spread > bound and not all(better(cv, pv) for cv in c for pv in p):
        return "unresolved", rate
    worse_by = (pm - cm if higher else cm - pm) / abs(pm) if pm else 0.0
    return ("regressed" if worse_by > bound else "no worse"), rate


def spread_of(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(parent) & set(change), key=str):
        p_runs, c_runs = parent[key], change[key]
        names = [n for n in p_runs[0][1] if n in c_runs[0][1]]
        for name in names:
            m = meta.get(name, {"unit": "?", "better": "lower"})
            p = [v[name] for _, v in p_runs]
            c = [v[name] for _, v in c_runs]
            pairs = pair_up([(s, v[name]) for s, v in p_runs],
                            [(s, v[name]) for s, v in c_runs])
            word, rate = verdict(p, c, pairs, m["better"] == "higher", m.get("bound"))
            rows.append({"workload": key[0], "trace": key[1], "metric": name,
                         "unit": m["unit"], "parent": quartiles(p), "change": quartiles(c),
                         "runs": (len(p), len(c)), "win_rate": rate,
                         "bound": m.get("bound"), "verdict": word})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    rows = compare(load_results(args.parent), load_results(args.change), spec)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':28s} {'unit':9s} "
          f"{'parent q1/median/q3':>36s} {'change q1/median/q3':>36s} "
          f"{'runs':>7s} {'wins':>5s} {'bound':>5s}  verdict")
    for r in rows:
        p = "/".join(f"{v:.5g}" for v in r["parent"])
        c = "/".join(f"{v:.5g}" for v in r["change"])
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:16s} {r['metric']:28s} {r['unit']:9s} {p:>36s} {c:>36s} "
              f"{r['runs'][0]:>3d}/{r['runs'][1]:<3d} {r['win_rate']:5.2f} {bound:>5s}  "
              f"{r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
