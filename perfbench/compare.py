#!/usr/bin/env python3
"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the last stdout line of runs of one workload, one JSON
result per line, in seed order; line i of both files must come from the same
seed. For every metric this prints both medians with their quartiles, how
many pairs the change won, and a verdict under the rules in
perfbench/README.md: "gain" needs at least 9/10 pair wins and a median gap
wider than the parent's own quartile spread; "regression" is a median worse
than the bound BENCHMARK.json fixes (end-to-end metrics only); otherwise
"within bound", or "unresolved" when the parent's spread exceeds the bound.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    bad = [i for i, run in enumerate(runs) if not run.get("correct")]
    if bad:
        sys.exit(f"{path}: runs {bad} failed their output checks")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    if len(parent) != len(change):
        sys.exit("both files need the same number of runs (one per seed)")
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{'metric':32} {'parent median [q1,q3]':34} {'change median [q1,q3]':34} wins  verdict")
    for name in parent[0]["metrics"]:
        meta = declared.get(name, {"better": "lower"})
        sign = -1.0 if meta["better"] == "lower" else 1.0
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ma, mb = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        spread = qa[1] - qa[0]
        bound = meta.get("bound")
        worse = sign * (ma - mb) / abs(ma) if ma else 0.0
        if wins * 10 >= 9 * len(a) and abs(mb - ma) > spread:
            verdict = "gain"
        elif bound is not None and worse > bound:
            verdict = "regression"
        elif bound is not None and ma and spread / abs(ma) > bound:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{name:32} {ma:<12.6g} [{qa[0]:.4g},{qa[1]:.4g}]".ljust(67) +
              f" {mb:<12.6g} [{qb[0]:.4g},{qb[1]:.4g}]".ljust(35) +
              f" {wins:>2}/{len(a):<2} {verdict}")


if __name__ == "__main__":
    main()
