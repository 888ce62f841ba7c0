#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py --record FILE`` appends,
one per run. Runs of the two sides pair up by workload, trace mode and
seed, in the order they were recorded. For every workload and metric the
table gives each side's median and quartiles, how many pairs the change
won, and a verdict:

  improved    the change wins at least nine tenths of the pairs (ties count
              for neither side) and the medians differ, in the better
              direction, by more than the parent's interquartile range
  unresolved  the parent's spread (interquartile range over median) is
              wider than the metric's bound, and not every run of the
              change reads better than every run of the parent
  regressed   the change's median is worse than the parent's by more than
              the bound
  no worse    otherwise

With fewer than ten pairs nothing reads improved or regressed, only
unresolved, unless every pair ties. Bounds and directions come from
BENCHMARK.json. Per-module metrics have no bound: they read unchanged
(every pair ties), improved, regressed (the mirror of improved) or
unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path: Path) -> dict:
    """(workload, trace, seed) -> list of results, in recorded order."""
    runs = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"], record["seed"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None) -> str:
    """Verdict on (parent, change) value pairs; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    gain = sign * (med_b - med_c)
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    losses = sum(sign * (b - c) < 0 for b, c in pairs)
    if wins == losses == 0:
        return "unchanged" if bound is None else "no worse"
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        return "regressed" if losses >= WIN_SHARE * len(pairs) and -gain > q3 - q1 \
            else "unresolved"
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if med_b and (q3 - q1) / abs(med_b) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(med_b):
        return "regressed"
    return "no worse"


def compare(base: dict, change: dict, spec: dict) -> list[list[str]]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    by_metric: dict = defaultdict(list)
    for key in sorted(set(base) & set(change)):
        workload, trace, _ = key
        for b, c in zip(base[key], change[key]):
            by_metric[(workload, trace, "failed_share")].append(
                (b["failed"] / b["attempted"], c["failed"] / c["attempted"]))
            for name in b["metrics"].keys() & c["metrics"].keys():
                by_metric[(workload, trace, name)].append(
                    (b["metrics"][name]["value"], c["metrics"][name]["value"]))
    for (workload, trace, name), pairs in sorted(by_metric.items()):
        spec_entry = metrics.get(name, {"better": "lower"})
        bound = spec_entry.get("bound")
        if name == "failed_share":
            bound = 0.0
            outcome = "regressed" if sum(c for _, c in pairs) > sum(b for b, _ in pairs) \
                else "no worse"
        else:
            outcome = verdict(pairs, spec_entry["better"], bound)
        sides = []
        for values in ([b for b, _ in pairs], [c for _, c in pairs]):
            q1, med, q3 = quartiles(values)
            sides.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        sign = 1.0 if spec_entry["better"] == "lower" else -1.0
        wins = sum(sign * (b - c) > 0 for b, c in pairs)
        label = f"{workload} (traced)" if trace else workload
        rows.append([label, name, str(len(pairs)), *sides, f"{wins}/{len(pairs)}",
                     "-" if bound is None else f"{bound:g}", outcome])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rows = compare(load(args.base), load(args.change), spec)
    if not rows:
        print("compare: no workload, trace mode and seed in common", file=sys.stderr)
        return 1
    header = ["workload", "metric", "pairs", "parent median [q1, q3]",
              "change median [q1, q3]", "change wins", "bound", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
