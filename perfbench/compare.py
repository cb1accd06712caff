"""Compare two result sets of the benchmark (parent vs change).

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is the JSON-lines file ``run.py --record`` appends to (a
directory stands for every ``*.jsonl`` file in it).  Per workload and
end-to-end metric the command prints each side's median and quartiles,
the change's share of (base, change) pairs won (ties count for
neither side), and a verdict against the metric's bound in
``BENCHMARK.json``.  From traced runs it prints the per-layer deltas,
so a change can show where its saving appears, and each set's tracing
overhead (traced vs untraced ``campaign_s`` and ``req_per_s``).  With
one set it prints that set's medians, quartiles and spreads.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, pairs_won, quartiles, spread  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) \
        if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def series(records: List[dict], trace: int) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in recorded order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        if record["trace"] != trace:
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, value in record["measured"].items():
            metrics.setdefault(name, []).append(value)
    return out


def describe(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def verdict(base: List[float], change: List[float], metric: dict) -> str:
    """Gain, regression or neither, by the rules the benchmark's bounds
    and the pairs-won share set."""
    lower = metric["better"] == "lower"
    base_median, change_median = median(base), median(change)
    worse = (change_median - base_median) if lower \
        else (base_median - change_median)
    if worse > metric["bound"] * base_median:
        return "REGRESSION"
    won = pairs_won(base, change, metric["better"])
    q1, _, q3 = quartiles(base)
    if won is not None and won >= 0.9 and -worse > (q3 - q1):
        return "gain"
    if max(spread(base), spread(change)) > metric["bound"]:
        return "unresolved (spread above bound)"
    return "within bound"


def overhead(records: List[dict]) -> List[str]:
    """Tracing overhead: traced over untraced ``campaign_s`` and
    ``req_per_s``, per seed that has both runs (so host drift between
    far-apart runs cancels), median over those seeds."""
    runs: Dict[tuple, dict] = {}
    for record in records:
        runs[(record["workload"], record["seed"], record["trace"])] = \
            record["measured"]
    ratios: Dict[str, List[tuple]] = {}
    for (workload, seed, trace), traced in sorted(runs.items()):
        plain = runs.get((workload, seed, 0))
        if trace == 1 and plain is not None:
            ratios.setdefault(workload, []).append((
                traced["traced.campaign_s"] / plain["campaign_s"],
                traced["traced.req_per_s"] / plain["req_per_s"],
            ))
    return [
        f"  {workload:<12} campaign_s x{median(c for c, _ in pairs):.3f}, "
        f"req_per_s x{median(r for _, r in pairs):.3f} "
        f"(traced / untraced, median of {len(pairs)} seeds)"
        for workload, pairs in sorted(ratios.items())
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)

    sets = [load(args.base)] + ([load(args.change)] if args.change else [])
    untraced = [series(records, 0) for records in sets]
    traced = [series(records, 1) for records in sets]

    print("end-to-end (median [Q1, Q3] n; spread = (Q3-Q1)/median)")
    for workload in sorted(untraced[0]):
        print(f"{workload}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = untraced[0][workload].get(name)
            if not base:
                continue
            line = f"  {name:<14} {describe(base)} spread {spread(base):.3f}"
            change = untraced[-1].get(workload, {}).get(name) if args.change else None
            if change:
                won = pairs_won(base, change, metric["better"])
                delta = median(change) / median(base) - 1
                line += (
                    f" -> {describe(change)} ({delta:+.1%}, pairs won "
                    f"{won:.2f}) {verdict(base, change, metric)}"
                )
            print(line)

    if traced[0]:
        print("per layer (traced runs, median)")
        for workload in sorted(traced[0]):
            print(f"{workload}")
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                base = traced[0][workload].get(name)
                if not base:
                    continue
                line = f"  {name:<24} {median(base):14.6f} {metric['unit']}"
                change = traced[-1].get(workload, {}).get(name) if args.change else None
                if change:
                    delta = median(change) - median(base)
                    line += f" -> {median(change):14.6f} ({delta:+.6f})"
                print(line)

    for label, records in zip(("base", "change"), sets):
        lines = overhead(records)
        if lines:
            print(f"tracing overhead ({label})")
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
