#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

Usage::

    python3 bench/compare.py A.jsonl B.jsonl

``A`` and ``B`` are files ``bench/run.py --out`` appended untraced run
records to -- several runs per workload each, ideally with the same
seeds on both sides.  For every (end-to-end metric, workload) the report
gives each side's median and quartiles and a verdict, with the bounds
``BENCHMARK.json`` fixes and the rules of the choosing-metrics guide:

``unresolved``
    either side's quartile spread (as a share of its median) is wider
    than the bound -- unless every B run reads better (``better``) or
    worse (``worse``) than every A run;
``worse``
    B's median is worse than A's by more than the bound;
``better``
    B wins at least nine tenths of the (A, B) run pairs, ties counting
    for neither, and the medians differ by more than A's quartile
    spread;
``same``
    anything else.

Exit status 1 when any row is ``worse`` or ``unresolved``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def load_runs(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, in file order, untraced runs only."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        for metric, entry in record["metrics"].items():
            values.setdefault((record["workload"], metric),
                              []).append(entry["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> Tuple[str, float]:
    """The verdict for B against A, and B's median change (+ = better)."""
    sign = -1.0 if lower_is_better else 1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = sign * (b_med - a_med) / a_med
    if max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "better", change
        if max(sign * x for x in b) < min(sign * x for x in a):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    if (pairs and wins >= 0.9 * len(pairs) and change > 0
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "better", change
    return "same", change


def compare(a_path: Path, b_path: Path, benchmark: Dict) -> List[Dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    rows = []
    for workload in sorted({w for w, _ in a_runs} & {w for w, _ in b_runs}):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in a_runs or key not in b_runs:
                continue
            outcome, change = verdict(a_runs[key], b_runs[key],
                                      spec["bound"],
                                      spec["better"] == "lower")
            rows.append({"workload": workload, "metric": spec["name"],
                         "unit": spec["unit"], "bound": spec["bound"],
                         "a": quartiles(a_runs[key]),
                         "b": quartiles(b_runs[key]),
                         "runs": (len(a_runs[key]), len(b_runs[key])),
                         "change": change, "verdict": outcome})
    return rows


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline runs (JSON lines)")
    parser.add_argument("b", type=Path, help="candidate runs (JSON lines)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.a, args.b, benchmark)
    if not rows:
        print("no (workload, metric) pair is present on both sides",
              file=sys.stderr)
        return 1
    print(f"{'workload':<12}{'metric':<16}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'change':>9}{'bound':>7}  verdict")
    for row in rows:
        a_q1, a_med, a_q3 = row["a"]
        b_q1, b_med, b_q3 = row["b"]
        print(f"{row['workload']:<12}{row['metric']:<16}"
              f"{a_med:>12.4g} [{a_q1:>8.4g}, {a_q3:>8.4g}]"
              f"{b_med:>12.4g} [{b_q1:>8.4g}, {b_q3:>8.4g}]"
              f"{100 * row['change']:>+8.1f}%{100 * row['bound']:>6.0f}%"
              f"  {row['verdict']} ({row['runs'][0]} vs {row['runs'][1]} "
              f"runs, {row['unit']})")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
