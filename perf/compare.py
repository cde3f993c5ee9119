"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage, from the repository root::

    python3 perf/compare.py RUNS_A... -- RUNS_B...

``RUNS_A`` are the result files of the parent (``perf/results/*.json``),
``RUNS_B`` those of the change. Each row gives both sides' median and
quartiles and a verdict for the metric on that workload:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the metric's bound, unless every run of B reads better
  than every run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least nine tenths of the pairs (A's i-th run
  against B's i-th, ties counting for neither) and the medians differ by
  more than A's quartile distance;
* ``within bound`` — otherwise.

Per-layer metrics have no bound and are shown without a verdict. Runs of
the same workload and seed must give the same outputs digest; every
mismatch is listed. Exit status: 1 if any metric regressed or is
unresolved, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: import `perf` from the root
    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perf import load_benchmark


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(a: list[float], b: list[float], better: str, bound: float | None) -> dict:
    """Compare one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a_median, a3 = quartiles(a)
    b1, b_median, b3 = quartiles(b)
    row = {"a": (a1, a_median, a3), "b": (b1, b_median, b3),
           "change": (b_median - a_median) / abs(a_median) if a_median else 0.0}
    if bound is None:
        row["verdict"] = ""
        return row
    spread = max((a3 - a1) / abs(a_median) if a_median else 0.0,
                 (b3 - b1) / abs(b_median) if b_median else 0.0)
    worse = sign * row["change"]
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if spread > bound and not b_always_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regressed"
    elif (pairs and wins >= 0.9 * len(pairs) and worse < 0
          and abs(b_median - a_median) > a3 - a1):
        row["verdict"] = "improved"
    else:
        row["verdict"] = "within bound"
    row["spread"] = spread
    return row


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def compare(runs_a: list[dict], runs_b: list[dict], benchmark: dict):
    """Rows ``(workload, metric, unit, row)`` and digest mismatches."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    rows = []
    mismatches = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        side_a = [run["workloads"][workload] for run in runs_a if workload in run["workloads"]]
        side_b = [run["workloads"][workload] for run in runs_b if workload in run["workloads"]]
        if not side_a or not side_b:
            continue
        for name, metric in metrics.items():
            a = [r["metrics"][name]["value"] for r in side_a if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in side_b if name in r["metrics"]]
            if a and b:
                rows.append((workload, name, metric["unit"],
                             judge(a, b, metric["better"], metric.get("bound"))))
        digests: dict[int, set] = {}
        for run in runs_a + runs_b:
            if workload in run["workloads"]:
                digests.setdefault(run["seed"], set()).add(run["workloads"][workload]["digest"])
        mismatches.extend((workload, seed) for seed, found in sorted(digests.items())
                          if len(found) > 1)
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    rows, mismatches = compare(_load(argv[:split]), _load(argv[split + 1:]),
                               load_benchmark())
    print(f"{'workload':14s} {'metric':40s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    for workload, name, unit, row in rows:
        (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
        print(f"{workload:14s} {name:40s} {am:12.5g} [{a1:.5g}, {a3:.5g}] {unit:>5s} "
              f"{bm:12.5g} [{b1:.5g}, {b3:.5g}] {unit:>5s} "
              f"{100 * row['change']:+7.2f}%  {row['verdict']}")
    for workload, seed in mismatches:
        print(f"digest mismatch: {workload} at seed {seed}")
    if not mismatches:
        print("digests: identical for every workload and seed")
    failing = [row for *_, row in rows if row["verdict"] in ("regressed", "unresolved")]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
