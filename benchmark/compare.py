#!/usr/bin/env python3
"""Compares two sets of mocha_bench result files, metric by metric.

    python3 benchmark/compare.py A_DIR B_DIR   # A = parent, B = change
    python3 benchmark/compare.py A_DIR         # spread of one set only

A and B are --out directories of benchmark/run.py; only untraced results
are read. For every (workload, end-to-end metric) the table gives each
side's median and quartiles over its runs, the change of B's median against
A's, the metric's bound from BENCHMARK.json and a verdict:

  worse       B's median is worse than A's by more than the bound;
  unresolved  a side's quartile spread (q3 - q1) / median exceeds the bound,
              so the sets cannot tell a change within the bound from noise,
              and not every run of B reads better than every run of A;
  ok          otherwise.

With one directory it prints each metric's spread against a third of its
bound, the steadiness the benchmark aims for. The exit code is 0 when every
row is ok.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(directory):
    """{(workload, metric): [values]} over the untraced results in a dir."""
    values = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != 0:
            continue
        for name, entry in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                entry["value"])
    return values


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values):
    median, q1, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a, b, metric):
    worse_sign = 1 if metric["better"] == "lower" else -1
    med_a, med_b = summary(a)[0], summary(b)[0]
    change = (med_b - med_a) / med_a if med_a else 0.0
    if max(spread(a), spread(b)) > metric["bound"]:
        better = (max(b) < min(a)) if worse_sign > 0 else (min(b) > max(a))
        return change, "ok" if better else "unresolved"
    return change, "worse" if worse_sign * change > metric["bound"] else "ok"


def fmt(values):
    median, q1, q3 = summary(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    a = load(argv[1])
    b = load(argv[2]) if len(argv) == 3 else None
    rows, all_ok = [], True
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or (b is not None and key not in b):
                rows.append((workload, metric["name"], "missing"))
                all_ok = False
                continue
            if b is None:
                s = spread(a[key])
                target = metric["bound"] / 3
                ok = s < target or metric["name"] == "setup_s"
                all_ok &= ok
                rows.append((workload, metric["name"], fmt(a[key]),
                             f"{100 * s:.2f}%", f"{100 * target:.2f}%",
                             "ok" if ok else "too wide"))
            else:
                change, word = verdict(a[key], b[key], metric)
                all_ok &= word == "ok"
                rows.append((workload, metric["name"], fmt(a[key]),
                             fmt(b[key]), f"{100 * change:+.2f}%",
                             f"{100 * metric['bound']:.0f}%", word))
    header = (("workload", "metric", "median [q1, q3]", "spread",
               "bound/3", "verdict") if b is None else
              ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
               "delta", "bound", "verdict"))
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
