#!/usr/bin/env python3
"""Bench-regression gate for the live runtime CI lane.

Compares candidate ``BENCH_*.json`` files (util::write_bench_json format:
``{"name": ..., "metrics": [{"name", "value", "unit"}, ...]}``) against the
committed baselines in ``bench/baselines/`` and fails when a watched
latency metric regressed by more than the threshold.

  check_bench.py --baseline-dir bench/baselines --candidate-dir scen-out \\
      --compare-glob 'BENCH_live_*.json' [--max-regress-pct 15]

``--compare-glob`` matches every baseline file of that name under
``--baseline-dir`` and reads the watched metric names from the baseline's
own top-level ``"gated"`` list, so adding an envelope means committing one
baseline file, not editing every CI invocation.

All watched metrics are lower-is-better (latencies in microseconds): a
candidate value above ``baseline * (1 + pct/100)`` is a regression.
Improvements and in-budget deltas are reported but never fail the gate, so
the baselines only need refreshing when the code actually gets faster.

Every run prints a per-metric pass/fail table; when ``$GITHUB_STEP_SUMMARY``
is set (GitHub Actions), the same table is appended there as markdown so a
gate failure is readable from the run page without downloading
artifacts.

Run with ``--self-test`` to prove the gate still trips: it evaluates
synthetic baseline/candidate pairs (clean, regressed, missing metric,
glob expansion, missing ``"gated"`` list) and fails if any expected
outcome is missed.

Exit status: 0 within budget, 1 regression(s), 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class GateError(Exception):
    """Malformed input or comparison spec (exit 2, not a regression)."""


def load_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise GateError(f"bench file missing: {path}")
    except json.JSONDecodeError as err:
        raise GateError(f"{path}: invalid JSON: {err}")
    if not isinstance(doc, dict):
        raise GateError(f"{path}: expected a JSON object")
    return doc


def load_metrics(path: Path) -> dict[str, float]:
    doc = load_doc(path)
    metrics = {}
    for entry in doc.get("metrics", []):
        metrics[entry["name"]] = float(entry["value"])
    if not metrics:
        raise GateError(f"{path}: no metrics")
    return metrics


def expand_glob(baseline_dir: Path, pattern: str) -> list[tuple[str, list[str]]]:
    """Match baseline files and read their own ``"gated"`` metric lists."""
    compares: list[tuple[str, list[str]]] = []
    for path in sorted(baseline_dir.glob(pattern)):
        doc = load_doc(path)
        gated = doc.get("gated")
        if not isinstance(gated, list) or not gated or not all(
                isinstance(name, str) for name in gated):
            raise GateError(
                f"{path}: baseline matched by --compare-glob must carry a "
                f"non-empty \"gated\" list of metric names"
            )
        compares.append((path.name, list(gated)))
    if not compares:
        raise GateError(
            f"--compare-glob {pattern!r} matched nothing in {baseline_dir}"
        )
    return compares


def compare_file(
    baseline: dict[str, float],
    candidate: dict[str, float],
    filename: str,
    metric_names: list[str],
    max_regress_pct: float,
) -> list[dict]:
    """Returns one row per watched metric for one bench file."""
    rows: list[dict] = []
    for name in metric_names:
        if name not in baseline:
            raise GateError(f"{filename}: metric {name!r} not in baseline")
        if name not in candidate:
            raise GateError(f"{filename}: metric {name!r} not in candidate")
        base, cand = baseline[name], candidate[name]
        if base <= 0:
            raise GateError(f"{filename}: baseline {name} is {base}")
        delta_pct = (cand - base) / base * 100.0
        rows.append({
            "file": filename,
            "metric": name,
            "base": base,
            "cand": cand,
            "delta_pct": delta_pct,
            "ok": delta_pct <= max_regress_pct,
        })
    return rows


def fmt_value(value: float) -> str:
    """A metric value with its precision: 1381 stays 1381, 0.93 stays 0.93."""
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def row_line(row: dict, max_regress_pct: float) -> str:
    return (
        f"{row['file']}: {row['metric']} {fmt_value(row['base'])} -> "
        f"{fmt_value(row['cand'])} ({row['delta_pct']:+.1f}%, "
        f"budget +{max_regress_pct:.0f}%)"
    )


def markdown_table(rows: list[dict], max_regress_pct: float) -> str:
    lines = [
        "### Bench gate (budget +{:.0f}%)".format(max_regress_pct),
        "",
        "| bench | metric | baseline | candidate | delta | status |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        status = "pass" if row["ok"] else "**FAIL**"
        lines.append(
            f"| {row['file']} | {row['metric']} | {fmt_value(row['base'])} "
            f"| {fmt_value(row['cand'])} | {row['delta_pct']:+.1f}% "
            f"| {status} |"
        )
    return "\n".join(lines) + "\n"


def write_step_summary(rows: list[dict], max_regress_pct: float) -> None:
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as summary:
        summary.write(markdown_table(rows, max_regress_pct))


def run_gate(
    baseline_dir: Path,
    candidate_dir: Path,
    compares: list[tuple[str, list[str]]],
    max_regress_pct: float,
) -> int:
    rows: list[dict] = []
    for filename, metric_names in compares:
        rows.extend(compare_file(
            load_metrics(baseline_dir / filename),
            load_metrics(candidate_dir / filename),
            filename,
            metric_names,
            max_regress_pct,
        ))
    for row in rows:
        verdict = "ok  " if row["ok"] else "FAIL"
        print(f"check_bench: {verdict} {row_line(row, max_regress_pct)}")
    write_step_summary(rows, max_regress_pct)
    regressions = [row for row in rows if not row["ok"]]
    if regressions:
        for row in regressions:
            print(
                f"check_bench: REGRESSION {row_line(row, max_regress_pct)}",
                file=sys.stderr,
            )
        print(
            f"check_bench: {len(regressions)} metric(s) over budget",
            file=sys.stderr,
        )
        return 1
    print("check_bench: all metrics within budget")
    return 0


def self_test() -> int:
    import tempfile

    failures: list[str] = []
    base = {"p99_latency": 1000.0, "p50_latency": 400.0}

    def regressed(rows: list[dict]) -> list[dict]:
        return [row for row in rows if not row["ok"]]

    # Within budget (+10% on a 15% budget) and an improvement: clean.
    rows = compare_file(
        base, {"p99_latency": 1100.0, "p50_latency": 300.0},
        "BENCH_x.json", ["p99_latency", "p50_latency"], 15.0)
    if regressed(rows):
        failures.append(f"in-budget delta flagged: {regressed(rows)}")

    # +20% on a 15% budget must trip exactly the regressed metric.
    rows = compare_file(
        base, {"p99_latency": 1200.0, "p50_latency": 400.0},
        "BENCH_x.json", ["p99_latency", "p50_latency"], 15.0)
    if len(regressed(rows)) != 1 or regressed(rows)[0]["metric"] != "p99_latency":
        failures.append(f"+20% regression not flagged: {rows}")

    # The markdown table must carry the failing row so a red gate is
    # explainable from the step summary alone.
    table = markdown_table(rows, 15.0)
    if "**FAIL**" not in table or "p99_latency" not in table:
        failures.append(f"markdown table missing FAIL row:\n{table}")

    # A sub-unit ratio keeps its decimals: 0.6 -> 0.93 must not print as
    # "1 -> 1", in the log line or in the step summary.
    rows = compare_file({"scaling_x4_inverse": 0.6},
                        {"scaling_x4_inverse": 0.93}, "BENCH_live_x.json",
                        ["scaling_x4_inverse"], 15.0)
    line = row_line(rows[0], 15.0)
    table = markdown_table(rows, 15.0)
    if "0.6 -> 0.93 (+55.0%" not in line or "| 0.6 | 0.93 |" not in table:
        failures.append(f"ratio printed without its decimals: {line}\n{table}")

    # A metric that vanished from the candidate is a hard error, not a pass.
    try:
        compare_file(base, {"p50_latency": 400.0},
                     "BENCH_x.json", ["p99_latency"], 15.0)
        failures.append("missing candidate metric not rejected")
    except GateError:
        pass

    # Glob expansion: baselines name their own gated metrics, matched in
    # sorted order; a baseline without a "gated" list and an empty match
    # are both hard errors (a typo'd glob must not silently gate nothing).
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "BENCH_scenario_b.json").write_text(json.dumps({
            "name": "scenario_b", "gated": ["p99_acquire_us"],
            "metrics": [{"name": "p99_acquire_us", "value": 10, "unit": "us"}],
        }))
        (tmp_path / "BENCH_scenario_a.json").write_text(json.dumps({
            "name": "scenario_a", "gated": ["p50_acquire_us", "p99_acquire_us"],
            "metrics": [{"name": "p50_acquire_us", "value": 5, "unit": "us"},
                        {"name": "p99_acquire_us", "value": 9, "unit": "us"}],
        }))
        compares = expand_glob(tmp_path, "BENCH_scenario_*.json")
        if compares != [
            ("BENCH_scenario_a.json", ["p50_acquire_us", "p99_acquire_us"]),
            ("BENCH_scenario_b.json", ["p99_acquire_us"]),
        ]:
            failures.append(f"glob expansion wrong: {compares}")

        (tmp_path / "BENCH_scenario_c.json").write_text(json.dumps({
            "name": "scenario_c",
            "metrics": [{"name": "p99_acquire_us", "value": 9, "unit": "us"}],
        }))
        try:
            expand_glob(tmp_path, "BENCH_scenario_*.json")
            failures.append("baseline without \"gated\" list accepted")
        except GateError:
            pass

        try:
            expand_glob(tmp_path, "BENCH_nomatch_*.json")
            failures.append("empty glob match accepted")
        except GateError:
            pass

        # End to end through run_gate: a candidate over budget on a globbed
        # envelope must exit 1, and the step summary must record the FAIL.
        (tmp_path / "BENCH_scenario_c.json").unlink()
        cand_dir = tmp_path / "cand"
        cand_dir.mkdir()
        (cand_dir / "BENCH_scenario_a.json").write_text(json.dumps({
            "name": "scenario_a",
            "metrics": [{"name": "p50_acquire_us", "value": 5, "unit": "us"},
                        {"name": "p99_acquire_us", "value": 50, "unit": "us"}],
        }))
        (cand_dir / "BENCH_scenario_b.json").write_text(json.dumps({
            "name": "scenario_b",
            "metrics": [{"name": "p99_acquire_us", "value": 10, "unit": "us"}],
        }))
        summary_file = tmp_path / "step_summary.md"
        old_summary = os.environ.get("GITHUB_STEP_SUMMARY")
        os.environ["GITHUB_STEP_SUMMARY"] = str(summary_file)
        try:
            status = run_gate(
                tmp_path, cand_dir,
                expand_glob(tmp_path, "BENCH_scenario_*.json"), 15.0)
        finally:
            if old_summary is None:
                del os.environ["GITHUB_STEP_SUMMARY"]
            else:
                os.environ["GITHUB_STEP_SUMMARY"] = old_summary
        if status != 1:
            failures.append(f"globbed regression exited {status}, want 1")
        summary = summary_file.read_text() if summary_file.exists() else ""
        if "**FAIL**" not in summary or "BENCH_scenario_a.json" not in summary:
            failures.append(f"step summary missing FAIL row:\n{summary}")

    if failures:
        for failure in failures:
            print(f"check_bench self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print("check_bench self-test passed")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path)
    parser.add_argument("--candidate-dir", type=Path)
    parser.add_argument(
        "--compare-glob",
        action="append",
        default=[],
        metavar="PATTERN",
        help="gate every baseline matching PATTERN under --baseline-dir, "
             "watching the metrics in each baseline's \"gated\" list",
    )
    parser.add_argument("--max-regress-pct", type=float, default=15.0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate catches regressions (negative test)",
    )
    args = parser.parse_args(argv)

    try:
        if args.self_test:
            return self_test()
        if not (args.baseline_dir and args.candidate_dir
                and args.compare_glob):
            raise GateError(
                "--baseline-dir, --candidate-dir and --compare-glob are "
                "required"
            )
        compares: list[tuple[str, list[str]]] = []
        for pattern in args.compare_glob:
            compares.extend(expand_glob(args.baseline_dir, pattern))
        return run_gate(
            args.baseline_dir, args.candidate_dir, compares,
            args.max_regress_pct)
    except GateError as err:
        print(f"check_bench: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
