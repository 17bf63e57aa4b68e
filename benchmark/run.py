#!/usr/bin/env python3
"""Builds and runs mocha_bench, the end-to-end benchmark of the live runtime.

One workload, the form BENCHMARK.json's command is run in (from the repo
root):

    python3 benchmark/run.py --workload lock_uncontended --seed 3 \
        --seconds 20 --trace 0

Every workload, optionally repeated with seeds N, N+1, ...:

    python3 benchmark/run.py [--seed N] [--smoke] [--trace] [--repeat K]
                             [--out DIR]

Other modes:

    python3 benchmark/run.py --self-test     # checker and schema self-test
    python3 benchmark/run.py --check FILE    # re-check a recorded history

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json. Each run also writes a result file with a host/build stamp
to --out. The exit code is 0 only when every run was correct, no operation
failed and (outside --smoke) every workload yielded enough latency samples.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# (window s, warm-up s per cycle, cycles per run, minimum latency samples).
# A run splits its window over fresh cycles and reports medians across them;
# the full profile needs 1000 samples so acquire_p99_us has ten beyond it.
PROFILES = {
    "full": (SPEC["run_seconds"], 1.0, 5, 1000),
    "smoke": (2.0, 0.25, 2, 0),
}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "mocha_bench"


def binary():
    return build_dir() / "mocha_bench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds mocha_bench from ../src in Release."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: src/ is missing next to benchmark/; run from a full "
            "checkout of the repository")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "mocha_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(step)}")
            sys.exit(2)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric_specs(trace):
    return SPEC["per_layer"] if trace else SPEC["end_to_end"]


def validate_result(result, trace):
    """Problems with `result` against the result schema BENCHMARK.json
    implies; empty when it conforms."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not an object"]
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        problems.append(f"keys {sorted(result)} != {sorted(keys)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    expected = {m["name"]: m["unit"] for m in metric_specs(trace)}
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: not a {{value, unit}} object")
        elif entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']!r} != {unit!r}")
        elif (not isinstance(entry["value"], (int, float))
              or isinstance(entry["value"], bool)):
            problems.append(f"{name}: value is not a number")
    return problems


def run_one(workload, seed, profile, trace, out_dir):
    """Runs one workload once; returns (result, record, problems)."""
    seconds, warmup, cycles, min_samples = profile
    cmd = [str(binary()), "drive", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--warmup", str(warmup), "--cycles", str(cycles),
           "--trace", "1" if trace else "0",
           "--history", str(out_dir / f"history-{workload}")]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{workload}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + cycles * warmup + 120)
    except subprocess.TimeoutExpired:
        return None, None, [f"{workload}: mocha_bench drive timed out"]
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, None, [f"{workload}: mocha_bench drive exited "
                            f"{done.returncode}"]
    drive = json.loads(lines[-1])

    problems = [f"{workload}: {v}" for v in drive["violations"]]
    hidden = drive["violation_count"] - len(drive["violations"])
    if hidden > 0:
        problems.append(f"{workload}: ... and {hidden} more violation(s)")
    if drive["failed"]:
        problems.append(f"{workload}: {drive['failed']} operation(s) failed")
    if not trace and drive["samples"] < min_samples:
        problems.append(f"{workload}: only {drive['samples']} latency samples "
                        f"(< {min_samples}); use a longer --seconds or --smoke")
    result = {
        "correct": drive["violation_count"] == 0,
        "attempted": max(1, drive["attempted"]),
        "failed": drive["failed"],
        "metrics": {m["name"]: {"value": drive["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in metric_specs(trace)},
    }
    problems += [f"{workload}: result schema: {p}"
                 for p in validate_result(result, trace)]
    stamp = {key: drive[key] for key in ("nproc", "kernel", "compiler",
                                         "build_type", "threads", "cycles",
                                         "seed")}
    stamp["git_sha"] = git_sha()
    stamp["python"] = platform.python_version()
    record = {"workload": workload, "trace": int(trace), "stamp": stamp,
              "samples": drive["samples"],
              "violations": drive["violations"], "result": result}
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    return result, record, problems


def print_run(record):
    print(f"# {record['workload']} seed {record['stamp']['seed']} "
          f"stamp {json.dumps(record['stamp'], sort_keys=True)}")
    for name, entry in record["result"]["metrics"].items():
        print(f"{record['workload']:18s} {name:40s} "
              f"{entry['value']:14.4f} {entry['unit']}")


def check_history(path):
    """Runs the entry-consistency checker on a history file; its exit code."""
    done = subprocess.run([str(binary()), "check", str(path)],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    return done.returncode


def run_benchmark(args):
    profile = PROFILES["smoke" if args.smoke else "full"]
    if args.seconds is not None:
        profile = (args.seconds,) + profile[1:]
    workloads = WORKLOADS if args.workload is None else [args.workload]
    build()
    out_dir = Path(args.out) if args.out else build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    results, problems = [], []
    for rep in range(args.repeat):
        for workload in workloads:
            seed = args.seed + rep
            log(f"run.py: {workload} seed {seed} "
                f"({'traced' if args.trace else 'untraced'}, "
                f"{profile[0]} s window)")
            result, record, found = run_one(workload, seed, profile,
                                            args.trace, out_dir)
            problems += found
            if result is None:
                continue
            print_run(record)
            results.append((workload, result))

    for problem in problems:
        log(f"run.py: FAIL {problem}")
    if not results:
        return 1
    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{name}": entry for w, r in results
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 1 if problems else 0


# --- self-test --------------------------------------------------------------

def forge(lines, kind):
    """Returns a copy of a clean history with one violation of `kind`."""
    ops = [line.split() for line in lines if line.startswith("op ")]
    counts = next(line.split() for line in lines if line.startswith("counts"))
    by_lock = {}
    for op in ops:
        by_lock.setdefault(op[2], []).append(op)
    chain = max(by_lock.values(), key=len)
    chain.sort(key=lambda op: int(op[4]))
    exclusive = [op for op in chain if op[3] == "0"]
    if kind == "overlap":
        first, second = exclusive[-2], exclusive[-1]
        second[4] = str((int(first[4]) + int(first[5])) // 2)
    elif kind == "stale version":
        victim = next(op for op in reversed(exclusive)
                      if int(op[6]) > 0 and op[7] == "0")
        victim[6] = str(int(victim[6]) - 1)
    elif kind == "replica bytes":
        victim = next(op for op in reversed(chain) if op[8] != "-1")
        victim[10] = "0"
    elif kind == "count mismatch":
        counts[2] = str(int(counts[2]) + 1)
    return [" ".join(op) for op in ops] + [" ".join(counts)]


def self_test():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    # BENCHMARK.json itself.
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    expect(set(SPEC) == keys, "BENCHMARK.json has exactly its six keys")
    expect(sorted(WORKLOADS) == sorted(["lock_uncontended", "lock_mixed_hot",
                                        "replica_pingpong", "wan_replica"]),
           "BENCHMARK.json names the four workloads")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    expect("setup_s" in bounds and bounds["setup_s"] == max(bounds.values())
           and all(0 < b <= 0.25 for b in bounds.values()),
           "bounds are in (0, 0.25] and setup_s has the largest")

    # The schema validator accepts a conforming result and rejects broken
    # ones.
    for trace in (False, True):
        good = {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in metric_specs(trace)}}
        expect(not validate_result(good, trace),
               f"schema accepts a conforming result (trace={int(trace)})")
        first = metric_specs(trace)[0]["name"]
        broken = {
            "a missing metric": dict(good, metrics={
                k: v for k, v in good["metrics"].items() if k != first}),
            "a wrong unit": dict(good, metrics=dict(
                good["metrics"], **{first: {"value": 1.0, "unit": "parsec"}})),
            "an extra key": dict(good, extra=1),
            "attempted 0": dict(good, attempted=0),
        }
        for what, result in broken.items():
            expect(bool(validate_result(result, trace)),
                   f"schema rejects {what} (trace={int(trace)})")

    build()
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        out_dir = Path(tmp)
        profile = (1.0, 0.3, 1, 0)
        # A real untraced run with replicas: its history must check clean.
        result, _, problems = run_one("replica_pingpong", 7, profile, False,
                                      out_dir)
        expect(result is not None and result["correct"] and not problems,
               "replica_pingpong smoke run is correct and schema-valid")
        history = out_dir / "history-replica_pingpong.0.txt"
        lines = history.read_text().splitlines()
        expect(check_history(history) == 0, "its recorded history checks clean")

        # Each forged violation is caught, and the runner exits non-zero.
        for kind in ("overlap", "stale version", "replica bytes",
                     "count mismatch"):
            forged = out_dir / f"forged-{kind.replace(' ', '_')}.txt"
            forged.write_text("\n".join(forge(lines, kind)) + "\n")
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--check",
                 str(forged)], stdout=subprocess.PIPE, text=True)
            expect(done.returncode != 0 and kind + ":" in done.stdout,
                   f"forged '{kind}' is caught and run.py exits "
                   f"{done.returncode}")

        # A real traced run with shared locks emits every per-layer metric
        # and its spans.
        result, _, problems = run_one("lock_mixed_hot", 7, profile, True,
                                      out_dir)
        expect(result is not None and result["correct"] and not problems,
               "lock_mixed_hot traced smoke run is correct and schema-valid")
        spans = [json.loads(line) for line in
                 (out_dir / "spans-lock_mixed_hot.jsonl").read_text()
                 .splitlines()]
        names = {span["name"] for span in spans}
        expect({"op", "lock_client.acquire", "critical_section",
                "lock_client.release"} <= names,
               "spans carry the op and its child spans")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window per run (default: "
                             f"{SPEC['run_seconds']}, --smoke: 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1: report per-layer metrics and write spans")
    parser.add_argument("--smoke", action="store_true",
                        help="short windows; no sample minimum")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds N, N+1, ...")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--check", metavar="HISTORY",
                        help="re-check a recorded history file")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.check:
        build()
        return check_history(args.check)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
