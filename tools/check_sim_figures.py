#!/usr/bin/env python3
"""Golden check of the paper figures printed by the simulated benches.

Every ``bench/bench_*`` binary prints a paper-style table (Table 1, Figs
8-14, the ablations) from a deterministic virtual-time run before any
google-benchmark case runs. This script runs each binary named by a golden
file with ``--benchmark_filter='^$'`` (table only, no timed cases) and diffs
its stdout against ``<golden-dir>/<binary>.txt``. Any byte of difference
fails: a refactor of the protocol code must leave the figures unchanged.

  check_sim_figures.py --bench-dir build/bench \\
      --golden-dir tests/testdata/sim_figures [--update]

``--update`` rewrites the goldens from the current binaries (for a change
that is meant to move a figure; say so in its commit message).

Exit status: 0 identical, 1 differences or missing binaries, 2 usage error.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
from pathlib import Path


def run_table(binary: Path) -> str:
    result = subprocess.run(
        [str(binary), "--benchmark_filter=^$"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=240,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{binary.name} exited {result.returncode}")
    return result.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", type=Path, required=True)
    parser.add_argument("--golden-dir", type=Path, required=True)
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    goldens = sorted(args.golden_dir.glob("bench_*.txt"))
    if not goldens:
        print(f"no goldens under {args.golden_dir}", file=sys.stderr)
        return 2

    failures = 0
    for golden in goldens:
        binary = args.bench_dir / golden.stem
        try:
            actual = run_table(binary)
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"FAIL {golden.stem}: {err}")
            failures += 1
            continue
        if args.update:
            golden.write_text(actual)
            continue
        expected = golden.read_text()
        if actual == expected:
            print(f"ok   {golden.stem}")
            continue
        failures += 1
        print(f"FAIL {golden.stem}: table differs from {golden}")
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=str(golden),
                tofile=f"{golden.stem} (this build)",
            )
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
