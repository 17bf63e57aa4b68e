#!/usr/bin/env python3
"""Scenario & chaos matrix runner for the live runtime (docs/SCENARIOS.md).

Launches sharded ``mocha_live`` clusters per named scenario, verifies each
run (expected process exits, a clean server exit on SIGTERM, plus the
scenario's own checks) and emits one ``BENCH_<name>.json`` envelope per
scenario for the gate (``tools/check_bench.py --compare-glob`` against
``bench/baselines/``, whose files name their own ``"gated"`` metrics).

Lock-workload scenarios (``BENCH_scenario_<name>.json``; exact
mutual-exclusion counter equality, telemetry assertions scraped from the
server's ``--stats-json`` registry dump):

  baseline   uncontended distinct locks across shards — the floor the other
             scenarios are read against
  hotkey     Zipf-skewed lock popularity (--lock-space/--zipf-s): hundreds
             of clients hammering a handful of hot locks
  churn      three client waves joining mid-run (--start-delay-us ramps +
             per-client --client-stagger-us), earlier waves leaving while
             later waves still run
  partition  asymmetric userspace netem: one node group runs clean, the
             other behind injected loss + delay, on disjoint lock ranges
  storm      lease-break/blacklist storm: sacrificial holders acquire the
             survivors' shared lock and are SIGKILLed while holding, so
             progress depends on the server's lease breaker

Live benches of the paper's results (``BENCH_live_<name>.json``; see
LIVE_SCENARIOS): WAN transfers, replica-transfer latency, the 1/2/4-shard
sweep, and the udp/tcp/hybrid bulk sweep with the §4.3 crossover, the
hybrid routing rule and the tcp arm's fast path checked.

Profiles: ``smoke`` (ctest label `scenario`: seconds-fast subset sizes),
``ci`` (the gated scale the committed envelopes are tuned for), ``full``
(nightly lane: 2x clients and rounds, artifacts retained, no gate).

Usage:
  run_scenarios.py --bin build/tools/mocha_live --out scen-out \
      [--profile ci] [--scenarios hotkey,storm] [--list]
  run_scenarios.py --self-test

Every mocha_live process leaves its final stats snapshot and flight-recorder
dump in the output directory (MOCHA_STATS_DIR, docs/OBSERVABILITY.md). The
schedule (wave starts, kill times, ready/exit deadlines) stretches with
MOCHA_TEST_TIME_SCALE, same contract as the live ctest suite.

Exit status: 0 all scenarios passed, 1 correctness/workload failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Declarative matrix
# ---------------------------------------------------------------------------

# Per-profile multipliers applied to every group's (procs, clients, rounds).
# Counts never scale below 1, so even `smoke` keeps each group's topology.
PROFILES = {
    "smoke": {"procs": 0.5, "clients": 0.25, "rounds": 0.5},
    "ci": {"procs": 1.0, "clients": 1.0, "rounds": 1.0},
    "full": {"procs": 1.0, "clients": 2.0, "rounds": 2.0},
}

# Every scenario: one server spec + client-process groups. Group counts are
# the `ci` scale. `counters` groups bump one counter file per lock id while
# holding the lock; the runner asserts the post-run sum equals the group's
# procs * clients * rounds total, exactly.
SCENARIOS = {
    "baseline": {
        "description": "uncontended distinct locks across 4 shards",
        "server": {"shards": 4},
        "groups": [
            {
                "name": "main", "procs": 4, "clients": 64, "rounds": 25,
                "lock": 1, "distinct": True, "counters": True,
            },
        ],
    },
    "hotkey": {
        "description": "Zipf-skewed popularity, 256 clients on 64 locks",
        "server": {"shards": 4},
        "groups": [
            {
                "name": "main", "procs": 4, "clients": 64, "rounds": 20,
                "lock": 1, "lock_space": 64, "zipf_s": 1.2,
                "counters": True, "grant_timeout_us": 60_000_000,
            },
        ],
    },
    "churn": {
        "description": "three client waves joining/leaving mid-run",
        "server": {"shards": 2},
        "groups": [
            {
                "name": f"wave{i}", "procs": 2, "clients": 32, "rounds": 15,
                "lock": 1, "lock_space": 16, "zipf_s": 0.9,
                "counters": True, "stagger_us": 20_000,
                "start_after_us": i * 1_500_000,
                "grant_timeout_us": 60_000_000,
            }
            for i in range(3)
        ],
    },
    "partition": {
        "description": "asymmetric loss/delay between node groups",
        # WAN-sized lease grace: the far group's inbound loss can stall a
        # GRANT delivery past the default 300 ms grace, and a break
        # blacklists the whole far site — that is the failover scenario's
        # job (storm), not this one's.
        "server": {"shards": 2, "lease_grace_us": 3_000_000},
        "groups": [
            {
                "name": "near", "procs": 2, "clients": 32, "rounds": 15,
                "lock": 1, "lock_space": 16, "zipf_s": 0.8,
                "counters": True, "grant_timeout_us": 60_000_000,
            },
            {
                "name": "far", "procs": 2, "clients": 32, "rounds": 15,
                "lock": 5001, "lock_space": 16, "zipf_s": 0.8,
                "counters": True, "grant_timeout_us": 60_000_000,
                "netem": {"loss_pct": 4, "delay_us": 30_000},
            },
        ],
    },
    "storm": {
        "description": "lease-break storms: holders SIGKILLed mid-hold",
        "server": {"shards": 1, "lease_grace_us": 150_000},
        "groups": [
            {
                # hold_us stretches the survivors' run so every sacrificial
                # holder lands mid-workload and its lease-break stall shows
                # up in the survivors' acquire tail (the gated p99).
                "name": "survivors", "procs": 2, "clients": 16, "rounds": 15,
                "lock": 1, "counters": True, "hold_us": 5_000,
                "grant_timeout_us": 60_000_000,
            },
            {
                # Sacrificial holders: one acquire of the survivors' lock,
                # then a 60 s hold they never finish — the runner SIGKILLs
                # them while holding, so every kill forces a lease break
                # (declared expected hold stays the client default, which
                # is what the server's failure detector times against).
                "name": "victims", "procs": 3, "clients": 1, "rounds": 1,
                "lock": 1, "hold_us": 60_000_000, "counters": False,
                "start_after_us": 200_000, "proc_spacing_us": 1_000_000,
                "kill_after_us": 1_200_000,
                "grant_timeout_us": 60_000_000,
            },
        ],
        "checks": {"min_lease_breaks": 1},
    },
}


# Live benches: one or more clusters run in turn, whose per-process results
# merge into one BENCH_live_<name>.json (planned by plan_live).
LIVE_SCENARIOS = {
    "wan": "4 KiB transfers under 2% loss, 20 ms delay, 6 Mbit/s",
    "transfer": "replica ping-pong at 1/4/256 KiB, 20 ms delay, udp bulk",
    "shards": "128 clients on distinct locks at 1, 2 and 4 shards",
    "hybrid": "replica ping-pong 1 KiB..1 MiB, udp vs tcp vs hybrid bulk",
}
SHARD_COUNTS = (1, 2, 4)
HYBRID_SIZES = (1024, 8192, 65536, 262144, 1048576)
HYBRID_BACKENDS = ("udp", "tcp", "hybrid")

# Stands for the server's bootstrap port in a planned client argv.
PORT = "{port}"


class ScenarioError(Exception):
    """Bad configuration (unknown scenario/profile, malformed spec), or a
    bench result that cannot be read or fails its checks."""


@dataclass
class Proc:
    label: str
    argv: list[str]
    start_after_us: int = 0
    kill_after_us: int | None = None  # SIGKILL this long after ITS start


@dataclass
class Cluster:
    """One server (with a --ready-file) and the clients run against it."""
    label: str
    server: list[str]
    clients: list[Proc]


@dataclass
class ServerSpec:
    shards: int
    lease_grace_us: int | None = None


@dataclass
class ClientSpec:
    group: str
    site: int
    clients: int
    rounds: int
    lock: int
    lock_space: int = 0
    zipf_s: float = 0.0
    distinct: bool = False
    counters: bool = False
    hold_us: int = 0
    stagger_us: int = 0
    grant_timeout_us: int = 0
    netem: dict = field(default_factory=dict)
    start_after_us: int = 0
    kill_after_us: int | None = None  # SIGKILL this long after ITS start

    @property
    def expect_kill(self) -> bool:
        return self.kill_after_us is not None


@dataclass
class Plan:
    name: str
    profile: str
    server: ServerSpec
    clients: list[ClientSpec]
    expected_counter_total: int
    checks: dict


def scale_count(value: int, factor: float) -> int:
    return max(1, round(value * factor))


def netem_flags(netem: dict) -> list[str]:
    """CLI flags for one group's userspace netem (empty dict = clean path)."""
    flags: list[str] = []
    if netem.get("loss_pct"):
        flags += ["--loss-pct", str(netem["loss_pct"])]
    if netem.get("delay_us"):
        flags += ["--delay-us", str(netem["delay_us"])]
    if netem.get("bw_kbps"):
        flags += ["--bw-kbps", str(netem["bw_kbps"])]
    return flags


def plan_scenario(name: str, profile: str, time_scale: float = 1.0) -> Plan:
    """Expands one scenario's declarative matrix into concrete process
    specs: unique sites, per-process lock bases, profile-scaled counts, and
    a wall-clock start/kill schedule stretched by `time_scale`."""
    if name not in SCENARIOS:
        raise ScenarioError(f"unknown scenario {name!r} "
                            f"(have: {', '.join(sorted(SCENARIOS))})")
    if profile not in PROFILES:
        raise ScenarioError(f"unknown profile {profile!r} "
                            f"(have: {', '.join(sorted(PROFILES))})")
    spec = SCENARIOS[name]
    factors = PROFILES[profile]

    server = ServerSpec(shards=spec["server"]["shards"],
                        lease_grace_us=spec["server"].get("lease_grace_us"))
    clients: list[ClientSpec] = []
    expected = 0
    site = 2  # site 1 is the server
    for group in spec["groups"]:
        procs = scale_count(group["procs"], factors["procs"])
        n_clients = scale_count(group["clients"], factors["clients"])
        rounds = scale_count(group["rounds"], factors["rounds"])
        spacing = group.get("proc_spacing_us", 0)
        for p in range(procs):
            start = int((group.get("start_after_us", 0) + p * spacing)
                        * time_scale)
            kill = group.get("kill_after_us")
            clients.append(ClientSpec(
                group=group["name"],
                site=site,
                clients=n_clients,
                rounds=rounds,
                # Distinct-lock groups give every process a disjoint id
                # range (client i inside takes base + i via --distinct-locks)
                lock=group["lock"] + (p * 1000 if group.get("distinct")
                                      else 0),
                lock_space=group.get("lock_space", 0),
                zipf_s=group.get("zipf_s", 0.0),
                distinct=bool(group.get("distinct")),
                counters=bool(group.get("counters")),
                hold_us=group.get("hold_us", 0),
                stagger_us=int(group.get("stagger_us", 0) * time_scale),
                grant_timeout_us=group.get("grant_timeout_us", 0),
                netem=group.get("netem", {}),
                start_after_us=start,
                kill_after_us=(int(kill * time_scale)
                               if kill is not None else None),
            ))
            site += 1
            if group.get("counters"):
                expected += n_clients * rounds
    return Plan(name=name, profile=profile, server=server, clients=clients,
                expected_counter_total=expected,
                checks=spec.get("checks", {}))


def build_client_argv(bin_path: str, spec: ClientSpec, port: int | str,
                      scenario_dir: Path) -> list[str]:
    argv = [bin_path, "--client", "--site", str(spec.site),
            "--server-addr", f"127.0.0.1:{port}",
            "--rounds", str(spec.rounds), "--clients", str(spec.clients),
            "--lock", str(spec.lock), "--quiet"]
    if spec.distinct:
        argv.append("--distinct-locks")
    if spec.lock_space > 1:
        argv += ["--lock-space", str(spec.lock_space),
                 "--zipf-s", str(spec.zipf_s)]
    if spec.counters:
        argv += ["--counter-dir", str(scenario_dir / "counters")]
    if spec.hold_us:
        argv += ["--hold-us", str(spec.hold_us)]
    if spec.stagger_us:
        argv += ["--client-stagger-us", str(spec.stagger_us)]
    if spec.grant_timeout_us:
        argv += ["--grant-timeout-us", str(spec.grant_timeout_us)]
    # Sacrificial processes die mid-hold; their latency samples would be a
    # partial, kill-timing-dependent subset, so only surviving workload
    # processes contribute to the merged percentiles.
    if not spec.expect_kill:
        argv += ["--latency-dump-file", str(scenario_dir / f"lat_{spec.site}")]
    argv += netem_flags(spec.netem)
    return argv


def build_server_argv(bin_path: str, server: ServerSpec,
                      scenario_dir: Path) -> list[str]:
    argv = [bin_path, "--server", "--port", "0",
            "--shards", str(server.shards),
            "--ready-file", str(scenario_dir / "ready"),
            "--stats-json", str(scenario_dir / "server_stats.json"),
            "--quiet"]
    if server.lease_grace_us is not None:
        argv += ["--lease-grace-us", str(server.lease_grace_us)]
    return argv


def plan_live(name: str, profile: str, bin_path: str,
              out_dir: Path) -> list[Cluster]:
    """The clusters one live bench runs in turn. At the `ci` profile these
    are the command lines bench/baselines/ was recorded with. BENCH JSONs
    and server stats land in out_dir, ready files and latency dumps in
    out_dir/<name>."""
    factors = PROFILES[profile]
    scenario_dir = out_dir / name
    out = str(out_dir)
    addr = ["--server-addr", f"127.0.0.1:{PORT}"]

    def count(value: int, key: str) -> str:
        return str(scale_count(value, factors[key]))

    def server(*flags: str) -> list[str]:
        return [bin_path, "--server", "--port", "0", *flags]

    def ready(label: str) -> str:
        return str(scenario_dir / f"ready_{label}")

    def pingpong(rounds: int, sizes: str, pre: list[str], bench: list[str],
                 post: list[str]) -> list[Proc]:
        # Two clients trade one lock; site 2 measures and writes the JSON.
        return [Proc(f"site {site}", [
            bin_path, "--client", "--site", str(site), *addr,
            "--rounds", count(rounds, "rounds"), "--replica-bytes", sizes,
            "--replica-barrier", "2", *pre, *(bench if site == 2 else []),
            "--quiet", *post]) for site in (2, 3)]

    if name == "wan":
        wan = netem_flags({"loss_pct": 2, "delay_us": 20_000,
                           "bw_kbps": 6000})
        return [Cluster("wan", server(
            "--ready-file", ready("wan"), "--quiet", *wan), [Proc("site 2", [
                bin_path, "--client", "--transfer", "--site", "2", *addr,
                "--rounds", count(100, "rounds"), "--bytes", "4096",
                "--concurrency", "4", "--bench-json-dir", out,
                "--bench-name", "live_wan", "--quiet", *wan])])]
    if name == "transfer":
        # Pinned to the UDP bulk arm: the delay is emulated inside the
        # endpoint, which the hybrid default's TCP leg for 256 KiB bundles
        # would bypass.
        delay = ["--delay-us", "20000", "--bulk-backend", "udp"]
        return [Cluster("transfer", server(
            "--ready-file", ready("transfer"),
            "--stats-file", str(out_dir / "transfer_server_stats.json"),
            "--quiet", *delay), pingpong(
                40, "1024,4096,262144", [], ["--bench-json-dir", out],
                delay))]
    if name == "shards":
        # One server process hosting every shard (a reactor thread each);
        # each client process takes a disjoint lock-id base, so every
        # acquire is uncontended and the sweep measures grant dispatch.
        procs = scale_count(4, factors["procs"])
        return [Cluster(f"s{s}", server(
            "--shards", str(s), "--ready-file", ready(f"s{s}"),
            "--stats-file", str(out_dir / f"shard_server_stats_s{s}.json"),
            "--quiet"), [Proc(f"site {1 + p}", [
                bin_path, "--client", "--site", str(1 + p), *addr,
                "--clients", count(32, "clients"), "--distinct-locks",
                "--lock", str(p * 1000), "--rounds", count(40, "rounds"),
                "--latency-dump-file", str(scenario_dir / f"lat_s{s}_p{p}"),
                "--bench-json-dir", out,
                "--bench-name", f"live_shards_s{s}_p{p}", "--quiet"])
                for p in range(1, procs + 1)])
            for s in SHARD_COUNTS]
    if name == "hybrid":
        # 30 rounds: 16-round medians wobbled the crossover bucket.
        sizes = ",".join(map(str, HYBRID_SIZES))
        return [Cluster(be, server(
            "--ready-file", ready(be), "--bulk-backend", be,
            "--quiet"), pingpong(
                30, sizes, ["--bulk-backend", be],
                ["--bench-json-dir", out, "--bench-name", f"live_hybrid_{be}"],
                [])) for be in HYBRID_BACKENDS]
    raise ScenarioError(f"unknown live scenario {name!r}")


# ---------------------------------------------------------------------------
# Result evaluation (pure: unit-tested by --self-test)
# ---------------------------------------------------------------------------

def counter_total(counter_dir: Path) -> int:
    total = 0
    for path in sorted(counter_dir.glob("counter_*")):
        text = path.read_text().strip()
        total += int(text) if text else 0
    return total


def check_counters(counter_dir: Path, expected: int) -> str | None:
    """None when the mutual-exclusion counters sum exactly to the number of
    completed rounds; otherwise a human-readable violation (a shortfall is
    a lost update, i.e. a double grant; an excess is a double count)."""
    total = counter_total(counter_dir)
    if total != expected:
        return (f"counter sum {total} != expected {expected} "
                f"({'lost updates' if total < expected else 'overcount'}: "
                f"mutual-exclusion violation)")
    return None


def load_server_metrics(stats_json: Path) -> dict[str, float]:
    """Flat metrics map from the server's final --stats-json registry dump
    (docs/OBSERVABILITY.md) — the PR 8 telemetry is the only counter source
    the runner trusts; it never re-derives server-side numbers itself."""
    doc = json.loads(stats_json.read_text())
    return {str(k): float(v) for k, v in doc.get("metrics", {}).items()}


def sum_shard_metric(metrics: dict[str, float], suffix: str) -> float:
    return sum(v for k, v in metrics.items()
               if k.startswith("shard.") and k.endswith("." + suffix))


def check_telemetry(metrics: dict[str, float], plan: Plan) -> str | None:
    grants = sum_shard_metric(metrics, "grants")
    if grants <= 0:
        return "server telemetry shows zero grants (scrape or workload broken)"
    min_breaks = plan.checks.get("min_lease_breaks", 0)
    breaks = sum_shard_metric(metrics, "lease_breaks")
    if breaks < min_breaks:
        return (f"lease_breaks {breaks:.0f} < required {min_breaks} "
                f"(the chaos this scenario exists to exercise never happened)")
    return None


def merge_latencies(scenario_dir: Path, pattern: str = "lat_*") -> list[int]:
    merged: list[int] = []
    for path in sorted(scenario_dir.glob(pattern)):
        for line in path.read_text().splitlines():
            line = line.strip()
            if line:
                merged.append(int(line))
    merged.sort()
    return merged


def percentile(sorted_values: list[int], p: float) -> float:
    if not sorted_values:
        return 0.0
    idx = int(p * (len(sorted_values) - 1))
    return float(sorted_values[idx])


def bench_metrics(latencies: list[int], wall_us: float,
                  server_metrics: dict[str, float]) -> list[dict]:
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    rate = len(latencies) * 1e6 / wall_us if wall_us > 0 else 0.0
    return [
        {"name": "p50_acquire_us", "value": percentile(latencies, 0.50),
         "unit": "us"},
        {"name": "p99_acquire_us", "value": percentile(latencies, 0.99),
         "unit": "us"},
        {"name": "mean_acquire_us", "value": mean, "unit": "us"},
        {"name": "locks_per_sec", "value": rate, "unit": "rounds/s"},
        {"name": "acquire_samples", "value": float(len(latencies)),
         "unit": "count"},
        {"name": "server_grants",
         "value": sum_shard_metric(server_metrics, "grants"),
         "unit": "count"},
        {"name": "server_lease_breaks",
         "value": sum_shard_metric(server_metrics, "lease_breaks"),
         "unit": "count"},
    ]


def write_bench_json(out_dir: Path, name: str, metrics: list[dict]) -> Path:
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps({"name": name, "metrics": metrics},
                               indent=2) + "\n")
    return path


def load_bench(path: Path) -> dict[str, float]:
    """Metrics of one BENCH_*.json. A process that died after it was reaped
    can leave an empty or truncated file; that is an error here, not a
    "missing metric" for the gate to misread."""
    try:
        doc = json.loads(path.read_text())
        metrics = {str(m["name"]): float(m["value"]) for m in doc["metrics"]}
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise ScenarioError(f"{path.name}: unreadable bench JSON: {err!r}")
    if not metrics:
        raise ScenarioError(f"{path.name}: no metrics in bench JSON")
    return metrics


def merge_shards(out_dir: Path, lat_dir: Path) -> list[dict]:
    """BENCH_live_shards metrics: acquire percentiles over the union of every
    client process's dump, locks/s as the sum of the concurrent processes'
    throughputs, and the scaling ratios. scaling_x4_inverse (s1 rate / s4
    rate) is the gated form: the gate is lower-is-better, so losing the
    multi-shard speedup makes the inverse grow past its envelope."""
    metrics: list[dict] = []
    rate: dict[int, float] = {}
    for s in SHARD_COUNTS:
        lat = merge_latencies(lat_dir, f"lat_s{s}_p*")
        if not lat:
            raise ScenarioError(f"shard sweep s={s}: no latency samples")

        def q(p: float) -> float:
            return float(lat[min(len(lat) - 1, int(p * (len(lat) - 1) + 0.5))])
        rate[s] = sum(load_bench(path)["throughput"] for path in
                      sorted(out_dir.glob(f"BENCH_live_shards_s{s}_p*.json")))
        metrics += [
            {"name": f"p50_acquire_s{s}", "value": q(0.50), "unit": "us"},
            {"name": f"p99_acquire_s{s}", "value": q(0.99), "unit": "us"},
            {"name": f"locks_per_sec_s{s}", "value": rate[s],
             "unit": "rounds/s"},
        ]
    return metrics + [
        {"name": "scaling_x2", "value": rate[2] / rate[1], "unit": "x"},
        {"name": "scaling_x4", "value": rate[4] / rate[1], "unit": "x"},
        {"name": "scaling_x4_inverse", "value": rate[1] / rate[4],
         "unit": "x"},
    ]


def check_hybrid(runs: dict[str, dict[str, float]]) -> None:
    """The bulk sweep measured what it claims: the tcp arm used the fast
    path (a silent negotiation failure would fall back to UDP and "measure"
    a crossover of pure noise), the udp arm did not, and the hybrid arm
    routed by size (per the measuring client's pulls: none over TCP below
    the 64 KiB crossover, every one over TCP well above it)."""
    if runs["tcp"].get("bulk_fast_served", 0) <= 0:
        raise ScenarioError("hybrid sweep: tcp run never hit the fast "
                            "bulk path")
    if runs["udp"].get("bulk_fast_served", 0) != 0:
        raise ScenarioError("hybrid sweep: udp run unexpectedly used a fast "
                            "bulk backend")
    hybrid = runs["hybrid"]
    for size in (1024, 8192):
        if hybrid[f"tcp_pulls_{size}"] != 0:
            raise ScenarioError(
                f"hybrid sweep: {size} B bundles rode TCP "
                f"({hybrid[f'tcp_pulls_{size}']:.0f} pulls)")
    for size in (262144, 1048576):
        pulls, tcp = hybrid[f"pulls_{size}"], hybrid[f"tcp_pulls_{size}"]
        if pulls <= 0 or tcp != pulls:
            raise ScenarioError(f"hybrid sweep: {size} B bundles: {tcp:.0f} "
                                f"of {pulls:.0f} pulls rode TCP")


def hybrid_metrics(runs: dict[str, dict[str, float]]) -> list[dict]:
    """BENCH_live_hybrid metrics: udp/tcp p50+p99 per size, the crossover
    and the 1 MiB tcp/udp ratios. The crossover is the smallest size from
    which TCP wins p99 by >10% at that size AND every larger one
    (hysteresis, so a single noisy bucket cannot fake it); with none, the
    sentinel 2x the largest size trips the lower-is-better gate. It is
    defined on p99 because the retransmit storm TCP removes lives in the
    tail; 1 MiB p50s are scheduler noise on busy runners."""
    metrics = [{"name": f"{be}_{q}_{size}",
                "value": runs[be][f"{q}_acquire_{size}"], "unit": "us"}
               for size in HYBRID_SIZES for be in ("udp", "tcp")
               for q in ("p50", "p99")]
    crossover = 2 * HYBRID_SIZES[-1]
    for i, size in enumerate(HYBRID_SIZES):
        if all(runs["tcp"][f"p99_acquire_{s}"]
               < 0.9 * runs["udp"][f"p99_acquire_{s}"]
               for s in HYBRID_SIZES[i:]):
            crossover = size
            break
    metrics.append({"name": "crossover_bytes", "value": float(crossover),
                    "unit": "bytes"})
    for q in ("p50", "p99"):
        metrics.append({"name": f"tcp_over_udp_{q}_1048576",
                        "value": runs["tcp"][f"{q}_acquire_1048576"]
                        / runs["udp"][f"{q}_acquire_1048576"], "unit": "x"})
    return metrics


# ---------------------------------------------------------------------------
# Process orchestration
# ---------------------------------------------------------------------------

def env_time_scale() -> float:
    try:
        scale = float(os.environ.get("MOCHA_TEST_TIME_SCALE", "1"))
    except ValueError:
        return 1.0
    return scale if scale > 0 else 1.0


def wait_ready(ready_file: Path, deadline_s: float) -> int:
    """First (bootstrap) shard port once the server wrote its ready file."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            text = ready_file.read_text().strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text.split()[0])
        time.sleep(0.05)
    raise ScenarioError(f"server never became ready ({ready_file})")


def run_cluster(cluster: Cluster, scale: float) -> tuple[list[str], float]:
    """Starts the server, then each client at its offset, SIGKILLing those
    planned to die. The first unexpected exit, the server's included, kills
    the rest of the group: a replica peer would otherwise wait forever on
    its dead partner. The server must exit cleanly on SIGTERM. Returns
    (failures, wall us)."""
    label, argv = cluster.label, cluster.server
    failures: list[str] = []
    started: list[subprocess.Popen] = []
    server = subprocess.Popen(argv)
    t0 = time.monotonic()
    try:
        ready = Path(argv[argv.index("--ready-file") + 1])
        port = str(wait_ready(ready, deadline_s=20 * scale))
        pending = sorted(cluster.clients, key=lambda c: c.start_after_us)
        running: list[tuple[Proc, subprocess.Popen, float | None]] = []
        while pending or running:
            now = time.monotonic()
            while pending and (now - t0) * 1e6 >= pending[0].start_after_us:
                client = pending.pop(0)
                proc = subprocess.Popen(
                    [arg.replace(PORT, port) for arg in client.argv])
                started.append(proc)
                kill_at = (None if client.kill_after_us is None
                           else now + client.kill_after_us / 1e6)
                running.append((client, proc, kill_at))
            still = []
            for client, proc, kill_at in running:
                if kill_at is not None and time.monotonic() >= kill_at:
                    proc.kill()
                rc = proc.poll()
                if rc is None:
                    still.append((client, proc, kill_at))
                elif kill_at is not None:
                    if rc == 0:
                        failures.append(
                            f"{label}/{client.label}: sacrificial process "
                            f"finished before its kill")
                elif rc != 0:
                    failures.append(f"{label}/{client.label}: exit status "
                                    f"{rc}: {' '.join(proc.args)}")
            running = still
            if server.poll() is not None:
                failures.append(f"{label}: server exited mid-run")
            if failures:
                break
            if pending or any(k is not None for _, _, k in running):
                time.sleep(0.05)
            elif running:
                # Nothing left to schedule: block until a process exits
                # rather than poll on the CPUs the cluster is measured on.
                # WNOWAIT leaves the reaping to Popen.poll().
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    except ScenarioError as err:
        failures.append(f"{label}: {err}")
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            rc = server.wait(timeout=30 * scale)
            if rc != 0:
                failures.append(f"{label}: server exit status {rc}")
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            failures.append(f"{label}: server did not stop on SIGTERM")
    return failures, (time.monotonic() - t0) * 1e6


def fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def run_lock_scenario(name: str, profile: str, bin_path: str,
                      out_dir: Path) -> list[str]:
    """One lock-workload scenario; leaves BENCH_scenario_<name>.json and the
    raw telemetry in out_dir. Returns its failures."""
    scale = env_time_scale()
    plan = plan_scenario(name, profile, time_scale=scale)
    scenario_dir = out_dir / name
    fresh_dir(scenario_dir)
    (scenario_dir / "counters").mkdir()
    failures, wall_us = run_cluster(Cluster(
        name, build_server_argv(bin_path, plan.server, scenario_dir),
        [Proc(f"{spec.group} site {spec.site}",
              build_client_argv(bin_path, spec, PORT, scenario_dir),
              spec.start_after_us, spec.kill_after_us)
         for spec in plan.clients]), scale)

    # Correctness: exact counter equality + telemetry assertions. A group
    # cut short by a failed process cannot balance its counters, so the
    # counter check only reads a run that finished.
    error = None if failures else check_counters(
        scenario_dir / "counters", plan.expected_counter_total)
    if error:
        failures.append(f"{name}: {error}")
    server_metrics: dict[str, float] = {}
    stats_json = scenario_dir / "server_stats.json"
    if stats_json.exists():
        server_metrics = load_server_metrics(stats_json)
        error = check_telemetry(server_metrics, plan)
        if error:
            failures.append(f"{name}: {error}")
    else:
        failures.append(f"{name}: server never wrote {stats_json}")

    latencies = merge_latencies(scenario_dir)
    if not latencies:
        failures.append(f"{name}: no latency samples")
    bench = write_bench_json(out_dir, f"scenario_{name}",
                             bench_metrics(latencies, wall_us,
                                           server_metrics))
    print(f"run_scenarios: {name} [{profile}] "
          f"{len(latencies)} acquires, p50 {percentile(latencies, 0.5):.0f} "
          f"us, p99 {percentile(latencies, 0.99):.0f} us, "
          f"counter {counter_total(scenario_dir / 'counters')}/"
          f"{plan.expected_counter_total} -> {bench.name}"
          + ("" if not failures else f"  [{len(failures)} FAILURE(S)]"))
    return failures


def run_live(name: str, profile: str, bin_path: str,
             out_dir: Path) -> list[str]:
    """One live bench: its clusters in turn, then the merge and checks into
    BENCH_live_<name>.json. Returns its failures."""
    fresh_dir(out_dir / name)
    for stale in out_dir.glob(f"BENCH_live_{name}*.json"):
        stale.unlink()
    failures: list[str] = []
    for cluster in plan_live(name, profile, bin_path, out_dir):
        failures += run_cluster(cluster, env_time_scale())[0]
        if failures:
            return failures
    try:
        if name == "shards":
            write_bench_json(out_dir, "live_shards",
                             merge_shards(out_dir, out_dir / name))
        elif name == "hybrid":
            runs = {be: load_bench(out_dir / f"BENCH_live_hybrid_{be}.json")
                    for be in HYBRID_BACKENDS}
            check_hybrid(runs)
            write_bench_json(out_dir, "live_hybrid", hybrid_metrics(runs))
        bench = load_bench(out_dir / f"BENCH_live_{name}.json")
    except (ScenarioError, KeyError) as err:
        return [f"{name}: {err!r}"]
    print(f"run_scenarios: {name} [{profile}] -> BENCH_live_{name}.json "
          f"({len(bench)} metrics)")
    return []


# ---------------------------------------------------------------------------
# Self-test: config parsing + schedule generation (ctest label `lint`)
# ---------------------------------------------------------------------------

def self_test() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    def rejects(fn, *args) -> bool:
        try:
            fn(*args)
        except ScenarioError:
            return True
        return False

    # Every catalogued scenario plans cleanly at every profile, with unique
    # sites and a positive counter expectation.
    for name in SCENARIOS:
        for profile in PROFILES:
            plan = plan_scenario(name, profile)
            sites = [s.site for s in plan.clients]
            expect(len(sites) == len(set(sites)),
                   f"{name}/{profile}: duplicate site ids")
            expect(plan.expected_counter_total > 0,
                   f"{name}/{profile}: no counter-checked rounds")
            expect(plan.server.shards >= 1, f"{name}: no shards")

    # Profile scaling: smoke strictly smaller than ci, full at least ci.
    def total_rounds(plan: Plan) -> int:
        return sum(s.clients * s.rounds for s in plan.clients)
    for name in SCENARIOS:
        smoke, ci, full = (plan_scenario(name, p)
                           for p in ("smoke", "ci", "full"))
        expect(total_rounds(smoke) < total_rounds(ci),
               f"{name}: smoke not smaller than ci")
        expect(total_rounds(full) >= total_rounds(ci),
               f"{name}: full smaller than ci")

    # Negatives: unknown names must be rejected, not silently skipped.
    for bad in (("nosuch", "ci"), ("hotkey", "noprofile")):
        expect(rejects(plan_scenario, *bad), f"bad plan accepted: {bad}")

    # Netem schedule: partition must be asymmetric — at least one group
    # behind loss flags, at least one clean.
    plan = plan_scenario("partition", "ci")
    lossy = [s for s in plan.clients if "--loss-pct" in
             build_client_argv("bin", s, 1, Path("/tmp"))]
    clean = [s for s in plan.clients if s not in lossy]
    expect(bool(lossy) and bool(clean),
           "partition: netem not asymmetric across groups")
    expect(netem_flags({}) == [], "netem_flags({}) not empty")
    expect(netem_flags({"loss_pct": 2, "delay_us": 5, "bw_kbps": 9}) ==
           ["--loss-pct", "2", "--delay-us", "5", "--bw-kbps", "9"],
           "netem_flags full dict wrong")

    # Kill schedule: storm has sacrificial processes, killed strictly after
    # their start, and they contend on the survivors' lock.
    plan = plan_scenario("storm", "ci")
    victims = [s for s in plan.clients if s.expect_kill]
    survivors = [s for s in plan.clients if not s.expect_kill]
    expect(len(victims) >= 1, "storm: no sacrificial processes")
    expect(all(v.kill_after_us > 0 for v in victims),
           "storm: kill not after start")
    expect(all(v.lock == survivors[0].lock for v in victims),
           "storm: victims not on the survivors' lock")
    expect(all(not v.counters for v in victims),
           "storm: sacrificial processes must not touch counters")
    argv = build_client_argv("bin", victims[0], 1, Path("/tmp"))
    expect("--latency-dump-file" not in argv,
           "storm: victim latencies must not pollute the percentiles")

    # Churn: waves start at strictly increasing offsets and stagger their
    # simulated clients.
    plan = plan_scenario("churn", "ci")
    starts = sorted({s.start_after_us for s in plan.clients})
    expect(len(starts) >= 3, "churn: fewer than 3 distinct wave starts")
    expect(all(s.stagger_us > 0 for s in plan.clients),
           "churn: clients not staggered")

    # Hot-key: the skew flags must reach the command line.
    plan = plan_scenario("hotkey", "ci")
    argv = build_client_argv("bin", plan.clients[0], 7000, Path("/x"))
    expect("--lock-space" in argv and "--zipf-s" in argv and
           "--counter-dir" in argv, "hotkey: skew/counter flags missing")
    expect("127.0.0.1:7000" in argv, "server addr not wired")

    # Time scaling stretches the wall schedule (sanitizer lanes).
    fast = plan_scenario("storm", "ci", time_scale=1.0)
    slow = plan_scenario("storm", "ci", time_scale=3.0)
    fast_kill = next(s.kill_after_us for s in fast.clients if s.expect_kill)
    slow_kill = next(s.kill_after_us for s in slow.clients if s.expect_kill)
    expect(slow_kill == 3 * fast_kill, "kill schedule ignores time scale")

    # Correctness math: counter mismatch (the check the CI lane relies on to
    # fail on a mutual-exclusion violation) must trip in both directions.
    with tempfile.TemporaryDirectory() as tmp:
        counter_dir = Path(tmp)
        (counter_dir / "counter_1").write_text("7\n")
        (counter_dir / "counter_2").write_text("5\n")
        expect(check_counters(counter_dir, 12) is None,
               "exact counters flagged as violation")
        expect(check_counters(counter_dir, 13) is not None,
               "lost update not detected")
        expect(check_counters(counter_dir, 11) is not None,
               "overcount not detected")

    # Telemetry assertions keyed off the PR 8 registry names.
    metrics = {"shard.0.grants": 10.0, "shard.1.grants": 5.0,
               "shard.0.lease_breaks": 2.0}
    expect(sum_shard_metric(metrics, "grants") == 15.0,
           "shard metric sum wrong")
    plan = plan_scenario("storm", "ci")
    expect(check_telemetry(metrics, plan) is None,
           "healthy storm telemetry rejected")
    expect(check_telemetry({"shard.0.grants": 10.0}, plan) is not None,
           "missing lease breaks not detected")
    expect(check_telemetry({}, plan) is not None,
           "zero-grant telemetry not detected")

    # Percentile merge across per-process dumps.
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "lat_2").write_text("30\n10\n")
        (d / "lat_3").write_text("20\n40\n")
        merged = merge_latencies(d)
        expect(merged == [10, 20, 30, 40], f"bad merge: {merged}")
        expect(percentile(merged, 0.5) == 20.0, "bad p50")
        expect(percentile(merged, 1.0) == 40.0, "bad p100")

    # Orchestration: a failed client stops its cluster at once, killing a
    # peer that would otherwise run on; the server stops on SIGTERM.
    with tempfile.TemporaryDirectory() as tmp:
        def py(code: str) -> list[str]:
            return [sys.executable, "-c", code]
        t0 = time.monotonic()
        failures_seen, _ = run_cluster(Cluster("t", py(
            "import signal, sys, time\n"
            "signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))\n"
            "open(sys.argv[2], 'w').write('1')\ntime.sleep(60)")
            + ["--ready-file", f"{tmp}/ready"], [
                Proc("dies", py("raise SystemExit(5)")),
                Proc("peer", py("import time; time.sleep(60)"))]), 1.0)
        expect(len(failures_seen) == 1 and "dies: exit status 5" in
               failures_seen[0] and time.monotonic() - t0 < 20,
               f"failed client did not stop its cluster: {failures_seen}")

    # Live benches at `ci`: the command lines bench/baselines/ was recorded
    # with, one string per process in launch order (server first).
    wan = "--loss-pct 2 --delay-us 20000 --bw-kbps 6000"
    srv = "BIN --server --port 0"
    addr = "--server-addr 127.0.0.1:{port}"
    ping = f"{addr} --rounds %d --replica-bytes %s --replica-barrier 2"
    sizes = "1024,8192,65536,262144,1048576"
    golden = {
        "wan": [
            f"{srv} --ready-file OUT/wan/ready_wan --quiet {wan}",
            f"BIN --client --transfer --site 2 {addr} --rounds 100 --bytes "
            f"4096 --concurrency 4 --bench-json-dir OUT --bench-name live_wan "
            f"--quiet {wan}"],
        "transfer": [
            f"{srv} --ready-file OUT/transfer/ready_transfer --stats-file "
            "OUT/transfer_server_stats.json --quiet --delay-us 20000 "
            "--bulk-backend udp"] + [
            f"BIN --client --site {site} " + ping % (40, "1024,4096,262144")
            + f"{extra} --quiet --delay-us 20000 --bulk-backend udp"
            for site, extra in ((2, " --bench-json-dir OUT"), (3, ""))],
        "shards": [line for s in (1, 2, 4) for line in [
            f"{srv} --shards {s} --ready-file OUT/shards/ready_s{s} "
            f"--stats-file OUT/shard_server_stats_s{s}.json --quiet"] + [
            f"BIN --client --site {1 + p} {addr} --clients 32 "
            f"--distinct-locks --lock {p * 1000} --rounds 40 "
            f"--latency-dump-file OUT/shards/lat_s{s}_p{p} --bench-json-dir "
            f"OUT --bench-name live_shards_s{s}_p{p} --quiet"
            for p in (1, 2, 3, 4)]],
        "hybrid": [line for be in ("udp", "tcp", "hybrid") for line in (
            f"{srv} --ready-file OUT/hybrid/ready_{be} --bulk-backend {be} "
            "--quiet",
            "BIN --client --site 2 " + ping % (30, sizes) + f" --bulk-backend"
            f" {be} --bench-json-dir OUT --bench-name live_hybrid_{be} "
            "--quiet",
            "BIN --client --site 3 " + ping % (30, sizes)
            + f" --bulk-backend {be} --quiet")],
    }
    expect(set(golden) == set(LIVE_SCENARIOS), "live golden set incomplete")
    for name, lines in golden.items():
        plans = {profile: plan_live(name, profile, "BIN", Path("OUT"))
                 for profile in ("ci", "smoke")}
        planned = [" ".join(argv) for cluster in plans["ci"] for argv in
                   [cluster.server, *(c.argv for c in cluster.clients)]]
        expect(planned == lines, f"{name}: ci argv drifted from its golden:"
               f"\n  planned {planned}\n  golden  {lines}")
        expect(len(plans["smoke"]) == len(plans["ci"]),
               f"{name}: smoke drops a cluster run")

    # Shard merge: percentiles over the union of every process's dump
    # (nearest rank), locks/s summed across processes, scaling ratios.
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for s in SHARD_COUNTS:
            for p in (1, 2):
                (d / f"lat_s{s}_p{p}").write_text("".join(
                    f"{v}\n" for v in range(50 * p - 49, 50 * p + 1)))
                write_bench_json(d, f"live_shards_s{s}_p{p}", [
                    {"name": "throughput", "value": 100 * s * p, "unit": "x"}])
        got = {m["name"]: m["value"] for m in merge_shards(d, d)}
        expect((got["p50_acquire_s1"], got["p99_acquire_s4"]) == (51, 99),
               f"shard percentiles not over the union: {got}")
        expect(got["locks_per_sec_s2"] == 600.0, "shard rates not summed")
        expect((got["scaling_x2"], got["scaling_x4"],
                got["scaling_x4_inverse"]) == (2.0, 4.0, 0.25),
               f"shard scaling ratios wrong: {got}")
        (d / "lat_s4_p1").write_text("")
        (d / "lat_s4_p2").unlink()
        expect(rejects(merge_shards, d, d), "shard run without samples passed")

        # An empty, truncated or metric-less BENCH JSON is rejected.
        for i, text in enumerate(("", '{"name": "live_wan", "metr',
                                  '{"name": "live_wan", "metrics": []}')):
            (d / f"bad_{i}").write_text(text)
            expect(rejects(load_bench, d / f"bad_{i}"),
                   f"malformed bench JSON accepted: {text!r}")

    # Hybrid sweep: forged runs with the tcp arm's p99 per size given (udp
    # at 1000 everywhere), healthy routing and fast-path use.
    def hybrid_runs(*tcp_p99: float) -> dict:
        runs: dict = {be: {} for be in HYBRID_BACKENDS}
        for size, tcp in zip(HYBRID_SIZES, tcp_p99):
            for be, p99 in (("udp", 1000), ("tcp", tcp), ("hybrid", 500)):
                runs[be].update({f"p50_acquire_{size}": p99 / 2,
                                 f"p99_acquire_{size}": p99})
            runs["hybrid"][f"pulls_{size}"] = 30
            runs["hybrid"][f"tcp_pulls_{size}"] = 30 if size >= 65536 else 0
        runs["tcp"]["bulk_fast_served"] = 60
        runs["udp"]["bulk_fast_served"] = 0
        return runs

    def crossover(runs: dict) -> float:
        return next(m["value"] for m in hybrid_metrics(runs)
                    if m["name"] == "crossover_bytes")

    healthy = hybrid_runs(1100, 1050, 800, 600, 500)
    expect(not rejects(check_hybrid, healthy), "healthy hybrid run rejected")
    expect(crossover(healthy) == 65536, f"crossover {crossover(healthy)}")
    noisy = hybrid_runs(1100, 500, 950, 600, 500)
    expect(crossover(noisy) == 262144,
           f"one noisy bucket faked a crossover at {crossover(noisy)}")
    none = hybrid_runs(*[1000] * len(HYBRID_SIZES))
    expect(crossover(none) == 2 * 1048576,
           f"no crossover did not give the sentinel: {crossover(none)}")
    for be, key, value, what in (
            ("hybrid", "tcp_pulls_1024", 1, "1 KiB bundle over TCP"),
            ("hybrid", "tcp_pulls_1048576", 29, "1 MiB bundle over UDP"),
            ("tcp", "bulk_fast_served", 0, "tcp arm off the fast path"),
            ("udp", "bulk_fast_served", 3, "udp arm on a fast path")):
        forged = hybrid_runs(*[500] * len(HYBRID_SIZES))
        forged[be][key] = value
        expect(rejects(check_hybrid, forged), f"hybrid check passed a {what}")

    if failures:
        for failure in failures:
            print(f"run_scenarios self-test FAILED: {failure}",
                  file=sys.stderr)
        return 1
    print("run_scenarios self-test passed "
          f"({len(SCENARIOS)} scenarios x {len(PROFILES)} profiles)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", help="mocha_live binary")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--profile", default="ci",
                        choices=sorted(PROFILES))
    parser.add_argument("--scenarios",
                        default=",".join([*SCENARIOS, *LIVE_SCENARIOS]),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the scenario catalog and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="unit-test config parsing + schedule generation")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.list:
        for name, spec in SCENARIOS.items():
            print(f"{name:10s} {spec['description']}")
        for name, description in LIVE_SCENARIOS.items():
            print(f"{name:10s} {description}")
        return 0
    if not args.bin or not args.out:
        parser.error("--bin and --out are required")

    names = [n for n in args.scenarios.split(",") if n]
    unknown = [n for n in names if n not in SCENARIOS
               and n not in LIVE_SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}")
    args.out.mkdir(parents=True, exist_ok=True)
    # Every mocha_live process leaves its final stats snapshot and flight
    # dump next to the BENCH JSONs, so a failure ships with its telemetry.
    os.environ["MOCHA_STATS_DIR"] = str(args.out.resolve())
    all_failures: list[str] = []
    try:
        for name in names:
            run = run_live if name in LIVE_SCENARIOS else run_lock_scenario
            all_failures += run(name, args.profile, args.bin, args.out)
    except ScenarioError as err:
        print(f"run_scenarios: error: {err}", file=sys.stderr)
        return 2
    if all_failures:
        for failure in all_failures:
            print(f"run_scenarios: FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"run_scenarios: {len(names)} scenario(s) passed "
          f"[{args.profile}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
