// mocha_live — run the MochaNet lock protocol between real OS processes.
//
// Server (the synchronization thread, paper §3; sharded per PROTOCOL.md §9):
//   mocha_live --server --port 7000 [--shards N] [--stats-file stats.json]
//              [--ready-file ready] [--lease-grace-us N] [--advertise HOST]
//   Hosts N lock-directory shards in this process (default 1), one reactor
//   thread + endpoint each; shard 0 is node 1 on --port (0 = ephemeral),
//   shard k is node 1000+k on --port+k (or another ephemeral port). The
//   ready file lists every hosted shard's UDP port, space-separated, shard 0
//   first. Clients fetch the shard map from any shard at registration;
//   --advertise sets the address the map hands out (default 127.0.0.1).
//   Serves until SIGTERM/SIGINT, then writes stats and exits 0. The stats
//   JSON keeps the historical aggregate keys and adds a per-shard "shards"
//   array (queued waiters, active leases, reactor iterations, epoll batch).
//
//   Multi-process sharding: run one process per shard with --shard-id K and
//   the full fixed-port deployment in --shard-addrs HOST:PORT,HOST:PORT,...
//   (shard order; every process passes the same list).
//
// Client (workload driver: N acquire/release rounds per simulated client):
//   mocha_live --client --site 2 --server-addr 127.0.0.1:7000 --rounds 1000
//              [--port 0] [--lock 1] [--hold-us 0] [--shared]
//              [--clients M] [--distinct-locks] [--latency-dump-file F]
//              [--counter-file F] [--bench-json-dir D] [--quiet]
//   --server-addr points at any shard (the bootstrap); the client fetches
//   the shard map from it and routes each lock to its owning shard. With
//   --clients M it runs M simulated clients (LockClient threads sharing the
//   endpoint, disjoint reply-port ranges); --distinct-locks gives client i
//   lock --lock+i (uncontended scaling workloads; --counter-file assumes a
//   single shared lock, do not combine). Scenario-matrix knobs
//   (tools/run_scenarios.py, docs/SCENARIOS.md): --lock-space N draws each
//   round's lock from [--lock, --lock+N) Zipf-weighted by --zipf-s (0 =
//   uniform); --counter-dir D keeps one counter file per lock id
//   (counter_<id>) so skewed and distinct-lock workloads verify counter
//   equality too; --client-stagger-us delays client c's first round by c*N
//   us; --start-delay-us parks the process before the workload;
//   --grant-timeout-us widens the acquire deadline (scaled by
//   MOCHA_TEST_TIME_SCALE) for deeply queued hot keys. Reports p50/p99
//   lock-acquire
//   latency and aggregate round throughput over all clients; with
//   --counter-file it performs a non-atomic read-increment-write on the file
//   while holding the lock, so lost updates expose any mutual-exclusion
//   violation; --latency-dump-file writes every acquire latency (us, one
//   per line) for cross-process percentile merging. With --bench-json-dir it
//   writes BENCH_<bench-name>.json (default live_lock_acquire). Exits 0
//   only if every round succeeded.
//
// Transfer workload (client): instead of lock rounds, push --rounds messages
// of --bytes each (over --concurrency parallel streams) to the server and
// measure per-message transfer latency (send_sync round trip):
//   mocha_live --client --transfer --site 2 --server-addr 127.0.0.1:7000
//              --rounds 300 --bytes 4096 [--concurrency 4]
//              [--bench-json-dir D] [--bench-name live_wan]
//              [--baseline-p99-us N]
//   With --bench-json-dir it writes BENCH_<bench-name>.json; when
//   --baseline-p99-us carries a fixed-RTO baseline measurement, the JSON
//   additionally reports the baseline and the speedup.
//
// Replica workload (client): exclusive-lock rounds with an actual replica
// transfer on every acquire (live::DaemonService; the wall-clock twin of the
// paper's Figs. 9-14 entry-consistency measurements). --replica-bytes takes
// a comma-separated size list; size i uses lock id --lock + i and one
// replica named "replica". Each round acquires (wall-clocked: grant +
// transfer), rewrites the replica, releases. With two ping-ponging clients
// every acquire needs a transfer:
//   mocha_live --client --site 2 --server-addr 127.0.0.1:7000 --rounds 30
//              --replica-bytes 1024,4096,262144 [--replica-barrier N]
//              [--replica-dump-file F] [--bench-json-dir D]
//   --replica-barrier N parks the client after its rounds until all N
//   clients arrived (a replicated counter guarded by its own lock), then
//   every client does one shared acquire to sync the final contents;
//   --replica-dump-file writes "<size> <hex-of-contents>" per size so a
//   test can assert byte equality across processes. With --bench-json-dir
//   it writes BENCH_<bench-name>.json (default live_transfer) with
//   p50/p99 acquire-with-transfer latency per size.
//
// Bulk transport (server and client, PROTOCOL.md §10): --bulk-backend
// {udp,tcp,hybrid} selects how daemon→daemon replica bundles move (control
// messages always stay on MochaNet UDP). When the flag is absent,
// MOCHA_BULK_BACKEND in the environment applies; default hybrid: bundles of
// 64 KiB and up over TCP, smaller ones over UDP. Each site registers its
// daemon's bulk contact with the lock server, which passes it on in every
// transfer directive; a daemon falls back to udp toward a requester that
// never advertised TCP, so mixed fleets interoperate.
//
// WAN emulation (server and client, applied in the endpoint's own recv path,
// no root/tc needed): --loss-pct P drops P% of inbound datagrams,
// --delay-us N adds one-way propagation delay, --bw-kbps B serializes
// inbound datagrams at B kbit/s (so retransmit storms congest like a real
// pipe). When the flags are absent, MOCHA_NETEM_LOSS_PCT / MOCHA_NETEM_DELAY_US
// in the environment apply instead (lets a CI lane inject loss into forked
// tests without threading flags through). --fixed-rto disables the adaptive
// RTO, receiver-side NACKs, and ack delay/piggybacking — the PR 1 transport,
// for A/B comparison.
//
// Two machines: start the server on one host, point --server-addr at it from
// the others, give every client a distinct --site id ≥ 2.
// Telemetry (docs/OBSERVABILITY.md): --stats-port serves the process-global
// metrics registry as one JSON document per TCP connection (what
// tools/mocha_top.py scrapes); --stats-json F rewrites F (tmp + rename)
// with the same document every second; SIGUSR1 dumps the flight-recorder
// rings as JSON-lines to --flight-json (or a default path). When
// MOCHA_STATS_DIR is set, both documents are additionally written there at
// exit — the CI failure-artifact hook.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "live/clock.h"
#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"
#include "live/shard_map.h"
#include "live/telemetry.h"
#include "replica/wire.h"
#include "util/metrics.h"

namespace {

// Written by the signal handler on whichever thread the signal lands on,
// read by worker threads (transfer drain, client round loops): needs to be
// an honest-to-TSan atomic, not volatile sig_atomic_t — volatile only
// covers handler-to-same-thread visibility. A lock-free std::atomic is
// async-signal-safe.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free);
void on_signal(int) { g_stop.store(1, std::memory_order_relaxed); }

// SIGUSR1 only flips this flag (file IO is not async-signal-safe); the
// telemetry pump thread notices on its next tick and writes the
// flight-recorder dump.
std::atomic<int> g_dump_flight{0};
void on_sigusr1(int) { g_dump_flight.store(1, std::memory_order_relaxed); }

// The server is site/node 1 by convention (the home site).
constexpr mocha::net::NodeId kServerNode = 1;
// Logical port the transfer workload pushes its payloads to.
constexpr mocha::net::Port kTransferPort = 40;

struct Args {
  bool server = false;
  bool client = false;
  int port = 0;
  std::string server_addr;  // host:port
  std::uint32_t site = 0;
  std::uint64_t rounds = 1000;
  std::uint32_t lock = 1;
  std::int64_t hold_us = 0;
  bool shared = false;
  std::string counter_file;
  std::string bench_json_dir;
  std::string stats_file;
  std::string ready_file;
  // Telemetry exposure (server and client)
  int stats_port = -1;        // >= 0: TCP introspection endpoint (0 = ephemeral)
  std::string stats_json;     // periodic registry dumps (tmp + rename)
  std::string flight_json;    // SIGUSR1 flight-recorder dump target
  std::int64_t lease_grace_us = 300'000;
  bool quiet = false;
  // Sharded lock directory (server)
  int shards = 1;
  int shard_id = -1;          // >= 0: host exactly this shard (multi-process)
  std::string shard_addrs;    // host:port,... for all shards, shard order
  std::string advertise = "127.0.0.1";  // address handed out in the map
  // Simulated clients (client lock workload)
  int clients = 1;
  bool distinct_locks = false;
  std::string latency_dump_file;
  // Scenario-matrix knobs (tools/run_scenarios.py, docs/SCENARIOS.md):
  // with --lock-space N > 1 every simulated client draws a fresh lock id
  // from [--lock, --lock + N) each round, Zipf-weighted by --zipf-s (0 =
  // uniform); --counter-dir keeps one mutual-exclusion counter file per
  // lock id so skewed workloads still verify exact counter equality;
  // --client-stagger-us delays simulated client c's first round by c*N us
  // (churn joins); --start-delay-us parks the whole process before the
  // workload; --grant-timeout-us widens the per-acquire grant deadline
  // (scaled by MOCHA_TEST_TIME_SCALE) for heavily queued hot-key runs.
  int lock_space = 0;
  double zipf_s = 1.0;
  std::string counter_dir;
  std::int64_t client_stagger_us = 0;
  std::int64_t start_delay_us = 0;
  std::int64_t grant_timeout_us = 0;
  // Transfer workload
  bool transfer = false;
  std::uint64_t bytes = 4096;
  int concurrency = 1;
  std::string bench_name;  // default: live_wan (transfer) / live_transfer
  std::int64_t baseline_p99_us = 0;
  // Replica workload
  std::string replica_bytes;  // comma-separated sizes; empty = off
  std::string replica_dump_file;
  int replica_barrier = 0;  // clients to rendezvous before the final sync
  // Bulk transport selection (empty = MOCHA_BULK_BACKEND env, else hybrid)
  std::string bulk_backend;
  // WAN emulation + transport A/B knobs
  double loss_pct = 0.0;
  std::int64_t delay_us = 0;
  double bw_kbps = 0.0;
  bool fixed_rto = false;
};

// Widens wall-clock timeouts under sanitizer slowdown (the ctest lanes set
// MOCHA_TEST_TIME_SCALE; same contract as the live test margins).
double time_scale() {
  const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

mocha::live::EndpointOptions make_endpoint_options(const Args& args,
                                                   std::uint32_t seed_salt = 0) {
  mocha::live::EndpointOptions opts;
  opts.recv_loss_pct = args.loss_pct;
  opts.recv_delay_us = args.delay_us;
  opts.recv_bw_kbps = args.bw_kbps;
  // CI netem: environment-injected loss/delay for forked tests that cannot
  // pass flags; explicit flags win.
  if (args.loss_pct == 0.0) {
    if (const char* env = std::getenv("MOCHA_NETEM_LOSS_PCT")) {
      opts.recv_loss_pct = std::atof(env);
    }
  }
  if (args.delay_us == 0) {
    if (const char* env = std::getenv("MOCHA_NETEM_DELAY_US")) {
      opts.recv_delay_us = std::strtoll(env, nullptr, 10);
    }
  }
  // Distinct loss patterns per process (and per server shard), deterministic
  // per (site, salt).
  opts.netem_seed =
      0x6d6f636861u + (args.site + seed_salt * 97u) * 2654435761u;
  if (args.fixed_rto) {
    // The PR 1 transport: fixed RTO, whole-message resend only, every ack
    // standalone and immediate.
    opts.adaptive_rto = false;
    opts.nack_delay_us = 0;
    opts.ack_delay_us = 0;
  }
  return opts;
}

// Bulk-backend selection: explicit flag wins, MOCHA_BULK_BACKEND next,
// hybrid otherwise (parse_args already rejected bad flag values).
mocha::live::BulkBackend resolve_bulk_backend(const Args& args) {
  if (!args.bulk_backend.empty()) {
    return *mocha::live::parse_bulk_backend(args.bulk_backend);
  }
  return mocha::live::bulk_backend_from_env(
      mocha::live::BulkBackend::kHybrid);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --server --port P [--shards N] [--shard-id K"
               " --shard-addrs H:P,...] [--advertise HOST]\n"
               "          [--stats-file F] [--ready-file F]\n"
               "       %s --client --site N --server-addr HOST:PORT "
               "--rounds N [--port P] [--lock ID] [--hold-us N] [--shared]\n"
               "          [--clients M] [--distinct-locks]"
               " [--latency-dump-file F]\n"
               "          [--lock-space N] [--zipf-s S] [--counter-dir D]\n"
               "          [--client-stagger-us N] [--start-delay-us N]"
               " [--grant-timeout-us N]\n"
               "          [--counter-file F] [--bench-json-dir D] [--quiet]\n"
               "       %s --client --transfer --site N --server-addr HOST:PORT"
               " --rounds N\n"
               "          [--bytes N] [--concurrency N] [--bench-name NAME]"
               " [--baseline-p99-us N]\n"
               "       %s --client --site N --server-addr HOST:PORT --rounds N"
               " --replica-bytes S1,S2,...\n"
               "          [--replica-barrier N] [--replica-dump-file F]"
               " [--bench-json-dir D]\n"
               "Telemetry (server and client):\n"
               "          [--stats-port P] [--stats-json F] [--flight-json F]\n"
               "WAN emulation / transport (server and client):\n"
               "          [--bulk-backend udp|tcp|hybrid]\n"
               "          [--loss-pct P] [--delay-us N] [--bw-kbps B]"
               " [--fixed-rto]\n",
               argv0, argv0, argv0, argv0);
  return 64;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--server") {
      args.server = true;
    } else if (arg == "--client") {
      args.client = true;
    } else if (arg == "--shared") {
      args.shared = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--transfer") {
      args.transfer = true;
    } else if (arg == "--distinct-locks") {
      args.distinct_locks = true;
    } else if (arg == "--fixed-rto") {
      args.fixed_rto = true;
    } else if (arg == "--shards") {
      const char* v = value();
      if (!v) return false;
      args.shards = std::atoi(v);
    } else if (arg == "--shard-id") {
      const char* v = value();
      if (!v) return false;
      args.shard_id = std::atoi(v);
    } else if (arg == "--shard-addrs") {
      const char* v = value();
      if (!v) return false;
      args.shard_addrs = v;
    } else if (arg == "--advertise") {
      const char* v = value();
      if (!v) return false;
      args.advertise = v;
    } else if (arg == "--clients") {
      const char* v = value();
      if (!v) return false;
      args.clients = std::atoi(v);
    } else if (arg == "--latency-dump-file") {
      const char* v = value();
      if (!v) return false;
      args.latency_dump_file = v;
    } else if (arg == "--lock-space") {
      const char* v = value();
      if (!v) return false;
      args.lock_space = std::atoi(v);
    } else if (arg == "--zipf-s") {
      const char* v = value();
      if (!v) return false;
      args.zipf_s = std::atof(v);
    } else if (arg == "--counter-dir") {
      const char* v = value();
      if (!v) return false;
      args.counter_dir = v;
    } else if (arg == "--client-stagger-us") {
      const char* v = value();
      if (!v) return false;
      args.client_stagger_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--start-delay-us") {
      const char* v = value();
      if (!v) return false;
      args.start_delay_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--grant-timeout-us") {
      const char* v = value();
      if (!v) return false;
      args.grant_timeout_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--bytes") {
      const char* v = value();
      if (!v) return false;
      args.bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--concurrency") {
      const char* v = value();
      if (!v) return false;
      args.concurrency = std::atoi(v);
    } else if (arg == "--bench-name") {
      const char* v = value();
      if (!v) return false;
      args.bench_name = v;
    } else if (arg == "--baseline-p99-us") {
      const char* v = value();
      if (!v) return false;
      args.baseline_p99_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--replica-bytes") {
      const char* v = value();
      if (!v) return false;
      args.replica_bytes = v;
    } else if (arg == "--replica-dump-file") {
      const char* v = value();
      if (!v) return false;
      args.replica_dump_file = v;
    } else if (arg == "--replica-barrier") {
      const char* v = value();
      if (!v) return false;
      args.replica_barrier = std::atoi(v);
    } else if (arg == "--bulk-backend") {
      const char* v = value();
      if (!v || !mocha::live::parse_bulk_backend(v).has_value()) {
        std::fprintf(stderr,
                     "--bulk-backend: want udp, tcp, or hybrid\n");
        return false;
      }
      args.bulk_backend = v;
    } else if (arg == "--loss-pct") {
      const char* v = value();
      if (!v) return false;
      args.loss_pct = std::atof(v);
    } else if (arg == "--delay-us") {
      const char* v = value();
      if (!v) return false;
      args.delay_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--bw-kbps") {
      const char* v = value();
      if (!v) return false;
      args.bw_kbps = std::atof(v);
    } else if (arg == "--port") {
      const char* v = value();
      if (!v) return false;
      args.port = std::atoi(v);
    } else if (arg == "--server-addr") {
      const char* v = value();
      if (!v) return false;
      args.server_addr = v;
    } else if (arg == "--site") {
      const char* v = value();
      if (!v) return false;
      args.site = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--rounds") {
      const char* v = value();
      if (!v) return false;
      args.rounds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--lock") {
      const char* v = value();
      if (!v) return false;
      args.lock = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--hold-us") {
      const char* v = value();
      if (!v) return false;
      args.hold_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--lease-grace-us") {
      const char* v = value();
      if (!v) return false;
      args.lease_grace_us = std::strtoll(v, nullptr, 10);
    } else if (arg == "--counter-file") {
      const char* v = value();
      if (!v) return false;
      args.counter_file = v;
    } else if (arg == "--bench-json-dir") {
      const char* v = value();
      if (!v) return false;
      args.bench_json_dir = v;
    } else if (arg == "--stats-file") {
      const char* v = value();
      if (!v) return false;
      args.stats_file = v;
    } else if (arg == "--stats-port") {
      const char* v = value();
      if (!v) return false;
      args.stats_port = std::atoi(v);
    } else if (arg == "--stats-json") {
      const char* v = value();
      if (!v) return false;
      args.stats_json = v;
    } else if (arg == "--flight-json") {
      const char* v = value();
      if (!v) return false;
      args.flight_json = v;
    } else if (arg == "--ready-file") {
      const char* v = value();
      if (!v) return false;
      args.ready_file = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// host:port,host:port,... in shard order (the whole deployment).
std::vector<std::pair<std::string, std::uint16_t>> parse_shard_addrs(
    const std::string& csv) {
  std::vector<std::pair<std::string, std::uint16_t>> addrs;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    const std::size_t colon = token.rfind(':');
    if (colon != std::string::npos) {
      addrs.emplace_back(
          token.substr(0, colon),
          static_cast<std::uint16_t>(
              std::strtoul(token.c_str() + colon + 1, nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return addrs;
}

// Atomic-rename file dumps so a concurrent reader (mocha_top.py, the CI
// artifact collector) never sees a half-written JSON document.
bool write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << body;
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string registry_json() {
  return mocha::live::render_stats_json(
      mocha::live::MetricsRegistry::global().snapshot());
}

// Background telemetry pump: periodic --stats-json dumps, SIGUSR1-triggered
// flight-recorder dumps, and (with --stats-port) a TCP introspection
// endpoint that serves one registry-snapshot JSON document per connection,
// then closes. The registry and the flight rings are process-global and
// outlive every endpoint/server, so every dump here is safe regardless of
// where the workload is in its lifecycle.
class TelemetryPump {
 public:
  TelemetryPump(std::string stats_json, std::string flight_json,
                int stats_port)
      : stats_json_(std::move(stats_json)),
        flight_json_(std::move(flight_json)) {
    if (stats_port >= 0) open_listener(stats_port);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { loop(); });
  }
  ~TelemetryPump() { stop(); }

  void stop() {
    if (!running_.exchange(false)) return;
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Final dump: the file must reflect the workload's end state, not the
    // last 1-second tick.
    if (!stats_json_.empty()) write_file_atomic(stats_json_, registry_json());
    if (g_dump_flight.exchange(0) != 0 && !flight_json_.empty()) {
      write_file_atomic(flight_json_,
                        mocha::live::FlightRecorder::to_json_lines(
                          mocha::live::FlightRecorder::snapshot()));
    }
  }

  // Bound TCP port (differs from the flag with --stats-port 0); 0 when the
  // listener could not be created.
  std::uint16_t port() const { return port_; }

 private:
  void open_listener(int port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return;
    const int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      port_ = ntohs(bound.sin_port);
    }
  }

  void loop() {
    std::int64_t next_dump_us = 0;
    while (running_.load(std::memory_order_acquire)) {
      if (listen_fd_ >= 0) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 50) > 0) serve_one();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (g_dump_flight.exchange(0) != 0 && !flight_json_.empty()) {
        write_file_atomic(flight_json_,
                          mocha::live::FlightRecorder::to_json_lines(
                          mocha::live::FlightRecorder::snapshot()));
      }
      const std::int64_t now = mocha::live::Clock::monotonic().now_us();
      if (!stats_json_.empty() && now >= next_dump_us) {
        write_file_atomic(stats_json_, registry_json());
        next_dump_us = now + 1'000'000;
      }
    }
  }

  void serve_one() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    const std::string body = registry_json();
    std::size_t off = 0;
    while (off < body.size()) {
      const ssize_t n = ::send(fd, body.data() + off, body.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }

  std::string stats_json_;
  std::string flight_json_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// One hosted lock-directory shard: endpoint + reactor-driven server + home
// replica daemon.
struct ShardHost {
  std::uint32_t shard = 0;
  std::unique_ptr<mocha::live::Endpoint> endpoint;
  std::unique_ptr<mocha::live::LockServer> server;
  std::unique_ptr<mocha::live::DaemonService> daemon;
};

int run_server(const Args& args) {
  const auto shard_count =
      static_cast<std::uint32_t>(std::max(1, args.shards));
  const auto fixed_addrs = parse_shard_addrs(args.shard_addrs);
  if (args.shard_id >= 0 &&
      (fixed_addrs.size() != shard_count ||
       static_cast<std::uint32_t>(args.shard_id) >= shard_count)) {
    std::fprintf(stderr,
                 "--shard-id requires --shards N and --shard-addrs with "
                 "exactly N entries\n");
    return 64;
  }

  // Shards hosted by THIS process: all of them (single-process --shards N)
  // or exactly one (--shard-id K in a multi-process deployment).
  std::vector<std::uint32_t> hosted;
  if (args.shard_id >= 0) {
    hosted.push_back(static_cast<std::uint32_t>(args.shard_id));
  } else {
    for (std::uint32_t s = 0; s < shard_count; ++s) hosted.push_back(s);
  }

  const mocha::live::BulkBackend bulk_kind = resolve_bulk_backend(args);
  std::vector<ShardHost> shards;
  shards.reserve(hosted.size());
  for (const std::uint32_t s : hosted) {
    std::uint16_t port = 0;
    if (!fixed_addrs.empty()) {
      port = fixed_addrs[s].second;
    } else if (args.port != 0) {
      port = static_cast<std::uint16_t>(args.port + static_cast<int>(s));
    }
    ShardHost host;
    host.shard = s;
    host.endpoint = std::make_unique<mocha::live::Endpoint>(
        mocha::live::shard_node(s), port, make_endpoint_options(args, s));
    shards.push_back(std::move(host));
  }

  // The deployment-wide shard map every shard serves to registering
  // clients. Hosted shards advertise --advertise + their bound port; with
  // --shard-addrs the whole map is fixed up front.
  std::vector<mocha::live::ShardMap::Entry> entries;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    mocha::live::ShardMap::Entry entry;
    entry.shard = s;
    entry.node = mocha::live::shard_node(s);
    std::string host = args.advertise;
    if (!fixed_addrs.empty()) {
      host = fixed_addrs[s].first;
      entry.udp_port = fixed_addrs[s].second;
    } else {
      for (const ShardHost& hosted_shard : shards) {
        if (hosted_shard.shard == s) {
          entry.udp_port = hosted_shard.endpoint->udp_port();
        }
      }
    }
    in_addr ip{};
    if (::inet_pton(AF_INET, host.c_str(), &ip) == 1) {
      entry.ipv4 = ip.s_addr;  // network byte order
    }
    entries.push_back(entry);
  }
  const mocha::live::ShardMap shard_map(entries);

  for (ShardHost& host : shards) {
    mocha::live::LockServerOptions opts;
    opts.lease_grace_us = args.lease_grace_us;
    opts.shard_id = host.shard;
    host.server =
        std::make_unique<mocha::live::LockServer>(*host.endpoint, opts);
    host.server->set_shard_map(shard_map);
    host.server->start();
    host.daemon = std::make_unique<mocha::live::DaemonService>(*host.endpoint,
                                                               bulk_kind);
    host.daemon->start();
  }

  // Transfer workload sink: discard payloads pushed to shard 0's transfer
  // port on arrival so they do not pile up in the delivery queue.
  shards.front().endpoint->set_port_handler(
      kTransferPort, [](mocha::live::Endpoint::Message) {});

  if (!args.ready_file.empty()) {
    std::ofstream ready(args.ready_file);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      ready << (i == 0 ? "" : " ") << shards[i].endpoint->udp_port();
    }
    ready << "\n";
  }
  if (!args.quiet) {
    for (const ShardHost& host : shards) {
      std::printf("mocha_live server: shard %u (node %u) on udp port %u\n",
                  host.shard, host.endpoint->node(),
                  host.endpoint->udp_port());
    }
    std::fflush(stdout);
  }
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Exit-time stats: snapshot every shard's counters BEFORE teardown.
  // stop() joins threads and the linger below can eat seconds, during which
  // a second SIGTERM (an impatient supervisor) would kill the process with
  // the final JSON unwritten or half-written. The snapshot is complete: the
  // workload stopped before the signal, and the 50ms poll gap above let each
  // reactor drain its queue.
  mocha::live::LockServer::Stats total;
  mocha::live::DaemonService::Stats daemon_total;
  std::vector<mocha::live::LockServer::Stats> per_shard;
  std::vector<mocha::live::DaemonService::Stats> per_daemon;
  for (const ShardHost& host : shards) {
    const auto stats = host.server->stats();
    const auto daemon_stats = host.daemon->stats();
    total.grants += stats.grants;
    total.releases += stats.releases;
    total.locks_broken += stats.locks_broken;
    total.registrations += stats.registrations;
    total.shard_map_requests += stats.shard_map_requests;
    daemon_total.transfers_served += daemon_stats.transfers_served;
    daemon_total.transfers_applied += daemon_stats.transfers_applied;
    daemon_total.bulk_fast_served += daemon_stats.bulk_fast_served;
    daemon_total.bulk_fallbacks += daemon_stats.bulk_fallbacks;
    per_shard.push_back(stats);
    per_daemon.push_back(daemon_stats);
  }

  if (!args.stats_file.empty()) {
    std::ofstream out(args.stats_file);
    // Aggregate keys first (existing consumers), then the per-shard array.
    out << "{\n"
        << "  \"grants\": " << total.grants << ",\n"
        << "  \"releases\": " << total.releases << ",\n"
        << "  \"locks_broken\": " << total.locks_broken << ",\n"
        << "  \"registrations\": " << total.registrations << ",\n"
        << "  \"shard_map_requests\": " << total.shard_map_requests << ",\n"
        << "  \"transfers_served\": " << daemon_total.transfers_served
        << ",\n"
        << "  \"transfers_applied\": " << daemon_total.transfers_applied
        << ",\n"
        << "  \"bulk_backend\": \""
        << mocha::live::bulk_backend_name(bulk_kind) << "\",\n"
        << "  \"bulk_fast_served\": " << daemon_total.bulk_fast_served
        << ",\n"
        << "  \"bulk_fallbacks\": " << daemon_total.bulk_fallbacks << ",\n"
        << "  \"shards\": [\n";
    for (std::size_t i = 0; i < per_shard.size(); ++i) {
      const auto& s = per_shard[i];
      out << "    {\"shard\": " << s.shard_id
          << ", \"grants\": " << s.grants
          << ", \"releases\": " << s.releases
          << ", \"locks_broken\": " << s.locks_broken
          << ", \"registrations\": " << s.registrations
          << ", \"shard_map_requests\": " << s.shard_map_requests
          << ", \"queued_waiters\": " << s.queued_waiters
          << ", \"active_leases\": " << s.active_leases
          << ", \"reactor_iterations\": " << s.reactor_iterations
          << ", \"reactor_timers_fired\": " << s.reactor_timers_fired
          << ", \"max_epoll_batch\": " << s.max_epoll_batch
          << ", \"transfers_served\": " << per_daemon[i].transfers_served
          << ", \"transfers_applied\": " << per_daemon[i].transfers_applied
          << ", \"bulk_fast_served\": " << per_daemon[i].bulk_fast_served
          << ", \"bulk_fallbacks\": " << per_daemon[i].bulk_fallbacks
          << "}" << (i + 1 < per_shard.size() ? "," : "") << "\n";
    }
    out << "  ]\n"
        << "}\n";
  }

  for (ShardHost& host : shards) {
    host.daemon->stop();
    host.server->stop();
  }

  // Pre-exit linger, multi-shard audit fix: EVERY shard's retransmit queues
  // must drain before the process exits (a final GRANT can sit in any
  // shard's window), all under one shared deadline so a wedged shard cannot
  // multiply the worst-case linger by the shard count.
  const std::int64_t flush_deadline =
      mocha::live::Clock::monotonic().now_us() +
      static_cast<std::int64_t>(2'000'000LL * time_scale());
  for (ShardHost& host : shards) {
    std::int64_t remaining =
        flush_deadline - mocha::live::Clock::monotonic().now_us();
    if (remaining <= 0) break;
    // Satellite of the §10 hybrid transport: cached TCP bulk connections get
    // a FIN + bounded linger under the SAME deadline, so unacked frames reach
    // the peer before exit without extending the worst-case shutdown.
    host.daemon->drain_bulk(remaining);
    remaining = flush_deadline - mocha::live::Clock::monotonic().now_us();
    if (remaining <= 0) break;
    host.endpoint->flush(remaining);
  }

  if (!args.quiet) {
    std::printf(
        "mocha_live server: %llu grants, %llu releases, %llu broken locks "
        "across %zu shard(s)\n",
        static_cast<unsigned long long>(total.grants),
        static_cast<unsigned long long>(total.releases),
        static_cast<unsigned long long>(total.locks_broken), shards.size());
  }
  return 0;
}

// Non-atomic read-increment-write guarded only by the distributed lock: a
// mutual-exclusion violation shows up as a lost update (final counter value
// below the total number of rounds).
bool bump_counter(const std::string& path) {
  long long value = 0;
  {
    std::ifstream in(path);
    if (in) in >> value;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << value + 1 << "\n";
  return static_cast<bool>(out);
}

// Percentile over a sorted vector (nearest-rank on the scaled index).
double percentile_us(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]);
}

// Transfer workload: --rounds messages of --bytes each, spread over
// --concurrency streams, each measured as one send_sync round trip
// (fragmentation + loss recovery + transport ack). This is the live twin of
// the sim's lossy-WAN transfer benches (bench_fig12/fig14).
int run_transfer(const Args& args, mocha::live::Endpoint& endpoint) {
  const int concurrency = std::max(1, args.concurrency);
  // Generous per-message deadline: the full backed-off retry schedule.
  const std::int64_t timeout_us = endpoint.retry_schedule_us() + 2'000'000;

  std::vector<std::int64_t> latencies_us;
  latencies_us.reserve(args.rounds);
  std::uint64_t failures = 0;
  std::mutex mu;
  std::atomic<std::uint64_t> next_round{0};

  const std::int64_t t_start = mocha::live::Clock::monotonic().now_us();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      mocha::util::Buffer payload(args.bytes);
      for (auto& b : payload) b = static_cast<std::uint8_t>(w);
      while (next_round.fetch_add(1) < args.rounds && !g_stop) {
        const std::int64_t t0 = mocha::live::Clock::monotonic().now_us();
        const mocha::util::Status status = endpoint.send_sync(
            kServerNode, kTransferPort, payload, timeout_us);
        const std::int64_t dt = mocha::live::Clock::monotonic().now_us() - t0;
        std::lock_guard<std::mutex> lock(mu);
        if (status.is_ok()) {
          latencies_us.push_back(dt);
        } else {
          ++failures;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const std::int64_t elapsed_us =
      mocha::live::Clock::monotonic().now_us() - t_start;

  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50 = percentile_us(latencies_us, 0.50);
  const double p99 = percentile_us(latencies_us, 0.99);
  double sum = 0;
  for (std::int64_t v : latencies_us) sum += static_cast<double>(v);
  const double mean = latencies_us.empty()
                          ? 0.0
                          : sum / static_cast<double>(latencies_us.size());
  const double goodput_kbps =
      elapsed_us > 0 ? static_cast<double>(latencies_us.size()) *
                           static_cast<double>(args.bytes) * 8'000.0 /
                           static_cast<double>(elapsed_us)
                     : 0.0;

  if (!args.quiet) {
    std::printf(
        "client %u: %zu/%llu transfers of %llu B in %.1f ms | p50 %.0f us  "
        "p99 %.0f us  mean %.0f us | %.0f kbit/s | %llu retransmissions  "
        "%llu nacks-recv  %llu acks-piggybacked\n",
        args.site, latencies_us.size(),
        static_cast<unsigned long long>(args.rounds),
        static_cast<unsigned long long>(args.bytes),
        static_cast<double>(elapsed_us) / 1000.0, p50, p99, mean,
        goodput_kbps,
        static_cast<unsigned long long>(endpoint.retransmissions()),
        static_cast<unsigned long long>(endpoint.nacks_received()),
        static_cast<unsigned long long>(endpoint.acks_piggybacked()));
  }
  if (!args.bench_json_dir.empty()) {
    std::vector<mocha::util::Metric> metrics = {
        {"p50_latency", p50, "us"},
        {"p99_latency", p99, "us"},
        {"mean_latency", mean, "us"},
        {"goodput", goodput_kbps, "kbit/s"},
        {"retransmissions",
         static_cast<double>(endpoint.retransmissions()), "count"},
        {"nacks_received",
         static_cast<double>(endpoint.nacks_received()), "count"},
        {"failures", static_cast<double>(failures), "count"},
    };
    if (args.baseline_p99_us > 0) {
      metrics.push_back({"baseline_p99_latency",
                         static_cast<double>(args.baseline_p99_us), "us"});
      metrics.push_back(
          {"p99_speedup_vs_fixed_rto",
           p99 > 0 ? static_cast<double>(args.baseline_p99_us) / p99 : 0.0,
           "x"});
    }
    mocha::util::write_bench_json(
        args.bench_name.empty() ? "live_wan" : args.bench_name, metrics,
        args.bench_json_dir);
  }
  return failures == 0 ? 0 : 1;
}

std::vector<std::uint64_t> parse_sizes(const std::string& csv) {
  std::vector<std::uint64_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!token.empty()) sizes.push_back(std::strtoull(token.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

// Deterministic replica contents for (site, round): transfers must reproduce
// these bytes exactly at the other end, so any corruption or stale apply
// shows up in the dump-file comparison.
mocha::util::Buffer make_pattern(std::uint64_t size, std::uint32_t site,
                                 std::uint64_t round) {
  mocha::util::Buffer buf(size);
  for (std::size_t j = 0; j < buf.size(); ++j) {
    buf[j] = static_cast<std::uint8_t>(site * 31 + round * 7 + j * 13 + 5);
  }
  return buf;
}

// Rendezvous on a lock's version number alone: each client bumps it once
// (exclusive acquire + release = version + 1), then polls with shared
// acquires until it reaches `n`. `plain` must be a transfer-less client (no
// daemon attached): version numbers ride in the GRANT itself, so the barrier
// works even when some participants have already exited — which is exactly
// why the replica workload cannot rendezvous over a replicated counter.
bool version_barrier(mocha::live::LockClient& plain,
                     mocha::replica::LockId lock_id, int n) {
  if (!plain.acquire(lock_id).is_ok()) return false;
  if (!plain.release(lock_id).is_ok()) return false;
  while (!g_stop) {
    if (!plain.acquire(lock_id, mocha::replica::LockWireMode::kShared)
             .is_ok()) {
      return false;
    }
    const mocha::replica::Version version = plain.version(lock_id);
    if (!plain.release(lock_id).is_ok()) return false;
    if (version >= static_cast<mocha::replica::Version>(n)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// Replica workload: entry-consistency rounds with a live daemon attached —
// every NEED_NEW_VERSION acquire waits for the bundle the server directs
// the previous owner's daemon to send. The measured latency is the full
// acquire-with-transfer (grant round trip + directive + bundle transfer).
int run_replica(const Args& args, mocha::live::Endpoint& endpoint,
                const mocha::live::ShardMap& shard_map) {
  const std::vector<std::uint64_t> sizes = parse_sizes(args.replica_bytes);
  if (sizes.empty()) {
    std::fprintf(stderr, "--replica-bytes: no sizes parsed\n");
    return 64;
  }
  const double scale = time_scale();

  mocha::live::DaemonService daemon(endpoint, resolve_bulk_backend(args));
  daemon.start();
  mocha::live::LockClientOptions copts;
  copts.grant_timeout_us =
      static_cast<std::int64_t>(10'000'000 * scale);
  copts.transfer_timeout_us =
      static_cast<std::int64_t>(4'000'000 * scale);
  mocha::live::LockClient client(endpoint, kServerNode, copts, &daemon);
  client.set_shard_map(shard_map);

  // Size i rides lock --lock + i; the barrier counter gets its own lock (and
  // is itself a replicated object, so the rendezvous exercises transfers).
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const mocha::replica::LockId lock_id =
        args.lock + static_cast<std::uint32_t>(i);
    client.register_lock(lock_id);
    daemon.register_replica(lock_id, "replica",
                            make_pattern(sizes[i], /*site=*/0, /*round=*/0));
  }

  std::vector<std::vector<std::int64_t>> latencies(sizes.size());
  for (auto& lat : latencies) lat.reserve(args.rounds);
  // Per size: bundles this client pulled, and how many of them came over
  // TCP (the hybrid sweep checks the routing rule with these).
  std::vector<std::uint64_t> pulls(sizes.size(), 0);
  std::vector<std::uint64_t> tcp_pulls(sizes.size(), 0);

  for (std::uint64_t round = 0; round < args.rounds && !g_stop; ++round) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const mocha::replica::LockId lock_id =
          args.lock + static_cast<std::uint32_t>(i);
      const std::uint64_t pulled_before = client.transfers_pulled();
      const std::uint64_t tcp_before =
          daemon.bulk_transport_stats().bundles_received;
      const std::int64_t t0 = mocha::live::Clock::monotonic().now_us();
      mocha::util::Status acquired = client.acquire(lock_id);
      if (!acquired.is_ok()) {
        std::fprintf(stderr,
                     "client %u: replica acquire failed at round %llu: %s\n",
                     args.site, static_cast<unsigned long long>(round),
                     acquired.to_string().c_str());
        return 1;
      }
      latencies[i].push_back(mocha::live::Clock::monotonic().now_us() - t0);
      pulls[i] += client.transfers_pulled() - pulled_before;
      tcp_pulls[i] +=
          daemon.bulk_transport_stats().bundles_received - tcp_before;
      daemon.write(lock_id, "replica",
                   make_pattern(sizes[i], args.site, round + 1));
      if (args.hold_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(args.hold_us));
      }
      mocha::util::Status released = client.release(lock_id);
      if (!released.is_ok()) {
        std::fprintf(stderr,
                     "client %u: replica release failed at round %llu: %s\n",
                     args.site, static_cast<unsigned long long>(round),
                     released.to_string().c_str());
        return 1;
      }
    }
  }

  // Arrival barrier: nobody starts the final sync until every client's
  // rounds are done, so the shared acquires below pull the globally last
  // write. The barrier rides version numbers only (transfer-less client on
  // a disjoint reply-port range) — a replica-based rendezvous would race
  // with process exits.
  mocha::live::LockClientOptions barrier_opts = copts;
  barrier_opts.reply_port_base = 5000;
  mocha::live::LockClient plain(endpoint, kServerNode, barrier_opts);
  plain.set_shard_map(shard_map);
  const mocha::replica::LockId arrive_lock =
      args.lock + static_cast<std::uint32_t>(sizes.size());
  const mocha::replica::LockId depart_lock = arrive_lock + 1;
  if (args.replica_barrier > 0 &&
      !version_barrier(plain, arrive_lock, args.replica_barrier)) {
    std::fprintf(stderr, "client %u: arrival barrier failed\n", args.site);
    return 1;
  }

  // Final shared round: readers pull the newest version without bumping it,
  // leaving every client's daemon with identical bytes for the dump.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const mocha::replica::LockId lock_id =
        args.lock + static_cast<std::uint32_t>(i);
    if (!client.acquire(lock_id, mocha::replica::LockWireMode::kShared)
             .is_ok() ||
        !client.release(lock_id).is_ok()) {
      std::fprintf(stderr, "client %u: final shared sync failed\n", args.site);
      return 1;
    }
  }

  // Departure barrier: every process keeps its daemon serving until all
  // peers finished their final sync — otherwise a slower client's pull
  // could target a daemon whose process already exited.
  if (args.replica_barrier > 0 &&
      !version_barrier(plain, depart_lock, args.replica_barrier)) {
    std::fprintf(stderr, "client %u: departure barrier failed\n", args.site);
    return 1;
  }

  if (!args.replica_dump_file.empty()) {
    std::ofstream out(args.replica_dump_file, std::ios::trunc);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const mocha::replica::LockId lock_id =
          args.lock + static_cast<std::uint32_t>(i);
      const mocha::util::Buffer contents = daemon.read(lock_id, "replica");
      out << sizes[i] << " ";
      for (std::uint8_t byte : contents) {
        static const char* hex = "0123456789abcdef";
        out << hex[byte >> 4] << hex[byte & 0xf];
      }
      out << "\n";
    }
    if (!out) {
      std::fprintf(stderr, "client %u: cannot write %s\n", args.site,
                   args.replica_dump_file.c_str());
      return 1;
    }
  }

  std::vector<mocha::util::Metric> metrics;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::sort(latencies[i].begin(), latencies[i].end());
    const double p50 = percentile_us(latencies[i], 0.50);
    const double p99 = percentile_us(latencies[i], 0.99);
    double sum = 0;
    for (std::int64_t v : latencies[i]) sum += static_cast<double>(v);
    const double mean =
        latencies[i].empty()
            ? 0.0
            : sum / static_cast<double>(latencies[i].size());
    if (!args.quiet) {
      std::printf(
          "client %u: %zu acquires of %llu B replica | p50 %.0f us  "
          "p99 %.0f us  mean %.0f us\n",
          args.site, latencies[i].size(),
          static_cast<unsigned long long>(sizes[i]), p50, p99, mean);
    }
    const std::string suffix = std::to_string(sizes[i]);
    metrics.push_back({"p50_acquire_" + suffix, p50, "us"});
    metrics.push_back({"p99_acquire_" + suffix, p99, "us"});
    metrics.push_back({"mean_acquire_" + suffix, mean, "us"});
    metrics.push_back(
        {"pulls_" + suffix, static_cast<double>(pulls[i]), "count"});
    metrics.push_back(
        {"tcp_pulls_" + suffix, static_cast<double>(tcp_pulls[i]), "count"});
  }
  metrics.push_back({"transfers_pulled",
                     static_cast<double>(client.transfers_pulled()), "count"});
  metrics.push_back({"transfer_retries",
                     static_cast<double>(client.transfer_retries()), "count"});
  metrics.push_back({"transfer_timeouts",
                     static_cast<double>(client.transfer_timeouts()),
                     "count"});
  metrics.push_back({"retransmissions",
                     static_cast<double>(endpoint.retransmissions()),
                     "count"});
  const auto daemon_stats = daemon.stats();
  metrics.push_back({"bulk_fast_served",
                     static_cast<double>(daemon_stats.bulk_fast_served),
                     "count"});
  metrics.push_back({"bulk_fallbacks",
                     static_cast<double>(daemon_stats.bulk_fallbacks),
                     "count"});
  if (!args.quiet) {
    std::printf(
        "client %u: %llu transfers pulled, %llu retries, %llu timeouts, "
        "%llu retransmissions\n",
        args.site, static_cast<unsigned long long>(client.transfers_pulled()),
        static_cast<unsigned long long>(client.transfer_retries()),
        static_cast<unsigned long long>(client.transfer_timeouts()),
        static_cast<unsigned long long>(endpoint.retransmissions()));
  }
  if (!args.bench_json_dir.empty()) {
    mocha::util::write_bench_json(
        args.bench_name.empty() ? "live_transfer" : args.bench_name, metrics,
        args.bench_json_dir);
  }
  // Linger until the final RELEASE (fire-and-forget) is transport-acked —
  // and any cached TCP bulk connections are FIN-closed — all under ONE
  // shared deadline so bulk drain cannot extend the worst-case shutdown.
  const std::int64_t exit_deadline =
      mocha::live::Clock::monotonic().now_us() +
      static_cast<std::int64_t>(2'000'000LL * time_scale());
  endpoint.flush(exit_deadline - mocha::live::Clock::monotonic().now_us());
  const std::int64_t drain_left =
      exit_deadline - mocha::live::Clock::monotonic().now_us();
  if (drain_left > 0) daemon.drain_bulk(drain_left);
  daemon.stop();
  return 0;
}

// Cumulative Zipf weights over ranks 1..n with exponent s (s = 0 degrades
// to uniform). Shared read-only by every simulated-client thread.
std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf;
  cdf.reserve(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf.push_back(total);
  }
  return cdf;
}

// splitmix64: per-client deterministic stream, so a scenario run reproduces
// its lock-popularity sequence exactly (the runner's correctness math
// depends only on totals, but reproducible skew makes envelope tuning sane).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Interruptible workload-shaping sleep (churn joins, scheduled starts):
// a SIGTERM mid-delay must still exit promptly.
void scenario_sleep_us(std::int64_t duration_us) {
  const std::int64_t deadline =
      mocha::live::Clock::monotonic().now_us() + duration_us;
  while (!g_stop) {
    const std::int64_t left =
        deadline - mocha::live::Clock::monotonic().now_us();
    if (left <= 0) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min<std::int64_t>(left, 50'000)));
  }
}

int run_client(const Args& args) {
  const auto colon = args.server_addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--server-addr must be HOST:PORT\n");
    return 64;
  }
  if (args.start_delay_us > 0) scenario_sleep_us(args.start_delay_us);
  const std::string host = args.server_addr.substr(0, colon);
  const auto server_port = static_cast<std::uint16_t>(
      std::strtoul(args.server_addr.c_str() + colon + 1, nullptr, 10));

  mocha::live::Endpoint endpoint(args.site,
                                 static_cast<std::uint16_t>(args.port),
                                 make_endpoint_options(args));
  endpoint.add_peer(kServerNode, host, server_port);
  if (args.transfer) return run_transfer(args, endpoint);

  // Registration handshake (§9): learn the shard map from the bootstrap
  // shard so every lock routes to its owning shard. A pre-shard server that
  // never answers leaves the map empty — all traffic stays on the bootstrap.
  mocha::live::ShardMap shard_map;
  {
    mocha::live::LockClientOptions probe_opts;
    probe_opts.reply_port_base = 900;  // below the per-client ranges
    mocha::live::LockClient probe(endpoint, kServerNode, probe_opts);
    const mocha::util::Status fetched = probe.fetch_shard_map(
        static_cast<std::int64_t>(5'000'000 * time_scale()));
    if (fetched.is_ok()) {
      shard_map = probe.shard_map();
    } else if (!args.quiet) {
      std::fprintf(stderr,
                   "client %u: shard-map fetch failed (%s); routing all "
                   "locks to the bootstrap server\n",
                   args.site, fetched.to_string().c_str());
    }
  }
  if (!args.replica_bytes.empty()) {
    return run_replica(args, endpoint, shard_map);
  }

  const auto mode = args.shared ? mocha::replica::LockWireMode::kShared
                                : mocha::replica::LockWireMode::kExclusive;
  const int clients = std::max(1, args.clients);

  // Scenario workloads (docs/SCENARIOS.md): with --lock-space N > 1 each
  // round draws its lock id from the Zipf CDF instead of using one fixed
  // id per client, so popularity skew (hot-key) is a per-round property.
  const bool zipf_locks = args.lock_space > 1;
  const std::vector<double> cdf =
      zipf_locks ? zipf_cdf(args.lock_space, args.zipf_s)
                 : std::vector<double>{};

  // One simulated client = one LockClient on its own thread; all share the
  // endpoint (one site on the wire) with disjoint reply-port ranges and
  // nonce spaces.
  struct ClientResult {
    std::vector<std::int64_t> latencies_us;
    std::uint64_t rounds_done = 0;
    bool failed = false;
  };
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  const std::int64_t t_start = mocha::live::Clock::monotonic().now_us();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ClientResult& result = results[static_cast<std::size_t>(c)];
      // Churn joins: simulated client c enters the workload c * stagger
      // after the process starts, so the server sees a ramp, not a wall.
      if (args.client_stagger_us > 0) {
        scenario_sleep_us(args.client_stagger_us * c);
      }
      mocha::live::LockClientOptions copts;
      copts.reply_port_base =
          static_cast<mocha::net::Port>(1000 + c * 64);
      copts.nonce_seed = static_cast<std::uint64_t>(copts.reply_port_base)
                         << 32;
      if (args.grant_timeout_us > 0) {
        copts.grant_timeout_us = static_cast<std::int64_t>(
            static_cast<double>(args.grant_timeout_us) * time_scale());
      }
      mocha::live::LockClient client(endpoint, kServerNode, copts);
      client.set_shard_map(shard_map);
      const mocha::replica::LockId fixed_lock =
          args.lock + (args.distinct_locks ? static_cast<std::uint32_t>(c)
                                           : 0u);
      if (!zipf_locks) client.register_lock(fixed_lock);
      std::uint64_t rng = 0x6d6f636861ULL ^
                          (static_cast<std::uint64_t>(args.site) << 32) ^
                          static_cast<std::uint64_t>(c) * 0x9e3779b9ULL;
      result.latencies_us.reserve(args.rounds);
      for (std::uint64_t round = 0; round < args.rounds; ++round) {
        if (g_stop) {
          std::fprintf(stderr, "client %u.%d: interrupted at round %llu\n",
                       args.site, c, static_cast<unsigned long long>(round));
          result.failed = true;
          return;
        }
        mocha::replica::LockId lock_id = fixed_lock;
        if (zipf_locks) {
          const double u =
              static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53 *
              cdf.back();
          const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
          lock_id = args.lock + static_cast<std::uint32_t>(
                                    std::distance(cdf.begin(), it));
        }
        mocha::util::Status acquired = client.acquire(lock_id, mode);
        if (!acquired.is_ok()) {
          std::fprintf(stderr,
                       "client %u.%d: acquire failed at round %llu: %s\n",
                       args.site, c, static_cast<unsigned long long>(round),
                       acquired.to_string().c_str());
          result.failed = true;
          return;
        }
        result.latencies_us.push_back(client.last_grant_latency_us());

        // Mutual-exclusion verification: one counter per lock id
        // (--counter-dir, skewed/distinct workloads) or the historical
        // single shared file (--counter-file). Both are read-increment-
        // write guarded only by the distributed lock, so a double grant
        // shows up as a lost update in the scenario runner's sum.
        std::string counter_path = args.counter_file;
        if (!args.counter_dir.empty()) {
          counter_path =
              args.counter_dir + "/counter_" + std::to_string(lock_id);
        }
        if (!counter_path.empty() && !bump_counter(counter_path)) {
          std::fprintf(stderr, "client %u.%d: cannot update counter file %s\n",
                       args.site, c, counter_path.c_str());
          (void)client.release(lock_id);
          result.failed = true;
          return;
        }
        if (args.hold_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(args.hold_us));
        }
        mocha::util::Status released = client.release(lock_id);
        if (!released.is_ok()) {
          std::fprintf(stderr,
                       "client %u.%d: release failed at round %llu: %s\n",
                       args.site, c, static_cast<unsigned long long>(round),
                       released.to_string().c_str());
          result.failed = true;
          return;
        }
        ++result.rounds_done;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const std::int64_t elapsed_us =
      mocha::live::Clock::monotonic().now_us() - t_start;

  bool failed = false;
  std::uint64_t total_rounds = 0;
  std::vector<std::int64_t> latencies_us;
  for (const ClientResult& result : results) {
    failed = failed || result.failed;
    total_rounds += result.rounds_done;
    latencies_us.insert(latencies_us.end(), result.latencies_us.begin(),
                        result.latencies_us.end());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double p) { return percentile_us(latencies_us, p); };
  double sum = 0;
  for (std::int64_t v : latencies_us) sum += static_cast<double>(v);
  const double mean = latencies_us.empty()
                          ? 0.0
                          : sum / static_cast<double>(latencies_us.size());
  // Aggregate lock throughput over every simulated client in this process.
  const double throughput =
      elapsed_us > 0 ? static_cast<double>(total_rounds) * 1e6 /
                           static_cast<double>(elapsed_us)
                     : 0.0;

  if (!args.quiet) {
    std::printf(
        "client %u: %d client(s), %llu rounds in %.1f ms | acquire p50 %.0f "
        "us  p99 %.0f us  mean %.0f us | %.0f locks/s | %llu "
        "retransmissions\n",
        args.site, clients, static_cast<unsigned long long>(total_rounds),
        static_cast<double>(elapsed_us) / 1000.0, percentile(0.50),
        percentile(0.99), mean, throughput,
        static_cast<unsigned long long>(endpoint.retransmissions()));
  }
  if (!args.latency_dump_file.empty()) {
    std::ofstream dump(args.latency_dump_file, std::ios::trunc);
    for (std::int64_t v : latencies_us) dump << v << "\n";
  }
  if (!args.bench_json_dir.empty()) {
    mocha::util::write_bench_json(
        args.bench_name.empty() ? "live_lock_acquire" : args.bench_name,
        {{"p50_latency", percentile(0.50), "us"},
         {"p99_latency", percentile(0.99), "us"},
         {"mean_latency", mean, "us"},
         {"throughput", throughput, "rounds/s"},
         {"clients", static_cast<double>(clients), "count"}},
        args.bench_json_dir);
  }
  // The last RELEASE is fire-and-forget; don't exit while its retransmit
  // timer may still own delivery (injected loss would strand it).
  endpoint.flush(2'000'000LL * time_scale());
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) || args.server == args.client) {
    return usage(argv[0]);
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_sigusr1);

  const char* stats_dir = std::getenv("MOCHA_STATS_DIR");
  const std::string tag = std::string(args.server ? "server" : "client") +
                          "." + std::to_string(::getpid());
  std::string flight_json = args.flight_json;
  if (flight_json.empty()) {
    // Default SIGUSR1 target: MOCHA_STATS_DIR if set (CI artifact dir),
    // otherwise the working directory.
    flight_json = (stats_dir != nullptr ? std::string(stats_dir) + "/" : "") +
                  "mocha_" + tag + ".flight.jsonl";
  }
  TelemetryPump pump(args.stats_json, flight_json, args.stats_port);
  if (args.stats_port >= 0 && !args.quiet) {
    std::printf("mocha_live %s: stats endpoint on tcp port %u\n",
                args.server ? "server" : "client", pump.port());
    std::fflush(stdout);
  }

  int code = 2;
  try {
    if (args.server) {
      code = run_server(args);
    } else if (args.site < 2) {
      std::fprintf(stderr,
                   "--client requires --site >= 2 (1 is the server)\n");
      code = 64;
    } else {
      code = run_client(args);
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "mocha_live: %s\n", err.what());
    code = 2;
  }
  pump.stop();
  if (stats_dir != nullptr) {
    // The registry and flight rings are process-global, so these exit dumps
    // are complete even though every endpoint is already torn down.
    const std::string base = std::string(stats_dir) + "/mocha_" + tag;
    write_file_atomic(base + ".stats.json", registry_json());
    write_file_atomic(base + ".flight.jsonl",
                      mocha::live::FlightRecorder::to_json_lines(
                          mocha::live::FlightRecorder::snapshot()));
  }
  return code;
}
