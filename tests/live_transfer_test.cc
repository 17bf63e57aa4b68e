// Live replica-transfer tests: the sync-directed §3 transfer over real UDP
// sockets (live::DaemonService + live::LockClient + live::LockServer).
//
// In-process tests wire a lock server (node 1) and client sites on the
// loopback interface and exercise the directed transfer, the lastLockOwner
// short-circuit, §4 poll-and-redirect to a survivor's older version (a
// weakened forward) once the owner's endpoint is gone, and the typed
// timeout when no survivor answers.
//
// The multi-process test forks the mocha_live CLI (MOCHA_LIVE_BIN) as one
// server and two --replica-bytes clients ping-ponging an exclusive lock at
// 1 KiB and 256 KiB, then asserts both replica dumps are byte-identical —
// the paper's §3 entry-consistency claim, end to end over real sockets. It
// runs once with the default (hybrid) bulk path and once with pure UDP.
//
// All waits scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes set it).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"

#ifndef MOCHA_LIVE_BIN
#error "MOCHA_LIVE_BIN must point at the mocha_live executable"
#endif

namespace mocha::live {
namespace {

int time_scale() {
  const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
  const int scale = env != nullptr ? std::atoi(env) : 1;
  return scale > 0 ? scale : 1;
}

util::Buffer make_payload(std::size_t n, std::uint8_t seed) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v += 3;
  return buf;
}

constexpr net::NodeId kServer = 1;
constexpr replica::LockId kLock = 7;

// One client process-in-miniature: endpoint + replica daemon + lock client,
// pre-wired to the server's UDP port.
struct Site {
  Site(net::NodeId node, std::uint16_t server_port, LockClientOptions opts)
      : endpoint(node, /*udp_port=*/0),
        daemon(endpoint),
        client(endpoint, kServer, opts, &daemon) {
    endpoint.add_peer(kServer, "127.0.0.1", server_port);
    daemon.start();
  }

  Endpoint endpoint;
  DaemonService daemon;
  LockClient client;
};

LockClientOptions scaled_options() {
  LockClientOptions opts;
  opts.grant_timeout_us = 5'000'000LL * time_scale();
  opts.transfer_timeout_us = 500'000LL * time_scale();
  return opts;
}

TEST(LiveTransfer, PullOnGrantMovesReplicaBytes) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  const util::Buffer written = make_payload(4096, 11);
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  // A: first acquire (version 0 -> VERSIONOK, nothing to pull), write,
  // release at version 1.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  EXPECT_EQ(a.client.transfers_pulled(), 0u);

  // B: NEED_NEW_VERSION grant names A; the server directs A's daemon, which
  // sends the bundle straight to B (it never heard from B before).
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.client.version(kLock), 1u);
  EXPECT_EQ(b.daemon.read(kLock, "replica"), written);
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.client.transfer_retries(), 0u);
  EXPECT_EQ(b.daemon.stats().transfers_applied, 1u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 1u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  server.stop();
}

// lastLockOwner (paper §3): re-acquiring a lock whose newest version is
// already local moves zero data frames — by the owner right after its own
// release, and by the previous puller whose copy is still newest.
TEST(LiveTransfer, LastLockOwnerReacquiresWithoutDataFrames) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), scaled_options());
  Site b(3, server_ep.udp_port(), scaled_options());
  a.daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon.write(kLock, "replica", make_payload(1024, 5));
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // Owner re-acquire: up-to-date set short-circuits to VERSIONOK.
  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  ASSERT_TRUE(a.client.release(kLock).is_ok());
  EXPECT_EQ(a.client.transfers_pulled(), 0u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 0u);
  EXPECT_EQ(a.daemon.stats().transfers_applied, 0u);

  // B pulls once, releases without writing (shared re-read pattern), then
  // re-acquires: its copy is still the newest, so no second transfer.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.daemon.stats().transfers_applied, 1u);
  EXPECT_EQ(a.daemon.stats().transfers_served, 1u);

  server.stop();
}

// A lock server whose failure detector fires within a few hundred ms on
// loopback: a send fails after 3 unacknowledged resends.
EndpointOptions quick_failure_detector() {
  EndpointOptions opts;
  opts.max_retries = 3;
  return opts;
}

// §4 weakened consistency: the owner's node is gone (its endpoint too, so
// nothing acks the directive), the server polls the surviving daemons and
// redirects the most recent version still available — older than the one
// the GRANT names.
TEST(LiveTransfer, WeakenedForwardFromSurvivorWhenOwnerIsGone) {
  Endpoint server_ep(kServer, 0, quick_failure_detector());
  LockServer server(server_ep);
  server.start();

  LockClientOptions opts = scaled_options();
  opts.transfer_timeout_us = 5'000'000LL * time_scale();
  auto a = std::make_unique<Site>(2, server_ep.udp_port(), opts);
  Site b(3, server_ep.udp_port(), opts);
  Site c(4, server_ep.udp_port(), opts);
  for (Site* site : {a.get(), &b, &c}) {
    site->daemon.register_replica(kLock, "replica", util::Buffer{});
  }

  // C writes version 1; A takes it over and writes version 2.
  const util::Buffer older = make_payload(2048, 21);
  ASSERT_TRUE(c.client.acquire(kLock).is_ok());
  c.daemon.write(kLock, "replica", older);
  ASSERT_TRUE(c.client.release(kLock).is_ok());
  ASSERT_TRUE(a->client.acquire(kLock).is_ok());
  EXPECT_EQ(a->client.version(kLock), 1u);
  a->daemon.write(kLock, "replica", make_payload(2048, 33));
  ASSERT_TRUE(a->client.release(kLock).is_ok());
  a.reset();  // A's node dies with version 2

  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.client.version(kLock), 1u);
  EXPECT_EQ(b.client.transfer_retries(), 1u);
  EXPECT_EQ(b.client.transfers_pulled(), 1u);
  EXPECT_EQ(b.client.transfer_timeouts(), 0u);
  EXPECT_EQ(b.daemon.read(kLock, "replica"), older);
  EXPECT_EQ(c.daemon.stats().transfers_served, 2u);  // to A, then to B
  EXPECT_GE(b.daemon.stats().polls_answered, 1u);
  // B publishes on top of what survived; C then takes B's version.
  ASSERT_TRUE(b.client.release(kLock).is_ok());
  ASSERT_TRUE(c.client.acquire(kLock).is_ok());
  EXPECT_EQ(c.client.version(kLock), 2u);
  EXPECT_EQ(c.client.transfer_retries(), 0u);
  ASSERT_TRUE(c.client.release(kLock).is_ok());

  server.stop();
}

// With the owner's endpoint gone and no survivor answering the poll (the
// requester's own daemon is stopped), the window closes with nothing to
// redirect, and acquire() surfaces a typed kTimeout instead of silently
// adopting the version number (the lock is left to the server's lease
// breaker, mirroring the sim).
TEST(LiveTransfer, SurfacesTypedTimeoutWhenTransferNeverArrives) {
  Endpoint server_ep(kServer, 0, quick_failure_detector());
  LockServer server(server_ep);
  server.start();

  LockClientOptions opts = scaled_options();
  opts.transfer_timeout_us = 1'500'000LL * time_scale();
  auto a = std::make_unique<Site>(2, server_ep.udp_port(), opts);
  Site b(3, server_ep.udp_port(), opts);
  a->daemon.register_replica(kLock, "replica", util::Buffer{});
  b.daemon.register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a->client.acquire(kLock).is_ok());
  a->daemon.write(kLock, "replica", make_payload(512, 9));
  ASSERT_TRUE(a->client.release(kLock).is_ok());
  a.reset();
  b.daemon.stop();

  const util::Status status = b.client.acquire(kLock);
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
  EXPECT_NE(status.to_string().find("never arrived"), std::string::npos)
      << status.to_string();
  EXPECT_FALSE(b.client.held(kLock));
  EXPECT_EQ(b.client.transfer_retries(), 0u);
  EXPECT_EQ(b.client.transfer_timeouts(), 1u);
  EXPECT_EQ(b.client.transfers_pulled(), 0u);

  server.stop();
}

// `u32 lock | u64 version | bundle` — the daemon-data-port payload.
util::Buffer data_payload(replica::Version version,
                          const std::vector<std::string>& names,
                          const std::map<std::string, util::Buffer>& contents) {
  std::vector<replica::BundleView> replicas;
  for (const std::string& name : names) {
    replicas.push_back({name, contents.at(name), {}});
  }
  return replica::DaemonCore::encode(kLock, version, replicas);
}

// A bundle cut short on the data port is dropped whole: the names decoded
// before the cut must not overwrite anything, and the daemon keeps applying
// the next valid bundle.
TEST(LiveTransfer, TruncatedBundleChangesNothing) {
  constexpr net::NodeId kDaemonNode = 2;
  constexpr net::NodeId kPeer = 9;
  constexpr net::Port kReplyPort = 77;
  Endpoint daemon_ep(kDaemonNode, 0);
  DaemonService daemon(daemon_ep);
  daemon.start();
  const util::Buffer original = make_payload(64, 1);
  daemon.register_replica(kLock, "a", original);
  daemon.publish(kLock, 3);

  Endpoint peer(kPeer, 0);
  peer.add_peer(kDaemonNode, "127.0.0.1", daemon_ep.udp_port());
  const std::map<std::string, util::Buffer> update{
      {"a", make_payload(64, 7)}, {"b", make_payload(64, 8)}};
  const util::Buffer full = data_payload(4, {"a", "b"}, update);
  // Cut inside "b": "a" decodes completely before the codec error.
  const util::Buffer truncated(full.begin(), full.end() - 10);
  ASSERT_TRUE(peer.send_sync(kDaemonNode, replica::kDaemonDataPort, truncated,
                             5'000'000LL * time_scale())
                  .is_ok());
  daemon_ep.run_on_loop([] {});  // the data-port handler has run

  // A pulled copy shows names, contents and version exactly as before.
  util::Buffer directive;
  replica::TransferReplicaMsg{kLock, 3, kPeer, kReplyPort}.encode(directive);
  peer.send(kDaemonNode, replica::kDaemonPort, std::move(directive));
  auto served = peer.recv_for(kReplyPort, 5'000'000LL * time_scale());
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->payload, data_payload(3, {"a"}, {{"a", original}}));
  EXPECT_EQ(daemon.local_version(kLock), 3u);
  EXPECT_EQ(daemon.transfers_applied(kLock), 0u);

  ASSERT_TRUE(peer.send_sync(kDaemonNode, replica::kDaemonDataPort, full,
                             5'000'000LL * time_scale())
                  .is_ok());
  daemon_ep.run_on_loop([] {});
  EXPECT_EQ(daemon.local_version(kLock), 4u);
  EXPECT_EQ(daemon.read(kLock, "a"), update.at("a"));
  EXPECT_EQ(daemon.read(kLock, "b"), update.at("b"));
  EXPECT_EQ(daemon.transfers_applied(kLock), 1u);
  daemon.stop();
}

// --- Multi-process: forked mocha_live ping-pong with real replica bytes ---

pid_t spawn(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  perror("execv mocha_live");
  _exit(127);
}

int join(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

long long json_int(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  const auto colon = json.find(':', pos);
  if (colon == std::string::npos) return -1;
  return std::stoll(json.substr(colon + 1));
}

// One forked ping-pong run; `backend_args` picks the bulk backend (empty:
// the hybrid default).
void forked_ping_pong(const std::vector<std::string>& backend_args) {
  constexpr long long kRounds = 20;

  char tmpl[] = "/tmp/mocha_live_transfer_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string ready = dir + "/ready";
  const std::string stats = dir + "/stats.json";

  std::vector<std::string> server_args = {
      MOCHA_LIVE_BIN, "--server", "--port",     "0",    "--ready-file",
      ready,          "--stats-file", stats, "--quiet"};
  server_args.insert(server_args.end(), backend_args.begin(),
                     backend_args.end());
  const pid_t server = spawn(server_args);
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::istringstream(slurp(ready)) >> port;
  }
  if (port.empty()) {
    kill(server, SIGKILL);
    join(server);
    FAIL() << "lock server never became ready";
  }

  // Two clients ping-pong the exclusive lock; every handoff moves the
  // replica bundle (1 KiB and 256 KiB sizes) between their daemons.
  std::vector<pid_t> clients;
  std::vector<std::string> dumps;
  for (int i = 0; i < 2; ++i) {
    dumps.push_back(dir + "/replica_dump_" + std::to_string(2 + i));
    std::vector<std::string> args = {
        MOCHA_LIVE_BIN,        "--client",
        "--site",              std::to_string(2 + i),
        "--server-addr",       "127.0.0.1:" + port,
        "--rounds",            std::to_string(kRounds),
        "--replica-bytes",     "1024,262144",
        "--replica-barrier",   "2",
        "--replica-dump-file", dumps.back(),
        "--quiet"};
    args.insert(args.end(), backend_args.begin(), backend_args.end());
    if (i == 0) {
      args.push_back("--bench-json-dir");
      args.push_back(dir);
    }
    clients.push_back(spawn(args));
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(join(clients[i]), 0) << "client site " << 2 + i << " failed";
  }
  kill(server, SIGTERM);
  EXPECT_EQ(join(server), 0);

  // Entry consistency end to end: after the final shared sync both sites
  // must hold byte-identical replicas for every size.
  const std::string dump_a = slurp(dumps[0]);
  const std::string dump_b = slurp(dumps[1]);
  ASSERT_FALSE(dump_a.empty()) << "client 2 wrote no replica dump";
  EXPECT_EQ(dump_a, dump_b) << "replica contents diverged between sites";
  EXPECT_NE(dump_a.find("1024 "), std::string::npos);
  EXPECT_NE(dump_a.find("262144 "), std::string::npos);

  const std::string stats_json = slurp(stats);
  EXPECT_EQ(json_int(stats_json, "locks_broken"), 0);

  const std::string bench = slurp(dir + "/BENCH_live_transfer.json");
  ASSERT_FALSE(bench.empty()) << "BENCH_live_transfer.json not written";
  EXPECT_NE(bench.find("\"p50_acquire_1024\""), std::string::npos);
  EXPECT_NE(bench.find("\"p99_acquire_262144\""), std::string::npos);
  EXPECT_NE(bench.find("\"transfers_pulled\""), std::string::npos);
  EXPECT_GT(json_int(bench, "value"), 0);  // first metric (p50, us)
}

// The hybrid default moves the 256 KiB bundles over TCP; the udp run keeps
// a 190-fragment bundle on the endpoint, so the injected-loss lanes still
// exercise its NACK repair.
TEST(LiveTransfer, ForkedPingPongLeavesByteIdenticalReplicas) {
  {
    SCOPED_TRACE("default bulk backend");
    forked_ping_pong({});
  }
  {
    SCOPED_TRACE("--bulk-backend udp");
    forked_ping_pong({"--bulk-backend", "udp"});
  }
}

}  // namespace
}  // namespace mocha::live
