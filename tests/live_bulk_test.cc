// Hybrid bulk-transport tests (§10): the TCP bulk channel with its LRU
// connection cache, the hybrid daemon's routing by bundle size, and the
// bulk contact a site registers (and each directive passes on) that lets
// mixed deployments fall back to the MochaNet-UDP endpoint.
//
// In-process tests drive the channel directly on an endpoint's loop (typed
// kUnavailable / kTimeout on refused and stalled peers, byte-equality round
// trips) and through the full daemon stack (routing by size, fast path vs
// UDP-only fallback, re-serving a refused TCP send on the endpoint). The
// multi-process test forks the mocha_live CLI once per backend
// (--bulk-backend udp / tcp, and the hybrid default) and asserts every run
// leaves byte-identical replicas, with the TCP-capable runs demonstrably
// riding the fast path (bulk_fast_served in the bench JSON).
//
// All waits scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes set it).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"
#include "live/tcp_bulk.h"

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
  for (auto& b : buf) b = v += 7;
  return buf;
}

constexpr net::Port kBundlePort = 61;

// Two loopback endpoints that know each other's UDP addresses — the
// address table the channel resolves peers through.
struct Pair {
  Pair() : a(2, 0), b(3, 0) {
    a.add_peer(3, "127.0.0.1", b.udp_port());
    b.add_peer(2, "127.0.0.1", a.udp_port());
  }
  Endpoint a;
  Endpoint b;
};

// A channel on `ep` whose inbound frames queue up for the test thread.
struct Channel {
  struct Frame {
    net::NodeId src = 0;
    net::Port port = 0;
    util::Buffer payload;
  };

  explicit Channel(Endpoint& endpoint, TcpBulkOptions opts = {})
      : ep(endpoint),
        channel(
            endpoint,
            [this](net::NodeId src, net::Port port, util::Buffer payload) {
              std::lock_guard<std::mutex> lock(mu);
              frames.push_back(Frame{src, port, std::move(payload)});
              cv.notify_all();
            },
            opts) {}

  // Sends on the loop, as the daemon does, and waits for the outcome. A
  // failed send must hand the payload back untouched.
  util::Status send(net::NodeId dst, std::uint16_t contact,
                    const util::Buffer& payload, std::int64_t timeout_us) {
    auto outcome = std::make_shared<std::promise<util::Status>>();
    std::future<util::Status> result = outcome->get_future();
    TcpBulkChannel* ch = &channel;
    ep.run_on_loop([ch, dst, contact, payload, timeout_us, outcome] {
      ch->send_bundle(
          dst, contact, kBundlePort, payload, timeout_us,
          [payload, outcome](util::Status status, util::Buffer back) {
            if (!status.is_ok()) {
              EXPECT_EQ(back, payload);
            }
            outcome->set_value(std::move(status));
          });
    });
    return result.get();
  }

  std::optional<Frame> next(std::int64_t timeout_us) {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::microseconds(timeout_us),
                     [this] { return !frames.empty(); })) {
      return std::nullopt;
    }
    Frame frame = std::move(frames.front());
    frames.pop_front();
    return frame;
  }

  Endpoint& ep;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> frames;
  TcpBulkChannel channel;  // last: its callback uses the members above
};

// A loopback TCP port nothing listens on.
std::uint16_t refused_port() {
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);
  return ntohs(addr.sin_port);
}

TEST(BulkBackendName, ParsesAndNamesAllKinds) {
  EXPECT_EQ(parse_bulk_backend("udp"), BulkBackend::kUdp);
  EXPECT_EQ(parse_bulk_backend("tcp"), BulkBackend::kTcp);
  EXPECT_EQ(parse_bulk_backend("hybrid"), BulkBackend::kHybrid);
  EXPECT_FALSE(parse_bulk_backend("batched-udp").has_value());
  EXPECT_FALSE(parse_bulk_backend("carrier-pigeon").has_value());
  EXPECT_STREQ(bulk_backend_name(BulkBackend::kUdp), "udp");
  EXPECT_STREQ(bulk_backend_name(BulkBackend::kTcp), "tcp");
  EXPECT_STREQ(bulk_backend_name(BulkBackend::kHybrid), "hybrid");
}

TEST(TcpBulk, RoundTripReusesCachedConnection) {
  Pair net;
  Channel tx(net.a);
  Channel rx(net.b);

  const util::Buffer small = make_payload(512, 1);
  const util::Buffer large = make_payload(1 << 20, 2);
  const std::int64_t timeout = 5'000'000LL * time_scale();
  const std::uint16_t contact = rx.channel.contact_port();
  ASSERT_TRUE(tx.send(3, contact, small, timeout).is_ok());
  ASSERT_TRUE(tx.send(3, contact, large, timeout).is_ok());

  auto first = rx.next(timeout);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 2u);
  EXPECT_EQ(first->port, kBundlePort);
  EXPECT_EQ(first->payload, small);
  auto second = rx.next(timeout);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, large);

  // Both frames rode ONE cached connection (the LRU hit, not a redial).
  EXPECT_EQ(tx.channel.cached_connections(), 1u);
  EXPECT_EQ(tx.channel.stats().bundles_sent, 2u);
  EXPECT_EQ(rx.channel.stats().bundles_received, 2u);
}

TEST(TcpBulk, NoContactIsUnavailable) {
  Pair net;
  Channel tx(net.a);
  // Peer 3 never advertised a TCP contact.
  const util::Status status =
      tx.send(3, /*contact=*/0, make_payload(64, 3), 200'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(tx.channel.stats().send_failures, 1u);
}

TEST(TcpBulk, ConnectRefusedIsUnavailable) {
  Pair net;
  Channel tx(net.a);
  const util::Status status = tx.send(3, refused_port(), make_payload(64, 4),
                                      2'000'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable)
      << status.to_string();
  EXPECT_EQ(tx.channel.cached_connections(), 0u);
}

TEST(TcpBulk, StalledPeerYieldsTypedTimeout) {
  Pair net;
  TcpBulkOptions opts;
  opts.send_buffer_bytes = 4096;  // tiny SO_SNDBUF: a stalled reader bites
  Channel tx(net.a, opts);

  // A listener whose accept queue completes the handshake but which never
  // accepts or reads: the frame wedges in flight and the send deadline — a
  // typed kTimeout, not a hang — is the §10 error contract under test.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  const util::Status status = tx.send(3, ntohs(addr.sin_port),
                                      make_payload(8 << 20, 5),
                                      500'000LL * time_scale());
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout) << status.to_string();
  EXPECT_EQ(tx.channel.stats().send_failures, 1u);
  ::close(listener);
}

TEST(TcpBulk, DrainClosesCachedConnections) {
  Pair net;
  Channel tx(net.a);
  Channel rx(net.b);
  const std::uint16_t contact = rx.channel.contact_port();
  const std::int64_t timeout = 5'000'000LL * time_scale();
  ASSERT_TRUE(tx.send(3, contact, make_payload(1024, 6), timeout).is_ok());
  ASSERT_TRUE(rx.next(timeout).has_value());
  ASSERT_EQ(tx.channel.cached_connections(), 1u);

  EXPECT_TRUE(tx.channel.drain(timeout));
  EXPECT_EQ(tx.channel.cached_connections(), 0u);
  // Post-drain sends are refused, not silently queued into a closing cache.
  EXPECT_EQ(tx.send(3, contact, make_payload(64, 7), timeout).code(),
            util::StatusCode::kUnavailable);
}

// --- Negotiation through the full daemon stack ---

constexpr net::NodeId kServer = 1;
constexpr replica::LockId kLock = 7;

struct Site {
  // No `bulk`: the daemon's default (hybrid) routing.
  Site(net::NodeId node, std::uint16_t server_port,
       std::optional<BulkBackend> bulk = std::nullopt)
      : endpoint(node, /*udp_port=*/0),
        daemon(bulk.has_value()
                   ? std::make_unique<DaemonService>(endpoint, *bulk)
                   : std::make_unique<DaemonService>(endpoint)),
        client(endpoint, kServer,
               [] {
                 LockClientOptions opts;
                 opts.grant_timeout_us = 5'000'000LL * time_scale();
                 opts.transfer_timeout_us = 4'000'000LL * time_scale();
                 return opts;
               }(),
               daemon.get()) {
    endpoint.add_peer(kServer, "127.0.0.1", server_port);
    daemon->start();
  }

  Endpoint endpoint;
  std::unique_ptr<DaemonService> daemon;
  LockClient client;
};

TEST(BulkNegotiation, MatchingBackendsServeOverFastPath) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port(), BulkBackend::kTcp);
  Site b(3, server_ep.udp_port(), BulkBackend::kTcp);
  const util::Buffer written = make_payload(262144, 11);
  a.daemon->register_replica(kLock, "replica", util::Buffer{});
  b.daemon->register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon->write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // B's first acquire registered its TCP contact with the server, whose
  // directive passes it on, so A's daemon serves the bundle over TCP bulk.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.daemon->read(kLock, "replica"), written);
  EXPECT_EQ(a.daemon->stats().bulk_fast_served, 1u);
  EXPECT_EQ(a.daemon->stats().bulk_fallbacks, 0u);
  EXPECT_EQ(b.daemon->bulk_caps() & replica::kBulkCapTcp,
            replica::kBulkCapTcp);
  EXPECT_EQ(b.daemon->bulk_transport_stats().bundles_received, 1u);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  EXPECT_TRUE(a.daemon->drain_bulk(2'000'000LL * time_scale()));
  server.stop();
}

TEST(BulkNegotiation, MixedDeploymentFallsBackToUdp) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  // A is UDP-only (an "old binary"); B acquires with the TCP backend
  // enabled.
  Site a(2, server_ep.udp_port(), BulkBackend::kUdp);
  Site b(3, server_ep.udp_port(), BulkBackend::kTcp);
  const util::Buffer written = make_payload(65536, 12);
  a.daemon->register_replica(kLock, "replica", util::Buffer{});
  b.daemon->register_replica(kLock, "replica", util::Buffer{});

  ASSERT_TRUE(a.client.acquire(kLock).is_ok());
  a.daemon->write(kLock, "replica", written);
  ASSERT_TRUE(a.client.release(kLock).is_ok());

  // The transfer still completes — over the MochaNet endpoint, because A
  // has no fast backend to use B's advertised TCP contact with.
  ASSERT_TRUE(b.client.acquire(kLock).is_ok());
  EXPECT_EQ(b.daemon->read(kLock, "replica"), written);
  EXPECT_EQ(a.daemon->stats().bulk_fast_served, 0u);
  EXPECT_EQ(a.daemon->stats().transfers_served, 1u);
  EXPECT_EQ(b.daemon->bulk_transport_stats().bundles_received, 0u);
  // B advertised TCP; A, the "old binary", offers UDP only.
  EXPECT_EQ(b.daemon->bulk_caps() & replica::kBulkCapTcp,
            replica::kBulkCapTcp);
  EXPECT_EQ(a.daemon->bulk_caps(), replica::kBulkCapUdp);
  ASSERT_TRUE(b.client.release(kLock).is_ok());

  server.stop();
}

// --- Hybrid routing by bundle size (the default daemon) ---

TEST(HybridRouting, SmallBundlesStayOnEndpointLargeRideTcp) {
  Endpoint server_ep(kServer, 0);
  LockServer server(server_ep);
  server.start();

  Site a(2, server_ep.udp_port());
  Site b(3, server_ep.udp_port());
  ASSERT_EQ(a.daemon->bulk_backend(), BulkBackend::kHybrid);
  constexpr replica::LockId kSmall = 7;
  constexpr replica::LockId kLarge = 8;
  const util::Buffer small = make_payload(4096, 13);
  const util::Buffer large = make_payload(262144, 14);
  for (Site* site : {&a, &b}) {
    site->daemon->register_replica(kSmall, "replica", util::Buffer{});
    site->daemon->register_replica(kLarge, "replica", util::Buffer{});
  }
  for (const auto& [lock, contents] : {std::pair{kSmall, small},
                                       std::pair{kLarge, large}}) {
    ASSERT_TRUE(a.client.acquire(lock).is_ok());
    a.daemon->write(lock, "replica", contents);
    ASSERT_TRUE(a.client.release(lock).is_ok());
  }

  // 4 KiB: below the crossover, so it leaves as endpoint fragments.
  std::uint64_t frags = a.endpoint.fragments_sent();
  ASSERT_TRUE(b.client.acquire(kSmall).is_ok());
  EXPECT_EQ(a.daemon->stats().bulk_fast_served, 0u);
  EXPECT_GE(a.endpoint.fragments_sent() - frags, 3u);
  EXPECT_EQ(b.daemon->bulk_transport_stats().bundles_received, 0u);
  ASSERT_TRUE(b.client.release(kSmall).is_ok());

  // 256 KiB: over TCP. The endpoint carries only control messages, not
  // the ~190 fragments the bundle would take.
  frags = a.endpoint.fragments_sent();
  ASSERT_TRUE(b.client.acquire(kLarge).is_ok());
  EXPECT_EQ(a.daemon->stats().bulk_fast_served, 1u);
  EXPECT_EQ(a.daemon->stats().bulk_fallbacks, 0u);
  EXPECT_LE(a.endpoint.fragments_sent() - frags, 10u);
  EXPECT_EQ(b.daemon->bulk_transport_stats().bundles_received, 1u);
  ASSERT_TRUE(b.client.release(kLarge).is_ok());

  EXPECT_EQ(a.daemon->stats().transfers_served, 2u);
  for (const auto& [lock, contents] : {std::pair{kSmall, small},
                                       std::pair{kLarge, large}}) {
    EXPECT_EQ(a.daemon->read(lock, "replica"), contents);
    EXPECT_EQ(b.daemon->read(lock, "replica"), contents);
  }
  server.stop();
}

TEST(HybridRouting, RefusedTcpSendIsReservedOnEndpoint) {
  // A serves with the default hybrid daemon; B sends the directive by hand,
  // naming a TCP port nothing listens on, so A's connect is refused.
  Pair net;
  DaemonService a(net.a);
  a.start();
  DaemonService b(net.b, BulkBackend::kUdp);
  b.start();
  const util::Buffer written = make_payload(262144, 15);
  a.register_replica(kLock, "replica", written);
  a.publish(kLock, 1);

  util::Buffer directive;
  replica::TransferReplicaMsg{kLock,
                              1,
                              3,
                              replica::kDaemonDataPort,
                              0,
                              0,
                              replica::kBulkCapUdp | replica::kBulkCapTcp,
                              refused_port()}
      .encode(directive);
  net.b.send(2, replica::kDaemonPort, std::move(directive));
  // Queued behind the directive: answered only if serving it never
  // blocked A's loop.
  constexpr net::Port kReplyPort = 77;
  util::Buffer poll;
  replica::PollVersionMsg{kLock, kReplyPort}.encode(poll);
  net.b.send(2, replica::kDaemonPort, std::move(poll));

  const std::int64_t timeout = 5'000'000LL * time_scale();
  auto report = net.b.recv_for(kReplyPort, timeout);
  ASSERT_TRUE(report.has_value());
  util::WireReader reader(report->payload);
  ASSERT_EQ(reader.u8(), replica::kVersionReport);
  EXPECT_EQ(replica::VersionReportMsg::decode(reader).version, 1u);

  const std::int64_t deadline = Clock::monotonic().now_us() + timeout;
  while (b.local_version(kLock) < 1 && Clock::monotonic().now_us() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(b.local_version(kLock), 1u);
  EXPECT_EQ(b.read(kLock, "replica"), written);
  EXPECT_EQ(a.stats().transfers_served, 1u);
  EXPECT_EQ(a.stats().bulk_fallbacks, 1u);
  EXPECT_EQ(a.stats().bulk_fast_served, 0u);
  EXPECT_EQ(a.bulk_transport_stats().send_failures, 1u);
}

// --- Multi-process A/B: forked mocha_live per backend ---

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

// In write_bench_json output the value follows `"name": "<key>", "value":`.
long long bench_metric(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1;
  return json_int(json.substr(pos), "value");
}

TEST(BulkForked, ABBackendsLeaveByteIdenticalReplicas) {
  // "" runs without --bulk-backend: the hybrid default.
  for (const std::string backend : {"udp", "tcp", ""}) {
    char tmpl[] = "/tmp/mocha_live_bulk_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string ready = dir + "/ready";

    std::vector<std::string> backend_args;
    if (!backend.empty()) backend_args = {"--bulk-backend", backend};
    std::vector<std::string> server_args = {MOCHA_LIVE_BIN, "--server",
                                            "--port",       "0",
                                            "--ready-file", ready,
                                            "--quiet"};
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
      FAIL() << backend << ": lock server never became ready";
    }

    std::vector<pid_t> clients;
    std::vector<std::string> dumps;
    for (int i = 0; i < 2; ++i) {
      dumps.push_back(dir + "/replica_dump_" + std::to_string(2 + i));
      std::vector<std::string> args = {
          MOCHA_LIVE_BIN,        "--client",
          "--site",              std::to_string(2 + i),
          "--server-addr",       "127.0.0.1:" + port,
          "--rounds",            "8",
          "--replica-bytes",     "1024,262144",
          "--replica-barrier",   "2",
          "--replica-dump-file", dumps.back(),
          "--quiet"};
      args.insert(args.end(), backend_args.begin(), backend_args.end());
      if (i == 0) {
        args.push_back("--bench-json-dir");
        args.push_back(dir);
        args.push_back("--bench-name");
        args.push_back("bulk_ab");
      }
      clients.push_back(spawn(args));
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(join(clients[i]), 0)
          << backend << ": client site " << 2 + i << " failed";
    }
    kill(server, SIGTERM);
    EXPECT_EQ(join(server), 0);

    const std::string dump_a = slurp(dumps[0]);
    const std::string dump_b = slurp(dumps[1]);
    ASSERT_FALSE(dump_a.empty())
        << backend << ": client 2 wrote no replica dump";
    EXPECT_EQ(dump_a, dump_b)
        << backend << ": replica contents diverged between sites";
    EXPECT_NE(dump_a.find("262144 "), std::string::npos);

    // The backends must not just all "work": the tcp run must actually ride
    // the fast path, the hybrid run only for the 256 KiB bundles, and the
    // udp control run must never touch it.
    const std::string bench = slurp(dir + "/BENCH_bulk_ab.json");
    ASSERT_FALSE(bench.empty()) << backend << ": bench JSON not written";
    const long long fast = bench_metric(bench, "bulk_fast_served");
    if (backend == "udp") {
      EXPECT_EQ(fast, 0) << backend << ": udp run used a fast backend";
    } else {
      EXPECT_GT(fast, 0) << backend << ": fast path never served a pull";
    }
    if (backend.empty()) {
      EXPECT_EQ(bench_metric(bench, "tcp_pulls_1024"), 0);
      EXPECT_EQ(bench_metric(bench, "tcp_pulls_262144"),
                bench_metric(bench, "pulls_262144"));
    }
  }
}

}  // namespace
}  // namespace mocha::live
