// One in-process grant round on the live runtime: a LockServer and its
// LockClients on two loopback UDP endpoints in this process, each client
// thread acquiring and releasing a lock of its own (no contention, no
// replica data). One iteration is one acquire + release, i.e. ACQUIRE,
// GRANT and RELEASE datagrams with the acks they carry; `grant_us` is the
// mean request-to-GRANT latency.
//
// Unlike the other bench_* binaries this one runs on the wall clock, so it
// prints no paper table and has no golden: it measures the endpoint,
// reactor and wakeup costs of the hot path without the benchmark driver's
// processes. Run:
//
//   ./build/bench/bench_live_grant_round --benchmark_min_time=2
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "live/endpoint.h"
#include "live/lock_client.h"
#include "live/lock_server.h"

namespace mocha::live {
namespace {

constexpr net::NodeId kServerNode = 1;
constexpr net::NodeId kClientNode = 2;

// The server endpoint, its LockServer and the endpoint every client thread
// shares, as the benchmark driver's application threads share their site's.
struct Cluster {
  Endpoint server_endpoint{kServerNode, 0};
  LockServer server{server_endpoint};
  Endpoint client_endpoint{kClientNode, 0};

  Cluster() {
    server.start();
    client_endpoint.add_peer(kServerNode, "127.0.0.1",
                             server_endpoint.udp_port());
  }
};

// Built before a run's threads start and torn down after they joined.
std::unique_ptr<Cluster> g_cluster;

void start_cluster(const benchmark::State&) {
  g_cluster = std::make_unique<Cluster>();
}

void stop_cluster(const benchmark::State&) { g_cluster.reset(); }

void BM_GrantRound(benchmark::State& state) {
  const int thread = state.thread_index();
  LockClientOptions opts;
  opts.reply_port_base = static_cast<net::Port>(1000 + thread * 64);
  opts.nonce_seed = static_cast<std::uint64_t>(opts.reply_port_base) << 32;
  LockClient client(g_cluster->client_endpoint, kServerNode, opts);
  const auto lock_id = static_cast<replica::LockId>(thread + 1);

  double grant_us = 0;
  for (auto _ : state) {
    if (!client.acquire(lock_id).is_ok()) {
      state.SkipWithError("acquire failed");
      break;
    }
    grant_us += static_cast<double>(client.last_grant_latency_us());
    if (!client.release(lock_id).is_ok()) {
      state.SkipWithError("release failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["grant_us"] =
      benchmark::Counter(grant_us, benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_GrantRound)
    ->Setup(start_cluster)
    ->Teardown(stop_cluster)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

}  // namespace
}  // namespace mocha::live

BENCHMARK_MAIN();
