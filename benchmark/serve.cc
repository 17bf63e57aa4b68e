// The serve role: N lock-directory shards in one process, laid out like
// mocha_live's server (shard 0 is node 1, shard k is node 1000 + k, each with
// its own endpoint, reactor-driven LockServer and home replica daemon), but
// built directly on the public live:: API.
#include <arpa/inet.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "live/lock_server.h"
#include "live/shard_map.h"

namespace mocha_bench {

namespace {

struct Shard {
  std::unique_ptr<mocha::live::Endpoint> endpoint;
  std::unique_ptr<mocha::live::LockServer> server;
  std::unique_ptr<mocha::live::DaemonService> daemon;
};

Counters collect(const std::vector<Shard>& shards) {
  Counters out;
  add_process_counters(out);
  double max_batch = 0;
  for (const Shard& shard : shards) {
    const auto stats = shard.server->stats();
    out["grants"] += static_cast<double>(stats.grants);
    out["releases"] += static_cast<double>(stats.releases);
    out["reactor_iterations"] += static_cast<double>(stats.reactor_iterations);
    out["reactor_timers_fired"] +=
        static_cast<double>(stats.reactor_timers_fired);
    max_batch = std::max(max_batch, static_cast<double>(stats.max_epoll_batch));
    const std::string prefix = "shard." + std::to_string(stats.shard_id) + ".";
    add_registry_histogram(prefix + "wait_us", "shard_wait_us", out);
    add_registry_histogram(prefix + "hold_us", "shard_hold_us", out);
    add_endpoint_counters(*shard.endpoint, out);
    add_daemon_counters(*shard.daemon, *shard.endpoint, out);
  }
  out["reactor_max_epoll_batch"] = max_batch;
  return out;
}

}  // namespace

int run_serve(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  std::string error;
  if (!parse_flags(argc, argv, {"shards", "loss-pct", "delay-us", "netem-seed"},
                   flags, error)) {
    std::fprintf(stderr, "mocha_bench serve: %s\n", error.c_str());
    return 2;
  }
  const auto get = [&](const char* name, const char* fallback) {
    auto it = flags.find(name);
    return it == flags.end() ? std::string(fallback) : it->second;
  };
  const int shard_count = std::atoi(get("shards", "1").c_str());
  if (shard_count < 1) {
    std::fprintf(stderr, "mocha_bench serve: --shards must be >= 1\n");
    return 2;
  }
  mocha::live::EndpointOptions opts;
  opts.recv_loss_pct = std::strtod(get("loss-pct", "0").c_str(), nullptr);
  opts.recv_delay_us = std::strtoll(get("delay-us", "0").c_str(), nullptr, 10);
  const std::uint64_t netem_seed =
      std::strtoull(get("netem-seed", "0").c_str(), nullptr, 10);

  std::vector<Shard> shards(static_cast<std::size_t>(shard_count));
  std::vector<mocha::live::ShardMap::Entry> entries;
  in_addr loopback{};
  ::inet_pton(AF_INET, "127.0.0.1", &loopback);
  for (std::uint32_t s = 0; s < shards.size(); ++s) {
    const mocha::net::NodeId node = mocha::live::shard_node(s);
    opts.netem_seed = netem_seed ^ (0x9e3779b97f4a7c15ull * node);
    shards[s].endpoint =
        std::make_unique<mocha::live::Endpoint>(node, 0, opts);
    mocha::live::ShardMap::Entry entry;
    entry.shard = s;
    entry.node = node;
    entry.ipv4 = loopback.s_addr;
    entry.udp_port = shards[s].endpoint->udp_port();
    entries.push_back(entry);
  }
  const mocha::live::ShardMap shard_map(entries);
  for (std::uint32_t s = 0; s < shards.size(); ++s) {
    mocha::live::LockServerOptions server_opts;
    server_opts.shard_id = s;
    shards[s].server = std::make_unique<mocha::live::LockServer>(
        *shards[s].endpoint, server_opts);
    shards[s].server->set_shard_map(shard_map);
    shards[s].server->start();
    shards[s].daemon =
        std::make_unique<mocha::live::DaemonService>(*shards[s].endpoint);
    shards[s].daemon->start();
  }

  std::printf("ready");
  for (const Shard& shard : shards) {
    std::printf(" %u", static_cast<unsigned>(shard.endpoint->udp_port()));
  }
  std::printf("\n");
  std::fflush(stdout);

  std::string command;
  while (std::getline(std::cin, command) && command != "quit") {
    if (command == "stats") {
      std::printf("stats %s\n", encode_counters(collect(shards)).c_str());
      std::fflush(stdout);
    }
  }

  for (Shard& shard : shards) {
    shard.daemon->stop();
    shard.server->stop();
  }
  // The driver has already waited for every release to land; this only
  // drains acks still in flight, under one deadline for all shards.
  const std::int64_t deadline =
      mocha::live::Clock::monotonic().now_us() + 1'000'000;
  for (Shard& shard : shards) {
    const std::int64_t left = deadline - mocha::live::Clock::monotonic().now_us();
    if (left <= 0) break;
    shard.endpoint->flush(left);
  }
  return 0;
}

}  // namespace mocha_bench
