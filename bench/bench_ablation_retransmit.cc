// Ablation: MochaNet loss recovery — whole-message RTO resend (what a
// simple 1997 user-level library does, and our default) vs selective
// NACK-driven retransmission of just the missing fragments.
//
// Measured: time to deliver a 256K message over a lossy WAN, and the wire
// overhead (retransmitted fragments), across loss rates.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "net/mochanet.h"
#include "net/profiles.h"
#include "sim/scheduler.h"
#include "util/metrics.h"

namespace mocha::bench {
namespace {

struct LossyResult {
  double ms = -1;
  std::uint64_t retransmissions = 0;
};

LossyResult lossy_transfer(double loss, bool selective, std::uint64_t seed) {
  sim::Scheduler sched;
  net::NetProfile profile = net::NetProfile::wan();
  profile.loss_rate = loss;
  profile.mn_rto_us = 150'000;
  profile.mn_nack_delay_us = selective ? 30'000 : 0;
  profile.mn_max_retries = 20;
  net::Network netw(sched, profile, seed);
  auto a = netw.add_node("a"), b = netw.add_node("b");
  net::MochaNetEndpoint ep_a(netw, a), ep_b(netw, b);

  LossyResult result;
  sched.spawn("recv", [&] {
    ep_b.recv(40);
    result.ms = sim::to_ms(sched.now());
  });
  sched.spawn("send", [&] { ep_a.send(b, 40, util::Buffer(256 * 1024)); });
  sched.run();
  result.retransmissions = ep_a.retransmissions();
  return result;
}

LossyResult average(double loss, bool selective) {
  LossyResult total;
  constexpr int kRuns = 5;
  total.ms = 0;
  std::uint64_t retx_sum = 0;
  for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
    LossyResult r = lossy_transfer(loss, selective, seed);
    total.ms += r.ms / kRuns;
    retx_sum += r.retransmissions;
  }
  total.retransmissions = retx_sum / kRuns;
  return total;
}

void BM_Lossy_FullResend(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  const LossyResult r = average(loss, false);
  for (auto _ : state) state.SetIterationTime(r.ms / 1000.0);
  state.counters["sim_ms"] = r.ms;
  state.counters["retx_frags"] = static_cast<double>(r.retransmissions);
  util::write_bench_json(
      "lossy_full_resend_" + std::to_string(state.range(0)),
      {{"sim_time", r.ms, "ms"},
       {"retx_frags", static_cast<double>(r.retransmissions), "fragments"}});
}
BENCHMARK(BM_Lossy_FullResend)
    ->UseManualTime()
    ->Iterations(1)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10);

void BM_Lossy_SelectiveNack(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  const LossyResult r = average(loss, true);
  for (auto _ : state) state.SetIterationTime(r.ms / 1000.0);
  state.counters["sim_ms"] = r.ms;
  state.counters["retx_frags"] = static_cast<double>(r.retransmissions);
  util::write_bench_json(
      "lossy_selective_nack_" + std::to_string(state.range(0)),
      {{"sim_time", r.ms, "ms"},
       {"retx_frags", static_cast<double>(r.retransmissions), "fragments"}});
}
BENCHMARK(BM_Lossy_SelectiveNack)
    ->UseManualTime()
    ->Iterations(1)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10);

}  // namespace
}  // namespace mocha::bench

int main(int argc, char** argv) {
  std::printf(
      "== Ablation: loss recovery for a 256K MochaNet message (WAN) ==\n");
  std::printf("%-8s %18s %12s %18s %12s\n", "loss", "full-resend(ms)",
              "retx frags", "selective(ms)", "retx frags");
  for (int pct : {1, 5, 10}) {
    const auto full = mocha::bench::average(pct / 100.0, false);
    const auto sel = mocha::bench::average(pct / 100.0, true);
    std::printf("%6d%% %18.1f %12llu %18.1f %12llu\n", pct, full.ms,
                static_cast<unsigned long long>(full.retransmissions), sel.ms,
                static_cast<unsigned long long>(sel.retransmissions));
  }
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
