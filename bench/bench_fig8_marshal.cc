// Figure 8: Time to marshal Replicas into a byte array, milliseconds.
//
// The paper measured JDK 1.1 generic serialization on a SUN ULTRA 1:
// dynamic arrays, one byte at a time, interpreted — "somewhat expensive for
// large replicas". Our jdk11 cost model reproduces that curve; the replica
// payload really is encoded (the cost model only sets the virtual time).
#include "bench_common.h"

namespace mocha::bench {
namespace {

double marshal_ms(std::size_t bytes, const serial::MarshalCostModel& model) {
  replica::ReplicaOptions ropts;
  ropts.marshal_model = model;
  World world(net::NetProfile::lan(), 2, net::TransferMode::kBasic, ropts);
  double elapsed_ms = -1.0;
  world.sys->run_at(0, [&](Mocha& mocha) {
    auto r = replica::Replica::create(mocha, "m", util::Buffer(bytes), 2);
    replica::ReplicaLock lk(1, mocha);
    lk.associate(r);
    auto& site = *mocha.replica_runtime();
    const sim::Time t0 = world.sched.now();
    util::Buffer bundle = site.daemon().encode(1);
    elapsed_ms = sim::to_ms(world.sched.now() - t0);
    benchmark::DoNotOptimize(bundle);
  });
  world.sched.run();
  return elapsed_ms;
}

void BM_Marshal_JDK11(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const double ms = marshal_ms(bytes, serial::MarshalCostModel::jdk11());
  report_sim_time(state, "fig8_marshal_jdk11_" + std::to_string(bytes), ms);
}
BENCHMARK(BM_Marshal_JDK11)
    ->UseManualTime()
    ->Iterations(1)
    ->Arg(1 << 10)
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->Arg(128 << 10)
    ->Arg(256 << 10);

}  // namespace
}  // namespace mocha::bench

int main(int argc, char** argv) {
  std::printf("== Figure 8: time to marshal replicas (JDK 1.1 path) ==\n");
  std::printf("%-12s %12s\n", "replica size", "sim(ms)");
  for (std::size_t kb : {1, 4, 16, 64, 128, 256}) {
    std::printf("%9zu KB %12.1f\n", kb,
                mocha::bench::marshal_ms(
                    kb * 1024, mocha::serial::MarshalCostModel::jdk11()));
  }
  std::printf("(shape check: ~1 us/byte + ~1 ms fixed; grows linearly)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
