// §5.1 application measurement: the table-setting coordinator's cost of
// keeping its three shared index replicas consistent over the WAN.
//
//   Paper:  marshaling          3 ms
//           lock acquisition   19 ms
//           transfer           44 ms
//           total              66 ms
//
// Reproduced as: a remote GUI site acquires the ReplicaLock guarding the
// three index replicas + comment string right after the home site updated
// them, so the acquisition takes the NEEDNEWVERSION path: GRANT round trip
// (lock acquisition) + daemon-to-thread bundle transfer (transfer), with the
// marshal cost measured at the sending daemon.
#include "bench_common.h"

namespace mocha::bench {
namespace {

struct AppCosts {
  double marshal_ms = -1;
  double lock_ms = -1;
  double transfer_ms = -1;
  double total() const { return marshal_ms + lock_ms + transfer_ms; }
};

AppCosts measure_app_costs(
    const net::NetProfile& profile = net::NetProfile::wan()) {
  World world(profile, 2, net::TransferMode::kBasic);
  AppCosts costs;

  // Home: create the application's shared objects and update them once.
  world.sys->run_at(0, [&](Mocha& mocha) {
    auto flatware = replica::Replica::create(
        mocha, "flatwareIndex", std::vector<std::int32_t>(5), 2);
    auto plates = replica::Replica::create(
        mocha, "plateIndex", std::vector<std::int32_t>(5), 2);
    auto glasses = replica::Replica::create(
        mocha, "glasswareIndex", std::vector<std::int32_t>(5), 2);
    auto text = replica::StringReplica::create(
        mocha, "text", replica::SharedString("Hello World"), 2);
    replica::ReplicaLock lk(1, mocha);
    lk.associate(flatware);
    lk.associate(plates);
    lk.associate(glasses);
    lk.associate(text);
    if (!lk.lock().is_ok()) return;
    flatware->int_data()[0] = 1;
    plates->int_data()[0] = 1;
    glasses->int_data()[0] = 1;
    replica::StringReplica::get(*text).value = "Good Choice";
    (void)lk.unlock();
  });

  // Remote GUI: acquire after the home's update -> full consistency cycle.
  world.sys->run_at(1, [&](Mocha& mocha) {
    world.sched.sleep_for(sim::msec(400));
    auto flatware = replica::Replica::attach(mocha, "flatwareIndex");
    auto plates = replica::Replica::attach(mocha, "plateIndex");
    auto glasses = replica::Replica::attach(mocha, "glasswareIndex");
    auto text = replica::Replica::attach(mocha, "text");
    if (!flatware.is_ok() || !plates.is_ok() || !glasses.is_ok() ||
        !text.is_ok()) {
      return;
    }
    replica::ReplicaLock lk(1, mocha);
    lk.associate(flatware.value());
    lk.associate(plates.value());
    lk.associate(glasses.value());
    lk.associate(text.value());
    world.sched.sleep_for(sim::msec(400));  // until home has released

    if (!lk.lock().is_ok()) return;
    costs.lock_ms = sim::to_ms(lk.last_grant_latency());
    costs.transfer_ms = sim::to_ms(lk.last_transfer_latency());
    (void)lk.unlock();

    // The marshal component, measured the way Fig 8 does: the bundle the
    // sending daemon serialized for this transfer.
    auto& site = *mocha.replica_runtime();
    const sim::Time t0 = world.sched.now();
    util::Buffer bundle = site.daemon().encode(1);
    costs.marshal_ms = sim::to_ms(world.sched.now() - t0);
    benchmark::DoNotOptimize(bundle);
  });
  world.sched.run();
  return costs;
}

void BM_HomeService_ConsistencyCycle(benchmark::State& state) {
  const AppCosts costs = measure_app_costs();
  report_sim_time(state, "home_service_consistency_cycle", costs.total());
  state.counters["marshal_ms"] = costs.marshal_ms;
  state.counters["lock_ms"] = costs.lock_ms;
  state.counters["transfer_ms"] = costs.transfer_ms;
  state.SetLabel("paper: 3+19+44=66 ms");
}
BENCHMARK(BM_HomeService_ConsistencyCycle)->UseManualTime()->Iterations(1);

// The paper's conclusion: "evaluating the system in a more accurate home
// service environment, namely, a Windows 95 PC connected via a cable modem
// to a Unix workstation."
void BM_HomeService_CableModem(benchmark::State& state) {
  const AppCosts costs = measure_app_costs(net::NetProfile::cable_modem());
  report_sim_time(state, "home_service_cable_modem", costs.total());
  state.counters["marshal_ms"] = costs.marshal_ms;
  state.counters["lock_ms"] = costs.lock_ms;
  state.counters["transfer_ms"] = costs.transfer_ms;
}
BENCHMARK(BM_HomeService_CableModem)->UseManualTime()->Iterations(1);

}  // namespace
}  // namespace mocha::bench

int main(int argc, char** argv) {
  const auto costs = mocha::bench::measure_app_costs();
  std::printf("== §5.1: table-setting coordinator consistency cost (WAN) ==\n");
  std::printf("%-18s %10s %10s\n", "component", "paper(ms)", "sim(ms)");
  std::printf("%-18s %10s %10.1f\n", "marshaling", "3", costs.marshal_ms);
  std::printf("%-18s %10s %10.1f\n", "lock acquisition", "19", costs.lock_ms);
  std::printf("%-18s %10s %10.1f\n", "transfer", "44", costs.transfer_ms);
  std::printf("%-18s %10s %10.1f\n", "total", "66", costs.total());
  const auto cable =
      mocha::bench::measure_app_costs(mocha::net::NetProfile::cable_modem());
  std::printf("\n== Conclusion experiment: Win95 PC via cable modem ==\n");
  std::printf("%-18s %10s %10.1f\n", "marshaling", "-", cable.marshal_ms);
  std::printf("%-18s %10s %10.1f\n", "lock acquisition", "-", cable.lock_ms);
  std::printf("%-18s %10s %10.1f\n", "transfer", "-", cable.transfer_ms);
  std::printf("%-18s %10s %10.1f\n", "total", "-", cable.total());
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
