// Tests for synchronization-thread failure recovery — the protocol the paper
// sketches in §4: log the sync thread's state, detect its failure, spawn a
// surrogate, inform the daemons, and let timed-out application threads find
// the surrogate through their local daemon.
#include <gtest/gtest.h>

#include "net/profiles.h"
#include "replica/lock.h"
#include "replica/replica.h"
#include "replica/replica_system.h"
#include "runtime/system.h"
#include "sim/scheduler.h"

namespace mocha::replica {
namespace {

using runtime::Mocha;
using runtime::MochaSystem;
using runtime::SiteId;

struct Fixture {
  sim::Scheduler sched;
  MochaSystem sys;
  ReplicaSystem replicas;

  explicit Fixture(int total_sites = 4)
      : sys(sched, net::NetProfile::lan()),
        replicas(make_sites(sys, total_sites), recovery_opts()) {}

  static MochaSystem& make_sites(MochaSystem& sys, int total) {
    sys.add_site("home");
    for (int i = 1; i < total; ++i) sys.add_site("site" + std::to_string(i));
    return sys;
  }

  static ReplicaOptions recovery_opts() {
    ReplicaOptions opts;
    opts.marshal_model = serial::MarshalCostModel::zero();
    opts.transfer_timeout = sim::msec(400);
    opts.poll_window = sim::msec(400);
    opts.grant_timeout = sim::msec(800);
    opts.default_expected_hold = sim::msec(400);
    opts.lease_grace = sim::msec(200);
    opts.lease_check_interval = sim::msec(100);
    opts.heartbeat_timeout = sim::msec(300);
    opts.enable_sync_recovery = true;
    opts.sync_backup_site = 1;
    opts.sync_probe_interval = sim::msec(300);
    opts.sync_probe_timeout = sim::msec(200);
    opts.sync_probe_misses = 2;
    return opts;
  }

  void at(SiteId site, sim::Duration delay, std::function<void(Mocha&)> body) {
    sys.run_at(site, [this, delay, body = std::move(body)](Mocha& mocha) {
      if (delay > 0) sched.sleep_for(delay);
      body(mocha);
    });
  }

  std::shared_ptr<Replica> attach_retry(Mocha& mocha, const std::string& name) {
    auto r = Replica::attach(mocha, name);
    while (!r.is_ok()) {
      sched.sleep_for(sim::msec(20));
      r = Replica::attach(mocha, name);
    }
    return r.value();
  }
};

TEST(SyncRecovery, NoSpuriousFailoverWhileHomeAlive) {
  Fixture fx;
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(lk.lock().is_ok());
      r->int_data()[0] += 1;
      ASSERT_TRUE(lk.unlock().is_ok());
      fx.sched.sleep_for(sim::msec(500));
    }
  });
  fx.sched.run_until(sim::seconds(10));
  EXPECT_EQ(fx.replicas.sync_incarnations(), 1u);
}

TEST(SyncRecovery, SurrogateTakesOverAfterHomeDies) {
  Fixture fx;
  std::int32_t got = -1;
  // Writer at site 2 establishes version 1 = 42, then home dies.
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{7}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    r->int_data()[0] = 42;
    ASSERT_TRUE(lk.unlock().is_ok());
    fx.sched.sleep_for(sim::msec(300));
    fx.sys.network().kill_node(0);  // the home site dies
  });
  // After the failover, site 3 acquires through the surrogate and still
  // sees version 1 (the data lives at site 2's daemon, not at home).
  fx.at(3, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    fx.sched.sleep_for(sim::seconds(4));  // well past detection + takeover
    util::Status s = lk.lock();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    got = std::as_const(*r).int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run_until(sim::seconds(20));
  EXPECT_EQ(got, 42);
  EXPECT_EQ(fx.replicas.sync_incarnations(), 2u);
  EXPECT_GE(fx.replicas.sync_log().writes, 2u);
}

TEST(SyncRecovery, PendingAcquireRetriesAtSurrogate) {
  Fixture fx;
  bool acquired = false;
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{1}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
  });
  // Home dies just before site 3's acquire is sent; the request goes into
  // the void, the grant times out, and the retry lands on the surrogate.
  fx.sched.post_at(sim::msec(400), [&] { fx.sys.network().kill_node(0); });
  fx.at(3, sim::msec(450), [&](Mocha& mocha) {
    ReplicaLock lk(1, mocha);
    auto r = fx.attach_retry(mocha, "c");  // note: retries until surrogate up
    lk.associate(r);
    util::Status s = lk.lock();
    acquired = s.is_ok();
    if (acquired) {
      ASSERT_TRUE(lk.unlock().is_ok());
    }
  });
  fx.sched.run_until(sim::seconds(30));
  EXPECT_TRUE(acquired);
  EXPECT_EQ(fx.replicas.sync_incarnations(), 2u);
}

TEST(SyncRecovery, ReleaseAcrossFailoverPreservesVersion) {
  Fixture fx;
  std::int32_t got = -1;
  // Site 2 acquires, home dies while the lock is held, site 2 releases to
  // the surrogate (re-routed), site 3 must then see site 2's write.
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{7}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock(/*expected_hold=*/sim::seconds(10)).is_ok());
    r->int_data()[0] = 99;
    fx.sys.network().kill_node(0);  // sync thread dies mid-critical-section
    fx.sched.sleep_for(sim::msec(200));
    ASSERT_TRUE(lk.unlock().is_ok());  // re-routed to the surrogate
  });
  fx.at(3, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    fx.sched.sleep_for(sim::seconds(6));
    util::Status s = lk.lock();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    got = std::as_const(*r).int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run_until(sim::seconds(30));
  EXPECT_EQ(got, 99);
}

TEST(SyncRecovery, BlacklistSurvivesFailover) {
  Fixture fx;
  util::Status late = util::Status::ok();
  // Site 2 dies holding the lock -> blacklisted by the home sync thread.
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock(sim::msec(200)).is_ok());
    fx.sched.sleep_for(sim::msec(100));
    fx.sys.network().kill_node(2);
    // Revive later and try again — after the home has also died and the
    // surrogate took over. The blacklist must have been restored from the
    // log.
    fx.sched.sleep_for(sim::seconds(6));
    fx.sys.network().revive_node(2);
    (void)lk.unlock();
    late = lk.lock();
  });
  fx.sched.post_at(sim::seconds(4), [&] { fx.sys.network().kill_node(0); });
  fx.sched.run_until(sim::seconds(30));
  EXPECT_EQ(late.code(), util::StatusCode::kRejected);
  EXPECT_EQ(fx.replicas.sync_incarnations(), 2u);
}

TEST(SyncRecovery, WatchdogStopsAfterTakeover) {
  Fixture fx;
  fx.at(2, sim::msec(10), [&](Mocha& mocha) {
    Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 4);
    fx.sched.sleep_for(sim::msec(500));
    fx.sys.network().kill_node(0);
  });
  fx.sched.run_until(sim::seconds(10));
  const std::size_t incarnations = fx.replicas.sync_incarnations();
  EXPECT_EQ(incarnations, 2u);
  // Run much longer: no further takeovers, no crash.
  fx.sched.run_until(sim::seconds(60));
  EXPECT_EQ(fx.replicas.sync_incarnations(), incarnations);
}

}  // namespace
}  // namespace mocha::replica
