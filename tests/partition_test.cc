// Network-partition tests: the paper's §4 failure detectors are
// timeout-based, so a partitioned (but alive) peer is indistinguishable from
// a crashed one — these tests check that the protocol stays *safe* under
// such false suspicion, and recovers liveness when the partition heals.
#include <gtest/gtest.h>

#include "net/mochanet.h"
#include "net/profiles.h"
#include "replica/lock.h"
#include "replica/replica.h"
#include "replica/replica_system.h"
#include "runtime/system.h"
#include "sim/scheduler.h"

namespace mocha {
namespace {

using runtime::Mocha;
using runtime::MochaSystem;
using runtime::SiteId;

replica::ReplicaOptions fast_opts() {
  replica::ReplicaOptions opts;
  opts.marshal_model = serial::MarshalCostModel::zero();
  opts.transfer_timeout = sim::msec(400);
  opts.poll_window = sim::msec(400);
  opts.default_expected_hold = sim::msec(300);
  opts.lease_grace = sim::msec(150);
  opts.lease_check_interval = sim::msec(100);
  opts.heartbeat_timeout = sim::msec(300);
  return opts;
}

TEST(Partition, FabricBlocksCrossTrafficOnly) {
  sim::Scheduler sched;
  net::Network netw(sched, net::NetProfile::instant());
  auto a = netw.add_node("a"), b = netw.add_node("b"), c = netw.add_node("c");
  auto& box_b = netw.bind(b, 9);
  auto& box_c = netw.bind(c, 9);
  netw.partition({a, b});  // c is alone on the other side
  bool b_got = false, c_got = false;
  sched.spawn("recv_b", [&] {
    b_got = box_b.recv_for(sim::msec(50)).has_value();
  });
  sched.spawn("recv_c", [&] {
    c_got = box_c.recv_for(sim::msec(50)).has_value();
  });
  sched.spawn("send", [&] {
    netw.send({.src = a, .dst = b, .src_port = 9, .dst_port = 9,
               .payload = util::Buffer{1}});
    netw.send({.src = a, .dst = c, .src_port = 9, .dst_port = 9,
               .payload = util::Buffer{1}});
  });
  sched.run();
  EXPECT_TRUE(b_got);   // same side: delivered
  EXPECT_FALSE(c_got);  // cross traffic: dropped
}

TEST(Partition, HealRestoresDelivery) {
  sim::Scheduler sched;
  net::Network netw(sched, net::NetProfile::instant());
  auto a = netw.add_node("a"), b = netw.add_node("b");
  net::MochaNetEndpoint ep_a(netw, a), ep_b(netw, b);
  netw.partition({a});
  util::Buffer got;
  sched.spawn("recv", [&] { got = ep_b.recv(40).payload; });
  sched.spawn("send", [&] {
    // Sent during the partition; MochaNet retransmission carries it across
    // once the partition heals.
    ep_a.send(b, 40, util::Buffer{42});
  });
  sched.post_at(sim::msec(2), [&] { netw.heal_partition(); });
  sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42);
}

TEST(Partition, FalselySuspectedOwnerCannotCorruptStateAfterHeal) {
  // Site 1 holds the lock when a partition cuts it off from home. The lease
  // breaks (false suspicion: site 1 is alive!) and site 2 proceeds. When the
  // partition heals, site 1's release must be ignored (it is blacklisted)
  // and the counter must reflect only grants the sync thread issued.
  sim::Scheduler sched;
  MochaSystem sys(sched, net::NetProfile::lan());
  sys.add_site("home");
  sys.add_site("s1");
  sys.add_site("s2");
  replica::ReplicaSystem replicas(sys, fast_opts());

  util::Status late_write = util::Status::ok();
  std::int32_t final_value = -1;

  sys.run_at(1, [&](Mocha& mocha) {
    auto r = replica::Replica::create(mocha, "c",
                                      std::vector<std::int32_t>{0}, 3);
    replica::ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock(sim::msec(200)).is_ok());
    r->int_data()[0] = 111;  // a write that will be broken away
    // Partition strikes while holding the lock.
    sys.network().partition({1});
    sched.sleep_for(sim::seconds(3));  // lease breaks meanwhile
    sys.network().heal_partition();
    (void)lk.unlock();  // stale release: home must ignore it
    late_write = lk.lock();  // blacklisted: must be rejected
  });
  sys.run_at(2, [&](Mocha& mocha) {
    sched.sleep_for(sim::msec(100));
    auto r = replica::Replica::attach(mocha, "c");
    ASSERT_TRUE(r.is_ok());
    replica::ReplicaLock lk(1, mocha);
    lk.associate(r.value());
    util::Status s = lk.lock();
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    r.value()->int_data()[0] = 222;
    ASSERT_TRUE(lk.unlock().is_ok());
    sched.sleep_for(sim::seconds(5));
    ASSERT_TRUE(lk.lock().is_ok());
    final_value = r.value()->int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(late_write.code(), util::StatusCode::kRejected);
  EXPECT_EQ(final_value, 222);  // the broken-away write never surfaced
  EXPECT_GE(replicas.sync().locks_broken(), 1u);
}

TEST(Partition, MinoritySideRecoversLivenessAfterHeal) {
  // Site 2 is cut off, its acquire times out; after the heal a fresh acquire
  // succeeds (site 2 was never blacklisted — it held nothing).
  sim::Scheduler sched;
  MochaSystem sys(sched, net::NetProfile::lan());
  sys.add_site("home");
  sys.add_site("s1");
  sys.add_site("s2");
  replica::ReplicaSystem replicas(sys, fast_opts());
  replicas.options().grant_timeout = sim::msec(800);

  bool acquired_after_heal = false;
  sys.run_at(1, [&](Mocha& mocha) {
    replica::Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 3);
  });
  sys.run_at(2, [&](Mocha& mocha) {
    sched.sleep_for(sim::msec(100));
    auto r = replica::Replica::attach(mocha, "c");
    ASSERT_TRUE(r.is_ok());
    replica::ReplicaLock lk(1, mocha);
    lk.associate(r.value());
    sys.network().partition({2});
    util::Status during = lk.lock();
    EXPECT_FALSE(during.is_ok());  // cut off from the sync thread
    sys.network().heal_partition();
    sched.sleep_for(sim::seconds(2));  // let stale retransmissions settle
    util::Status after = lk.lock();
    acquired_after_heal = after.is_ok();
    if (acquired_after_heal) {
      ASSERT_TRUE(lk.unlock().is_ok());
    }
  });
  sched.run_until(sim::seconds(60));
  EXPECT_TRUE(acquired_after_heal);
}

}  // namespace
}  // namespace mocha
