// Tests for the shared (read-only) lock extension (paper §3: "It can easily
// be modified to support shared (i.e., read-only) locks").
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
        replicas(make_sites(sys, total_sites), fast_opts()) {}

  static MochaSystem& make_sites(MochaSystem& sys, int total) {
    sys.add_site("home");
    for (int i = 1; i < total; ++i) sys.add_site("site" + std::to_string(i));
    return sys;
  }

  static ReplicaOptions fast_opts() {
    ReplicaOptions opts;
    opts.marshal_model = serial::MarshalCostModel::zero();
    opts.transfer_timeout = sim::msec(400);
    opts.poll_window = sim::msec(400);
    opts.default_expected_hold = sim::msec(400);
    opts.lease_grace = sim::msec(200);
    opts.lease_check_interval = sim::msec(100);
    opts.heartbeat_timeout = sim::msec(300);
    return opts;
  }

  void at(SiteId site, sim::Duration delay, std::function<void(Mocha&)> body) {
    sys.run_at(site, [this, delay, body = std::move(body)](Mocha& mocha) {
      if (delay > 0) sched.sleep_for(delay);
      body(mocha);
    });
  }

  // Creates the shared object at home at t=0.
  void create_counter(std::int32_t initial = 0) {
    at(0, 0, [initial](Mocha& mocha) {
      auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{initial},
                               4);
      ReplicaLock lk(1, mocha);
      lk.associate(r);
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

TEST(ReadLock, ReadersOverlapInTime) {
  Fixture fx;
  fx.create_counter();
  int concurrent = 0;
  int max_concurrent = 0;
  for (SiteId s = 1; s <= 3; ++s) {
    fx.at(s, sim::msec(10 * s), [&](Mocha& mocha) {
      auto r = fx.attach_retry(mocha, "c");
      ReplicaLock lk(1, mocha);
      lk.associate(r);
      ASSERT_TRUE(lk.lock_shared().is_ok());
      max_concurrent = std::max(max_concurrent, ++concurrent);
      fx.sched.sleep_for(sim::msec(200));  // hold long enough to overlap
      --concurrent;
      ASSERT_TRUE(lk.unlock().is_ok());
    });
  }
  fx.sched.run();
  EXPECT_EQ(max_concurrent, 3);  // all three readers held simultaneously
}

TEST(ReadLock, WriterExcludesReaders) {
  Fixture fx;
  fx.create_counter();
  bool writer_holding = false;
  bool violation = false;
  fx.at(1, sim::msec(10), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    writer_holding = true;
    fx.sched.sleep_for(sim::msec(300));
    writer_holding = false;
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  for (SiteId s = 2; s <= 3; ++s) {
    fx.at(s, sim::msec(50), [&](Mocha& mocha) {
      auto r = fx.attach_retry(mocha, "c");
      ReplicaLock lk(1, mocha);
      lk.associate(r);
      ASSERT_TRUE(lk.lock_shared().is_ok());
      if (writer_holding) violation = true;
      ASSERT_TRUE(lk.unlock().is_ok());
    });
  }
  fx.sched.run();
  EXPECT_FALSE(violation);
}

TEST(ReadLock, ReadersExcludeWriter) {
  Fixture fx;
  fx.create_counter();
  int readers_in = 0;
  bool violation = false;
  for (SiteId s = 1; s <= 2; ++s) {
    fx.at(s, sim::msec(10), [&](Mocha& mocha) {
      auto r = fx.attach_retry(mocha, "c");
      ReplicaLock lk(1, mocha);
      lk.associate(r);
      ASSERT_TRUE(lk.lock_shared().is_ok());
      ++readers_in;
      fx.sched.sleep_for(sim::msec(300));
      --readers_in;
      ASSERT_TRUE(lk.unlock().is_ok());
    });
  }
  fx.at(3, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    if (readers_in != 0) violation = true;
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  EXPECT_FALSE(violation);
}

TEST(ReadLock, ReaderSeesLatestWrite) {
  Fixture fx;
  std::int32_t got = -1;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    r->int_data()[0] = 99;
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.at(1, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared().is_ok());
    got = std::as_const(*r).int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  EXPECT_EQ(got, 99);
}

TEST(ReadLock, WriteUnderSharedLockThrows) {
  Fixture fx;
  bool threw = false;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 2);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared().is_ok());
    try {
      r->int_data()[0] = 1;  // mutable accessor under a read lock
    } catch (const EntryConsistencyError&) {
      threw = true;
    }
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  EXPECT_TRUE(threw);
}

TEST(ReadLock, ConstReadAllowedUnderSharedLock) {
  Fixture fx;
  std::int32_t got = -1;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{5}, 2);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared().is_ok());
    got = std::as_const(*r).int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  EXPECT_EQ(got, 5);
}

TEST(ReadLock, SharedReleaseDoesNotBumpVersion) {
  Fixture fx;
  Version after_write = 0, after_read = 0;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 2);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    ASSERT_TRUE(lk.unlock().is_ok());
    after_write = lk.version();
    ASSERT_TRUE(lk.lock_shared().is_ok());
    ASSERT_TRUE(lk.unlock().is_ok());
    after_read = lk.version();
  });
  fx.sched.run();
  EXPECT_EQ(after_write, 1u);
  EXPECT_EQ(after_read, 1u);
}

TEST(ReadLock, ReaderJoinsUpToDateSet) {
  // After reading, a site holds the current version: its next acquire (and
  // even a subsequent writer re-acquire elsewhere) avoids transfers.
  Fixture fx;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{0}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    r->int_data()[0] = 1;
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.at(1, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    // First read pulls the data...
    ASSERT_TRUE(lk.lock_shared().is_ok());
    ASSERT_TRUE(lk.unlock().is_ok());
    // ...second read needs no transfer.
    ASSERT_TRUE(lk.lock_shared().is_ok());
    EXPECT_EQ(lk.last_transfer_latency(), 0u);
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  std::uint64_t transfers = 0;
  for (SiteId s = 0; s < 4; ++s) {
    transfers += fx.replicas.site_runtime(s).transfers_served();
  }
  EXPECT_EQ(transfers, 1u);  // exactly the first read's pull
}

TEST(ReadLock, FifoPreventsWriterStarvation) {
  // Queue order: R1 (active), W, R2. R2 must wait for W even though a reader
  // is active when it asks.
  Fixture fx;
  fx.create_counter();
  std::vector<std::string> order;
  fx.at(1, sim::msec(10), [&](Mocha& mocha) {  // long-lived reader
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared().is_ok());
    fx.sched.sleep_for(sim::msec(400));
    ASSERT_TRUE(lk.unlock().is_ok());
    order.push_back("r1-done");
  });
  fx.at(2, sim::msec(100), [&](Mocha& mocha) {  // writer queued behind r1
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    order.push_back("writer");
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.at(3, sim::msec(200), [&](Mocha& mocha) {  // reader queued behind writer
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared().is_ok());
    order.push_back("r2");
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  std::vector<std::string> expected{"r1-done", "writer", "r2"};
  EXPECT_EQ(order, expected);
}

TEST(ReadLock, ReaderCrashDoesNotBlockWriter) {
  Fixture fx;
  fx.create_counter();
  bool writer_ok = false;
  fx.at(1, sim::msec(10), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock_shared(sim::msec(200)).is_ok());
    fx.sys.network().kill_node(1);  // die while reading
    fx.sched.sleep_for(sim::seconds(3600));
  });
  fx.at(2, sim::msec(100), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    util::Status s = lk.lock();
    writer_ok = s.is_ok();
    if (writer_ok) {
      ASSERT_TRUE(lk.unlock().is_ok());
    }
  });
  fx.sched.run_until(sim::seconds(60));
  EXPECT_TRUE(writer_ok);
  EXPECT_GE(fx.replicas.sync().locks_broken(), 1u);
}

TEST(ReadLock, ManyReadersThenWriterConverges) {
  Fixture fx;
  std::int32_t final_value = -1;
  fx.at(0, 0, [&](Mocha& mocha) {
    auto r = Replica::create(mocha, "c", std::vector<std::int32_t>{10}, 4);
    ReplicaLock lk(1, mocha);
    lk.associate(r);
  });
  std::vector<std::int32_t> reads;
  for (SiteId s = 1; s <= 3; ++s) {
    fx.at(s, sim::msec(10), [&](Mocha& mocha) {
      auto r = fx.attach_retry(mocha, "c");
      ReplicaLock lk(1, mocha);
      lk.associate(r);
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(lk.lock_shared().is_ok());
        reads.push_back(std::as_const(*r).int_data()[0]);
        ASSERT_TRUE(lk.unlock().is_ok());
        fx.sched.sleep_for(sim::msec(30));
      }
    });
  }
  fx.at(0, sim::seconds(5), [&](Mocha& mocha) {
    auto r = fx.attach_retry(mocha, "c");
    ReplicaLock lk(1, mocha);
    lk.associate(r);
    ASSERT_TRUE(lk.lock().is_ok());
    final_value = r->int_data()[0];
    ASSERT_TRUE(lk.unlock().is_ok());
  });
  fx.sched.run();
  EXPECT_EQ(final_value, 10);
  for (std::int32_t v : reads) EXPECT_EQ(v, 10);
}

}  // namespace
}  // namespace mocha::replica
