// Unit tests for the lock-directory core (src/replica/lock_directory.h),
// driven through a fake sink: no sockets, no scheduler, no clock. Time is
// whatever `now_us` each input says.
//
//   - strict FIFO with shared batching (a waiting writer blocks readers),
//   - kVersionOk vs kNeedNewVersion and transfer_from, from the up-to-date
//     set,
//   - the release rule: stale releases ignored, the recovered release (grant
//     older than a failover, nothing active) accepted,
//   - the lease-expiry ABA guard and the §4 break + blacklist,
//   - truncated payloads and saturating lease deadlines,
//   - §4 poll-and-redirect as nonblocking state: directives newest version
//     first with the requester first on ties, a weakened forward, and a
//     window that closes with no reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "replica/lock_directory.h"
#include "replica/wire.h"

namespace mocha::replica {
namespace {

constexpr LockId kLock = 7;
constexpr std::int64_t kGrace = 300'000;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct Transfer {
  net::NodeId requester = 0;
  net::NodeId owner = 0;
  Version version = 0;
};

// Records every output. With `answer_dead`, confirm_owner answers from
// inside the call, the way the live adapter does.
class FakeSink : public LockDirectorySink {
 public:
  void send_grant(const LockHold& hold, const GrantMsg& grant) override {
    grants.emplace_back(hold.site, grant);
  }
  std::uint64_t arm_lease(const LockHold& hold) override {
    leases[{hold.site, hold.nonce}] = hold.lease_deadline_us;
    return ++next_lease;
  }
  void cancel_lease(const LockHold& hold) override {
    leases.erase({hold.site, hold.nonce});
  }
  void transfer_needed(const TransferDirective& directive) override {
    transfers.push_back(
        {directive.msg.dst_site, directive.daemon, directive.msg.version});
    directive_ids.push_back(directive.id);
  }
  void send_poll(std::uint64_t /*transfer_id*/, net::NodeId daemon,
                 const PollVersionMsg& poll) override {
    EXPECT_EQ(poll.reply_port, kSyncPort);
    polls.push_back(daemon);
  }
  void poll_window(std::uint64_t transfer_id) override {
    windows.push_back(transfer_id);
  }
  void transfer_step(TransferStep step, const TransferDirective& /*directive*/,
                     Version /*lock_version*/) override {
    steps.push_back(step);
  }
  void confirm_owner(const LockHold& hold) override {
    confirms.push_back(hold.site);
    if (answer_dead) {
      dir->owner_confirmed(confirm_now_us, hold.lock_id, hold.site,
                           hold.nonce, /*alive=*/false);
    }
  }
  void record_changed(LockId, const LockRecord&) override { ++records; }
  void trace(const LockEvent& event) override { events.push_back(event); }

  // Sites granted so far, in order (rejections included).
  std::vector<net::NodeId> granted_sites() const {
    std::vector<net::NodeId> sites;
    for (const auto& [site, grant] : grants) sites.push_back(site);
    return sites;
  }

  LockDirectory* dir = nullptr;
  bool answer_dead = false;
  std::int64_t confirm_now_us = 0;
  std::vector<std::pair<net::NodeId, GrantMsg>> grants;
  std::map<std::pair<net::NodeId, std::uint64_t>, std::int64_t> leases;
  std::uint64_t next_lease = 0;
  std::vector<Transfer> transfers;
  std::vector<std::uint64_t> directive_ids;  // parallel to transfers
  std::vector<net::NodeId> polls;
  std::vector<std::uint64_t> windows;
  std::vector<TransferStep> steps;
  std::vector<net::NodeId> confirms;
  int records = 0;
  std::vector<LockEvent> events;
};

class LockDirectoryTest : public ::testing::Test {
 protected:
  LockDirectoryTest() : dir_(sink_, {kGrace, false}) { sink_.dir = &dir_; }

  void acquire(std::int64_t now, net::NodeId site, std::uint64_t nonce,
               LockWireMode mode = LockWireMode::kExclusive,
               std::uint64_t expected_hold_us = 1000) {
    AcquireLockMsg msg;
    msg.lock_id = kLock;
    msg.site = site;
    msg.grant_port = 100;
    msg.data_port = 101;
    msg.expected_hold_us = expected_hold_us;
    msg.mode = mode;
    msg.nonce = nonce;
    util::Buffer wire;
    msg.encode(wire);
    ASSERT_TRUE(dir_.handle(now, wire));
  }

  void release(std::int64_t now, net::NodeId site, Version new_version,
               std::vector<std::uint32_t> up_to_date,
               LockWireMode mode = LockWireMode::kExclusive) {
    ReleaseLockMsg msg;
    msg.lock_id = kLock;
    msg.site = site;
    msg.new_version = new_version;
    msg.up_to_date = std::move(up_to_date);
    msg.mode = mode;
    util::Buffer wire;
    msg.encode(wire);
    ASSERT_TRUE(dir_.handle(now, wire));
  }

  void register_site(net::NodeId site) {
    util::Buffer wire;
    RegisterLockMsg{kLock, site}.encode(wire);
    ASSERT_TRUE(dir_.handle(0, wire));
  }

  void report(std::int64_t now, net::NodeId site, Version version) {
    util::Buffer wire;
    VersionReportMsg{kLock, site, version}.encode(wire);
    ASSERT_TRUE(dir_.handle(now, wire));
  }

  // Sites 1..4 hold replicas; site 1 writes version 5; site 2 then asks,
  // and the directive to site 1's daemon goes unacknowledged.
  std::uint64_t owner_dies_during_transfer() {
    for (net::NodeId site = 1; site <= 4; ++site) register_site(site);
    acquire(0, 1, 11);
    release(10, 1, 5, {1});
    acquire(20, 2, 12);
    EXPECT_EQ(sink_.transfers.size(), 1u);
    const std::uint64_t id = sink_.directive_ids.back();
    dir_.transfer_failed(30, id);
    return id;
  }

  FakeSink sink_;
  LockDirectory dir_;
};

TEST_F(LockDirectoryTest, WaitingWriterBlocksLaterReaders) {
  acquire(0, 1, 11, LockWireMode::kShared);
  acquire(1, 2, 12, LockWireMode::kExclusive);
  acquire(2, 3, 13, LockWireMode::kShared);
  // Reader 3 could share with reader 1, but writer 2 is ahead of it.
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1}));
  EXPECT_EQ(dir_.queued_waiters(), 2u);

  release(10, 1, 0, {}, LockWireMode::kShared);
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1, 2}));

  release(20, 2, 1, {2});
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(dir_.queued_waiters(), 0u);
  EXPECT_EQ(dir_.active_holds(), 1u);
}

TEST_F(LockDirectoryTest, SharedRunBehindWriterIsGrantedTogether) {
  acquire(0, 1, 11);
  acquire(1, 2, 12, LockWireMode::kShared);
  acquire(2, 3, 13, LockWireMode::kShared);
  acquire(3, 4, 14);
  acquire(4, 5, 15, LockWireMode::kShared);
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1}));

  release(10, 1, 1, {1});
  // The shared run 2, 3 is batched; writer 4 stops it, and reader 5 waits.
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(dir_.active_holds(), 2u);
  EXPECT_EQ(dir_.queued_waiters(), 2u);
}

TEST_F(LockDirectoryTest, GrantFlagFollowsUpToDateSet) {
  acquire(0, 1, 11);
  ASSERT_EQ(sink_.grants.size(), 1u);
  // Version 0: nobody has released, every holder has the initial contents.
  EXPECT_EQ(sink_.grants[0].second.flag, GrantFlag::kVersionOk);
  release(10, 1, 1, {1, 2});

  acquire(20, 2, 12);  // in the up-to-date set
  ASSERT_EQ(sink_.grants.size(), 2u);
  EXPECT_EQ(sink_.grants[1].second.flag, GrantFlag::kVersionOk);
  EXPECT_EQ(sink_.grants[1].second.version, 1u);
  EXPECT_EQ(sink_.grants[1].second.transfer_from, 0u);
  EXPECT_TRUE(sink_.transfers.empty());
  release(30, 2, 2, {2});

  acquire(40, 3, 13);  // not up to date: pull version 2 from site 2
  ASSERT_EQ(sink_.grants.size(), 3u);
  const GrantMsg& grant = sink_.grants[2].second;
  EXPECT_EQ(grant.flag, GrantFlag::kNeedNewVersion);
  EXPECT_EQ(grant.version, 2u);
  EXPECT_EQ(grant.transfer_from, 2u);
  EXPECT_EQ(grant.holders, (std::vector<std::uint32_t>{1, 2, 3}));
  ASSERT_EQ(sink_.transfers.size(), 1u);
  EXPECT_EQ(sink_.transfers[0].requester, 3u);
  EXPECT_EQ(sink_.transfers[0].owner, 2u);
  EXPECT_EQ(sink_.transfers[0].version, 2u);
}

TEST_F(LockDirectoryTest, DisabledVersionOkForcesTransfers) {
  FakeSink sink;
  LockDirectory dir(sink, {kGrace, /*disable_version_ok=*/true});
  util::Buffer wire;
  AcquireLockMsg acquire{kLock, 1, 100, 101, 1000,
                         LockWireMode::kExclusive, 11};
  acquire.encode(wire);
  dir.handle(0, wire);
  wire.clear();
  ReleaseLockMsg{kLock, 1, 1, {1}, LockWireMode::kExclusive}.encode(wire);
  dir.handle(10, wire);
  wire.clear();
  acquire.nonce = 12;
  acquire.encode(wire);
  dir.handle(20, wire);
  ASSERT_EQ(sink.grants.size(), 2u);
  EXPECT_EQ(sink.grants[1].second.flag, GrantFlag::kNeedNewVersion);
  EXPECT_EQ(sink.grants[1].second.transfer_from, 1u);
}

TEST_F(LockDirectoryTest, StaleReleaseIsIgnored) {
  acquire(0, 1, 11);
  acquire(1, 2, 12);
  release(10, 2, 5, {2});  // site 2 does not hold the lock
  const LockRecord* record = dir_.record(kLock);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->version, 0u);
  EXPECT_FALSE(record->last_owner.has_value());
  EXPECT_EQ(dir_.active_holds(), 1u);
  EXPECT_EQ(dir_.releases(), 0u);
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1}));
}

TEST_F(LockDirectoryTest, RecoveredReleaseIsAccepted) {
  // A surrogate restored from the log: durable facts, nothing active. The
  // holder's grant came from the previous incarnation.
  LockRecord restored;
  restored.version = 3;
  restored.last_owner = 1;
  restored.up_to_date = {1};
  restored.holders = {1, 4};
  dir_.restore({{kLock, restored}}, {});

  release(10, 4, 4, {4});
  const LockRecord* record = dir_.record(kLock);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->version, 4u);
  EXPECT_EQ(record->last_owner, 4u);
  EXPECT_EQ(record->up_to_date, (std::set<net::NodeId>{4}));
  EXPECT_EQ(dir_.releases(), 1u);
}

TEST_F(LockDirectoryTest, OldLeaseTimerDoesNotBreakNewHold) {
  acquire(0, 1, 11);
  release(10, 1, 1, {1});
  EXPECT_TRUE(sink_.leases.empty());  // cancelled at release
  acquire(20, 1, 12);                 // same site, new nonce

  // The first hold's timer lost the cancel race and fires now.
  dir_.lease_expired(5'000'000, kLock, 1, 11);
  EXPECT_TRUE(sink_.confirms.empty());
  EXPECT_EQ(dir_.locks_broken(), 0u);
  EXPECT_EQ(dir_.active_holds(), 1u);

  // The current hold's own expiry does ask for a confirm.
  dir_.lease_expired(5'000'000, kLock, 1, 12);
  EXPECT_EQ(sink_.confirms, (std::vector<net::NodeId>{1}));
}

TEST_F(LockDirectoryTest, ConfirmedOwnerKeepsLockWithNewLease) {
  acquire(0, 1, 11);
  dir_.lease_expired(2'000'000, kLock, 1, 11);
  ASSERT_EQ(sink_.confirms.size(), 1u);
  dir_.owner_confirmed(2'100'000, kLock, 1, 11, /*alive=*/true);
  EXPECT_EQ((sink_.leases[{1, 11}]), 2'100'000 + 1000 + kGrace);
  EXPECT_EQ(dir_.locks_broken(), 0u);
  EXPECT_FALSE(dir_.is_blacklisted(1));
}

TEST_F(LockDirectoryTest, DeadOwnerIsBrokenAndBlacklisted) {
  sink_.answer_dead = true;
  sink_.confirm_now_us = 2'000'000;
  acquire(0, 1, 11);
  acquire(1, 2, 12);
  dir_.lease_expired(2'000'000, kLock, 1, 11);

  EXPECT_EQ(dir_.locks_broken(), 1u);
  EXPECT_TRUE(dir_.is_blacklisted(1));
  const auto broken = std::find_if(
      sink_.events.begin(), sink_.events.end(), [](const LockEvent& e) {
        return e.kind == trace::EventKind::kLockBroken;
      });
  ASSERT_NE(broken, sink_.events.end());
  EXPECT_EQ(broken->site, 1u);
  EXPECT_EQ(broken->nonce, 11u);
  EXPECT_EQ(sink_.leases.count({1, 11}), 0u);
  const LockRecord* record = dir_.record(kLock);
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->holders.contains(1));
  // The next requester is granted once the lock is broken.
  EXPECT_EQ(sink_.granted_sites(), (std::vector<net::NodeId>{1, 2}));

  // A blacklisted site is rejected from then on.
  acquire(3'000'000, 1, 13);
  ASSERT_EQ(sink_.grants.size(), 3u);
  EXPECT_EQ(sink_.grants[2].first, 1u);
  EXPECT_EQ(sink_.grants[2].second.flag, GrantFlag::kRejected);
  EXPECT_EQ(sink_.grants[2].second.nonce, 13u);
  EXPECT_EQ(dir_.queued_waiters(), 0u);

  // And its late release of the broken hold changes nothing.
  release(3'000'001, 1, 9, {1});
  EXPECT_EQ(dir_.record(kLock)->version, 0u);
  EXPECT_EQ(dir_.active_holds(), 1u);
}

TEST_F(LockDirectoryTest, TruncatedPayloadChangesNoState) {
  AcquireLockMsg msg{kLock, 1, 100, 101, 1000, LockWireMode::kExclusive, 11};
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 3);  // cut inside the nonce
  EXPECT_TRUE(dir_.handle(0, wire));
  EXPECT_EQ(dir_.record(kLock), nullptr);
  EXPECT_TRUE(sink_.grants.empty());
  EXPECT_TRUE(sink_.events.empty());

  acquire(1, 1, 11);
  util::Buffer release_wire;
  ReleaseLockMsg{kLock, 1, 1, {1, 2}, LockWireMode::kExclusive}.encode(
      release_wire);
  release_wire.resize(release_wire.size() - 2);  // cut inside up_to_date
  EXPECT_TRUE(dir_.handle(2, release_wire));
  EXPECT_EQ(dir_.active_holds(), 1u);
  EXPECT_EQ(dir_.record(kLock)->version, 0u);
  EXPECT_EQ(sink_.records, 0);

  util::Buffer register_wire;
  RegisterLockMsg{kLock, 5}.encode(register_wire);
  register_wire.resize(register_wire.size() - 1);
  EXPECT_TRUE(dir_.handle(3, register_wire));
  EXPECT_FALSE(dir_.record(kLock)->holders.contains(5));
  EXPECT_EQ(dir_.registrations(), 0u);
}

TEST_F(LockDirectoryTest, OtherMessagesAreLeftToTheAdapter) {
  util::Buffer wire;
  ShardMapRequestMsg{40}.encode(wire);
  EXPECT_FALSE(dir_.handle(0, wire));
  EXPECT_FALSE(dir_.handle(0, util::Buffer{}));
}

TEST_F(LockDirectoryTest, HugeExpectedHoldSaturatesLeaseDeadline) {
  // 2^63 - 1 would overflow a signed sum, and 2^63 would wrap negative; the
  // lease must end up "never", not broken at once.
  acquire(1'000, 1, 11, LockWireMode::kExclusive,
          std::uint64_t{std::numeric_limits<std::int64_t>::max()});
  acquire(1'000, 2, 12, LockWireMode::kShared, std::uint64_t{1} << 63);
  EXPECT_EQ((sink_.leases[{1, 11}]), kNever);
  release(2'000, 1, 1, {1});
  EXPECT_EQ((sink_.leases[{2, 12}]), kNever);
}

TEST_F(LockDirectoryTest, ZeroExpectedHoldUsesDefault) {
  acquire(1'000, 1, 11, LockWireMode::kExclusive, 0);
  EXPECT_EQ((sink_.leases[{1, 11}]),
            1'000 + static_cast<std::int64_t>(kDefaultExpectedHoldUs) + kGrace);
}

TEST_F(LockDirectoryTest, RedirectsNewestVersionFirstRequesterOnTies) {
  const std::uint64_t id = owner_dies_during_transfer();
  EXPECT_EQ(sink_.steps, std::vector<TransferStep>{TransferStep::kOwnerFailed});
  // The dead owner left the holder set; everyone else (the requester too)
  // is polled, and the window is armed once.
  EXPECT_EQ(sink_.polls, (std::vector<net::NodeId>{2, 3, 4}));
  EXPECT_EQ(sink_.windows, std::vector<std::uint64_t>{id});
  EXPECT_FALSE(dir_.record(kLock)->holders.contains(1));
  EXPECT_TRUE(dir_.polling(id));

  report(40, 3, 3);
  report(41, 4, 5);  // a pushed copy of the newest version
  EXPECT_TRUE(dir_.polling(id));
  EXPECT_EQ(sink_.transfers.size(), 1u);
  report(42, 2, 3);  // the last report closes the window early
  EXPECT_FALSE(dir_.polling(id));

  // Newest first: site 4 at version 5, not weakened.
  ASSERT_EQ(sink_.transfers.size(), 2u);
  EXPECT_EQ(sink_.transfers[1].owner, 4u);
  EXPECT_EQ(sink_.transfers[1].version, 5u);
  EXPECT_EQ(sink_.transfers[1].requester, 2u);
  dir_.transfer_failed(50, id);
  // Then the tie at version 3, the requester first (a local loopback).
  ASSERT_EQ(sink_.transfers.size(), 3u);
  EXPECT_EQ(sink_.transfers[2].owner, 2u);
  EXPECT_EQ(sink_.transfers[2].version, 3u);
  dir_.transfer_failed(60, id);
  ASSERT_EQ(sink_.transfers.size(), 4u);
  EXPECT_EQ(sink_.transfers[3].owner, 3u);
  EXPECT_EQ(sink_.steps,
            (std::vector<TransferStep>{
                TransferStep::kOwnerFailed, TransferStep::kRedirectFailed,
                TransferStep::kWeakened, TransferStep::kRedirectFailed,
                TransferStep::kWeakened}));
  dir_.transfer_delivered(70, id);
  EXPECT_EQ(dir_.transfers_pending(), 0u);
  // A late report for the finished poll is a straggler: nothing moves.
  report(80, 4, 5);
  EXPECT_EQ(sink_.transfers.size(), 4u);
}

TEST_F(LockDirectoryTest, WeakenedForwardLowersTheLockVersion) {
  const std::uint64_t id = owner_dies_during_transfer();
  report(40, 2, 0);
  report(41, 3, 2);
  dir_.poll_failed(42, id, 4);  // site 4's node is gone too
  EXPECT_FALSE(dir_.polling(id));
  ASSERT_EQ(sink_.transfers.size(), 2u);
  EXPECT_EQ(sink_.transfers[1].owner, 3u);
  EXPECT_EQ(sink_.transfers[1].version, 2u);
  EXPECT_EQ(sink_.steps.back(), TransferStep::kWeakened);

  dir_.transfer_delivered(50, id);
  const LockRecord& record = *dir_.record(kLock);
  EXPECT_EQ(record.version, 2u);
  EXPECT_EQ(record.last_owner, 3u);
  EXPECT_EQ(record.up_to_date, std::set<net::NodeId>{3});
  EXPECT_EQ(dir_.transfers_pending(), 0u);

  // The requester releases on top of what survived.
  release(60, 2, 3, {2});
  EXPECT_EQ(dir_.record(kLock)->version, 3u);
}

TEST_F(LockDirectoryTest, LateAckAfterTheReleaseChangesNothing) {
  // Live, a directive's ack can land after the requester already released
  // a newer version; it must not roll the lock back to the directed one.
  acquire(0, 1, 11);
  release(10, 1, 1, {1});
  acquire(20, 2, 12);
  ASSERT_EQ(sink_.transfers.size(), 1u);
  release(30, 2, 2, {2});
  dir_.transfer_delivered(40, sink_.directive_ids.back());
  const LockRecord& record = *dir_.record(kLock);
  EXPECT_EQ(record.version, 2u);
  EXPECT_EQ(record.last_owner, 2u);
  EXPECT_EQ(record.up_to_date, std::set<net::NodeId>{2});
  EXPECT_EQ(dir_.transfers_pending(), 0u);
}

TEST_F(LockDirectoryTest, LateRedirectAckAfterReleaseAtTheSameVersionChangesNothing) {
  // After a weakened forward (v4 for a lock at v5) the requester writes and
  // releases v5: the same version the lock had at the grant. The redirect's
  // late ack must not roll the record back to the survivor's v4.
  const std::uint64_t id = owner_dies_during_transfer();
  report(40, 3, 4);
  report(41, 2, 0);
  dir_.poll_failed(42, id, 4);
  ASSERT_EQ(sink_.transfers.size(), 2u);
  EXPECT_EQ(sink_.transfers[1].owner, 3u);
  EXPECT_EQ(sink_.transfers[1].version, 4u);
  EXPECT_EQ(sink_.steps.back(), TransferStep::kWeakened);

  release(60, 2, 5, {2});
  dir_.transfer_delivered(70, id);
  const LockRecord& record = *dir_.record(kLock);
  EXPECT_EQ(record.version, 5u);
  EXPECT_EQ(record.last_owner, 2u);
  EXPECT_EQ(record.up_to_date, std::set<net::NodeId>{2});
  EXPECT_EQ(dir_.transfers_pending(), 0u);
}

TEST_F(LockDirectoryTest, WindowClosingWithoutReportsLosesTheTransfer) {
  const std::uint64_t id = owner_dies_during_transfer();
  dir_.poll_window_closed(1'000'000, id);
  EXPECT_FALSE(dir_.polling(id));
  EXPECT_EQ(sink_.transfers.size(), 1u);  // no directive after the owner's
  EXPECT_EQ(sink_.steps, (std::vector<TransferStep>{TransferStep::kOwnerFailed,
                                                    TransferStep::kLost}));
  EXPECT_EQ(dir_.transfers_pending(), 0u);
  // The hold itself stands: the lease breaker owns its cleanup.
  EXPECT_EQ(dir_.active_holds(), 1u);
}

}  // namespace
}  // namespace mocha::replica
