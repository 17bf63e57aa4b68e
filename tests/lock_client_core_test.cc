// Unit tests for the lock-client core (src/replica/lock_client_core.h): no
// sockets, no scheduler, no clock — messages in, messages out.
//
//   - only a GRANT echoing the pending acquire's nonce counts,
//   - kVersionOk holds at once, kNeedNewVersion holds once the transfer
//     lands, and a transfer older than the GRANT is a weakened forward,
//   - exclusive releases publish version + 1, shared ones publish nothing.
#include <gtest/gtest.h>

#include <vector>

#include "replica/lock_client_core.h"
#include "replica/wire.h"

namespace mocha::replica {
namespace {

constexpr net::NodeId kSite = 3;
constexpr LockId kLock = 7;

util::Buffer grant(std::uint64_t nonce, Version version, GrantFlag flag) {
  util::Buffer wire;
  GrantMsg{kLock, nonce, version, flag, /*transfer_from=*/2, {2, 3}}.encode(
      wire);
  return wire;
}

ClientLock make_lock() {
  ClientLock lock;
  lock.id = kLock;
  lock.grant_port = 1000;
  lock.data_port = 1001;
  return lock;
}

TEST(LockClientCore, OnlyTheMatchingNonceIsAGrant) {
  LockClientCore core(kSite, /*nonce_seed=*/40);
  ClientLock lock = make_lock();
  const util::Buffer acquire =
      core.acquire(lock, LockWireMode::kExclusive, /*expected_hold_us=*/0);
  util::WireReader reader(acquire);
  ASSERT_EQ(reader.u8(), kAcquireLock);
  const AcquireLockMsg msg = AcquireLockMsg::decode(reader);
  EXPECT_EQ(msg.nonce, 41u);
  EXPECT_EQ(msg.site, kSite);
  EXPECT_EQ(msg.data_port, 1001u);

  using Grant = LockClientCore::Grant;
  EXPECT_EQ(core.on_grant(lock, grant(40, 1, GrantFlag::kVersionOk)),
            Grant::kStale);  // an earlier acquire's
  util::Buffer truncated = grant(41, 1, GrantFlag::kVersionOk);
  truncated.resize(truncated.size() - 2);
  EXPECT_EQ(core.on_grant(lock, truncated), Grant::kStale);
  EXPECT_EQ(core.on_grant(lock, util::Buffer{kShardMapReply}), Grant::kStale);
  EXPECT_FALSE(lock.held);

  GrantMsg decoded;
  EXPECT_EQ(core.on_grant(lock, grant(41, 5, GrantFlag::kVersionOk), &decoded),
            Grant::kVersionOk);
  EXPECT_TRUE(lock.held);
  EXPECT_EQ(lock.version, 5u);
  EXPECT_EQ(decoded.holders, (std::vector<std::uint32_t>{2, 3}));
}

TEST(LockClientCore, TransferOlderThanTheGrantIsWeakened) {
  LockClientCore core(kSite);
  ClientLock lock = make_lock();
  core.acquire(lock, LockWireMode::kExclusive, 0);
  EXPECT_EQ(core.on_grant(lock, grant(1, 4, GrantFlag::kNeedNewVersion)),
            LockClientCore::Grant::kTransfer);
  EXPECT_FALSE(lock.held);
  EXPECT_FALSE(core.on_transfer(lock, 4));
  EXPECT_TRUE(lock.held);
  EXPECT_EQ(lock.version, 4u);
  EXPECT_EQ(core.release(lock), 5u);

  core.acquire(lock, LockWireMode::kExclusive, 0);
  ASSERT_EQ(core.on_grant(lock, grant(2, 9, GrantFlag::kNeedNewVersion)),
            LockClientCore::Grant::kTransfer);
  EXPECT_TRUE(core.on_transfer(lock, 6));  // version 9 died with its node
  EXPECT_EQ(lock.version, 6u);
  EXPECT_EQ(core.release(lock), 7u);  // published on top of what survived
}

TEST(LockClientCore, SharedReleasePublishesNothingNew) {
  LockClientCore core(kSite);
  ClientLock lock = make_lock();
  core.acquire(lock, LockWireMode::kShared, 0);
  ASSERT_EQ(core.on_grant(lock, grant(1, 3, GrantFlag::kVersionOk)),
            LockClientCore::Grant::kVersionOk);
  EXPECT_EQ(core.release(lock), 3u);
  EXPECT_FALSE(lock.held);
  const std::uint32_t self = kSite;
  const util::Buffer release = core.release_msg(lock, {&self, 1});
  util::WireReader reader(release);
  ASSERT_EQ(reader.u8(), kReleaseLock);
  const ReleaseLockMsg msg = ReleaseLockMsg::decode(reader);
  EXPECT_EQ(msg.new_version, 3u);
  EXPECT_EQ(msg.mode, LockWireMode::kShared);
  EXPECT_EQ(msg.up_to_date, std::vector<std::uint32_t>{kSite});

  core.acquire(lock, LockWireMode::kExclusive, 0);
  EXPECT_EQ(core.on_grant(lock, grant(2, 3, GrantFlag::kRejected)),
            LockClientCore::Grant::kRejected);
  EXPECT_FALSE(lock.held);
}

}  // namespace
}  // namespace mocha::replica
