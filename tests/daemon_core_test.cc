// Unit tests for the replica-daemon core (src/replica/daemon_core.h),
// driven through a fake sink that keeps the store as byte buffers: no
// sockets, no scheduler, no clock.
//
//   - an older bundle and a truncated bundle each leave contents and
//     version unchanged,
//   - a served bundle carries the version the daemon holds, not the one
//     the directive names,
//   - polls are answered with the local version, heartbeats need nothing,
//     and other daemon-port messages are left to the adapter.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "replica/daemon_core.h"
#include "replica/wire.h"

namespace mocha::replica {
namespace {

constexpr net::NodeId kSelf = 2;
constexpr LockId kLock = 7;

util::Buffer bytes(std::size_t n, std::uint8_t seed) {
  util::Buffer buf(n);
  for (auto& b : buf) b = seed++;
  return buf;
}

class FakeStore : public DaemonSink {
 public:
  void bundle(LockId lock_id, std::vector<BundleView>& out) override {
    for (const std::string& name : names[lock_id]) {
      out.push_back({name, contents[lock_id][name], {}});
    }
  }
  void apply(LockId lock_id, std::vector<BundleEntry>& entries) override {
    ++applies;
    for (BundleEntry& entry : entries) {
      if (!contents[lock_id].contains(entry.name)) {
        names[lock_id].push_back(entry.name);
      }
      contents[lock_id][entry.name] = std::move(entry.payload);
    }
  }
  void serve(const TransferReplicaMsg& directive, util::Buffer data) override {
    served.emplace_back(directive, std::move(data));
  }
  void send(net::NodeId dst, net::Port port, util::Buffer msg) override {
    sent.push_back({dst, port, std::move(msg)});
  }

  struct Sent {
    net::NodeId dst;
    net::Port port;
    util::Buffer msg;
  };
  std::map<LockId, std::vector<std::string>> names;
  std::map<LockId, std::map<std::string, util::Buffer>> contents;
  int applies = 0;
  std::vector<std::pair<TransferReplicaMsg, util::Buffer>> served;
  std::vector<Sent> sent;
};

util::Buffer bundle_of(Version version,
                       const std::vector<std::pair<std::string, util::Buffer>>&
                           replicas) {
  std::vector<BundleView> views;
  for (const auto& [name, payload] : replicas) {
    views.push_back({name, payload, {}});
  }
  return DaemonCore::encode(kLock, version, views);
}

class DaemonCoreTest : public ::testing::Test {
 protected:
  DaemonCoreTest() : core_(kSelf, store_) {
    store_.names[kLock] = {"a"};
    store_.contents[kLock]["a"] = original_;
    core_.publish(kLock, 3);
  }

  const util::Buffer original_ = bytes(64, 1);
  FakeStore store_;
  DaemonCore core_;
};

TEST_F(DaemonCoreTest, OlderBundleChangesNothing) {
  const auto applied = core_.apply(bundle_of(2, {{"a", bytes(64, 9)}}));
  EXPECT_EQ(applied.outcome, DaemonCore::Apply::kStale);
  EXPECT_EQ(applied.version, 2u);
  EXPECT_EQ(store_.applies, 0);
  EXPECT_EQ(store_.contents[kLock]["a"], original_);
  EXPECT_EQ(core_.version(kLock), 3u);
  EXPECT_EQ(core_.stale_drops(), 1u);
  EXPECT_EQ(core_.applied(kLock), 0u);

  // The same version is not stale: a redirected forward may repeat it.
  EXPECT_EQ(core_.apply(bundle_of(3, {{"a", bytes(64, 9)}})).outcome,
            DaemonCore::Apply::kApplied);
  EXPECT_EQ(core_.applied(kLock), 1u);
}

TEST_F(DaemonCoreTest, TruncatedBundleChangesNothing) {
  const util::Buffer full =
      bundle_of(4, {{"a", bytes(64, 7)}, {"b", bytes(64, 8)}});
  // Cut inside "b": "a" decodes completely before the codec error.
  const util::Buffer truncated(full.begin(), full.end() - 10);
  EXPECT_EQ(core_.apply(truncated).outcome, DaemonCore::Apply::kMalformed);
  EXPECT_EQ(store_.applies, 0);
  EXPECT_EQ(store_.contents[kLock]["a"], original_);
  EXPECT_EQ(store_.names[kLock], std::vector<std::string>{"a"});
  EXPECT_EQ(core_.version(kLock), 3u);

  const auto applied = core_.apply(full);
  EXPECT_EQ(applied.outcome, DaemonCore::Apply::kApplied);
  EXPECT_EQ(core_.version(kLock), 4u);
  EXPECT_EQ(store_.contents[kLock]["b"], bytes(64, 8));
}

TEST_F(DaemonCoreTest, ServedBundleCarriesTheHeldVersion) {
  util::Buffer wire;
  TransferReplicaMsg{kLock, /*version=*/9, /*dst_site=*/5, /*dst_port=*/1001}
      .encode(wire);
  EXPECT_TRUE(core_.handle(5, wire));
  ASSERT_EQ(store_.served.size(), 1u);
  EXPECT_EQ(store_.served[0].first.dst_site, 5u);
  EXPECT_EQ(store_.served[0].first.dst_port, 1001u);
  EXPECT_EQ(store_.served[0].second, bundle_of(3, {{"a", original_}}));

  // The receiving daemon adopts what was actually served.
  FakeStore other_store;
  DaemonCore other(5, other_store);
  const auto applied = other.apply(store_.served[0].second);
  EXPECT_EQ(applied.outcome, DaemonCore::Apply::kApplied);
  EXPECT_EQ(other.version(kLock), 3u);
  EXPECT_EQ(other_store.contents[kLock]["a"], original_);
}

TEST_F(DaemonCoreTest, AnswersPollsAndLeavesOtherMessages) {
  util::Buffer poll;
  PollVersionMsg{kLock, kSyncPort}.encode(poll);
  EXPECT_TRUE(core_.handle(1, poll));
  ASSERT_EQ(store_.sent.size(), 1u);
  EXPECT_EQ(store_.sent[0].dst, 1u);
  EXPECT_EQ(store_.sent[0].port, kSyncPort);
  util::WireReader reader(store_.sent[0].msg);
  ASSERT_EQ(reader.u8(), kVersionReport);
  const VersionReportMsg report = VersionReportMsg::decode(reader);
  EXPECT_EQ(report.site, kSelf);
  EXPECT_EQ(report.version, 3u);
  EXPECT_EQ(core_.polls_answered(), 1u);

  util::Buffer heartbeat{kHeartbeat};
  EXPECT_TRUE(core_.handle(1, heartbeat));
  util::Buffer truncated_poll(poll.begin(), poll.end() - 1);
  EXPECT_TRUE(core_.handle(1, truncated_poll));
  EXPECT_EQ(store_.sent.size(), 1u);

  util::Buffer other{kSyncMoved, 0, 0, 0, 0};
  EXPECT_FALSE(core_.handle(1, other));
  EXPECT_FALSE(core_.handle(1, util::Buffer{}));
}

}  // namespace
}  // namespace mocha::replica
