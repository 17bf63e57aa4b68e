// Cross-backend conformance tests for the shared MochaNet frame codec
// (net/frame.h). Both transport backends — the simulated MochaNetEndpoint
// and the live UDP live::Endpoint — must emit and accept exactly these
// bytes, so the codec is exercised three ways here:
//   1. pure round-trips through encode/decode,
//   2. fragmentation at MTU boundaries + out-of-order/duplicate reassembly,
//   3. interception of real frames emitted by the *sim* endpoint, decoded
//      with the same shared functions the live endpoint uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "net/frame.h"
#include "net/mochanet.h"
#include "net/network.h"
#include "replica/wire.h"

namespace mocha::net {
namespace {

util::Buffer make_payload(std::size_t n, std::uint8_t seed = 1) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v++;
  return buf;
}

// --- 1. Round-trips ---

TEST(FrameCodec, DataFrameRoundTrip) {
  const util::Buffer payload = make_payload(300);
  util::Buffer wire;
  encode_data_frame(wire, /*seq=*/42, /*frag_idx=*/3, /*frag_count=*/7,
                    /*port=*/30, payload);
  EXPECT_EQ(wire.size(), kFragHeaderBytes + payload.size());

  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kData);
  const DataFrame frame = decode_data_frame(reader);
  EXPECT_EQ(frame.seq, 42u);
  EXPECT_EQ(frame.frag_idx, 3u);
  EXPECT_EQ(frame.frag_count, 7u);
  EXPECT_EQ(frame.port, 30);
  ASSERT_EQ(frame.chunk.size(), payload.size());
  EXPECT_TRUE(std::equal(frame.chunk.begin(), frame.chunk.end(),
                         payload.begin()));
}

TEST(FrameCodec, AckFrameRoundTrip) {
  util::Buffer wire;
  encode_ack_frame(wire, 0xdeadbeefcafe1234ull);
  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kAck);
  EXPECT_EQ(decode_ack_frame(reader).seq, 0xdeadbeefcafe1234ull);
}

TEST(FrameCodec, NackFrameRoundTrip) {
  util::Buffer wire;
  encode_nack_frame(wire, NackFrame{.seq = 9, .missing = {0, 4, 17}});
  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kNack);
  const NackFrame nack = decode_nack_frame(reader);
  EXPECT_EQ(nack.seq, 9u);
  EXPECT_EQ(nack.missing, (std::vector<std::uint32_t>{0, 4, 17}));
}

TEST(FrameCodec, DataAckFrameRoundTrip) {
  const util::Buffer payload = make_payload(200, 4);
  const std::vector<std::uint64_t> acks = {7, 0xffffffffffffffffull, 42};
  util::Buffer wire;
  encode_data_ack_frame(wire, /*seq=*/11, /*frag_idx=*/1, /*frag_count=*/2,
                        /*port=*/25, acks, payload);
  EXPECT_EQ(wire.size(), kDataAckBaseHeaderBytes +
                             acks.size() * kPiggybackAckBytes + payload.size());

  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kDataAck);
  const DataFrame frame = decode_data_ack_frame(reader);
  EXPECT_EQ(frame.seq, 11u);
  EXPECT_EQ(frame.frag_idx, 1u);
  EXPECT_EQ(frame.frag_count, 2u);
  EXPECT_EQ(frame.port, 25);
  EXPECT_EQ(frame.acks, acks);
  ASSERT_EQ(frame.chunk.size(), payload.size());
  EXPECT_TRUE(std::equal(frame.chunk.begin(), frame.chunk.end(),
                         payload.begin()));
}

TEST(FrameCodec, DataAckFrameBoundaries) {
  // Zero acks and an empty chunk are both legal extremes.
  util::Buffer wire;
  encode_data_ack_frame(wire, 1, 0, 1, 9, {}, {});
  EXPECT_EQ(wire.size(), kDataAckBaseHeaderBytes);
  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kDataAck);
  const DataFrame frame = decode_data_ack_frame(reader);
  EXPECT_TRUE(frame.acks.empty());
  EXPECT_TRUE(frame.chunk.empty());

  // The wire ack count is a u8: exactly kMaxPiggybackAcks fits, one more
  // must be rejected at encode time.
  std::vector<std::uint64_t> max_acks(kMaxPiggybackAcks, 5);
  util::Buffer full;
  encode_data_ack_frame(full, 2, 0, 1, 9, max_acks, make_payload(10));
  util::WireReader full_reader(full);
  decode_frame_type(full_reader);
  EXPECT_EQ(decode_data_ack_frame(full_reader).acks.size(),
            kMaxPiggybackAcks);

  max_acks.push_back(6);
  util::Buffer overflow;
  EXPECT_THROW(
      encode_data_ack_frame(overflow, 3, 0, 1, 9, max_acks, make_payload(10)),
      util::CodecError);
}

TEST(FrameCodec, DataAckTruncatedInsideAckListThrows) {
  util::Buffer wire;
  encode_data_ack_frame(wire, 4, 0, 1, 9, std::vector<std::uint64_t>{1, 2, 3},
                        make_payload(50));
  wire.resize(kDataAckBaseHeaderBytes + kPiggybackAckBytes + 3);
  util::WireReader reader(wire);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kDataAck);
  EXPECT_THROW(decode_data_ack_frame(reader), util::CodecError);
}

TEST(FrameCodec, UnknownTypeAndTruncationThrow) {
  util::Buffer bogus{255};
  util::WireReader bogus_reader(bogus);
  EXPECT_THROW(decode_frame_type(bogus_reader), util::CodecError);

  util::Buffer wire;
  encode_data_frame(wire, 1, 0, 1, 5, make_payload(10));
  wire.resize(kFragHeaderBytes - 4);  // cut inside the header
  util::WireReader truncated(wire);
  ASSERT_EQ(decode_frame_type(truncated), FrameType::kData);
  EXPECT_THROW(decode_data_frame(truncated), util::CodecError);
}

// --- Lock-protocol message round-trips (replica/wire.h) ---
//
// Both runtimes — the simulated SyncService/ReplicaLock pair and the live
// LockServer/LockClient pair — speak these codecs; tools/lint_protocol.py
// requires every typed message here by name.

TEST(LockWireCodec, AcquireLockRoundTrip) {
  replica::AcquireLockMsg msg;
  msg.lock_id = 7;
  msg.site = 3;
  msg.grant_port = 41;
  msg.data_port = 42;
  msg.expected_hold_us = 250'000;
  msg.mode = replica::LockWireMode::kShared;
  msg.nonce = 0x1122334455667788ull;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kAcquireLock);
  const auto decoded = replica::AcquireLockMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.site, msg.site);
  EXPECT_EQ(decoded.grant_port, msg.grant_port);
  EXPECT_EQ(decoded.data_port, msg.data_port);
  EXPECT_EQ(decoded.expected_hold_us, msg.expected_hold_us);
  EXPECT_EQ(decoded.mode, msg.mode);
  EXPECT_EQ(decoded.nonce, msg.nonce);
}

TEST(LockWireCodec, ReleaseLockRoundTrip) {
  replica::ReleaseLockMsg msg;
  msg.lock_id = 9;
  msg.site = 1;
  msg.new_version = 12;
  msg.up_to_date = {1, 4, 6};
  msg.mode = replica::LockWireMode::kExclusive;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kReleaseLock);
  const auto decoded = replica::ReleaseLockMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.site, msg.site);
  EXPECT_EQ(decoded.new_version, msg.new_version);
  EXPECT_EQ(decoded.up_to_date, msg.up_to_date);
  EXPECT_EQ(decoded.mode, msg.mode);
}

TEST(LockWireCodec, RegisterLockRoundTrip) {
  replica::RegisterLockMsg msg;
  msg.lock_id = 100;
  msg.site = 5;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kRegisterLock);
  const auto decoded = replica::RegisterLockMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.site, msg.site);
}

TEST(LockWireCodec, GrantRoundTrip) {
  replica::GrantMsg msg;
  msg.lock_id = 8;
  msg.nonce = 0xabcdef0102030405ull;
  msg.version = 77;
  msg.flag = replica::GrantFlag::kNeedNewVersion;
  msg.transfer_from = 4;  // last owner: the site the requester pulls from
  msg.holders = {2, 3, 9};

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kGrant);
  const auto decoded = replica::GrantMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.nonce, msg.nonce);
  EXPECT_EQ(decoded.version, msg.version);
  EXPECT_EQ(decoded.flag, msg.flag);
  EXPECT_EQ(decoded.transfer_from, msg.transfer_from);
  EXPECT_EQ(decoded.holders, msg.holders);
}

TEST(LockWireCodec, TransferReplicaRoundTrip) {
  replica::TransferReplicaMsg msg;
  msg.lock_id = 13;
  msg.version = 0x0102030405060708ull;
  msg.dst_site = 6;
  msg.dst_port = replica::kDaemonDataPort;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kTransferReplica);
  const auto decoded = replica::TransferReplicaMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.version, msg.version);
  EXPECT_EQ(decoded.dst_site, msg.dst_site);
  EXPECT_EQ(decoded.dst_port, msg.dst_port);
}

TEST(LockWireCodec, PollVersionRoundTrip) {
  replica::PollVersionMsg msg;
  msg.lock_id = 21;
  msg.reply_port = replica::kSyncPort;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kPollVersion);
  const auto decoded = replica::PollVersionMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.reply_port, msg.reply_port);
}

TEST(LockWireCodec, VersionReportRoundTrip) {
  replica::VersionReportMsg msg;
  msg.lock_id = 21;
  msg.site = 4;
  msg.version = 99;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kVersionReport);
  const auto decoded = replica::VersionReportMsg::decode(reader);
  EXPECT_EQ(decoded.lock_id, msg.lock_id);
  EXPECT_EQ(decoded.site, msg.site);
  EXPECT_EQ(decoded.version, msg.version);
}

TEST(LockWireCodec, ResolveNodeRoundTrip) {
  replica::ResolveNodeMsg msg;
  msg.node = 7;
  msg.reply_port = 1003;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kResolveNode);
  const auto decoded = replica::ResolveNodeMsg::decode(reader);
  EXPECT_EQ(decoded.node, msg.node);
  EXPECT_EQ(decoded.reply_port, msg.reply_port);
}

TEST(LockWireCodec, NodeAddrRoundTrip) {
  replica::NodeAddrMsg msg;
  msg.node = 7;
  msg.ipv4 = 0x0100007f;  // 127.0.0.1 in network byte order
  msg.udp_port = 54321;
  msg.known = 1;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kNodeAddr);
  const auto decoded = replica::NodeAddrMsg::decode(reader);
  EXPECT_EQ(decoded.node, msg.node);
  EXPECT_EQ(decoded.ipv4, msg.ipv4);
  EXPECT_EQ(decoded.udp_port, msg.udp_port);
  EXPECT_EQ(decoded.known, msg.known);
}

TEST(LockWireCodec, ShardMapRequestRoundTrip) {
  replica::ShardMapRequestMsg msg;
  msg.reply_port = 901;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kShardMapRequest);
  const auto decoded = replica::ShardMapRequestMsg::decode(reader);
  EXPECT_EQ(decoded.reply_port, msg.reply_port);
}

TEST(LockWireCodec, ShardMapReplyRoundTrip) {
  replica::ShardMapReplyMsg msg;
  // Entry 0: the bootstrap shard advertising no address (ipv4 == 0 means
  // "keep your existing route"); entry 1: a fully-advertised shard.
  msg.shards.push_back({0, 1, 0, 0});
  msg.shards.push_back({1, 1001, 0x0100007f, 9001});

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kShardMapReply);
  const auto decoded = replica::ShardMapReplyMsg::decode(reader);
  ASSERT_EQ(decoded.shards.size(), msg.shards.size());
  for (std::size_t i = 0; i < msg.shards.size(); ++i) {
    EXPECT_EQ(decoded.shards[i].shard, msg.shards[i].shard);
    EXPECT_EQ(decoded.shards[i].node, msg.shards[i].node);
    EXPECT_EQ(decoded.shards[i].ipv4, msg.shards[i].ipv4);
    EXPECT_EQ(decoded.shards[i].udp_port, msg.shards[i].udp_port);
  }
}

TEST(LockWireCodec, TruncatedShardMapReplyThrows) {
  replica::ShardMapReplyMsg msg;
  msg.shards.push_back({0, 1, 0, 0});
  msg.shards.push_back({1, 1001, 0x0100007f, 9001});
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 3);  // cut inside the last entry
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kShardMapReply);
  EXPECT_THROW(replica::ShardMapReplyMsg::decode(reader), util::CodecError);
}

TEST(LockWireCodec, BulkHelloRoundTrip) {
  replica::BulkHelloMsg msg;
  msg.site = 42;
  msg.backends = replica::kBulkCapUdp | replica::kBulkCapTcp;
  msg.tcp_port = 40123;
  msg.budp_port = 0;  // reserved: live senders always send 0

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kBulkHello);
  const auto decoded = replica::BulkHelloMsg::decode(reader);
  EXPECT_EQ(decoded.site, msg.site);
  EXPECT_EQ(decoded.backends, msg.backends);
  EXPECT_EQ(decoded.tcp_port, msg.tcp_port);
  EXPECT_EQ(decoded.budp_port, msg.budp_port);
}

TEST(LockWireCodec, BulkHelloAckRoundTrip) {
  // An older peer may still set the reserved batched-UDP bit and port; the
  // message must decode unchanged.
  replica::BulkHelloAckMsg msg;
  msg.site = 7;
  msg.backends = replica::kBulkCapUdp | replica::kBulkCapBatchedUdp;
  msg.tcp_port = 0;
  msg.budp_port = 50321;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kBulkHelloAck);
  const auto decoded = replica::BulkHelloAckMsg::decode(reader);
  EXPECT_EQ(decoded.site, msg.site);
  EXPECT_EQ(decoded.backends, msg.backends);
  EXPECT_EQ(decoded.tcp_port, msg.tcp_port);
  EXPECT_EQ(decoded.budp_port, msg.budp_port);
}

TEST(LockWireCodec, TruncatedBulkHelloThrows) {
  replica::BulkHelloMsg msg;
  msg.backends = replica::kBulkCapTcp;
  msg.tcp_port = 40123;
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 3);  // cut inside the port fields
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kBulkHello);
  EXPECT_THROW(replica::BulkHelloMsg::decode(reader), util::CodecError);
}

TEST(LockWireCodec, StatsRequestRoundTrip) {
  replica::StatsRequestMsg msg;
  msg.reply_port = 4321;
  msg.probe_nonce = 0xfeedbeefcafeull;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kStatsRequest);
  const auto decoded = replica::StatsRequestMsg::decode(reader);
  EXPECT_EQ(decoded.reply_port, msg.reply_port);
  EXPECT_EQ(decoded.probe_nonce, msg.probe_nonce);
}

TEST(LockWireCodec, StatsReplyRoundTrip) {
  replica::StatsReplyMsg msg;
  msg.probe_nonce = 77;
  msg.shard_id = 3;
  msg.wall_us = 1'700'000'000'000'000;
  msg.metrics.push_back({"shard.3.grants", replica::StatsReplyMsg::kCounter,
                         512});
  msg.metrics.push_back({"shard.3.queue_depth",
                         replica::StatsReplyMsg::kGauge, 4});
  msg.hists.push_back({"shard.3.wait_us", 100, 123456, {1, 0, 3, 96}});

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kStatsReply);
  const auto decoded = replica::StatsReplyMsg::decode(reader);
  EXPECT_EQ(decoded.probe_nonce, msg.probe_nonce);
  EXPECT_EQ(decoded.shard_id, msg.shard_id);
  EXPECT_EQ(decoded.wall_us, msg.wall_us);
  ASSERT_EQ(decoded.metrics.size(), msg.metrics.size());
  for (std::size_t i = 0; i < msg.metrics.size(); ++i) {
    EXPECT_EQ(decoded.metrics[i].name, msg.metrics[i].name);
    EXPECT_EQ(decoded.metrics[i].kind, msg.metrics[i].kind);
    EXPECT_EQ(decoded.metrics[i].value, msg.metrics[i].value);
  }
  ASSERT_EQ(decoded.hists.size(), 1u);
  EXPECT_EQ(decoded.hists[0].name, msg.hists[0].name);
  EXPECT_EQ(decoded.hists[0].count, msg.hists[0].count);
  EXPECT_EQ(decoded.hists[0].sum, msg.hists[0].sum);
  EXPECT_EQ(decoded.hists[0].buckets, msg.hists[0].buckets);
}

TEST(LockWireCodec, TruncatedStatsRequestThrows) {
  replica::StatsRequestMsg msg;
  msg.reply_port = 4321;
  msg.probe_nonce = 99;
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 4);  // cut inside the nonce
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kStatsRequest);
  EXPECT_THROW(replica::StatsRequestMsg::decode(reader), util::CodecError);
}

TEST(LockWireCodec, TruncatedStatsReplyThrows) {
  replica::StatsReplyMsg msg;
  msg.hists.push_back({"shard.0.wait_us", 10, 5000, {1, 2, 3, 4}});
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 6);  // cut inside the bucket list
  util::WireReader reader(wire);
  reader.u8();  // type byte (asserted by the round-trip test above)
  EXPECT_THROW(replica::StatsReplyMsg::decode(reader), util::CodecError);
}

TEST(LockWireCodec, TruncatedLockMessagesThrow) {
  replica::GrantMsg msg;
  msg.holders = {1, 2, 3};
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 5);  // cut inside the holder list
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kGrant);
  EXPECT_THROW(replica::GrantMsg::decode(reader), util::CodecError);
}

// MsgType values must be distinct: kGrant once collided with kRefreshCached
// at value 20, masked only because the two messages ride different logical
// ports. tools/lint_protocol.py now guards the whole enum; this pins the
// renumbered value so the check is also visible to a plain test run.
TEST(LockWireCodec, MsgTypeValuesAreDistinct) {
  EXPECT_NE(static_cast<int>(replica::kGrant),
            static_cast<int>(replica::kRefreshCached));
  EXPECT_EQ(static_cast<int>(replica::kGrant), 22);
}

// --- 2. Fragmentation at MTU boundaries ---

// Reassembles `frames` (encoded wire buffers) in the given order.
util::Buffer reassemble(const std::vector<util::Buffer>& frames) {
  FragmentAssembler assembler;
  for (const auto& wire : frames) {
    util::WireReader reader(wire);
    EXPECT_EQ(decode_frame_type(reader), FrameType::kData);
    assembler.add(decode_data_frame(reader));
  }
  EXPECT_TRUE(assembler.complete());
  return assembler.assemble();
}

TEST(FrameCodec, FragmentationBoundaries) {
  constexpr std::size_t kChunk = 128;
  // sizes straddling every boundary that matters: empty message, one byte,
  // exactly one chunk +/- 1, and a many-fragment message with a remainder.
  const std::size_t sizes[] = {0, 1, kChunk - 1, kChunk, kChunk + 1,
                               3 * kChunk + 7};
  const std::size_t expect_frags[] = {1, 1, 1, 1, 2, 4};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const util::Buffer payload = make_payload(sizes[i], 7);
    const auto frames = fragment_message(/*seq=*/i, /*port=*/12, payload,
                                         kChunk);
    ASSERT_EQ(frames.size(), expect_frags[i]) << "size " << sizes[i];
    for (const auto& wire : frames) {
      ASSERT_LE(wire.size(), kFragHeaderBytes + kChunk);
    }
    EXPECT_EQ(reassemble(frames), payload) << "size " << sizes[i];
  }
}

TEST(FrameCodec, OutOfOrderAndDuplicateFragmentsReassemble) {
  const util::Buffer payload = make_payload(1000, 3);
  auto frames = fragment_message(/*seq=*/5, /*port=*/8, payload,
                                 /*max_chunk=*/100);
  ASSERT_EQ(frames.size(), 10u);

  std::mt19937 rng(1234);
  std::shuffle(frames.begin(), frames.end(), rng);
  // Duplicate a few fragments (retransmission behaviour on the real wire).
  frames.push_back(frames[0]);
  frames.push_back(frames[3]);

  FragmentAssembler assembler;
  std::uint32_t accepted = 0;
  for (const auto& wire : frames) {
    util::WireReader reader(wire);
    ASSERT_EQ(decode_frame_type(reader), FrameType::kData);
    if (assembler.add(decode_data_frame(reader))) ++accepted;
  }
  EXPECT_EQ(accepted, 10u);  // duplicates rejected
  ASSERT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.port(), 8);
  EXPECT_EQ(assembler.assemble(), payload);
}

TEST(FrameCodec, MissingReportsUnreceivedIndices) {
  const util::Buffer payload = make_payload(500);
  const auto frames = fragment_message(1, 2, payload, /*max_chunk=*/100);
  ASSERT_EQ(frames.size(), 5u);
  FragmentAssembler assembler;
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    util::WireReader reader(frames[i]);
    decode_frame_type(reader);
    assembler.add(decode_data_frame(reader));
  }
  EXPECT_FALSE(assembler.complete());
  EXPECT_EQ(assembler.missing(), (std::vector<std::uint32_t>{1, 3}));
}

// --- 3. Sim-emitted frames decode with the shared (live-side) path ---

// Captures the raw datagrams a simulated MochaNetEndpoint puts on the wire
// by binding the peer's wire port directly, then decodes + reassembles them
// with the shared codec — the exact code path live::Endpoint runs on recvfrom.
TEST(FrameConformance, SimEndpointFramesDecodeWithSharedCodec) {
  sim::Scheduler sched;
  Network net(sched, NetProfile::instant());
  const NodeId a = net.add_node("sim-sender");
  const NodeId b = net.add_node("live-like-receiver");
  MochaNetEndpoint sender(net, a);
  auto& wire_box = net.bind(b, MochaNetEndpoint::kWirePort);

  // Big enough to fragment at the profile MTU.
  const std::size_t mtu_payload = net.profile().mtu - kFragHeaderBytes;
  const util::Buffer message = make_payload(3 * mtu_payload + 11, 9);
  sched.spawn("send", [&] { sender.send(b, /*port=*/44, message); });

  std::vector<Datagram> captured;
  sched.spawn("capture", [&] {
    while (true) {
      auto dgram = wire_box.recv_for(1'000'000);
      if (!dgram) break;
      captured.push_back(std::move(*dgram));
    }
  });
  sched.run();

  FragmentAssembler assembler;
  std::uint64_t seq = 0;
  bool saw_data = false;
  for (const auto& dgram : captured) {
    util::WireReader reader(dgram.payload);
    // The capture sends no ACKs, so the sim side retransmits; the shared
    // decoders must handle the duplicates exactly like live::Endpoint does.
    if (decode_frame_type(reader) != FrameType::kData) continue;
    const DataFrame frame = decode_data_frame(reader);
    saw_data = true;
    seq = frame.seq;
    assembler.add(frame);  // duplicates return false, harmlessly
  }
  ASSERT_TRUE(saw_data);
  EXPECT_EQ(seq, 1u);  // first message from a fresh endpoint
  ASSERT_TRUE(assembler.complete());
  EXPECT_EQ(assembler.frag_count(), 4u);
  EXPECT_EQ(assembler.port(), 44);
  EXPECT_EQ(assembler.assemble(), message);
}

// A DATA+ACK frame built with the shared encoder (the live endpoint's
// piggyback path) must do double duty at a *sim* endpoint: release the
// send_sync waiter of the acked message AND deliver the data payload.
TEST(FrameConformance, SimEndpointAcceptsPiggybackedAckFrames) {
  sim::Scheduler sched;
  Network net(sched, NetProfile::instant());
  const NodeId a = net.add_node("sim-endpoint");
  const NodeId b = net.add_node("live-like-peer");
  MochaNetEndpoint endpoint(net, a);
  auto& wire_box = net.bind(b, MochaNetEndpoint::kWirePort);

  const util::Buffer outbound = make_payload(40, 1);
  const util::Buffer reply_payload = make_payload(64, 2);

  util::Status sync_status(util::StatusCode::kTimeout, "never ran");
  sched.spawn("send", [&] {
    sync_status = endpoint.send_sync(b, /*port=*/9, outbound,
                                     /*timeout=*/1'000'000);
  });

  sched.spawn("peer", [&] {
    // Wait for the endpoint's first DATA fragment (its seq 1), then answer
    // with one DATA+ACK datagram: our own seq-1 message carrying the
    // transport ack for theirs, exactly what live::Endpoint would emit.
    std::uint64_t their_seq = 0;
    while (their_seq == 0) {
      auto dgram = wire_box.recv_for(1'000'000);
      ASSERT_TRUE(dgram.has_value());
      util::WireReader reader(dgram->payload);
      if (decode_frame_type(reader) != FrameType::kData) continue;
      their_seq = decode_data_frame(reader).seq;
    }
    EXPECT_EQ(their_seq, 1u);

    Datagram reply;
    reply.src = b;
    reply.dst = a;
    reply.src_port = MochaNetEndpoint::kWirePort;
    reply.dst_port = MochaNetEndpoint::kWirePort;
    encode_data_ack_frame(reply.payload, /*seq=*/1, /*frag_idx=*/0,
                          /*frag_count=*/1, /*port=*/9,
                          std::vector<std::uint64_t>{their_seq},
                          reply_payload);
    net.send(std::move(reply));
  });

  std::optional<MochaNetEndpoint::Message> delivered;
  sched.spawn("recv", [&] { delivered = endpoint.recv_for(9, 1'000'000); });
  sched.run();

  EXPECT_TRUE(sync_status.is_ok()) << sync_status.to_string();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->src, b);
  EXPECT_EQ(delivered->payload, reply_payload);
}

}  // namespace
}  // namespace mocha::net
