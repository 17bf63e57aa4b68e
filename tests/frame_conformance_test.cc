// Cross-backend conformance tests for the shared MochaNet frame codec
// (net/frame.h). Both transport backends — the simulated MochaNetEndpoint
// and the live UDP live::Endpoint — must emit and accept exactly these
// bytes, so the codec is exercised three ways here:
//   1. pure round-trips through encode/decode,
//   2. fragmentation at MTU boundaries + out-of-order/duplicate reassembly,
//   3. interception of real frames emitted by the *sim* endpoint, decoded
//      with the same shared functions the live endpoint uses.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <random>
#include <string>

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

// Runs `decode` with the address space allowed to grow by at most 1 GiB;
// exits 0 when it throws util::CodecError, 1 otherwise. A decoder that
// sizes a buffer from a hostile count before checking it dies here instead
// (bad_alloc or an allocator abort), whatever the host's memory and
// overcommit policy.
[[noreturn]] void decode_in_small_address_space(
    const std::function<void()>& decode) {
  std::size_t vm_kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) vm_kib = std::stoull(line.substr(7));
  }
  const rlim_t limit = (rlim_t{vm_kib} << 10) + (rlim_t{1} << 30);
  const rlimit as{limit, limit};
  setrlimit(RLIMIT_AS, &as);
  try {
    decode();
  } catch (const util::CodecError&) {
    std::_Exit(0);
  }
  std::_Exit(1);
}

void expect_rejected_without_allocating(const std::function<void()>& decode) {
  EXPECT_EXIT(decode_in_small_address_space(decode),
              testing::ExitedWithCode(0), "");
}

// --- 1. Round-trips ---

// Reads a frame's type byte; the decoders take the reader from there.
util::WireReader read_type(const util::Buffer& wire, FrameType type) {
  util::WireReader reader(wire);
  EXPECT_EQ(decode_frame_type(reader), type);
  return reader;
}

// Encodes a sample frame of `type`, decodes it, checks each decoded field
// against the sample, and encodes the decoded frame again: the two encodings
// must be the same bytes. The switch has no default, so under -Werror=switch
// a new FrameType does not build until it has a case here.
void expect_frame_round_trip(FrameType type) {
  const util::Buffer payload = make_payload(300);
  const std::vector<std::uint64_t> acks = {7, 0xffffffffffffffffull, 42};
  util::Buffer wire;
  util::Buffer again;
  switch (type) {
    case FrameType::kData: {
      encode_data_frame(wire, /*seq=*/42, /*frag_idx=*/3, /*frag_count=*/7,
                        /*port=*/30, payload);
      EXPECT_EQ(wire.size(), kFragHeaderBytes + payload.size());
      util::WireReader reader = read_type(wire, type);
      const DataFrame f = decode_data_frame(reader);
      EXPECT_EQ(f.seq, 42u);
      EXPECT_EQ(f.frag_idx, 3u);
      EXPECT_EQ(f.frag_count, 7u);
      EXPECT_EQ(f.port, 30);
      EXPECT_TRUE(std::ranges::equal(f.chunk, payload));
      encode_data_frame(again, f.seq, f.frag_idx, f.frag_count, f.port,
                        f.chunk);
      break;
    }
    case FrameType::kAck: {
      encode_ack_frame(wire, 0xdeadbeefcafe1234ull);
      util::WireReader reader = read_type(wire, type);
      const AckFrame f = decode_ack_frame(reader);
      EXPECT_EQ(f.seq, 0xdeadbeefcafe1234ull);
      encode_ack_frame(again, f.seq);
      break;
    }
    case FrameType::kNack: {
      encode_nack_frame(wire, NackFrame{.seq = 9, .missing = {0, 4, 17}});
      util::WireReader reader = read_type(wire, type);
      const NackFrame f = decode_nack_frame(reader);
      EXPECT_EQ(f.seq, 9u);
      EXPECT_EQ(f.missing, (std::vector<std::uint32_t>{0, 4, 17}));
      encode_nack_frame(again, f);
      break;
    }
    case FrameType::kDataAck: {
      encode_data_ack_frame(wire, /*seq=*/11, /*frag_idx=*/1,
                            /*frag_count=*/2, /*port=*/25, acks, payload);
      EXPECT_EQ(wire.size(), kDataAckBaseHeaderBytes +
                                 acks.size() * kPiggybackAckBytes +
                                 payload.size());
      util::WireReader reader = read_type(wire, type);
      const DataFrame f = decode_data_ack_frame(reader);
      EXPECT_EQ(f.seq, 11u);
      EXPECT_EQ(f.frag_idx, 1u);
      EXPECT_EQ(f.frag_count, 2u);
      EXPECT_EQ(f.port, 25);
      EXPECT_EQ(f.acks, acks);
      EXPECT_TRUE(std::ranges::equal(f.chunk, payload));
      encode_data_ack_frame(again, f.seq, f.frag_idx, f.frag_count, f.port,
                            f.acks, f.chunk);
      break;
    }
  }
  EXPECT_EQ(again, wire);
}

// FrameCodec.<Stem>FrameRoundTrip, one per row of the FrameType table.
#define MOCHA_FRAME_ROUND_TRIP(name, value, stem) \
  TEST(FrameCodec, stem##FrameRoundTrip) {        \
    expect_frame_round_trip(FrameType::name);     \
  }
MOCHA_FRAME_TYPES(MOCHA_FRAME_ROUND_TRIP)
#undef MOCHA_FRAME_ROUND_TRIP

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
// Both runtimes speak these codecs: replica::LockDirectory decodes the
// requests behind the sim SyncService and the live LockServer, and the sim
// ReplicaLock and live LockClient encode them.

// A sample of each typed codec. Its fields hold distinct values, so a
// codec that drops or swaps a field, on either side, decodes a message that
// differs from the sample.
void fill_sample(replica::AcquireLockMsg& msg) {
  msg.lock_id = 7;
  msg.site = 3;
  msg.grant_port = 41;
  msg.data_port = 42;
  msg.expected_hold_us = 250'000;
  msg.mode = replica::LockWireMode::kShared;
  msg.nonce = 0x1122334455667788ull;
}

void fill_sample(replica::ReleaseLockMsg& msg) {
  msg.lock_id = 9;
  msg.site = 1;
  msg.new_version = 12;
  msg.up_to_date = {1, 4, 6};
  msg.mode = replica::LockWireMode::kShared;
}

void fill_sample(replica::RegisterLockMsg& msg) {
  msg.lock_id = 100;
  msg.site = 5;
}

void fill_sample(replica::VersionReportMsg& msg) {
  msg.lock_id = 21;
  msg.site = 4;
  msg.version = 99;
}

void fill_sample(replica::TransferReplicaMsg& msg) {
  msg.lock_id = 13;
  msg.version = 0x0102030405060708ull;
  msg.dst_site = 6;
  msg.dst_port = replica::kDaemonDataPort;
}

void fill_sample(replica::PollVersionMsg& msg) {
  msg.lock_id = 21;
  msg.reply_port = replica::kSyncPort;
}

void fill_sample(replica::GrantMsg& msg) {
  msg.lock_id = 8;
  msg.nonce = 0xabcdef0102030405ull;
  msg.version = 77;
  msg.flag = replica::GrantFlag::kNeedNewVersion;
  msg.transfer_from = 4;  // last owner: the daemon directed to send
  msg.holders = {2, 3, 9};
}

void fill_sample(replica::ShardMapRequestMsg& msg) { msg.reply_port = 901; }

void fill_sample(replica::ShardMapReplyMsg& msg) {
  // Entry 0: the bootstrap shard advertising no address (ipv4 == 0 means
  // "keep your existing route"); entry 1: a fully-advertised shard.
  msg.shards.push_back({0, 1, 0, 0});
  msg.shards.push_back({1, 1001, 0x0100007f, 9001});
}

void fill_sample(replica::StatsRequestMsg& msg) {
  msg.reply_port = 4321;
  msg.probe_nonce = 0xfeedbeefcafeull;
}

void fill_sample(replica::StatsReplyMsg& msg) {
  msg.probe_nonce = 77;
  msg.shard_id = 3;
  msg.wall_us = 1'700'000'000'000'000;
  msg.metrics.push_back({"shard.3.grants", replica::StatsReplyMsg::kCounter,
                         512});
  msg.metrics.push_back({"shard.3.queue_depth",
                         replica::StatsReplyMsg::kGauge, 4});
  msg.hists.push_back({"shard.3.wait_us", 100, 123456, {1, 0, 3, 96}});
}

// Encodes the sample of codec `Msg`, decodes it, and encodes the decoded
// message again: the decoder must read exactly the bytes the encoder wrote,
// the decoded message must equal the sample field by field, and the two
// encodings must be the same. A codec without a fill_sample overload does
// not build.
template <typename Msg>
void expect_msg_round_trip(replica::MsgType type) {
  Msg msg;
  fill_sample(msg);
  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), type);
  const Msg decoded = Msg::decode(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(decoded, msg);
  util::Buffer again;
  decoded.encode(again);
  EXPECT_EQ(again, wire);
}

// LockWireCodec.<Stem>RoundTrip, one per CODEC row of the MsgType table.
#define MOCHA_NO_ROUND_TRIP(name, value)
#define MOCHA_MSG_ROUND_TRIP(name, value, stem)               \
  TEST(LockWireCodec, stem##RoundTrip) {                      \
    expect_msg_round_trip<replica::stem##Msg>(replica::name); \
  }
MOCHA_MSG_TYPES(MOCHA_NO_ROUND_TRIP, MOCHA_MSG_ROUND_TRIP)
#undef MOCHA_MSG_ROUND_TRIP
#undef MOCHA_NO_ROUND_TRIP

TEST(LockWireCodec, TransferReplicaCarriesRequesterAddress) {
  // The lock server names the requester's UDP address in the directive, so
  // the serving daemon reaches a site it never heard from.
  replica::TransferReplicaMsg msg;
  msg.lock_id = 13;
  msg.dst_site = 7;
  msg.dst_port = 1001;
  msg.dst_ipv4 = 0x0100007f;  // 127.0.0.1 in network byte order
  msg.dst_udp_port = 54321;

  util::Buffer wire;
  msg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kTransferReplica);
  const auto decoded = replica::TransferReplicaMsg::decode(reader);
  EXPECT_EQ(decoded.dst_site, msg.dst_site);
  EXPECT_EQ(decoded.dst_ipv4, msg.dst_ipv4);
  EXPECT_EQ(decoded.dst_udp_port, msg.dst_udp_port);
  EXPECT_EQ(decoded.dst_bulk_caps, 0u);  // none given: UDP only
  EXPECT_EQ(decoded.dst_tcp_port, 0u);
  EXPECT_EQ(reader.remaining(), 0u);
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

TEST(LockWireCodec, RegisterLockCarriesBulkContact) {
  // A site's daemon contact rides its registration, and the lock server
  // passes it on in each directive naming the site.
  replica::RegisterLockMsg reg;
  reg.lock_id = 4;
  reg.site = 42;
  reg.bulk_caps = replica::kBulkCapUdp | replica::kBulkCapTcp;
  reg.tcp_port = 40123;
  util::Buffer wire;
  reg.encode(wire);
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kRegisterLock);
  const auto decoded = replica::RegisterLockMsg::decode(reader);
  EXPECT_EQ(decoded.bulk_caps, reg.bulk_caps);
  EXPECT_EQ(decoded.tcp_port, reg.tcp_port);

  replica::TransferReplicaMsg directive;
  directive.dst_site = reg.site;
  directive.dst_bulk_caps = reg.bulk_caps;
  directive.dst_tcp_port = reg.tcp_port;
  util::Buffer directive_wire;
  directive.encode(directive_wire);
  util::WireReader directive_reader(directive_wire);
  ASSERT_EQ(directive_reader.u8(), replica::kTransferReplica);
  const auto served = replica::TransferReplicaMsg::decode(directive_reader);
  EXPECT_EQ(served.dst_bulk_caps, reg.bulk_caps);
  EXPECT_EQ(served.dst_tcp_port, reg.tcp_port);
}

TEST(LockWireCodec, TruncatedTransferReplicaThrows) {
  replica::TransferReplicaMsg msg;
  msg.dst_bulk_caps = replica::kBulkCapTcp;
  msg.dst_tcp_port = 40123;
  util::Buffer wire;
  msg.encode(wire);
  wire.resize(wire.size() - 1);  // cut inside the TCP contact
  util::WireReader reader(wire);
  ASSERT_EQ(reader.u8(), replica::kTransferReplica);
  EXPECT_THROW(replica::TransferReplicaMsg::decode(reader), util::CodecError);
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
  reader.u8();  // type byte (asserted by the round-trip test)
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

// Every wire value, written out. The round trips compare symbolically, so
// only this test sees a renumbering, which older peers would misread. That
// no two values collide (kGrant once sat on kRefreshCached's 20) is a
// static_assert in net/frame_type.h and replica/msg_type.h.
TEST(WireEnums, EveryValueIsPinned) {
  EXPECT_EQ(static_cast<int>(FrameType::kData), 0);
  EXPECT_EQ(static_cast<int>(FrameType::kAck), 1);
  EXPECT_EQ(static_cast<int>(FrameType::kNack), 2);
  EXPECT_EQ(static_cast<int>(FrameType::kDataAck), 3);

  EXPECT_EQ(replica::kAcquireLock, 1);
  EXPECT_EQ(replica::kReleaseLock, 2);
  EXPECT_EQ(replica::kRegisterLock, 3);
  EXPECT_EQ(replica::kRegisterReplica, 4);
  EXPECT_EQ(replica::kAttachReplica, 5);
  EXPECT_EQ(replica::kVersionReport, 6);
  EXPECT_EQ(replica::kAttachReply, 7);
  EXPECT_EQ(replica::kTransferReplica, 10);
  EXPECT_EQ(replica::kPollVersion, 12);
  EXPECT_EQ(replica::kHeartbeat, 14);
  EXPECT_EQ(replica::kSyncMoved, 15);
  EXPECT_EQ(replica::kWhereIsSync, 16);
  EXPECT_EQ(replica::kSyncLocation, 17);
  EXPECT_EQ(replica::kPublishCached, 18);
  EXPECT_EQ(replica::kPublishReply, 19);
  EXPECT_EQ(replica::kRefreshCached, 20);
  EXPECT_EQ(replica::kRefreshReply, 21);
  EXPECT_EQ(replica::kGrant, 22);
  EXPECT_EQ(replica::kShardMapRequest, 25);
  EXPECT_EQ(replica::kShardMapReply, 26);
  EXPECT_EQ(replica::kStatsRequest, 29);
  EXPECT_EQ(replica::kStatsReply, 30);
}

// A NACK claiming more missing indices than its bytes can hold is
// rejected before the decoder reserves room for them (n = 2^32-1 would be
// a 16 GiB reservation).
TEST(FrameCodec, NackCountBeyondFrameThrowsBeforeReserving) {
  util::Buffer wire;
  util::WireWriter writer(wire);
  writer.u8(static_cast<std::uint8_t>(FrameType::kNack));
  writer.u64(1);
  writer.u32(0xFFFFFFFFu);
  writer.u32(3);  // one index where 2^32-1 were claimed
  expect_rejected_without_allocating([&] {
    util::WireReader reader(wire);
    decode_frame_type(reader);
    decode_nack_frame(reader);
  });

  // The count that exactly fills the frame still decodes.
  util::Buffer exact;
  encode_nack_frame(exact, NackFrame{1, {4, 5}});
  util::WireReader reader(exact);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kNack);
  EXPECT_EQ(decode_nack_frame(reader).missing,
            (std::vector<std::uint32_t>{4, 5}));
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

// The assembler sizes its state from the first fragment's frag_count: a
// count above kMaxFragments off the wire is a CodecError, not an
// allocation (2^32-1 would be ~96 GiB of part slots).
TEST(FrameCodec, AssemblerRejectsFragCountAboveMax) {
  const util::Buffer chunk = make_payload(4);
  expect_rejected_without_allocating([&] {
    FragmentAssembler assembler;
    assembler.add(DataFrame{1, 0, 0xFFFFFFFFu, 4, {}, chunk});
  });
  FragmentAssembler assembler;
  EXPECT_THROW(assembler.add(DataFrame{1, 0, kMaxFragments + 1, 4, {}, chunk}),
               util::CodecError);
  EXPECT_THROW(assembler.add(DataFrame{1, 0, 0, 4, {}, chunk}),
               util::CodecError);
  // The limit itself is a valid message.
  EXPECT_TRUE(assembler.add(DataFrame{1, 0, kMaxFragments, 4, {}, chunk}));
  EXPECT_EQ(assembler.frag_count(), kMaxFragments);
}

// The sender side of the same limit: a message that would need more than
// kMaxFragments fragments is refused instead of emitted.
TEST(FrameCodec, FragmentMessageRefusesMoreThanMaxFragments) {
  const util::Buffer at_limit(kMaxFragments);
  EXPECT_EQ(fragment_message(1, 2, at_limit, /*max_chunk=*/1).size(),
            kMaxFragments);
  const util::Buffer over(kMaxFragments + 1);
  EXPECT_THROW(fragment_message(1, 2, over, /*max_chunk=*/1),
               std::length_error);
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
