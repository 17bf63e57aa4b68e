// net::MochaNetCore driven directly: a fake clock (plain microsecond
// values) and a fake sink that records every output. No scheduler, no
// sockets — the same state machine the sim and live endpoints adapt.
#include <gtest/gtest.h>

#include <vector>

#include "net/mochanet_core.h"

namespace mocha::net {
namespace {

constexpr NodeId kPeer = 7;
constexpr Port kPort = 40;

util::Buffer make_payload(std::size_t n, std::uint8_t seed = 1) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v++;
  return buf;
}

util::Buffer data_frame(std::uint64_t seq, std::uint32_t idx,
                        std::uint32_t count, const util::Buffer& chunk) {
  util::Buffer frame;
  encode_data_frame(frame, seq, idx, count, kPort, chunk);
  return frame;
}

util::Buffer ack_frame(std::uint64_t seq) {
  util::Buffer frame;
  encode_ack_frame(frame, seq);
  return frame;
}

util::Buffer nack_frame(std::uint64_t seq, std::vector<std::uint32_t> missing) {
  util::Buffer frame;
  encode_nack_frame(frame, NackFrame{seq, std::move(missing)});
  return frame;
}

FrameType type_of(const util::Buffer& frame) {
  util::WireReader reader(frame);
  return decode_frame_type(reader);
}

class FakeSink : public MochaNetSink {
 public:
  struct Delivered {
    NodeId src;
    Port port;
    util::Buffer payload;
  };

  void send_frame(NodeId dst, util::Buffer frame) override {
    EXPECT_EQ(dst, kPeer);
    frames.push_back(std::move(frame));
  }
  void deliver(NodeId src, Port port, util::Buffer payload) override {
    delivered.push_back({src, port, std::move(payload)});
  }
  void acked(NodeId /*dst*/, std::uint64_t seq,
             std::int64_t latency_us) override {
    acks.push_back(seq);
    latencies.push_back(latency_us);
  }
  void failed(NodeId /*dst*/, std::uint64_t seq) override {
    failures.push_back(seq);
  }
  void on_event(const Event& event) override { events.push_back(event); }

  // Frames of `type` emitted so far.
  std::size_t count(FrameType type) const {
    std::size_t n = 0;
    for (const auto& frame : frames) n += type_of(frame) == type;
    return n;
  }

  std::vector<util::Buffer> frames;
  std::vector<Delivered> delivered;
  std::vector<std::uint64_t> acks;
  std::vector<std::int64_t> latencies;
  std::vector<std::uint64_t> failures;
  std::vector<Event> events;
};

MochaNetOptions fixed(std::int64_t rto_us, int max_retries) {
  MochaNetOptions opts;
  opts.rto_us = rto_us;
  opts.max_retries = max_retries;
  opts.adaptive_rto = false;
  opts.nack_delay_us = 0;
  opts.ack_delay_us = 0;
  return opts;
}

TEST(MochaNetCore, DeliversInOrderAcrossOutOfOrderCompletions) {
  FakeSink sink;
  MochaNetCore core(fixed(1'000, 3), sink);
  // seq 1 has two fragments; seq 2 and seq 3 complete while seq 1 is still
  // missing a fragment, so both wait in the stash.
  core.on_frame(0, kPeer, data_frame(1, 0, 2, make_payload(4, 1)));
  core.on_frame(1, kPeer, data_frame(3, 0, 1, make_payload(4, 3)));
  core.on_frame(2, kPeer, data_frame(2, 0, 1, make_payload(4, 2)));
  EXPECT_TRUE(sink.delivered.empty());
  EXPECT_EQ(sink.count(FrameType::kAck), 2u);  // complete messages are acked

  core.on_frame(3, kPeer, data_frame(1, 1, 2, make_payload(4, 9)));
  ASSERT_EQ(sink.delivered.size(), 3u);
  util::Buffer first = make_payload(4, 1);
  const util::Buffer tail = make_payload(4, 9);
  first.insert(first.end(), tail.begin(), tail.end());
  EXPECT_EQ(sink.delivered[0].payload, first);
  EXPECT_EQ(sink.delivered[1].payload, make_payload(4, 2));
  EXPECT_EQ(sink.delivered[2].payload, make_payload(4, 3));
  for (const auto& msg : sink.delivered) {
    EXPECT_EQ(msg.src, kPeer);
    EXPECT_EQ(msg.port, kPort);
  }
  EXPECT_EQ(core.counters().messages_delivered, 3u);
  // Nothing stashed any more: no gap-skip deadline is left behind.
  EXPECT_EQ(core.next_deadline_us(), MochaNetCore::kNoDeadline);
}

TEST(MochaNetCore, DuplicateTriggersReAck) {
  FakeSink sink;
  MochaNetCore core(fixed(1'000, 3), sink);
  core.on_frame(0, kPeer, data_frame(1, 0, 1, make_payload(8)));
  core.on_frame(1, kPeer, data_frame(3, 0, 1, make_payload(8)));  // stashed
  ASSERT_EQ(sink.delivered.size(), 1u);
  ASSERT_EQ(sink.count(FrameType::kAck), 2u);

  // The sender missed both acks and resends: one delivered, one stashed.
  core.on_frame(2, kPeer, data_frame(1, 0, 1, make_payload(8)));
  core.on_frame(3, kPeer, data_frame(3, 0, 1, make_payload(8)));
  EXPECT_EQ(sink.count(FrameType::kAck), 4u);
  EXPECT_EQ(sink.delivered.size(), 1u);  // neither is delivered twice
}

TEST(MochaNetCore, RetriesExhaustedFails) {
  FakeSink sink;
  MochaNetCore core(fixed(1'000, 2), sink);
  const std::uint64_t seq = core.send(0, kPeer, kPort, make_payload(10));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(sink.frames.size(), 1u);
  // The RTO starts at sent(), not at send().
  EXPECT_EQ(core.next_deadline_us(), MochaNetCore::kNoDeadline);
  core.sent(500, kPeer, seq);
  EXPECT_EQ(core.next_deadline_us(), 1'500);

  core.on_timer(1'499);
  EXPECT_EQ(sink.frames.size(), 1u);  // never early
  core.on_timer(1'500);
  core.on_timer(2'500);
  EXPECT_EQ(sink.frames.size(), 3u);  // two whole-message resends
  EXPECT_TRUE(sink.failures.empty());
  core.on_timer(3'500);
  EXPECT_EQ(sink.failures, std::vector<std::uint64_t>{seq});
  EXPECT_EQ(sink.frames.size(), 3u);
  EXPECT_EQ(core.outstanding(), 0u);
  EXPECT_EQ(core.counters().retransmissions, 2u);
  EXPECT_EQ(core.next_deadline_us(), MochaNetCore::kNoDeadline);
  // A late ack for the failed message is ignored.
  core.on_frame(3'600, kPeer, ack_frame(seq));
  EXPECT_TRUE(sink.acks.empty());
}

TEST(MochaNetCore, KarnRuleSkipsRetransmittedMessages) {
  FakeSink sink;
  MochaNetOptions opts;
  opts.rto_us = 20'000;
  MochaNetCore core(opts, sink);

  const std::uint64_t first = core.send(0, kPeer, kPort, make_payload(10));
  core.sent(0, kPeer, first);
  core.on_timer(20'000);  // RTO expiry: resent, backed off
  EXPECT_EQ(sink.frames.size(), 2u);
  EXPECT_EQ(core.rto_us(kPeer), 40'000);
  core.on_frame(25'000, kPeer, ack_frame(first));
  EXPECT_EQ(sink.acks, std::vector<std::uint64_t>{first});
  EXPECT_EQ(sink.latencies, std::vector<std::int64_t>{25'000});
  EXPECT_EQ(core.srtt_us(kPeer), 0);      // ambiguous ack: no sample
  EXPECT_EQ(core.rto_us(kPeer), 40'000);  // and the backoff stands

  const std::uint64_t second =
      core.send(30'000, kPeer, kPort, make_payload(10));
  core.sent(30'000, kPeer, second);
  core.on_frame(33'000, kPeer, ack_frame(second));
  EXPECT_EQ(core.srtt_us(kPeer), 3'000);
  EXPECT_LT(core.rto_us(kPeer), 20'000);  // sampled, backoff reset
}

TEST(MochaNetCore, NackWaitsForQuiescence) {
  FakeSink sink;
  MochaNetOptions opts = fixed(1'000'000, 5);
  opts.nack_delay_us = 2'000;
  MochaNetCore core(opts, sink);

  core.on_frame(0, kPeer, data_frame(1, 0, 3, make_payload(8)));
  EXPECT_EQ(core.next_deadline_us(), 2'000);
  core.on_frame(1'500, kPeer, data_frame(1, 1, 3, make_payload(8)));
  // The probe comes due while fragments are still arriving: it re-arms at
  // last arrival + delay instead of NACKing.
  core.on_timer(2'000);
  EXPECT_EQ(sink.count(FrameType::kNack), 0u);
  EXPECT_EQ(core.next_deadline_us(), 3'500);

  core.on_timer(3'500);
  ASSERT_EQ(sink.count(FrameType::kNack), 1u);
  util::WireReader reader(sink.frames.back());
  ASSERT_EQ(decode_frame_type(reader), FrameType::kNack);
  const NackFrame nack = decode_nack_frame(reader);
  EXPECT_EQ(nack.seq, 1u);
  EXPECT_EQ(nack.missing, std::vector<std::uint32_t>{2});
  EXPECT_EQ(core.counters().nacks_sent, 1u);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].kind, trace::EventKind::kNackSent);
  EXPECT_EQ(core.next_deadline_us(), 5'500);  // keeps probing while quiet
}

TEST(MochaNetCore, NackResendPushesRtoOut) {
  FakeSink sink;
  MochaNetOptions opts;
  opts.max_frame_bytes = 100;  // 81-byte chunks: 200 bytes -> 3 fragments
  opts.rto_us = 10'000;
  MochaNetCore core(opts, sink);

  const std::uint64_t seq = core.send(0, kPeer, kPort, make_payload(200));
  ASSERT_EQ(sink.frames.size(), 3u);
  core.sent(0, kPeer, seq);
  EXPECT_EQ(core.next_deadline_us(), 10'000);

  core.on_frame(9'000, kPeer, nack_frame(seq, {1, 99}));  // 99: no such frag
  ASSERT_EQ(sink.frames.size(), 4u);
  EXPECT_EQ(sink.frames.back(), sink.frames[1]);  // exactly the missing one
  EXPECT_EQ(core.counters().retransmissions, 1u);
  EXPECT_EQ(core.counters().nacks_received, 1u);
  // The whole-message resend moves out one RTO from the NACK.
  EXPECT_EQ(core.next_deadline_us(), 19'000);
  core.on_timer(10'000);
  EXPECT_EQ(sink.frames.size(), 4u);

  // The NACKed message counts as retransmitted: its ack is not sampled.
  core.on_frame(12'000, kPeer, ack_frame(seq));
  EXPECT_EQ(sink.acks, std::vector<std::uint64_t>{seq});
  EXPECT_EQ(core.srtt_us(kPeer), 0);
}

TEST(MochaNetCore, RepeatedNackIndexIsResentOnce) {
  FakeSink sink;
  MochaNetOptions opts;
  opts.max_frame_bytes = 100;  // 3 fragments, as above
  opts.rto_us = 10'000;
  MochaNetCore core(opts, sink);

  const std::uint64_t seq = core.send(0, kPeer, kPort, make_payload(200));
  core.sent(0, kPeer, seq);
  ASSERT_EQ(sink.frames.size(), 3u);

  // One hostile NACK naming fragment 0 three hundred times and fragment 2
  // twice: each named fragment goes out once.
  std::vector<std::uint32_t> missing(300, 0);
  missing.push_back(2);
  missing.push_back(2);
  core.on_frame(1'000, kPeer, nack_frame(seq, std::move(missing)));
  ASSERT_EQ(sink.frames.size(), 5u);
  EXPECT_EQ(sink.frames[3], sink.frames[0]);
  EXPECT_EQ(sink.frames[4], sink.frames[2]);
  EXPECT_EQ(core.counters().retransmissions, 2u);
}

TEST(MochaNetCore, PiggybackTakesAcksThatFitTheMtu) {
  FakeSink sink;
  MochaNetOptions opts;
  opts.max_frame_bytes = 200;
  opts.ack_delay_us = 500;
  MochaNetCore core(opts, sink);

  // Acks are held for a ride.
  core.on_frame(0, kPeer, data_frame(1, 0, 1, make_payload(8)));
  core.on_frame(0, kPeer, data_frame(2, 0, 1, make_payload(8)));
  EXPECT_EQ(sink.count(FrameType::kAck), 0u);
  EXPECT_EQ(core.next_deadline_us(), 500);

  // A 40-byte message has room for both acks next to its chunk.
  core.send(100, kPeer, kPort, make_payload(40));
  ASSERT_EQ(sink.frames.size(), 1u);
  util::WireReader reader(sink.frames[0]);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kDataAck);
  const DataFrame frame = decode_data_ack_frame(reader);
  EXPECT_EQ(frame.acks, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_LE(sink.frames[0].size(), opts.max_frame_bytes);
  EXPECT_EQ(core.counters().acks_piggybacked, 2u);

  // A full-size first chunk leaves no room: the next ack stays pending and
  // flushes standalone when its delay runs out.
  core.on_frame(200, kPeer, data_frame(3, 0, 1, make_payload(8)));
  core.send(300, kPeer, kPort, make_payload(500));
  EXPECT_EQ(sink.count(FrameType::kDataAck), 1u);
  EXPECT_EQ(sink.count(FrameType::kAck), 0u);
  core.on_timer(700);
  EXPECT_EQ(sink.count(FrameType::kAck), 1u);
  EXPECT_EQ(core.counters().acks_piggybacked, 2u);
}

TEST(MochaNetCore, MicrosecondRttPeerStillHoldsItsAckForTheReply) {
  FakeSink sink;
  MochaNetOptions opts;
  opts.ack_delay_us = 500;
  MochaNetCore core(opts, sink);

  // A LAN peer: a 40 us round trip, well under the 500 us hold.
  const std::uint64_t request = core.send(0, kPeer, kPort, make_payload(16));
  core.sent(0, kPeer, request);
  core.on_frame(40, kPeer, ack_frame(request));
  ASSERT_EQ(sink.acks, std::vector<std::uint64_t>{request});
  EXPECT_EQ(core.srtt_us(kPeer), 40);

  // The peer's message is not acked at once: the ack waits for the reply.
  core.on_frame(100, kPeer, data_frame(1, 0, 1, make_payload(8)));
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.count(FrameType::kAck), 0u);
  EXPECT_EQ(core.next_deadline_us(), 600);

  core.send(150, kPeer, kPort, make_payload(16));
  ASSERT_EQ(sink.frames.size(), 2u);
  util::WireReader reader(sink.frames[1]);
  ASSERT_EQ(decode_frame_type(reader), FrameType::kDataAck);
  EXPECT_EQ(decode_data_ack_frame(reader).acks,
            std::vector<std::uint64_t>{1});
  EXPECT_EQ(core.counters().acks_piggybacked, 1u);

  // Nothing is left for the flush timer to send standalone.
  core.on_timer(600);
  EXPECT_EQ(sink.count(FrameType::kAck), 0u);
}

TEST(MochaNetCore, GapSkipFiresAfterSenderScheduleAndDropsHole) {
  FakeSink sink;
  MochaNetOptions opts = fixed(1'000, 1);  // sender gives up after 2'000
  opts.nack_delay_us = 3'000;
  MochaNetCore core(opts, sink);
  // Window: the sender's retry schedule (2 x 1'000) plus 2 RTO.
  constexpr std::int64_t kWindow = 4'000;

  core.on_frame(0, kPeer, data_frame(1, 0, 2, make_payload(8)));  // the hole
  core.on_frame(0, kPeer, data_frame(2, 0, 1, make_payload(8, 2)));
  core.on_frame(0, kPeer, data_frame(3, 0, 1, make_payload(8, 3)));
  EXPECT_TRUE(sink.delivered.empty());
  core.on_timer(3'000);  // the hole's one NACK probe; then it waits
  EXPECT_EQ(sink.count(FrameType::kNack), 1u);
  EXPECT_EQ(core.next_deadline_us(), kWindow);

  core.on_timer(kWindow - 1);
  EXPECT_TRUE(sink.delivered.empty());
  core.on_timer(kWindow);
  ASSERT_EQ(sink.delivered.size(), 2u);
  EXPECT_EQ(sink.delivered[0].payload, make_payload(8, 2));
  EXPECT_EQ(sink.delivered[1].payload, make_payload(8, 3));
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[1].kind, trace::EventKind::kGapSkip);
  EXPECT_EQ(sink.events[1].seq, 1u);
  EXPECT_EQ(sink.events[1].arg, 2u);
  // The hole's reassembly is gone, and with it its NACK probe (due at
  // 6'000 otherwise).
  EXPECT_EQ(core.next_deadline_us(), MochaNetCore::kNoDeadline);
  // Its last fragment now counts as a duplicate: re-acked, not delivered.
  const std::size_t acks = sink.count(FrameType::kAck);
  core.on_frame(kWindow + 1, kPeer, data_frame(1, 1, 2, make_payload(8)));
  EXPECT_EQ(sink.count(FrameType::kAck), acks + 1);
  EXPECT_EQ(sink.delivered.size(), 2u);
}

TEST(MochaNetCore, GapSkipWindowRestartsWhenTheStreamMoves) {
  FakeSink sink;
  MochaNetCore core(fixed(1'000, 1), sink);  // window 4'000
  core.on_frame(0, kPeer, data_frame(3, 0, 1, make_payload(8, 3)));
  EXPECT_EQ(core.next_deadline_us(), 4'000);
  // seq 1 arrives: the stream moved, seq 3 still waits behind seq 2.
  core.on_frame(1'000, kPeer, data_frame(1, 0, 1, make_payload(8, 1)));
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(core.next_deadline_us(), 5'000);
  core.on_timer(4'000);
  EXPECT_EQ(sink.delivered.size(), 1u);
  core.on_timer(5'000);
  ASSERT_EQ(sink.delivered.size(), 2u);
  EXPECT_EQ(sink.delivered[1].payload, make_payload(8, 3));
}

TEST(MochaNetCore, MalformedFramesAreDroppedWithoutState) {
  FakeSink sink;
  MochaNetOptions opts = fixed(1'000, 3);
  opts.nack_delay_us = 2'000;
  MochaNetCore core(opts, sink);

  core.on_frame(0, kPeer, util::Buffer{});            // empty
  core.on_frame(0, kPeer, util::Buffer{250, 1, 2});   // unknown type
  core.on_frame(0, kPeer, data_frame(1, 0, 0, make_payload(4)));  // 0 frags
  core.on_frame(0, kPeer, data_frame(1, 0, kMaxFragments + 1,
                                     make_payload(4)));
  core.on_frame(0, kPeer, data_frame(1, 5, 2, make_payload(4)));  // bad idx
  util::Buffer huge_nack;
  util::WireWriter writer(huge_nack);
  writer.u8(static_cast<std::uint8_t>(FrameType::kNack));
  writer.u64(1);
  writer.u32(0xFFFFFFFFu);
  core.on_frame(0, kPeer, huge_nack);
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_TRUE(sink.delivered.empty());
  // No reassembly was created for any of them (it would arm a NACK).
  EXPECT_EQ(core.next_deadline_us(), MochaNetCore::kNoDeadline);

  core.on_frame(1, kPeer, data_frame(1, 0, 1, make_payload(4)));
  EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(MochaNetCore, OversizedMessageIsRefusedBeforeAnyState) {
  FakeSink sink;
  MochaNetOptions opts = fixed(1'000, 3);
  opts.max_frame_bytes = kFragHeaderBytes + 1;  // one byte per fragment
  MochaNetCore core(opts, sink);
  EXPECT_THROW(core.send(0, kPeer, kPort, util::Buffer(kMaxFragments + 1)),
               std::length_error);
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_EQ(core.outstanding(), 0u);
  // The seq was not consumed.
  EXPECT_EQ(core.send(0, kPeer, kPort, make_payload(1)), 1u);
}

}  // namespace
}  // namespace mocha::net
