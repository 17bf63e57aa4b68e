// live::Endpoint tests — real UDP sockets on the loopback interface.
//
// Everything here runs in one process: two endpoints talk over 127.0.0.1,
// and a raw UDP socket plays "foreign implementation" by hand-crafting
// datagrams with the shared frame codec (net/frame.h) to force orderings a
// well-behaved endpoint never produces (out-of-order sequences, permanent
// holes).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "live/endpoint.h"
#include "net/frame.h"

namespace mocha::live {
namespace {

util::Buffer make_payload(std::size_t n, std::uint8_t seed = 1) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v++;
  return buf;
}

// A plain UDP socket that sends hand-built datagrams to an endpoint.
class RawPeer {
 public:
  RawPeer() {
    sock_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(sock_, 0);
  }
  ~RawPeer() { ::close(sock_); }

  void send_to(std::uint16_t udp_port, const util::Buffer& datagram) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(udp_port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::sendto(sock_, datagram.data(), datagram.size(), 0,
                       reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              static_cast<ssize_t>(datagram.size()));
  }

  // One datagram: live envelope (u32 src node) + a single-fragment DATA frame.
  static util::Buffer craft_data(net::NodeId src_node, std::uint64_t seq,
                                 net::Port port, const util::Buffer& payload) {
    util::Buffer datagram;
    util::WireWriter writer(datagram);
    writer.u32(src_node);
    util::Buffer frame;
    net::encode_data_frame(frame, seq, /*frag_idx=*/0, /*frag_count=*/1, port,
                           payload);
    writer.raw(frame);
    return datagram;
  }

 private:
  int sock_ = -1;
};

TEST(LiveEndpoint, DeliversMessageWithSourceAndPort) {
  Endpoint a(/*node=*/1, /*udp_port=*/0);
  Endpoint b(/*node=*/2, /*udp_port=*/0);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  a.send(2, /*port=*/7, make_payload(64));
  auto msg = b.recv_for(7, /*timeout_us=*/2'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, 1u);
  EXPECT_EQ(msg->port, 7);
  EXPECT_EQ(msg->payload, make_payload(64));
}

TEST(LiveEndpoint, SendSyncWaitsForTransportAck) {
  Endpoint a(1, 0);
  Endpoint b(2, 0);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  EXPECT_TRUE(a.send_sync(2, 9, make_payload(32), 2'000'000).is_ok());
  EXPECT_TRUE(b.recv_for(9, 2'000'000).has_value());
}

TEST(LiveEndpoint, SendSyncTimesOutWhenPeerIsGone) {
  EndpointOptions fast;
  fast.rto_us = 5'000;
  fast.max_retries = 2;
  Endpoint a(1, 0, fast);
  // Reserve a port, then close it: nothing is listening there.
  std::uint16_t dead_port;
  {
    Endpoint ghost(9, 0);
    dead_port = ghost.udp_port();
  }
  a.add_peer(2, "127.0.0.1", dead_port);
  const util::Status status = a.send_sync(2, 7, make_payload(8), 200'000);
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
}

TEST(LiveEndpoint, SendToUnknownPeerThrows) {
  Endpoint a(1, 0);
  EXPECT_THROW(a.send(42, 7, make_payload(8)), std::logic_error);
}

TEST(LiveEndpoint, LargeMessageFragmentsAndReassembles) {
  EndpointOptions tiny_mtu;
  tiny_mtu.mtu = 128;  // force heavy fragmentation
  Endpoint a(1, 0, tiny_mtu);
  Endpoint b(2, 0, tiny_mtu);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  const util::Buffer payload = make_payload(10'000, 5);
  ASSERT_TRUE(a.send_sync(2, 3, payload, 5'000'000).is_ok());
  auto msg = b.recv_for(3, 5'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, payload);
  EXPECT_GT(a.fragments_sent(), 50u);
  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(b.messages_delivered(), 1u);
}

TEST(LiveEndpoint, LearnsPeerAddressFromInboundEnvelope) {
  Endpoint a(1, 0);
  Endpoint b(2, 0);
  a.add_peer(2, "127.0.0.1", b.udp_port());
  EXPECT_FALSE(b.knows_peer(1));

  a.send(2, 5, make_payload(16));
  ASSERT_TRUE(b.recv_for(5, 2'000'000).has_value());
  // b discovered a from the datagram envelope and can now reply.
  EXPECT_TRUE(b.knows_peer(1));
  EXPECT_TRUE(b.send_sync(1, 6, make_payload(24), 2'000'000).is_ok());
  auto reply = a.recv_for(6, 2'000'000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->src, 2u);
}

TEST(LiveEndpoint, RecvForTimesOutAndPolls) {
  Endpoint a(1, 0);
  EXPECT_FALSE(a.recv_for(7, /*timeout_us=*/10'000).has_value());
  EXPECT_FALSE(a.recv_for(7, /*timeout_us=*/0).has_value());  // pure poll
}

TEST(LiveEndpoint, OutOfOrderSequencesDeliverInOrder) {
  Endpoint b(2, 0);
  RawPeer raw;
  // A "sender" that emits seq 2 before seq 1 (reordered on the wire).
  raw.send_to(b.udp_port(), RawPeer::craft_data(77, 2, 4, make_payload(8, 2)));
  // seq 2 must be stashed, not delivered, until seq 1 arrives.
  EXPECT_FALSE(b.recv_for(4, 50'000).has_value());
  raw.send_to(b.udp_port(), RawPeer::craft_data(77, 1, 4, make_payload(8, 1)));

  auto first = b.recv_for(4, 2'000'000);
  auto second = b.recv_for(4, 2'000'000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload, make_payload(8, 1));
  EXPECT_EQ(second->payload, make_payload(8, 2));
}

TEST(LiveEndpoint, GapSkipRecoversFromPermanentHole) {
  EndpointOptions fast;
  fast.rto_us = 5'000;
  fast.max_retries = 1;  // gap window = 5ms * 3 = 15ms
  Endpoint b(2, 0, fast);
  RawPeer raw;
  // seq 1 never arrives (its sender "gave up"); seq 2 is complete. After the
  // gap window the hole is skipped and seq 2 delivered.
  raw.send_to(b.udp_port(), RawPeer::craft_data(77, 2, 4, make_payload(8, 2)));
  auto msg = b.recv_for(4, 2'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, make_payload(8, 2));
}

TEST(LiveEndpoint, MalformedDatagramsAreDropped) {
  Endpoint b(2, 0);
  RawPeer raw;
  raw.send_to(b.udp_port(), util::Buffer{1, 2, 3});        // truncated envelope
  util::Buffer bad_type;
  util::WireWriter writer(bad_type);
  writer.u32(77);
  writer.u8(250);  // no such frame type
  raw.send_to(b.udp_port(), bad_type);
  // The endpoint survives and still processes good traffic afterwards.
  raw.send_to(b.udp_port(), RawPeer::craft_data(77, 1, 4, make_payload(8)));
  EXPECT_TRUE(b.recv_for(4, 2'000'000).has_value());
}

// Counts off the wire that used to size allocations: a 23-byte DATA
// datagram claiming 2^32-1 fragments, and a NACK claiming 2^32-1 missing
// indices. The endpoint drops both and keeps delivering.
TEST(LiveEndpoint, SurvivesHostileFragmentAndNackCounts) {
  Endpoint b(2, 0);
  RawPeer raw;
  util::Buffer frags;
  util::WireWriter frags_writer(frags);
  frags_writer.u32(77);
  util::Buffer frame;
  net::encode_data_frame(frame, /*seq=*/1, /*frag_idx=*/0,
                         /*frag_count=*/0xFFFFFFFFu, /*port=*/4, {});
  frags_writer.raw(frame);
  ASSERT_EQ(frags.size(), 23u);
  raw.send_to(b.udp_port(), frags);

  util::Buffer nack;
  util::WireWriter nack_writer(nack);
  nack_writer.u32(77);
  nack_writer.u8(static_cast<std::uint8_t>(net::FrameType::kNack));
  nack_writer.u64(1);
  nack_writer.u32(0xFFFFFFFFu);
  raw.send_to(b.udp_port(), nack);

  raw.send_to(b.udp_port(), RawPeer::craft_data(77, 1, 4, make_payload(8)));
  auto msg = b.recv_for(4, 2'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, make_payload(8));
}

// One lost fragment must be repaired by a receiver-side NACK (one fragment
// resend after the stream goes quiet), not by the sender's full-message RTO:
// the sender's initial RTO is set so large that a timeout-based recovery
// would trip the elapsed-time assertion.
TEST(LiveEndpoint, NackRecoversDroppedFragmentBeforeSenderRto) {
  EndpointOptions sender_opts;
  sender_opts.mtu = 256;         // 1000-byte payload -> 5 fragments
  sender_opts.rto_us = 500'000;  // full-message resend would take >= 0.5s
  EndpointOptions receiver_opts;
  std::atomic<int> data_seen{0};
  receiver_opts.recv_drop_hook = [&](std::span<const std::uint8_t> datagram) {
    // Envelope is 4 bytes; the frame type byte follows. Drop the third DATA
    // fragment, once.
    if (datagram.size() <= kLiveEnvelopeBytes) return false;
    const std::uint8_t type = datagram[kLiveEnvelopeBytes];
    if (type != static_cast<std::uint8_t>(net::FrameType::kData) &&
        type != static_cast<std::uint8_t>(net::FrameType::kDataAck)) {
      return false;
    }
    return ++data_seen == 3;
  };
  Endpoint a(1, 0, sender_opts);
  Endpoint b(2, 0, receiver_opts);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  const util::Buffer payload = make_payload(1'000, 9);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.send_sync(2, 6, payload, 5'000'000).is_ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  auto msg = b.recv_for(6, 2'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, payload);
  // Recovered via NACK: well under the 500ms the sender's RTO would need.
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
  EXPECT_GE(b.nacks_sent(), 1u);
  EXPECT_GE(a.nacks_received(), 1u);
  // Only the missing fragment was resent, not the whole 5-fragment message.
  EXPECT_GE(a.retransmissions(), 1u);
  EXPECT_LT(a.retransmissions(), 5u);
}

// Inbound netem emulation: under 25% datagram loss every message still
// arrives (sender-side retransmission), and the drop counter proves the
// emulation actually engaged.
TEST(LiveEndpoint, NetemLossIsRecoveredByRetransmission) {
  EndpointOptions sender_opts;
  sender_opts.rto_us = 5'000;  // keep the lossy run brisk
  EndpointOptions lossy;
  lossy.recv_loss_pct = 25.0;
  lossy.netem_seed = 42;
  Endpoint a(1, 0, sender_opts);
  Endpoint b(2, 0, lossy);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  constexpr int kMessages = 30;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(
        a.send_sync(2, 5, make_payload(64, static_cast<std::uint8_t>(i)),
                    5'000'000)
            .is_ok())
        << "message " << i;
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = b.recv_for(5, 2'000'000);
    ASSERT_TRUE(msg.has_value()) << "message " << i;
    EXPECT_EQ(msg->payload, make_payload(64, static_cast<std::uint8_t>(i)));
  }
  EXPECT_GT(b.netem_dropped(), 0u);
  EXPECT_GT(a.retransmissions(), 0u);
}

// The per-peer estimator converges on loopback: after a burst of acked
// messages the peer's RTO drops well below the 20ms initial and SRTT tracks
// the (sub-millisecond + ack-delay) loopback round trip.
TEST(LiveEndpoint, AdaptiveRtoConvergesBelowInitialOnLoopback) {
  Endpoint a(1, 0);
  // Immediate acks on the receiver: this test is about RTO estimation, and
  // a held ack would sit inside every RTT sample, leaving the converged RTO
  // only ~net::kMinRtoUs above the sample — close enough that one sanitizer
  // or scheduler hiccup causes a spurious retransmission and a flaky failure.
  EndpointOptions receiver_opts;
  receiver_opts.ack_delay_us = 0;
  Endpoint b(2, 0, receiver_opts);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  EXPECT_EQ(a.peer_rto_us(2), a.options().rto_us);  // no samples yet
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a.send_sync(2, 3, make_payload(64), 2'000'000).is_ok());
  }
  EXPECT_GT(a.peer_srtt_us(2), 0);
  EXPECT_LT(a.peer_srtt_us(2), 10'000);
  EXPECT_LT(a.peer_rto_us(2), a.options().rto_us);
  EXPECT_GE(a.peer_rto_us(2), net::kMinRtoUs);
  EXPECT_EQ(a.retransmissions(), 0u);
}

// Delayed acks ride outgoing data: with the receiver's standalone-ack flush
// pushed out to 200ms, the sender's send_sync can only complete fast if the
// ack was piggybacked onto the receiver's reverse-direction DATA frame.
TEST(LiveEndpoint, AckPiggybacksOnReverseData) {
  EndpointOptions sender_opts;
  sender_opts.rto_us = 500'000;  // a retransmit-induced ack would be late
  EndpointOptions receiver_opts;
  receiver_opts.ack_delay_us = 200'000;
  Endpoint a(1, 0, sender_opts);
  Endpoint b(2, 0, receiver_opts);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  util::Status status = util::Status::ok();
  const auto t0 = std::chrono::steady_clock::now();
  std::thread sender([&] {
    status = a.send_sync(2, 7, make_payload(100), 2'000'000);
  });
  auto msg = b.recv_for(7, 2'000'000);
  ASSERT_TRUE(msg.has_value());
  b.send(1, 8, make_payload(32));  // carries the pending ack piggybacked
  sender.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_TRUE(status.is_ok());
  // Far sooner than the 200ms standalone-ack flush: the ack rode the data.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  EXPECT_GE(b.acks_piggybacked(), 1u);
  auto reverse = a.recv_for(8, 2'000'000);
  ASSERT_TRUE(reverse.has_value());  // DATA+ACK data path delivers too
  EXPECT_EQ(reverse->payload, make_payload(32));
}

// The lock protocol's shape: request, reply from a port handler, release.
// Every ack rides the next message the other way (the reply acks the
// request, the release acks the reply, the next reply acks the release), so
// a round costs 3 datagrams where standalone acks would make it 6.
TEST(LiveEndpoint, RequestReplyReleaseRoundsCarryTheirAcks) {
  Endpoint client(1, 0);
  Endpoint server(2, 0);
  client.add_peer(2, "127.0.0.1", server.udp_port());
  server.set_port_handler(3, [&](Endpoint::Message msg) {
    if (msg.payload.size() == 8) server.send(msg.src, 4, make_payload(16));
  });

  constexpr int kRounds = 100;
  for (int i = 0; i < kRounds; ++i) {
    client.send(2, 3, make_payload(8));  // the request
    ASSERT_TRUE(client.recv_for(4, 2'000'000).has_value()) << "round " << i;
    client.send(2, 3, make_payload(4));  // the release
  }
  ASSERT_TRUE(client.flush(2'000'000));
  ASSERT_TRUE(server.flush(2'000'000));
  // Loopback loses nothing: what one endpoint received the other sent.
  const std::uint64_t datagrams =
      client.rx_batched_datagrams() + server.rx_batched_datagrams();
  EXPECT_LE(datagrams, 4u * kRounds);
  EXPECT_GE(client.acks_piggybacked() + server.acks_piggybacked(),
            2u * kRounds);
}

// An application-thread send whose datagram is lost must still be resent,
// whether or not the send itself woke the loop to arm the transport timer.
TEST(LiveEndpoint, LostSendIsResentWithOrWithoutAnArmedTimer) {
  for (const bool timer_armed : {false, true}) {
    SCOPED_TRACE(timer_armed ? "flush timer armed earlier" : "no timer armed");
    EndpointOptions sender_opts;
    // A held ack's flush timer (100 ms) is due before the resend (500 ms):
    // the send finds the timer covering it and does not wake the loop.
    sender_opts.ack_delay_us = 100'000;
    sender_opts.rto_us = 500'000;
    EndpointOptions receiver_opts;
    std::atomic<int> seen{0};
    receiver_opts.recv_drop_hook = [&](std::span<const std::uint8_t>) {
      return ++seen == 1;  // the send's only datagram
    };
    Endpoint a(1, 0, sender_opts);
    Endpoint b(2, 0, receiver_opts);
    Endpoint c(3, 0);
    a.add_peer(2, "127.0.0.1", b.udp_port());
    c.add_peer(1, "127.0.0.1", a.udp_port());
    if (timer_armed) {
      // a holds c's ack, so a's transport timer is armed at the flush.
      c.send(1, 5, make_payload(8));
      ASSERT_TRUE(a.recv_for(5, 2'000'000).has_value());
    }
    ASSERT_TRUE(a.send_sync(2, 6, make_payload(32), 5'000'000).is_ok());
    auto msg = b.recv_for(6, 2'000'000);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, make_payload(32));
    EXPECT_EQ(a.retransmissions(), 1u);
    EXPECT_EQ(b.netem_dropped(), 1u);
    if (timer_armed) {
      EXPECT_TRUE(c.flush(2'000'000));  // the held ack left too
    }
  }
}

TEST(LiveEndpoint, EmptyPayloadTravels) {
  Endpoint a(1, 0);
  Endpoint b(2, 0);
  a.add_peer(2, "127.0.0.1", b.udp_port());
  ASSERT_TRUE(a.send_sync(2, 11, util::Buffer{}, 2'000'000).is_ok());
  auto msg = b.recv_for(11, 2'000'000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->payload.empty());
}

}  // namespace
}  // namespace mocha::live
