#include <gtest/gtest.h>

#include <numeric>

#include "net/bulk.h"
#include "net/mochanet.h"
#include "net/network.h"
#include "net/tcp.h"

namespace mocha::net {
namespace {

util::Buffer make_payload(std::size_t n, std::uint8_t seed = 1) {
  util::Buffer buf(n);
  std::uint8_t v = seed;
  for (auto& b : buf) b = v++;
  return buf;
}

struct TwoNodeFixture {
  sim::Scheduler sched;
  Network net;
  NodeId a, b;

  explicit TwoNodeFixture(NetProfile profile = NetProfile::instant())
      : net(sched, std::move(profile)),
        a(net.add_node("alpha")),
        b(net.add_node("beta")) {}
};

// --- Fabric ---

TEST(Network, DeliversDatagramToBoundPort) {
  TwoNodeFixture fx;
  auto& box = fx.net.bind(fx.b, 99);
  util::Buffer got;
  fx.sched.spawn("recv", [&] { got = box.recv().payload; });
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 5, .dst_port = 99,
                 .payload = make_payload(64)});
  });
  fx.sched.run();
  EXPECT_EQ(got, make_payload(64));
}

TEST(Network, DropsToUnboundPort) {
  TwoNodeFixture fx;
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 5, .dst_port = 123,
                 .payload = make_payload(8)});
  });
  fx.sched.run();
  EXPECT_EQ(fx.net.datagrams_dropped(), 1u);
  EXPECT_EQ(fx.net.datagrams_delivered(), 0u);
}

TEST(Network, LatencyDelaysDelivery) {
  TwoNodeFixture fx(NetProfile::lan());
  auto& box = fx.net.bind(fx.b, 7);
  sim::Time arrived = 0;
  fx.sched.spawn("recv", [&] {
    box.recv();
    arrived = fx.sched.now();
  });
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 7, .dst_port = 7,
                 .payload = make_payload(100)});
  });
  fx.sched.run();
  // >= one-way latency; < latency plus a generous software budget.
  EXPECT_GE(arrived, NetProfile::lan().latency_us);
  EXPECT_LT(arrived, NetProfile::lan().latency_us + 1000);
}

TEST(Network, EgressLinkSerializesBackToBackPackets) {
  NetProfile slow = NetProfile::instant();
  slow.bandwidth_bytes_per_us = 1.0;  // 1 B/us: a 1000 B payload ~ 1 ms
  TwoNodeFixture fx(slow);
  auto& box = fx.net.bind(fx.b, 7);
  std::vector<sim::Time> arrivals;
  fx.sched.spawn("recv", [&] {
    for (int i = 0; i < 3; ++i) {
      box.recv();
      arrivals.push_back(fx.sched.now());
    }
  });
  fx.sched.spawn("send", [&] {
    for (int i = 0; i < 3; ++i) {
      fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 7, .dst_port = 7,
                   .payload = make_payload(1000 - kWireHeaderBytes)});
    }
  });
  fx.sched.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // Each packet adds ~1 ms of egress serialization.
  EXPECT_NEAR(static_cast<double>(arrivals[1] - arrivals[0]), 1000.0, 50.0);
  EXPECT_NEAR(static_cast<double>(arrivals[2] - arrivals[1]), 1000.0, 50.0);
}

TEST(Network, OversizedDatagramIsAProgrammingError) {
  TwoNodeFixture fx;
  fx.sched.spawn("send", [&] {
    EXPECT_THROW(fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 1,
                              .dst_port = 1,
                              .payload = make_payload(fx.net.profile().mtu + 1)}),
                 std::logic_error);
  });
  fx.sched.run();
}

TEST(Network, DeadDestinationDropsTraffic) {
  TwoNodeFixture fx;
  fx.net.bind(fx.b, 7);
  fx.net.kill_node(fx.b);
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 7, .dst_port = 7,
                 .payload = make_payload(4)});
  });
  fx.sched.run();
  EXPECT_EQ(fx.net.datagrams_delivered(), 0u);
}

TEST(Network, DeadSourceCannotSend) {
  TwoNodeFixture fx;
  fx.net.bind(fx.b, 7);
  fx.net.kill_node(fx.a);
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 7, .dst_port = 7,
                 .payload = make_payload(4)});
  });
  fx.sched.run();
  EXPECT_EQ(fx.net.datagrams_delivered(), 0u);
}

TEST(Network, RevivedNodeReceivesAgain) {
  TwoNodeFixture fx;
  auto& box = fx.net.bind(fx.b, 7);
  fx.net.kill_node(fx.b);
  fx.net.revive_node(fx.b);
  bool got = false;
  fx.sched.spawn("recv", [&] {
    box.recv();
    got = true;
  });
  fx.sched.spawn("send", [&] {
    fx.net.send({.src = fx.a, .dst = fx.b, .src_port = 7, .dst_port = 7,
                 .payload = make_payload(4)});
  });
  fx.sched.run();
  EXPECT_TRUE(got);
}

TEST(Network, EphemeralPortsAreUnique) {
  TwoNodeFixture fx;
  Port p1 = fx.net.alloc_ephemeral_port(fx.a);
  Port p2 = fx.net.alloc_ephemeral_port(fx.a);
  EXPECT_NE(p1, p2);
}

TEST(Network, DoubleBindThrows) {
  TwoNodeFixture fx;
  fx.net.bind(fx.a, 50);
  EXPECT_THROW(fx.net.bind(fx.a, 50), std::logic_error);
}

// --- MochaNet ---

struct MochaNetFixture : TwoNodeFixture {
  MochaNetEndpoint ep_a{net, a};
  MochaNetEndpoint ep_b{net, b};
  explicit MochaNetFixture(NetProfile profile = NetProfile::instant())
      : TwoNodeFixture(std::move(profile)) {}
};

TEST(MochaNet, SmallMessageRoundTrips) {
  MochaNetFixture fx;
  util::Buffer got;
  fx.sched.spawn("recv", [&] { got = fx.ep_b.recv(40).payload; });
  fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, make_payload(100)); });
  fx.sched.run();
  EXPECT_EQ(got, make_payload(100));
}

TEST(MochaNet, LargeMessageFragmentsAndReassembles) {
  MochaNetFixture fx;
  const util::Buffer payload = make_payload(256 * 1024);
  util::Buffer got;
  fx.sched.spawn("recv", [&] { got = fx.ep_b.recv(40).payload; });
  fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, payload); });
  fx.sched.run();
  EXPECT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_GT(fx.ep_a.fragments_sent(), 150u);  // really was fragmented
}

TEST(MochaNet, EmptyMessageDelivered) {
  MochaNetFixture fx;
  bool got = false;
  fx.sched.spawn("recv", [&] {
    auto m = fx.ep_b.recv(40);
    got = m.payload.empty();
  });
  fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, {}); });
  fx.sched.run();
  EXPECT_TRUE(got);
}

TEST(MochaNet, MessagesSequencedPerSender) {
  MochaNetFixture fx;
  std::vector<int> got;
  fx.sched.spawn("recv", [&] {
    for (int i = 0; i < 20; ++i) {
      auto m = fx.ep_b.recv(40);
      got.push_back(m.payload[0]);
    }
  });
  fx.sched.spawn("send", [&] {
    for (int i = 0; i < 20; ++i) {
      fx.ep_a.send(fx.b, 40, util::Buffer{static_cast<std::uint8_t>(i)});
    }
  });
  fx.sched.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(MochaNet, UpwardMultiplexingSeparatesLogicalPorts) {
  MochaNetFixture fx;
  util::Buffer got1, got2;
  fx.sched.spawn("recv1", [&] { got1 = fx.ep_b.recv(41).payload; });
  fx.sched.spawn("recv2", [&] { got2 = fx.ep_b.recv(42).payload; });
  fx.sched.spawn("send", [&] {
    fx.ep_a.send(fx.b, 42, make_payload(10, 2));
    fx.ep_a.send(fx.b, 41, make_payload(10, 1));
  });
  fx.sched.run();
  EXPECT_EQ(got1, make_payload(10, 1));
  EXPECT_EQ(got2, make_payload(10, 2));
}

TEST(MochaNet, SurvivesHeavyLoss) {
  NetProfile lossy = NetProfile::instant();
  lossy.loss_rate = 0.3;
  lossy.mn_rto_us = 500;
  lossy.mn_max_retries = 30;
  MochaNetFixture fx(std::move(lossy));
  const util::Buffer payload = make_payload(20000);
  util::Buffer got;
  fx.sched.spawn("recv", [&] { got = fx.ep_b.recv(40).payload; });
  fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, payload); });
  fx.sched.run();
  EXPECT_EQ(got, payload);
  EXPECT_GT(fx.ep_a.retransmissions(), 0u);
}

TEST(MochaNet, SelectiveRetransmitRecoversUnderLoss) {
  NetProfile lossy = NetProfile::instant();
  lossy.loss_rate = 0.2;
  lossy.mn_rto_us = 5000;
  lossy.mn_nack_delay_us = 500;
  lossy.mn_max_retries = 40;
  MochaNetFixture fx(std::move(lossy));
  const util::Buffer payload = make_payload(50000);
  util::Buffer got;
  fx.sched.spawn("recv", [&] { got = fx.ep_b.recv(40).payload; });
  fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, payload); });
  fx.sched.run();
  EXPECT_EQ(got, payload);
  EXPECT_GT(fx.ep_a.retransmissions(), 0u);
}

TEST(MochaNet, SelectiveAndFullModesDeliverIdenticalPayloads) {
  for (bool selective : {false, true}) {
    NetProfile lossy = NetProfile::lan();
    lossy.loss_rate = 0.1;
    lossy.mn_rto_us = 20000;
    lossy.mn_nack_delay_us = selective ? 2000 : 0;
    lossy.mn_max_retries = 30;
    MochaNetFixture fx(std::move(lossy));
    const util::Buffer payload = make_payload(30000, 3);
    util::Buffer got;
    fx.sched.spawn("recv", [&] { got = fx.ep_b.recv(40).payload; });
    fx.sched.spawn("send", [&] { fx.ep_a.send(fx.b, 40, payload); });
    fx.sched.run();
    EXPECT_EQ(got, payload) << "selective=" << selective;
  }
}

TEST(MochaNet, SendSyncSucceedsAgainstLiveNode) {
  MochaNetFixture fx;
  util::Status status(util::StatusCode::kInvalid, "unset");
  fx.sched.spawn("recv", [&] { fx.ep_b.recv(40); });
  fx.sched.spawn("send", [&] {
    status = fx.ep_a.send_sync(fx.b, 40, make_payload(10), sim::seconds(5));
  });
  fx.sched.run();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

TEST(MochaNet, SendSyncTimesOutAgainstDeadNode) {
  MochaNetFixture fx;
  fx.net.kill_node(fx.b);
  util::Status status = util::Status::ok();
  fx.sched.spawn("send", [&] {
    status = fx.ep_a.send_sync(fx.b, 40, make_payload(10), sim::msec(50));
  });
  fx.sched.run();
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
}

TEST(MochaNet, RecvForTimesOutWhenSilent) {
  MochaNetFixture fx;
  std::optional<MochaNetEndpoint::Message> msg;
  fx.sched.spawn("recv", [&] { msg = fx.ep_b.recv_for(40, sim::msec(5)); });
  fx.sched.run();
  EXPECT_FALSE(msg.has_value());
}

TEST(MochaNet, SmallMessageTwiceAsFastAsTcp) {
  // The paper: "approximately twice as fast as TCP for sending small
  // (i.e., less than 256 byte) messages."
  sim::Scheduler sched;
  Network net(sched, NetProfile::lan());
  NodeId a = net.add_node("a"), b = net.add_node("b");
  MochaNetEndpoint ep_a(net, a), ep_b(net, b);

  sim::Duration mocha_time = 0, tcp_time = 0;
  sched.spawn("recv", [&] {
    ep_b.recv(40);  // MochaNet receive
    TcpListener listener(net, b, 500);
    auto conn = listener.accept(sim::seconds(10));
    ASSERT_TRUE(conn.is_ok());
    auto msg = conn.value()->recv_message(sim::seconds(10));
    ASSERT_TRUE(msg.is_ok());
  });
  sched.spawn("send", [&] {
    sim::Time t0 = sched.now();
    ep_a.send(b, 40, make_payload(200));
    sched.sleep_for(sim::msec(200));  // quiesce
    mocha_time = sched.now() - t0 - sim::msec(200);

    sim::Time t1 = sched.now();
    auto conn = TcpConnection::connect(net, a, b, 500, sim::seconds(10));
    ASSERT_TRUE(conn.is_ok());
    ASSERT_TRUE(conn.value()->send_message(make_payload(200)).is_ok());
    conn.value()->close();
    tcp_time = sched.now() - t1;
  });
  sched.run();
  // MochaNet ~ send-side cost only; TCP pays connect+teardown. Expect >= 2x.
  EXPECT_GE(static_cast<double>(tcp_time), 1.8 * static_cast<double>(mocha_time))
      << "mocha=" << mocha_time << "us tcp=" << tcp_time << "us";
}

// --- TCP ---

TEST(Tcp, ConnectAcceptTransfer) {
  TwoNodeFixture fx(NetProfile::lan());
  util::Buffer got;
  fx.sched.spawn("server", [&] {
    TcpListener listener(fx.net, fx.b, 80);
    auto conn = listener.accept(sim::seconds(10));
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    auto msg = conn.value()->recv_message(sim::seconds(10));
    ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
    got = msg.take();
  });
  fx.sched.spawn("client", [&] {
    fx.sched.sleep_for(sim::msec(1));
    auto conn = TcpConnection::connect(fx.net, fx.a, fx.b, 80, sim::seconds(10));
    ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
    ASSERT_TRUE(conn.value()->send_message(make_payload(5000)).is_ok());
    conn.value()->close();
  });
  fx.sched.run();
  EXPECT_EQ(got, make_payload(5000));
}

TEST(Tcp, LargeTransferCrossesWindows) {
  TwoNodeFixture fx(NetProfile::wan());
  const util::Buffer payload = make_payload(256 * 1024);
  util::Buffer got;
  fx.sched.spawn("server", [&] {
    TcpListener listener(fx.net, fx.b, 80);
    auto conn = listener.accept(sim::seconds(30));
    ASSERT_TRUE(conn.is_ok());
    auto msg = conn.value()->recv_message(sim::seconds(30));
    ASSERT_TRUE(msg.is_ok());
    got = msg.take();
  });
  fx.sched.spawn("client", [&] {
    auto conn = TcpConnection::connect(fx.net, fx.a, fx.b, 80, sim::seconds(30));
    ASSERT_TRUE(conn.is_ok());
    ASSERT_TRUE(conn.value()->send_message(payload).is_ok());
    conn.value()->close();
  });
  fx.sched.run();
  EXPECT_EQ(got, payload);
}

TEST(Tcp, ConnectToSilentNodeTimesOut) {
  TwoNodeFixture fx;
  util::Status status = util::Status::ok();
  fx.sched.spawn("client", [&] {
    auto conn = TcpConnection::connect(fx.net, fx.a, fx.b, 80, sim::msec(20));
    status = conn.status();
  });
  fx.sched.run();
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
}

TEST(Tcp, AcceptTimesOutWithoutClient) {
  TwoNodeFixture fx;
  util::Status status = util::Status::ok();
  fx.sched.spawn("server", [&] {
    TcpListener listener(fx.net, fx.b, 80);
    auto conn = listener.accept(sim::msec(20));
    status = conn.status();
  });
  fx.sched.run();
  EXPECT_EQ(status.code(), util::StatusCode::kTimeout);
}

TEST(Tcp, TwoMessagesOnOneConnection) {
  TwoNodeFixture fx(NetProfile::lan());
  std::vector<util::Buffer> got;
  fx.sched.spawn("server", [&] {
    TcpListener listener(fx.net, fx.b, 80);
    auto conn = listener.accept(sim::seconds(10));
    ASSERT_TRUE(conn.is_ok());
    for (int i = 0; i < 2; ++i) {
      auto msg = conn.value()->recv_message(sim::seconds(10));
      ASSERT_TRUE(msg.is_ok());
      got.push_back(msg.take());
    }
  });
  fx.sched.spawn("client", [&] {
    auto conn = TcpConnection::connect(fx.net, fx.a, fx.b, 80, sim::seconds(10));
    ASSERT_TRUE(conn.is_ok());
    ASSERT_TRUE(conn.value()->send_message(make_payload(10, 1)).is_ok());
    ASSERT_TRUE(conn.value()->send_message(make_payload(2000, 2)).is_ok());
    conn.value()->close();
  });
  fx.sched.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], make_payload(10, 1));
  EXPECT_EQ(got[1], make_payload(2000, 2));
}

// --- BulkTransport ---

class BulkModes : public ::testing::TestWithParam<TransferMode> {};

TEST_P(BulkModes, RoundTripsPayloadSizes) {
  for (std::size_t size : {std::size_t{1} << 10, std::size_t{4} << 10,
                           std::size_t{64} << 10, std::size_t{256} << 10}) {
    TwoNodeFixture fx(NetProfile::lan());
    MochaNetEndpoint ep_a(fx.net, fx.a), ep_b(fx.net, fx.b);
    BulkTransport tx(ep_a, GetParam()), rx(ep_b, GetParam());
    util::Buffer got;
    util::Status sent(util::StatusCode::kInvalid, "unset");
    fx.sched.spawn("recv", [&] {
      auto msg = rx.recv_bulk(70, sim::seconds(60));
      ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
      got = msg.take().payload;
    });
    fx.sched.spawn("send", [&] {
      sent = tx.send_bulk(fx.b, 70, make_payload(size), sim::seconds(60));
    });
    fx.sched.run();
    EXPECT_TRUE(sent.is_ok()) << sent.to_string();
    EXPECT_EQ(got, make_payload(size)) << "size=" << size;
  }
}

TEST_P(BulkModes, SendToDeadNodeFails) {
  TwoNodeFixture fx(NetProfile::lan());
  MochaNetEndpoint ep_a(fx.net, fx.a), ep_b(fx.net, fx.b);
  BulkTransport tx(ep_a, GetParam());
  fx.net.kill_node(fx.b);
  util::Status sent = util::Status::ok();
  fx.sched.spawn("send", [&] {
    sent = tx.send_bulk(fx.b, 70, make_payload(1024), sim::msec(300));
  });
  fx.sched.run();
  EXPECT_EQ(sent.code(), util::StatusCode::kTimeout);
}

INSTANTIATE_TEST_SUITE_P(AllModes, BulkModes,
                         ::testing::Values(TransferMode::kBasic,
                                           TransferMode::kHybrid),
                         [](const auto& info) {
                           return transfer_mode_name(info.param);
                         });

// --- Calibration anchors from the paper ---

TEST(Calibration, HybridBeatsBasicFor256KWan) {
  auto run_mode = [](TransferMode mode) {
    sim::Scheduler sched;
    Network net(sched, NetProfile::wan());
    NodeId a = net.add_node("a"), b = net.add_node("b");
    MochaNetEndpoint ep_a(net, a), ep_b(net, b);
    BulkTransport tx(ep_a, mode), rx(ep_b, mode);
    sim::Time done = 0;
    sched.spawn("recv", [&] {
      auto msg = rx.recv_bulk(70, sim::seconds(120));
      ASSERT_TRUE(msg.is_ok());
      done = sched.now();
    });
    sched.spawn("send", [&] {
      ASSERT_TRUE(
          tx.send_bulk(b, 70, make_payload(256 * 1024), sim::seconds(120))
              .is_ok());
    });
    sched.run();
    return done;
  };
  sim::Time basic = run_mode(TransferMode::kBasic);
  sim::Time hybrid = run_mode(TransferMode::kHybrid);
  // Paper: up to ~70% reduction for 256K replicas over WAN.
  EXPECT_LT(static_cast<double>(hybrid), 0.5 * static_cast<double>(basic))
      << "basic=" << sim::to_ms(basic) << "ms hybrid=" << sim::to_ms(hybrid)
      << "ms";
}

TEST(Calibration, BasicBeatsHybridFor1KWan) {
  auto run_mode = [](TransferMode mode) {
    sim::Scheduler sched;
    Network net(sched, NetProfile::wan());
    NodeId a = net.add_node("a"), b = net.add_node("b");
    MochaNetEndpoint ep_a(net, a), ep_b(net, b);
    BulkTransport tx(ep_a, mode), rx(ep_b, mode);
    sim::Time done = 0;
    sched.spawn("recv", [&] {
      auto msg = rx.recv_bulk(70, sim::seconds(120));
      ASSERT_TRUE(msg.is_ok());
      done = sched.now();
    });
    sched.spawn("send", [&] {
      ASSERT_TRUE(tx.send_bulk(b, 70, make_payload(1024), sim::seconds(120))
                      .is_ok());
    });
    sched.run();
    return done;
  };
  EXPECT_LT(run_mode(TransferMode::kBasic), run_mode(TransferMode::kHybrid));
}

}  // namespace
}  // namespace mocha::net
