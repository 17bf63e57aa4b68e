// Multi-threaded stress over live::Endpoint — real UDP on loopback.
//
// The endpoint's contract is that its public API is thread-safe: any number
// of application threads may send/recv/poll stats concurrently with the io
// thread. The unit tests exercise the protocol logic mostly single-threaded;
// this file exists to give ThreadSanitizer (and the clang thread-safety
// annotations in live/endpoint.h) real contention to chew on: many sender
// threads, many receiver threads, and a stats poller all hammering one
// endpoint pair at once.
//
// Timing: wall-clock margins are scaled by MOCHA_TEST_TIME_SCALE (a float,
// default 1) so sanitizer lanes — TSan slows this code 5-15x — can widen
// every deadline without touching the test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "live/endpoint.h"
#include "util/buffer.h"

namespace mocha::live {
namespace {

double time_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
    if (env == nullptr) return 1.0;
    const double parsed = std::atof(env);
    return parsed > 0.0 ? parsed : 1.0;
  }();
  return scale;
}

std::int64_t scaled_us(std::int64_t base_us) {
  return static_cast<std::int64_t>(static_cast<double>(base_us) *
                                   time_scale());
}

// Payload: (sender thread, message index) + filler so most messages span a
// few hundred bytes and some fragment at the default MTU.
util::Buffer make_payload(std::uint32_t sender, std::uint32_t index,
                          std::size_t filler) {
  util::Buffer buf;
  util::WireWriter writer(buf);
  writer.u32(sender);
  writer.u32(index);
  for (std::size_t i = 0; i < filler; ++i) {
    writer.u8(static_cast<std::uint8_t>(sender + index + i));
  }
  return buf;
}

std::pair<std::uint32_t, std::uint32_t> parse_payload(
    const util::Buffer& payload) {
  util::WireReader reader(payload);
  const std::uint32_t sender = reader.u32();
  const std::uint32_t index = reader.u32();
  return {sender, index};
}

// N sender threads (mixing fire-and-forget send() with blocking
// send_sync()), two receiver threads per port, and a stats poller, all on
// one endpoint pair. Every message must arrive exactly once.
TEST(EndpointStress, ManyThreadsOneEndpointPair) {
  constexpr std::uint32_t kSenders = 8;
  constexpr std::uint32_t kMessagesPerSender = 60;
  constexpr std::uint16_t kPorts = 4;
  constexpr std::uint32_t kTotal = kSenders * kMessagesPerSender;

  Endpoint a(/*node=*/1, /*udp_port=*/0);
  Endpoint b(/*node=*/2, /*udp_port=*/0);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  std::atomic<std::uint32_t> received{0};
  std::atomic<std::uint32_t> sync_failures{0};
  std::atomic<bool> done{false};

  // Receivers: two threads per port so the port-queue condition variable
  // sees real multi-waiter contention.
  std::mutex seen_mutex;
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<std::thread> receivers;
  for (std::uint16_t port = 0; port < kPorts; ++port) {
    for (int r = 0; r < 2; ++r) {
      receivers.emplace_back([&, port] {
        while (!done.load()) {
          auto msg = b.recv_for(port, scaled_us(50'000));
          if (!msg.has_value()) continue;
          const auto key = parse_payload(msg->payload);
          {
            std::lock_guard<std::mutex> lock(seen_mutex);
            EXPECT_TRUE(seen.insert(key).second)
                << "duplicate delivery from sender " << key.first
                << " index " << key.second;
          }
          received.fetch_add(1);
        }
      });
    }
  }

  // Stats poller: reads the atomic counters and the per-peer RTT state
  // (which takes the endpoint lock) while traffic is in flight.
  std::thread poller([&] {
    while (!done.load()) {
      (void)a.messages_sent();
      (void)a.acks_piggybacked();
      (void)a.knows_peer(2);
      (void)a.peer_rto_us(2);
      (void)a.peer_srtt_us(2);
      (void)b.messages_sent();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> senders;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (std::uint32_t i = 0; i < kMessagesPerSender; ++i) {
        const std::uint16_t port = static_cast<std::uint16_t>(i % kPorts);
        // Vary size: most messages are small, every 8th spans several MTUs
        // so reassembly state is contended too.
        const std::size_t filler = (i % 8 == 0) ? 4000 : 100 + i;
        util::Buffer payload = make_payload(s, i, filler);
        if (i % 4 == 0) {
          const auto status =
              a.send_sync(2, port, std::move(payload), scaled_us(5'000'000));
          if (!status.is_ok()) sync_failures.fetch_add(1);
        } else {
          a.send(2, port, std::move(payload));
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  // Loopback: everything should drain promptly even under sanitizers.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled_us(20'000'000));
  while (received.load() < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (auto& t : receivers) t.join();
  poller.join();

  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(sync_failures.load(), 0u);
  EXPECT_GE(a.messages_sent(), kTotal);
}

// send_sync from many threads at once: every call must complete with an ack
// (no lost wakeups on the shared ack condition variable).
TEST(EndpointStress, ConcurrentSendSyncAllAcked) {
  constexpr std::uint32_t kThreads = 12;
  constexpr std::uint32_t kRounds = 25;

  Endpoint a(/*node=*/1, /*udp_port=*/0);
  Endpoint b(/*node=*/2, /*udp_port=*/0);
  a.add_peer(2, "127.0.0.1", b.udp_port());

  std::atomic<bool> done{false};
  std::thread drain([&] {
    while (!done.load()) (void)b.recv_for(1, scaled_us(50'000));
  });

  std::atomic<std::uint32_t> ok{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kRounds; ++i) {
        const auto status = a.send_sync(2, /*port=*/1, make_payload(t, i, 64),
                                        scaled_us(5'000'000));
        if (status.is_ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  done.store(true);
  drain.join();

  EXPECT_EQ(ok.load(), kThreads * kRounds);
}

// Request/reply rounds from several threads against a handler endpoint,
// the lock client's pattern: each requester sends and then blocks in
// recv_for on its own reply port. Receivers are woken after the endpoint's
// lock is released, so a lost wakeup leaves a reply queued while its
// requester sleeps: that round waits out its timeout (recv_for then still
// returns the reply, so the wait is timed, not just its result checked).
TEST(EndpointStress, RequestReplyRoundsNeverWaitOutTheirTimeout) {
  constexpr std::uint32_t kRequesters = 4;
  constexpr std::uint32_t kRounds = 5000;
  constexpr net::Port kRequestPort = 1;
  constexpr net::Port kReplyPortBase = 10;

  Endpoint client(/*node=*/1, /*udp_port=*/0);
  Endpoint server(/*node=*/2, /*udp_port=*/0);
  client.add_peer(2, "127.0.0.1", server.udp_port());
  // The server learns the client's address from the request envelopes.
  server.set_port_handler(kRequestPort, [&server](Endpoint::Message msg) {
    const auto [requester, round] = parse_payload(msg.payload);
    server.send(msg.src,
                static_cast<net::Port>(kReplyPortBase + requester),
                make_payload(requester, round, 0));
  });

  std::atomic<std::uint32_t> completed{0};
  std::atomic<std::uint32_t> timeouts{0};
  std::atomic<std::uint32_t> mismatches{0};
  std::vector<std::thread> requesters;
  for (std::uint32_t r = 0; r < kRequesters; ++r) {
    requesters.emplace_back([&, r] {
      const auto reply_port = static_cast<net::Port>(kReplyPortBase + r);
      const auto timeout = std::chrono::microseconds(scaled_us(2'000'000));
      for (std::uint32_t i = 0; i < kRounds; ++i) {
        client.send(2, kRequestPort, make_payload(r, i, 0));
        const auto start = std::chrono::steady_clock::now();
        auto reply = client.recv_for(reply_port, timeout.count());
        if (!reply.has_value() ||
            std::chrono::steady_clock::now() - start >= timeout) {
          timeouts.fetch_add(1);
          return;  // a late reply would pair with the next round
        }
        if (parse_payload(reply->payload) != std::pair{r, i}) {
          mismatches.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : requesters) t.join();

  EXPECT_EQ(timeouts.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(completed.load(), kRequesters * kRounds);
}

}  // namespace
}  // namespace mocha::live
