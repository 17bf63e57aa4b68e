// live::Reactor tests — the epoll event loop every live::Endpoint runs on.
// Covers the three event sources (timers on the hashed wheel, fd readiness,
// cross-thread post()) plus the ordering and cancellation contracts the
// endpoint's transport timer and the LockServer's leases depend on:
//
//   - timers fire in deadline order, ties in creation order;
//   - cancel() prevents firing, also when issued from another callback
//     (a RELEASE cancelling the lease timer of the same request);
//   - timers never fire early: past one wheel turn they wait their rounds
//     out, and one armed mid-tick waits for the tick that covers it;
//   - post() runs on the loop thread;
//   - an Endpoint's port handler runs on its loop thread, even with
//     userspace netem delay on the receive path, takes over messages
//     queued before it and sees none after it is unregistered;
//   - a serving shard (endpoint, lock server, daemon) is one thread, and a
//     256 KiB pull over the hybrid daemons' TCP channel starts no thread.
//
// All wall-clock margins scale with MOCHA_TEST_TIME_SCALE (sanitizer lanes
// set it).
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "live/daemon.h"
#include "live/endpoint.h"
#include "live/lock_server.h"
#include "live/reactor.h"

namespace mocha::live {
namespace {

double time_scale() {
  static const double scale = [] {
    const char* env = std::getenv("MOCHA_TEST_TIME_SCALE");
    return env != nullptr ? std::atof(env) : 1.0;
  }();
  return scale >= 1.0 ? scale : 1.0;
}

std::int64_t scaled(std::int64_t us) {
  return static_cast<std::int64_t>(static_cast<double>(us) * time_scale());
}

TEST(Reactor, TimersFireInDeadlineOrderAcrossArmOrder) {
  Reactor reactor;
  std::vector<int> order;
  // Armed out of deadline order on purpose.
  reactor.call_after(scaled(30'000), [&] { order.push_back(3); });
  reactor.call_after(scaled(10'000), [&] { order.push_back(1); });
  reactor.call_after(scaled(20'000), [&] { order.push_back(2); });
  reactor.call_after(scaled(60'000), [&] { reactor.stop(); });
  EXPECT_EQ(reactor.pending_timers(), 4u);
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(reactor.pending_timers(), 0u);
  const Reactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.timers_fired, 4u);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(Reactor, SameDeadlineTimersFireInCreationOrder) {
  Reactor reactor;
  Clock& clock = Clock::monotonic();
  const std::int64_t deadline = clock.now_us() + scaled(15'000);
  std::vector<int> order;
  reactor.call_at(deadline, [&] { order.push_back(1); });
  reactor.call_at(deadline, [&] { order.push_back(2); });
  reactor.call_at(deadline, [&] { order.push_back(3); });
  reactor.call_after(scaled(40'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, CancelPreventsFiringAndReportsPendingState) {
  Reactor reactor;
  bool fired = false;
  const Reactor::TimerId id =
      reactor.call_after(scaled(10'000), [&] { fired = true; });
  EXPECT_NE(id, Reactor::kInvalidTimer);
  EXPECT_TRUE(reactor.cancel(id));    // still pending: cancelled
  EXPECT_FALSE(reactor.cancel(id));   // already gone
  EXPECT_EQ(reactor.pending_timers(), 0u);
  reactor.call_after(scaled(30'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_FALSE(fired);
  // The orphaned wheel entry was skipped, not fired.
  EXPECT_EQ(reactor.stats().timers_fired, 1u);  // only the stop timer
}

TEST(Reactor, CancelFromAnotherTimersCallback) {
  // The lease pattern: handle_release() runs in one callback and cancels
  // the pending lease-expiry timer of the same request.
  Reactor reactor;
  bool lease_fired = false;
  const Reactor::TimerId lease =
      reactor.call_after(scaled(30'000), [&] { lease_fired = true; });
  reactor.call_after(scaled(10'000),
                     [&] { EXPECT_TRUE(reactor.cancel(lease)); });
  reactor.call_after(scaled(50'000), [&] { reactor.stop(); });
  reactor.run();
  EXPECT_FALSE(lease_fired);
}

TEST(Reactor, TimerBeyondOneWheelTurnWaitsItsRoundsOut) {
  // A 16-slot x 2ms wheel turns over every 32ms; a 80ms timer needs two
  // full extra rounds and must not fire when its slot first comes around.
  ReactorOptions opts;
  opts.tick_us = scaled(2'000);
  opts.wheel_slots = 16;
  Reactor reactor(opts);
  Clock& clock = Clock::monotonic();
  const std::int64_t armed_at = clock.now_us();
  const std::int64_t delay = scaled(80'000);
  std::int64_t fired_at = 0;
  reactor.call_after(delay, [&] {
    fired_at = clock.now_us();
    reactor.stop();
  });
  reactor.run();
  ASSERT_NE(fired_at, 0);
  EXPECT_GE(fired_at - armed_at, delay);  // never early
}

TEST(Reactor, PostRunsCallbackOnLoopThread) {
  Reactor reactor;
  std::atomic<bool> done{false};
  std::thread::id loop_thread_id;
  std::thread loop([&] {
    loop_thread_id = std::this_thread::get_id();
    reactor.run();
  });
  // Wait for the loop to actually spin so the wakeup path (not the
  // pre-run pickup) is exercised.
  while (!reactor.looping()) std::this_thread::yield();

  std::thread::id ran_on;
  reactor.post([&] {
    ran_on = std::this_thread::get_id();
    done.store(true, std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(5'000'000));
  while (!done.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "posted callback never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reactor.stop();
  loop.join();
  EXPECT_EQ(ran_on, loop_thread_id);
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_GE(reactor.stats().callbacks_run, 1u);
}

TEST(Reactor, FdHandlerSeesEventfdReadiness) {
  Reactor reactor;
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<int> hits{0};
  reactor.watch_fd(efd, EPOLLIN, [&](std::uint32_t mask) {
    EXPECT_TRUE(mask & EPOLLIN);
    std::uint64_t count = 0;
    // Drain: level-triggered registration would re-fire forever otherwise.
    ASSERT_EQ(::read(efd, &count, sizeof(count)),
              static_cast<ssize_t>(sizeof(count)));
    hits.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  const std::uint64_t one = 1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::write(efd, &one, sizeof(one)),
              static_cast<ssize_t>(sizeof(one)));
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(scaled(5'000'000));
    while (hits.load(std::memory_order_relaxed) < i + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "fd handler never fired for write " << i;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  reactor.stop();
  loop.join();
  EXPECT_EQ(hits.load(), 3);
  const Reactor::Stats stats = reactor.stats();
  EXPECT_GE(stats.fd_events, 3u);
  EXPECT_GE(stats.max_epoll_batch, 1u);
  ::close(efd);
}

TEST(Reactor, UnwatchFromInsideHandlerIsSafe) {
  Reactor reactor;
  const int efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  ASSERT_GE(efd, 0);
  std::atomic<int> hits{0};
  reactor.watch_fd(efd, EPOLLIN, [&](std::uint32_t) {
    std::uint64_t count = 0;
    (void)::read(efd, &count, sizeof(count));
    hits.fetch_add(1, std::memory_order_relaxed);
    reactor.unwatch_fd(efd);  // handler removes itself mid-dispatch
  });
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  const std::uint64_t one = 1;
  ASSERT_EQ(::write(efd, &one, sizeof(one)),
            static_cast<ssize_t>(sizeof(one)));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(5'000'000));
  while (hits.load(std::memory_order_relaxed) < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Further writes must not reach the (unwatched) handler.
  ASSERT_EQ(::write(efd, &one, sizeof(one)),
            static_cast<ssize_t>(sizeof(one)));
  std::this_thread::sleep_for(std::chrono::microseconds(scaled(50'000)));
  reactor.stop();
  loop.join();
  EXPECT_EQ(hits.load(), 1);
  ::close(efd);
}

TEST(Reactor, TimerArmedMidTickNeverFiresEarly) {
  // The wheel cursor lags the clock by up to a tick. Posts every 50us keep
  // the loop awake, so the 200 timers below are armed at every phase of a
  // tick; rounding the slot down would fire most of them a tick early.
  ReactorOptions opts;
  opts.tick_us = 1'000;
  Reactor reactor(opts);
  Clock& clock = Clock::monotonic();
  constexpr int kTimers = 200;
  std::vector<std::int64_t> deadlines(kTimers, 0);
  std::vector<std::int64_t> fired_at(kTimers, 0);
  std::atomic<int> fired{0};
  std::thread loop([&] { reactor.run(); });
  while (!reactor.looping()) std::this_thread::yield();

  for (int i = 0; i < kTimers; ++i) {
    reactor.post([&, i] {
      deadlines[i] = clock.now_us() + scaled(3'000);
      reactor.call_at(deadlines[i], [&, i] {
        fired_at[i] = clock.now_us();
        fired.fetch_add(1, std::memory_order_release);
      });
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(5'000'000));
  while (fired.load(std::memory_order_acquire) < kTimers) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "only " << fired.load() << "/" << kTimers << " timers fired";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reactor.stop();
  loop.join();
  for (int i = 0; i < kTimers; ++i) {
    EXPECT_GE(fired_at[i], deadlines[i]) << "timer " << i << " fired early";
  }
}

// Waits (scaled) until `done()` holds; false on timeout.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(scaled(10'000'000));
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Reactor, PortHandlerRunsOnLoopThreadUnderNetemDelay) {
  // The LockServer / DaemonService wiring end to end: a port handler on the
  // receiving endpoint, with a fixed userspace netem delay on its receive
  // side, so delivery happens on the loop's timer well after send().
  EndpointOptions recv_opts;
  recv_opts.recv_delay_us = scaled(20'000);
  Endpoint sender(/*node=*/1, /*udp_port=*/0);
  Endpoint receiver(/*node=*/2, /*udp_port=*/0, recv_opts);
  sender.add_peer(2, "127.0.0.1", receiver.udp_port());
  constexpr net::Port kPort = 7;

  std::thread::id loop_thread;
  receiver.run_on_loop([&] { loop_thread = std::this_thread::get_id(); });
  ASSERT_NE(loop_thread, std::this_thread::get_id());

  // Two messages queue up before any handler exists ...
  sender.send(2, kPort, util::Buffer{0});
  sender.send(2, kPort, util::Buffer{1});
  ASSERT_TRUE(wait_until([&] { return receiver.messages_delivered() >= 2; }));

  // ... and are handed over on registration.
  std::atomic<int> handled{0};
  std::atomic<int> off_loop{0};
  std::vector<std::uint8_t> order;  // loop thread only until unregistered
  receiver.set_port_handler(kPort, [&](Endpoint::Message msg) {
    if (std::this_thread::get_id() != loop_thread) off_loop.fetch_add(1);
    EXPECT_EQ(msg.src, 1u);
    order.push_back(msg.payload.at(0));
    handled.fetch_add(1, std::memory_order_release);
  });
  EXPECT_EQ(handled.load(std::memory_order_acquire), 2);

  const std::int64_t t0 = Clock::monotonic().now_us();
  for (std::uint8_t i = 2; i < 5; ++i) sender.send(2, kPort, util::Buffer{i});
  ASSERT_TRUE(wait_until(
      [&] { return handled.load(std::memory_order_acquire) == 5; }))
      << "handler saw only " << handled.load() << "/5";
  EXPECT_GE(Clock::monotonic().now_us() - t0, recv_opts.recv_delay_us);

  // Once unregistration returns, deliveries go back to the recv() queue.
  receiver.set_port_handler(kPort, nullptr);
  sender.send(2, kPort, util::Buffer{5});
  auto msg = receiver.recv_for(kPort, scaled(10'000'000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, util::Buffer{5});
  EXPECT_EQ(handled.load(), 5);
  EXPECT_EQ(off_loop.load(), 0);
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Reactor, ServingShardRunsOnOneThread) {
  // Endpoint + LockServer + (hybrid) DaemonService: the endpoint's loop
  // thread is the only one, and it is gone again after teardown. A
  // sanitizer runtime may start a helper thread at the first thread
  // creation, so one throwaway thread runs before the count.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  {
    Endpoint endpoint(/*node=*/1, /*udp_port=*/0);
    LockServer server(endpoint);
    server.start();
    DaemonService daemon(endpoint);
    daemon.start();
    EXPECT_EQ(thread_count(), before + 1);
    daemon.stop();
    server.stop();
  }
  EXPECT_EQ(thread_count(), before);
}

TEST(Reactor, HybridTcpPullRunsOnTheEndpointLoops) {
  // Two endpoints with default daemons; B pulls A's 256 KiB replica, which
  // crosses the hybrid threshold and so goes over TCP. The TCP channel lives
  // on each endpoint's loop: one thread per endpoint, before, during and
  // after the transfer (no extra threads, no extra malloc arenas).
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  {
    Endpoint a_ep(/*node=*/2, /*udp_port=*/0);
    Endpoint b_ep(/*node=*/3, /*udp_port=*/0);
    a_ep.add_peer(3, "127.0.0.1", b_ep.udp_port());
    b_ep.add_peer(2, "127.0.0.1", a_ep.udp_port());
    DaemonService a(a_ep);
    DaemonService b(b_ep);
    a.start();
    b.start();
    constexpr replica::LockId kLock = 9;
    util::Buffer replica(262144);
    for (std::size_t i = 0; i < replica.size(); ++i) {
      replica[i] = static_cast<std::uint8_t>(i * 7);
    }
    a.register_replica(kLock, "replica", replica);
    a.publish(kLock, 1);
    EXPECT_EQ(thread_count(), before + 2);

    b.announce_bulk(2);
    util::Buffer directive;
    replica::TransferReplicaMsg{kLock, 1, 3, replica::kDaemonDataPort}.encode(
        directive);
    b_ep.send(2, replica::kDaemonPort, std::move(directive));
    // Sample the thread count while the bundle is in flight.
    const std::int64_t deadline =
        Clock::monotonic().now_us() + scaled(5'000'000);
    std::size_t most = thread_count();
    while (b.local_version(kLock) < 1 &&
           Clock::monotonic().now_us() < deadline) {
      most = std::max(most, thread_count());
    }
    EXPECT_EQ(most, before + 2);
    ASSERT_EQ(b.local_version(kLock), 1u);
    EXPECT_EQ(b.read(kLock, "replica"), replica);
    EXPECT_EQ(a.stats().bulk_fast_served, 1u);
    EXPECT_EQ(b.bulk_transport_stats().bundles_received, 1u);
    EXPECT_EQ(thread_count(), before + 2);
    b.stop();
    a.stop();
  }
  EXPECT_EQ(thread_count(), before);
}
}  // namespace
}  // namespace mocha::live
