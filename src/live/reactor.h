// live::Reactor — the epoll event loop of the live runtime.
//
// One Reactor is one event-loop thread, and the only event-loop
// implementation in src/live. Each live::Endpoint runs its socket, transport
// timers and port handlers (LockServer, DaemonService) on its own, and the
// daemon's TCP bulk channel runs its listener and connections on that same
// endpoint reactor. It multiplexes three event sources:
//
//   - fd readiness: watch_fd() registers a per-fd handler dispatched from
//     epoll_wait (level-triggered; the handler sees the raw EPOLL* mask).
//     The endpoint watches its UDP socket this way.
//   - timers: call_at()/call_after() arm one-shot callbacks on a hashed
//     timer wheel (fixed tick, per-slot rounds counter), the classic
//     O(1)-insert design for the "many pending, mostly cancelled" lease and
//     retransmit populations. cancel() is O(log n) map erase; the orphaned
//     wheel entry is purged when the loop next computes its sleep (so it
//     never wakes the loop) or skipped when its slot comes around.
//   - deferred callbacks: post() enqueues a callback from ANY thread; the
//     loop wakes via an eventfd and runs it on the loop thread. This is how
//     other threads hand work to reactor-owned state without locks.
//
// Timer ordering: timers due in the same wheel advance fire in deadline
// order (ties by creation order), so a lease armed before another never
// fires after it. Timers never fire before their deadline and at most one
// tick after it.
//
// Threading contract: post() and stop() are thread-safe; everything else —
// watch_fd/unwatch_fd/call_at/call_after/cancel — must run on the loop
// thread once run() has started (before run(), the constructing thread may
// configure freely). Handlers and callbacks always execute on the loop
// thread, so state they touch needs no locking against each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "live/clock.h"
#include "util/analysis_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mocha::live {

struct ReactorOptions {
  // Timer-wheel granularity, below the endpoint's 500 us ack hold and 1 ms
  // minimum RTO: a late ack timer reads as a lost ack and a resend.
  std::int64_t tick_us = 100;
  std::size_t wheel_slots = 1024;  // 102.4 ms per turn
  std::size_t max_epoll_events = 64;
};

class Reactor {
 public:
  using Callback = std::function<void()>;
  // Receives the EPOLL* event mask for the fd.
  using FdHandler = std::function<void(std::uint32_t)>;
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  struct Stats {
    std::uint64_t iterations = 0;       // epoll_wait loop passes
    std::uint64_t fd_events = 0;        // handler dispatches
    std::uint64_t timers_fired = 0;
    std::uint64_t callbacks_run = 0;    // post()ed callbacks executed
    std::uint64_t max_epoll_batch = 0;  // largest single epoll_wait return
  };

  explicit Reactor(ReactorOptions opts = {}, Clock* clock = nullptr);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers (or re-registers, replacing the handler) `fd` for the given
  // EPOLL* event mask. Loop thread only once running.
  void watch_fd(int fd, std::uint32_t events, FdHandler handler)
      MOCHA_REACTOR_ONLY;
  void unwatch_fd(int fd) MOCHA_REACTOR_ONLY;

  // One-shot timers against Clock::now_us(). Loop thread only once running.
  TimerId call_after(std::int64_t delay_us, Callback cb) MOCHA_REACTOR_ONLY;
  TimerId call_at(std::int64_t deadline_us, Callback cb) MOCHA_REACTOR_ONLY;
  // True if the timer was still pending (it will not fire). Safe to call
  // with an id that already fired or was cancelled.
  bool cancel(TimerId id) MOCHA_REACTOR_ONLY;
  std::size_t pending_timers() const { return timers_.size(); }

  // Enqueues `cb` to run on the loop thread. Thread-safe; the only Reactor
  // entry point other threads may use besides stop().
  void post(Callback cb) MOCHA_REACTOR_SAFE EXCLUDES(post_mu_);

  // Runs the event loop on the calling thread until stop(). A stopped
  // reactor stays stopped (create a fresh one to loop again).
  void run();
  void stop() MOCHA_REACTOR_SAFE;
  bool looping() const { return looping_.load(std::memory_order_acquire); }

  Stats stats() const;

 private:
  struct PendingTimer {
    std::int64_t deadline_us = 0;
    Callback cb;
  };
  struct SlotEntry {
    TimerId id = kInvalidTimer;
    std::uint64_t rounds = 0;  // full wheel turns left before firing
  };

  void advance_wheel(std::int64_t now_us);
  void run_posted() EXCLUDES(post_mu_);
  std::int64_t wait_us() EXCLUDES(post_mu_);  // -1: no timer pending
  void drain_wake_fd();

  ReactorOptions opts_;
  Clock* clock_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: post() / stop() wakeups

  // Loop-thread-owned (see the threading contract above): handler table,
  // live timers by id, and the wheel holding (id, rounds) slot entries.
  // Handlers are held by shared_ptr so one that unwatches its own fd
  // mid-call does not destroy the std::function it is executing from.
  std::map<int, std::shared_ptr<FdHandler>> fd_handlers_;
  std::map<TimerId, PendingTimer> timers_;
  std::vector<std::vector<SlotEntry>> wheel_;
  std::size_t cursor_ = 0;
  std::int64_t wheel_time_us_ = 0;  // wall time of the cursor's last advance
  TimerId next_timer_id_ = 1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> looping_{false};

  mutable util::Mutex post_mu_;
  std::vector<Callback> posted_ GUARDED_BY(post_mu_);

  // Stats counters: written by the loop thread, read from stats() callers.
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> fd_events_{0};
  std::atomic<std::uint64_t> timers_fired_{0};
  std::atomic<std::uint64_t> callbacks_run_{0};
  std::atomic<std::uint64_t> max_epoll_batch_{0};
};

}  // namespace mocha::live
