#include "live/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace mocha::live {

Reactor::Reactor(ReactorOptions opts, Clock* clock)
    : opts_(opts), clock_(clock != nullptr ? clock : &Clock::monotonic()) {
  if (opts_.tick_us <= 0 || opts_.wheel_slots == 0) {
    throw std::invalid_argument("Reactor: tick_us and wheel_slots must be > 0");
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    throw std::system_error(err, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    const int err = errno;
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw std::system_error(err, std::generic_category(), "epoll_ctl(wake)");
  }
  wheel_.resize(opts_.wheel_slots);
  wheel_time_us_ = clock_->now_us();
}

Reactor::~Reactor() {
  // The owner must have stopped and joined the loop thread already; here we
  // only reclaim the fds.
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::watch_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const bool known = fd_handlers_.contains(fd);
  const int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "epoll_ctl(watch_fd)");
  }
  fd_handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void Reactor::unwatch_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
  // Failure here (e.g. the fd was closed first, removing it implicitly) is
  // benign: the handler entry is already gone.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Reactor::TimerId Reactor::call_after(std::int64_t delay_us, Callback cb) {
  return call_at(clock_->now_us() + std::max<std::int64_t>(delay_us, 0),
                 std::move(cb));
}

Reactor::TimerId Reactor::call_at(std::int64_t deadline_us, Callback cb) {
  const TimerId id = next_timer_id_++;
  // Slot relative to the cursor, rounded up so it never fires before the
  // deadline (the cursor lags the clock by up to a tick); never the current
  // slot, so a zero-delay timer fires on the next tick.
  std::int64_t ticks =
      (deadline_us - wheel_time_us_ + opts_.tick_us - 1) / opts_.tick_us;
  if (ticks < 1) ticks = 1;
  const std::size_t slot =
      (cursor_ + static_cast<std::size_t>(
                     static_cast<std::uint64_t>(ticks) % wheel_.size())) %
      wheel_.size();
  const std::uint64_t rounds =
      static_cast<std::uint64_t>(ticks - 1) / wheel_.size();
  wheel_[slot].push_back(SlotEntry{id, rounds});
  timers_.emplace(id, PendingTimer{deadline_us, std::move(cb)});
  return id;
}

bool Reactor::cancel(TimerId id) {
  // The wheel's slot entry stays behind as an orphan, purged by wait_us()
  // or skipped when its slot comes around — O(log n) cancel, no wheel walk.
  return timers_.erase(id) != 0;
}

void Reactor::post(Callback cb) {
  {
    util::MutexLock lock(post_mu_);
    posted_.push_back(std::move(cb));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::drain_wake_fd() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

std::int64_t Reactor::wait_us() {
  {
    util::MutexLock lock(post_mu_);
    if (!posted_.empty()) return 0;
  }
  if (timers_.empty()) return -1;  // until an fd, post() or stop()
  // Sleep, to the microsecond, until the boundary of the first slot that
  // holds a live timer: epoll_wait's milliseconds would hold a 500 us ack
  // timer back to 1 ms. Cancelled entries in the slots passed over are
  // purged here, or each would cost an empty loop pass.
  std::size_t ticks = 1;
  for (; ticks < wheel_.size(); ++ticks) {
    std::vector<SlotEntry>& slot = wheel_[(cursor_ + ticks) % wheel_.size()];
    std::erase_if(slot, [this](const SlotEntry& entry) {
      return !timers_.contains(entry.id);
    });
    if (!slot.empty()) break;
  }
  return std::max<std::int64_t>(
      wheel_time_us_ + static_cast<std::int64_t>(ticks) * opts_.tick_us -
          clock_->now_us(),
      0);
}

void Reactor::run() {
  looping_.store(true, std::memory_order_release);
  std::vector<epoll_event> events(std::max<std::size_t>(
      opts_.max_epoll_events, 1));
  while (!stop_.load(std::memory_order_acquire)) {
    const std::int64_t wait = wait_us();
    const timespec timeout{static_cast<time_t>(wait / 1'000'000),
                           static_cast<long>(wait % 1'000'000) * 1'000};
    const int n = ::epoll_pwait2(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 wait < 0 ? nullptr : &timeout, nullptr);
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) {
      const auto batch = static_cast<std::uint64_t>(n);
      if (batch > max_epoll_batch_.load(std::memory_order_relaxed)) {
        max_epoll_batch_.store(batch, std::memory_order_relaxed);
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        if (fd == wake_fd_) {
          drain_wake_fd();
          continue;
        }
        auto it = fd_handlers_.find(fd);
        if (it == fd_handlers_.end()) continue;  // unwatched by a peer handler
        fd_events_.fetch_add(1, std::memory_order_relaxed);
        const std::shared_ptr<FdHandler> handler = it->second;
        (*handler)(events[static_cast<std::size_t>(i)].events);
      }
    }
    run_posted();
    advance_wheel(clock_->now_us());
  }
  looping_.store(false, std::memory_order_release);
}

void Reactor::run_posted() {
  std::vector<Callback> batch;
  {
    util::MutexLock lock(post_mu_);
    batch.swap(posted_);
  }
  for (Callback& cb : batch) {
    callbacks_run_.fetch_add(1, std::memory_order_relaxed);
    cb();
  }
}

void Reactor::advance_wheel(std::int64_t now_us) {
  while (now_us - wheel_time_us_ >= opts_.tick_us) {
    cursor_ = (cursor_ + 1) % wheel_.size();
    wheel_time_us_ += opts_.tick_us;
    std::vector<SlotEntry>& slot = wheel_[cursor_];
    if (slot.empty()) continue;

    // Split the slot into this turn's due timers and future-round entries;
    // cancelled ids (absent from timers_) evaporate here.
    struct Due {
      std::int64_t deadline_us;
      TimerId id;
      Callback cb;
    };
    std::vector<Due> due;
    std::vector<SlotEntry> keep;
    for (SlotEntry& entry : slot) {
      auto it = timers_.find(entry.id);
      if (it == timers_.end()) continue;  // cancelled
      if (entry.rounds > 0) {
        --entry.rounds;
        keep.push_back(entry);
        continue;
      }
      due.push_back(Due{it->second.deadline_us, entry.id,
                        std::move(it->second.cb)});
      timers_.erase(it);
    }
    slot.swap(keep);

    // Same-slot timers fire in deadline order, ties by creation order — the
    // documented ordering guarantee (cross-slot order is the wheel's own).
    std::sort(due.begin(), due.end(), [](const Due& a, const Due& b) {
      return a.deadline_us != b.deadline_us ? a.deadline_us < b.deadline_us
                                            : a.id < b.id;
    });
    for (Due& d : due) {
      timers_fired_.fetch_add(1, std::memory_order_relaxed);
      d.cb();
    }
  }
}

Reactor::Stats Reactor::stats() const {
  Stats stats;
  stats.iterations = iterations_.load(std::memory_order_relaxed);
  stats.fd_events = fd_events_.load(std::memory_order_relaxed);
  stats.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  stats.callbacks_run = callbacks_run_.load(std::memory_order_relaxed);
  stats.max_epoll_batch = max_epoll_batch_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mocha::live
