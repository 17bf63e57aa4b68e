// Annotated mutex / scoped-lock / condition-variable wrappers.
//
// util::Mutex is a glibc adaptive pthread mutex (PTHREAD_MUTEX_ADAPTIVE_NP:
// a contended lock() spins briefly before it sleeps on the futex, which
// suits the endpoint's short critical sections) marked as a thread-safety
// *capability* so the clang analysis (-Wthread-safety, see
// util/thread_annotations.h) can prove that members declared GUARDED_BY(mu_)
// are only touched with mu_ held. util::MutexLock is the RAII lock;
// util::CondVar is a pthread condition variable on CLOCK_MONOTONIC that
// waits directly on the Mutex's pthread handle (no internal mutex of its
// own), so waiting code keeps its capability annotations intact.
//
// Style note for waiters: prefer an explicit `while (!cond) cv.wait(mu)`
// loop over the predicate-lambda overloads of the standard library. The
// analysis does not propagate "lock held" facts into lambda bodies, so a
// predicate that reads guarded state would need an escape hatch; a plain
// loop needs none.
#pragma once

#include <pthread.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <ctime>

#include "util/thread_annotations.h"

namespace mocha::util {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() { pthread_mutex_destroy(&mu_); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { pthread_mutex_lock(&mu_); }
  void unlock() RELEASE() { pthread_mutex_unlock(&mu_); }
  bool try_lock() TRY_ACQUIRE(true) { return pthread_mutex_trylock(&mu_) == 0; }

 private:
  friend class CondVar;
  pthread_mutex_t mu_ = PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP;
};

// RAII scoped lock over util::Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable that waits on a util::Mutex. All wait methods require
// the mutex held on entry and hold it again on return (the wait itself
// releases/reacquires inside pthread_cond_*, which the analysis does not
// look into — the REQUIRES contract is what call sites see and it is
// accurate at every sequence point they can observe). notify_one() and
// notify_all() need no lock: a notifier may release the mutex first, so the
// woken thread does not block on it again at once.
class CondVar {
 public:
  CondVar() = default;
  ~CondVar() { pthread_cond_destroy(&cv_); }
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) { pthread_cond_wait(&cv_, &mu.mu_); }

  // Waits until notified or `deadline`; returns false on timeout.
  bool wait_until(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      REQUIRES(mu) {
    // steady_clock is CLOCK_MONOTONIC.
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count();
    const timespec abs{static_cast<time_t>(ns / 1'000'000'000),
                       static_cast<long>(ns % 1'000'000'000)};
    return pthread_cond_clockwait(&cv_, &mu.mu_, CLOCK_MONOTONIC, &abs) !=
           ETIMEDOUT;
  }

  // Waits until notified or `timeout_us` elapses; returns false on timeout.
  bool wait_for_us(Mutex& mu, std::int64_t timeout_us) REQUIRES(mu) {
    return wait_until(mu, std::chrono::steady_clock::now() +
                              std::chrono::microseconds(timeout_us));
  }

  void notify_one() { pthread_cond_signal(&cv_); }
  void notify_all() { pthread_cond_broadcast(&cv_); }

 private:
  pthread_cond_t cv_ = PTHREAD_COND_INITIALIZER;
};

}  // namespace mocha::util
