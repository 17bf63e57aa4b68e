// Monotonic wall-clock time source for the live runtime.
//
// The simulated backend runs on sim::Scheduler virtual time; everything in
// src/live runs on this clock instead. Virtual so tests can substitute a
// fake; the default is CLOCK_MONOTONIC via std::chrono::steady_clock.
#pragma once

#include <cstdint>

namespace mocha::live {

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic microseconds since an arbitrary epoch.
  virtual std::int64_t now_us() const;

  // Process-wide steady-clock instance.
  static Clock& monotonic();
};

}  // namespace mocha::live
