#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "util/buffer.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"

namespace mocha::util {
namespace {

TEST(WireCodec, RoundTripsScalars) {
  Buffer buf;
  WireWriter writer(buf);
  writer.u8(0xab);
  writer.u16(0xbeef);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.i32(-42);
  writer.i64(-1234567890123LL);
  writer.f64(3.14159);
  writer.boolean(true);
  writer.boolean(false);

  WireReader reader(buf);
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0xbeef);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.i32(), -42);
  EXPECT_EQ(reader.i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(reader.f64(), 3.14159);
  EXPECT_TRUE(reader.boolean());
  EXPECT_FALSE(reader.boolean());
  EXPECT_TRUE(reader.at_end());
}

TEST(WireCodec, RoundTripsStringsAndBytes) {
  Buffer buf;
  WireWriter writer(buf);
  writer.str("hello mocha");
  writer.str("");
  Buffer blob{1, 2, 3, 255};
  writer.bytes(blob);

  WireReader reader(buf);
  EXPECT_EQ(reader.str(), "hello mocha");
  EXPECT_EQ(reader.str(), "");
  EXPECT_EQ(reader.bytes(), blob);
  EXPECT_TRUE(reader.at_end());
}

TEST(WireCodec, RoundTripsExtremeValues) {
  Buffer buf;
  WireWriter writer(buf);
  writer.i32(std::numeric_limits<std::int32_t>::min());
  writer.i32(std::numeric_limits<std::int32_t>::max());
  writer.i64(std::numeric_limits<std::int64_t>::min());
  writer.f64(std::numeric_limits<double>::infinity());
  writer.f64(-0.0);

  WireReader reader(buf);
  EXPECT_EQ(reader.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(reader.i32(), std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(reader.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(reader.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.f64(), -0.0);
}

TEST(WireCodec, ReadPastEndThrows) {
  Buffer buf;
  WireWriter writer(buf);
  writer.u16(7);
  WireReader reader(buf);
  EXPECT_EQ(reader.u16(), 7);
  EXPECT_THROW(reader.u8(), CodecError);
}

TEST(WireCodec, TruncatedLengthPrefixThrows) {
  Buffer buf;
  WireWriter writer(buf);
  writer.u32(1000);  // claims 1000 bytes follow; none do
  WireReader reader(buf);
  EXPECT_THROW(reader.bytes(), CodecError);
}

TEST(WireCodec, RawViewAdvances) {
  Buffer buf{10, 20, 30, 40};
  WireReader reader(buf);
  auto first = reader.raw(2);
  EXPECT_EQ(first[0], 10);
  EXPECT_EQ(first[1], 20);
  EXPECT_EQ(reader.remaining(), 2u);
  EXPECT_THROW(reader.raw(3), CodecError);
}

TEST(Status, OkAndErrors) {
  Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "OK");

  Status timeout(StatusCode::kTimeout, "peer silent");
  EXPECT_FALSE(timeout.is_ok());
  EXPECT_EQ(timeout.code(), StatusCode::kTimeout);
  EXPECT_EQ(timeout.to_string(), "TIMEOUT: peer silent");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status(StatusCode::kNotFound, "nope"));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(Result, ConstructingFromOkStatusThrows) {
  EXPECT_THROW(Result<int> r{Status::ok()}, std::logic_error);
}

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(SplitMix64, DoublesInUnitInterval) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, ChanceRespectsProbability) {
  SplitMix64 rng(123);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(Mutex, ContendedIncrementsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100'000;
  Mutex mu;
  long count = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++count;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(count, long{kThreads} * kIncrements);
}

TEST(Mutex, TryLockFailsWhileHeld) {
  Mutex mu;
  MutexLock lock(mu);
  bool got = false;
  std::thread other([&] {
    if (mu.try_lock()) {
      got = true;
      mu.unlock();
    }
  });
  other.join();
  EXPECT_FALSE(got);
}

TEST(CondVar, WaitUntilReturnsFalseOnTimeout) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(20);
  bool notified = true;
  // A spurious wakeup returns true before the deadline; wait it out.
  while (notified && std::chrono::steady_clock::now() < deadline) {
    notified = cv.wait_until(mu, deadline);
  }
  EXPECT_FALSE(notified);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);  // never early
  EXPECT_FALSE(cv.wait_for_us(mu, 1'000));
}

TEST(CondVar, WaitUntilReturnsTrueWhenNotified) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool waiting = false;
  bool notified = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread waiter([&] {
    MutexLock lock(mu);
    waiting = true;
    while (!ready) notified = cv.wait_until(mu, deadline);
  });
  while (true) {
    {
      MutexLock lock(mu);
      if (waiting) break;
    }
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();  // after the unlock, as the endpoint notifies
  waiter.join();
  EXPECT_TRUE(notified);
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 4;
  Mutex mu;
  CondVar cv;
  bool go = false;
  int waiting = 0;
  int timed_out = 0;
  // notify_one would leave all but one waiter to sleep out the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      ++waiting;
      while (!go) {
        if (!cv.wait_until(mu, deadline)) {
          ++timed_out;
          break;
        }
      }
    });
  }
  while (true) {
    {
      MutexLock lock(mu);
      if (waiting == kWaiters) break;  // each is inside wait_until
    }
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.notify_all();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(timed_out, 0);
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
}

}  // namespace
}  // namespace mocha::util
