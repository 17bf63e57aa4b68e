// Unit tests for the Jacobson/Karels RTT estimator (net/mochanet_core.h): SRTT /
// RTTVAR convergence, RTO clamping, exponential backoff and its reset on a
// fresh sample, and the closed-form backed-off retry schedule the receiver
// uses to size its gap-skip window. Pure arithmetic — no sockets, no clock.
#include <gtest/gtest.h>

#include "net/mochanet_core.h"

namespace mocha::net {
namespace {

RttEstimator::Params fast_params() {
  RttEstimator::Params p;
  p.initial_rto_us = 20'000;
  p.min_rto_us = 1'000;
  p.max_rto_us = 1'000'000;
  p.backoff_cap = 6;
  return p;
}

TEST(RttEstimator, InitialRtoBeforeAnySample) {
  RttEstimator est(fast_params());
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.srtt_us(), 0);
  EXPECT_EQ(est.rto_us(), 20'000);
}

TEST(RttEstimator, FirstSampleSeedsSrttAndRttvar) {
  RttEstimator est(fast_params());
  est.sample(40'000);
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt_us(), 40'000);
  EXPECT_EQ(est.rttvar_us(), 20'000);
  // RTO = SRTT + max(granularity, 4 * RTTVAR) = 40ms + 80ms.
  EXPECT_EQ(est.rto_us(), 120'000);
}

TEST(RttEstimator, ConvergesToStableRtt) {
  RttEstimator est(fast_params());
  for (int i = 0; i < 64; ++i) est.sample(10'000);
  // SRTT decays geometrically onto the true RTT; RTTVAR onto zero.
  EXPECT_NEAR(static_cast<double>(est.srtt_us()), 10'000, 100);
  EXPECT_LT(est.rttvar_us(), 500);
  // RTO floors at SRTT + granularity (min_rto) once the variance dies out.
  EXPECT_GE(est.rto_us(), 10'000);
  EXPECT_LE(est.rto_us(), 13'000);
}

TEST(RttEstimator, TracksRttIncrease) {
  RttEstimator est(fast_params());
  for (int i = 0; i < 64; ++i) est.sample(5'000);
  const std::int64_t lan_rto = est.rto_us();
  for (int i = 0; i < 64; ++i) est.sample(50'000);
  EXPECT_GT(est.srtt_us(), 45'000);
  EXPECT_GT(est.rto_us(), lan_rto);
  EXPECT_GE(est.rto_us(), est.srtt_us());  // never below the smoothed RTT
}

TEST(RttEstimator, RtoRespectsMinAndMaxClamp) {
  RttEstimator::Params p = fast_params();
  p.min_rto_us = 4'000;
  RttEstimator est(p);
  for (int i = 0; i < 64; ++i) est.sample(1);  // sub-granularity RTT
  EXPECT_GE(est.rto_us(), 4'000);

  RttEstimator slow(fast_params());
  slow.sample(900'000);  // RTO would be 2.7s unclamped
  EXPECT_EQ(slow.rto_us(), 1'000'000);
}

TEST(RttEstimator, BackoffDoublesUpToCapAndClampsAtMax) {
  RttEstimator::Params p = fast_params();
  p.backoff_cap = 3;
  RttEstimator est(p);
  est.sample(10'000);
  const std::int64_t base = est.base_rto_us();
  est.backoff();
  EXPECT_EQ(est.rto_us(), base * 2);
  est.backoff();
  EXPECT_EQ(est.rto_us(), base * 4);
  est.backoff();
  est.backoff();  // beyond the cap: no further doubling
  EXPECT_EQ(est.backoff_shift(), 3);
  EXPECT_EQ(est.rto_us(), std::min<std::int64_t>(base * 8, 1'000'000));
}

TEST(RttEstimator, SampleResetsBackoff) {
  RttEstimator est(fast_params());
  est.sample(10'000);
  const std::int64_t base = est.base_rto_us();
  est.backoff();
  est.backoff();
  ASSERT_GT(est.rto_us(), base);
  // An accepted sample (an ack round-trip, Karn-filtered by the caller)
  // proves the path is alive: the backoff collapses immediately.
  est.sample(10'000);
  EXPECT_EQ(est.backoff_shift(), 0);
  EXPECT_LE(est.rto_us(), base + base / 4);
}

TEST(RttEstimator, RetryScheduleSumsBackedOffWaits) {
  // 5ms initial, 2 resends, uncapped doubling: 5 + 10 + 20 ms.
  EXPECT_EQ(RttEstimator::retry_schedule_us(5'000, 2, 6, 1'000'000), 35'000);
  // Fixed-RTO transport (cap 0): every wait is the initial RTO.
  EXPECT_EQ(RttEstimator::retry_schedule_us(5'000, 2, 0, 1'000'000), 15'000);
  // Doubling clamps at max_rto: 5 + 10 + 10 ms.
  EXPECT_EQ(RttEstimator::retry_schedule_us(5'000, 2, 6, 10'000), 25'000);
}

TEST(RttEstimator, RetryScheduleSurvivesShiftOverflow) {
  // A pathological initial RTO must clamp to max_rto, not wrap negative.
  const std::int64_t total = RttEstimator::retry_schedule_us(
      std::int64_t{1} << 60, 3, 6, std::int64_t{1} << 60);
  EXPECT_GT(total, 0);
  EXPECT_EQ(total, (std::int64_t{1} << 60) * 4);
}

}  // namespace
}  // namespace mocha::net
