#include "netpp/sim/stats.h"

#include <gtest/gtest.h>

#include "netpp/state/snapshot.h"

namespace netpp {
namespace {

using namespace netpp::literals;

TEST(SummaryStat, EmptyIsZero) {
  SummaryStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SummaryStat, BasicMoments) {
  SummaryStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryStat, SingleValue) {
  SummaryStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(SummaryStat, SnapshotRoundTripKeepsEveryAccumulator) {
  SummaryStat empty;
  SummaryStat filled;
  for (double x : {3.0, -1.5, 7.25}) filled.add(x);
  state::SnapshotWriter w;
  w.open_section("stats");
  empty.save_state(w);
  filled.save_state(w);
  w.close_section();

  state::SnapshotReader r{w.buffer()};
  r.open_section("stats");
  SummaryStat restored_empty;
  restored_empty.add(42.0);  // overwritten by the restore
  SummaryStat restored;
  restored_empty.restore_state(r);
  restored.restore_state(r);
  r.close_section();

  // The empty stat's +/-inf extrema survive, so the first add after the
  // restore sets both, as on a fresh stat.
  EXPECT_EQ(restored_empty.count(), 0u);
  restored_empty.add(-2.0);
  EXPECT_EQ(restored_empty.min(), -2.0);
  EXPECT_EQ(restored_empty.max(), -2.0);
  // Continuing the restored stat matches continuing the original bitwise.
  filled.add(0.5);
  restored.add(0.5);
  EXPECT_EQ(restored.count(), filled.count());
  EXPECT_EQ(restored.mean(), filled.mean());
  EXPECT_EQ(restored.m2(), filled.m2());
  EXPECT_EQ(restored.sum(), filled.sum());
  EXPECT_EQ(restored.min(), filled.min());
  EXPECT_EQ(restored.max(), filled.max());
}

TEST(TimeWeighted, SnapshotRoundTripContinuesTheIntegral) {
  TimeWeighted original{1.0, Seconds{0.5}};
  original.set(Seconds{1.5}, 4.0);
  state::SnapshotWriter w;
  w.open_section("signal");
  original.save_state(w);
  w.close_section();

  state::SnapshotReader r{w.buffer()};
  r.open_section("signal");
  TimeWeighted restored;
  restored.restore_state(r);
  r.close_section();

  EXPECT_EQ(restored.start().value(), 0.5);
  EXPECT_EQ(restored.last_change().value(), 1.5);
  EXPECT_EQ(restored.current(), 4.0);
  original.set(Seconds{3.0}, 2.0);
  restored.set(Seconds{3.0}, 2.0);
  EXPECT_EQ(restored.integral(Seconds{4.0}), original.integral(Seconds{4.0}));
  EXPECT_EQ(restored.average(Seconds{4.0}), original.average(Seconds{4.0}));
}

TEST(TimeWeighted, ConstantSignal) {
  TimeWeighted tw{5.0};
  EXPECT_DOUBLE_EQ(tw.integral(10.0_s), 50.0);
  EXPECT_DOUBLE_EQ(tw.average(10.0_s), 5.0);
}

TEST(TimeWeighted, StepSignal) {
  TimeWeighted tw{0.0};
  tw.set(2.0_s, 10.0);   // 0 for [0,2), 10 afterwards
  tw.set(6.0_s, 0.0);    // 10 for [2,6), 0 afterwards
  EXPECT_DOUBLE_EQ(tw.integral(8.0_s), 40.0);
  EXPECT_DOUBLE_EQ(tw.average(8.0_s), 5.0);
  EXPECT_DOUBLE_EQ(tw.current(), 0.0);
}

TEST(TimeWeighted, NonZeroStart) {
  TimeWeighted tw{2.0, 1.0_s};
  tw.set(3.0_s, 4.0);
  EXPECT_DOUBLE_EQ(tw.integral(5.0_s), 2.0 * 2.0 + 4.0 * 2.0);
  EXPECT_DOUBLE_EQ(tw.average(5.0_s), 12.0 / 4.0);
}

TEST(TimeWeighted, SameTimeUpdateReplacesValueForward) {
  TimeWeighted tw{1.0};
  tw.set(2.0_s, 5.0);
  tw.set(2.0_s, 7.0);  // zero-length segment at 5; 7 applies onwards
  EXPECT_DOUBLE_EQ(tw.integral(4.0_s), 1.0 * 2.0 + 7.0 * 2.0);
}

TEST(TimeWeighted, BackwardsTimeThrows) {
  TimeWeighted tw{0.0};
  tw.set(5.0_s, 1.0);
  EXPECT_THROW(tw.set(4.0_s, 2.0), std::invalid_argument);
  EXPECT_THROW((void)tw.integral(4.0_s), std::invalid_argument);
}

TEST(TimeWeighted, AverageAtStartIsCurrent) {
  TimeWeighted tw{3.0, 2.0_s};
  EXPECT_DOUBLE_EQ(tw.average(2.0_s), 3.0);
}

TEST(Histogram, CountsAndBuckets) {
  Histogram h{0.0, 10.0, 10};
  for (double x : {0.5, 1.5, 1.7, 9.9, -1.0, 10.0, 25.0}) h.add(x);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);  // 10.0 lands in overflow ([0,10) range)
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
}

TEST(Histogram, Quantiles) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
  EXPECT_NEAR(h.quantile(0.01), 1.0, 1.5);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h{0.0, 10.0, 10};
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> lo
  h.add(5.5);
  EXPECT_NEAR(h.quantile(1.0), 6.0, 1e-9);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace netpp
