#include "netpp/telemetry/sampler.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "netpp/telemetry/metrics.h"

namespace netpp::telemetry {
namespace {

TEST(TimeSeriesSampler, DisabledWithoutPeriod) {
  MetricRegistry registry;
  TimeSeriesSampler sampler{registry};
  sampler.track("g");
  EXPECT_FALSE(sampler.enabled());
  EXPECT_FALSE(sampler.due(Seconds{0.0}));
  sampler.maybe_sample(Seconds{0.0});
  EXPECT_TRUE(sampler.times().empty());
}

TEST(TimeSeriesSampler, PeriodValidation) {
  MetricRegistry registry;
  TimeSeriesSampler sampler{registry};
  EXPECT_THROW(sampler.set_period(Seconds{-1.0}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sampler.set_period(Seconds{inf}), std::invalid_argument);
  sampler.set_period(Seconds{0.5});
  EXPECT_TRUE(sampler.enabled());
}

TEST(TimeSeriesSampler, MaybeSampleHonorsCadence) {
  MetricRegistry registry;
  Gauge g = registry.gauge("load");
  TimeSeriesSampler sampler{registry};
  sampler.set_period(Seconds{1.0});
  sampler.track("load");

  g.set(1.0);
  sampler.maybe_sample(Seconds{0.0});  // first call always samples
  g.set(2.0);
  sampler.maybe_sample(Seconds{0.5});  // not due
  g.set(3.0);
  sampler.maybe_sample(Seconds{1.0});  // due again
  g.set(4.0);
  sampler.maybe_sample(Seconds{1.2});  // not due

  ASSERT_EQ(sampler.times().size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.times()[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(sampler.times()[1].value(), 1.0);
  ASSERT_EQ(sampler.num_series(), 1u);
  EXPECT_EQ(sampler.series_name(0), "load");
  ASSERT_EQ(sampler.series_values(0).size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.series_values(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(sampler.series_values(0)[1], 3.0);
}

TEST(TimeSeriesSampler, DueLetsCallersPrecomputeExpensiveGauges) {
  MetricRegistry registry;
  TimeSeriesSampler sampler{registry};
  sampler.set_period(Seconds{1.0});
  sampler.track("g");
  EXPECT_TRUE(sampler.due(Seconds{0.0}));
  sampler.sample(Seconds{0.0});
  EXPECT_FALSE(sampler.due(Seconds{0.9}));
  EXPECT_TRUE(sampler.due(Seconds{1.0}));
}

TEST(TimeSeriesSampler, TrackingTwiceIsANoOp) {
  MetricRegistry registry;
  TimeSeriesSampler sampler{registry};
  sampler.track("g");
  sampler.track("g");
  EXPECT_EQ(sampler.num_series(), 1u);
}

TEST(TimeSeriesSampler, ConfigurationLockedAfterFirstSample) {
  MetricRegistry registry;
  TimeSeriesSampler sampler{registry};
  sampler.set_period(Seconds{1.0});
  sampler.track("g");
  sampler.sample(Seconds{0.0});
  EXPECT_THROW(sampler.set_period(Seconds{2.0}), std::invalid_argument);
  EXPECT_THROW(sampler.track("h"), std::invalid_argument);
}

}  // namespace
}  // namespace netpp::telemetry
