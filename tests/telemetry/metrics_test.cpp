#include "netpp/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace netpp::telemetry {
namespace {

TEST(MetricRegistry, CounterIncrementsAndReads) {
  MetricRegistry registry;
  Counter c = registry.counter("flows.completed", "flows");
  EXPECT_TRUE(c.attached());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.counter_value("flows.completed"), 42u);
}

TEST(MetricRegistry, RegistrationIsIdempotentPerNameAndKind) {
  MetricRegistry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);  // both handles point at the same slot
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  MetricRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", {1.0}), std::invalid_argument);
}

TEST(MetricRegistry, EmptyNameThrows) {
  MetricRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
}

TEST(MetricRegistry, DetachedHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.attached());
  c.inc();
  g.set(5.0);
  g.add(1.0);
  h.observe(2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricRegistry, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge g = registry.gauge("util");
  g.set(0.25);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  EXPECT_DOUBLE_EQ(registry.gauge_value("util"), 0.75);
}

TEST(MetricRegistry, HistogramBucketsCountAndStats) {
  MetricRegistry registry;
  Histogram h = registry.histogram("fct", {1.0, 10.0}, "seconds");
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(5.0);   // bucket 1 (<= 10)
  h.observe(50.0);  // overflow bucket
  h.observe(1.0);   // boundary lands in bucket 0
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 56.5);

  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const MetricSample& s = samples[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 50.0);
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
}

TEST(MetricRegistry, HistogramBoundsValidated) {
  MetricRegistry registry;
  // Empty bounds are legal: a single catch-all bucket.
  Histogram all = registry.histogram("a", {});
  all.observe(123.0);
  EXPECT_EQ(all.count(), 1u);
  EXPECT_THROW(registry.histogram("b", {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(registry.histogram("c", {2.0, 1.0}), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(registry.histogram("d", {1.0, inf}), std::invalid_argument);
  registry.histogram("ok", {1.0, 2.0});
  // Re-registration with the same bounds is fine; different bounds throw.
  registry.histogram("ok", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("ok", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricRegistry, SnapshotPreservesRegistrationOrderAndMetadata) {
  MetricRegistry registry;
  registry.counter("first", "events", "the first metric");
  registry.gauge("second", "watts");
  Counter c = registry.counter("first");
  c.inc(9);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "first");
  EXPECT_EQ(samples[0].unit, "events");
  EXPECT_EQ(samples[0].help, "the first metric");
  EXPECT_EQ(samples[0].count, 9u);  // exact integer counter value
  EXPECT_DOUBLE_EQ(samples[0].value, 9.0);
  EXPECT_EQ(samples[1].name, "second");
}

TEST(MetricRegistry, LookupsThrowOnMissingOrWrongKind) {
  MetricRegistry registry;
  registry.counter("c");
  EXPECT_THROW((void)registry.counter_value("missing"), std::out_of_range);
  EXPECT_THROW((void)registry.gauge_value("c"), std::out_of_range);
}

TEST(MetricRegistry, SlotsSurviveManyRegistrations) {
  // Handles must stay valid while later registrations grow the registry.
  MetricRegistry registry;
  Counter first = registry.counter("metric.0");
  for (int i = 1; i < 200; ++i) {
    registry.counter("metric." + std::to_string(i));
  }
  first.inc(7);
  EXPECT_EQ(registry.counter_value("metric.0"), 7u);
}

}  // namespace
}  // namespace netpp::telemetry
