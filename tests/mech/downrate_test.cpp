#include "netpp/mech/downrate.h"

#include <gtest/gtest.h>

#include <utility>

namespace netpp {
namespace {

LoadTrace constant_trace(double load, double duration) {
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  trace.loads = {{load}};
  trace.end = Seconds{duration};
  return trace;
}

/// Diurnal-ish two-level trace: low load for the first half, high after,
/// sampled every `step` seconds so dwell logic has boundaries to act on.
LoadTrace two_level_trace(double low, double high, double duration,
                          double step = 10.0) {
  LoadTrace trace;
  for (double t = 0.0; t < duration; t += step) {
    trace.times.push_back(Seconds{t});
    trace.loads.push_back({t < duration / 2.0 ? low : high});
  }
  trace.end = Seconds{duration};
  return trace;
}

/// A down-rating run: the MechanismReport plus the policy-side violation
/// and outage times it has no fields for.
struct Run {
  MechanismReport report;
  Seconds violation_time;
  Seconds outage_time;
};

Run run(const LoadTrace& trace, const DownrateConfig& cfg) {
  DownratePolicy policy{cfg};
  MechanismReport report = run_mechanism(trace, policy);
  return Run{std::move(report), policy.violation_time(),
             policy.outage_time()};
}

TEST(Downrate, FullLoadStaysAtNominal) {
  const auto result = run(constant_trace(0.9, 1000.0), DownrateConfig{});
  EXPECT_EQ(result.report.level_transitions, 0u);
  EXPECT_NEAR(result.report.savings, 0.0, 1e-12);
  EXPECT_NEAR(result.report.mean_level, 400.0, 1e-9);
}

TEST(Downrate, IdleLinkStepsToBottomAfterDwell) {
  DownrateConfig cfg;
  cfg.down_dwell = Seconds{60.0};
  const auto result = run(two_level_trace(0.01, 0.01, 1000.0), cfg);
  EXPECT_EQ(result.report.level_transitions, 1u);
  EXPECT_LT(result.report.mean_level, 150.0);
  // Power at 100 G (both ends 2x4 W) vs nominal (2x10 W): the long tail at
  // the bottom step dominates.
  EXPECT_GT(result.report.savings, 0.5);
  EXPECT_DOUBLE_EQ(result.violation_time.value(), 0.0);
}

TEST(Downrate, DiurnalCycleSavesAndServes) {
  DownrateConfig cfg;
  cfg.down_dwell = Seconds{30.0};
  // Night at 10%, day at 70% of 400 G.
  const auto result = run(two_level_trace(0.10, 0.70, 2000.0), cfg);
  // Down at night, up for the day.
  EXPECT_GE(result.report.level_transitions, 2u);
  EXPECT_GT(result.report.savings, 0.10);
  EXPECT_DOUBLE_EQ(result.violation_time.value(), 0.0);
}

TEST(Downrate, StepUpIsImmediate) {
  DownrateConfig cfg;
  cfg.down_dwell = Seconds{1e6};  // never steps down
  const auto result = run(two_level_trace(0.10, 0.70, 1000.0), cfg);
  // Started at nominal, never left.
  EXPECT_EQ(result.report.level_transitions, 0u);
  EXPECT_NEAR(result.report.mean_level, 400.0, 1e-9);
}

TEST(Downrate, HeadroomPreventsViolations) {
  DownrateConfig cfg;
  cfg.down_dwell = Seconds{10.0};
  cfg.headroom = 0.25;
  // Load 0.19: 0.19*400*1.25 = 95 G -> 100 G step covers the 76 G offered.
  const auto result = run(two_level_trace(0.19, 0.19, 500.0), cfg);
  EXPECT_DOUBLE_EQ(result.violation_time.value(), 0.0);
  EXPECT_NEAR(result.report.mean_level, 100.0, 15.0);
}

TEST(Downrate, BuggyGatingSavesNothing) {
  // The paper: "savings are limited - supposedly because few components are
  // powered off."
  DownrateConfig cfg;
  cfg.gating_effectiveness = 0.0;
  cfg.down_dwell = Seconds{10.0};
  const auto result = run(two_level_trace(0.01, 0.01, 500.0), cfg);
  EXPECT_NEAR(result.report.savings, 0.0, 1e-12);
  // It *does* down-rate, uselessly.
  EXPECT_GT(result.report.level_transitions, 0u);
}

TEST(Downrate, PartialGatingScalesSavings) {
  DownrateConfig full, half;
  full.down_dwell = half.down_dwell = Seconds{10.0};
  half.gating_effectiveness = 0.5;
  const auto trace = two_level_trace(0.01, 0.01, 500.0);
  const auto r_full = run(trace, full);
  const auto r_half = run(trace, half);
  EXPECT_NEAR(r_half.report.savings, r_full.report.savings / 2.0, 0.02);
}

TEST(Downrate, TransitionsCostOutage) {
  DownrateConfig cfg;
  cfg.down_dwell = Seconds{10.0};
  cfg.transition_outage = Seconds::from_milliseconds(50.0);
  const auto result = run(two_level_trace(0.05, 0.70, 1000.0), cfg);
  const auto transitions =
      static_cast<double>(result.report.level_transitions);
  EXPECT_NEAR(result.outage_time.value(), 0.05 * transitions, 1e-9);
}

TEST(Downrate, InvalidConfigsThrow) {
  DownrateConfig cfg;
  cfg.ladder = {};
  EXPECT_THROW(DownratePolicy{cfg}, std::invalid_argument);
  cfg = DownrateConfig{};
  cfg.ladder = {400.0, 100.0};
  EXPECT_THROW(DownratePolicy{cfg}, std::invalid_argument);
  cfg = DownrateConfig{};
  cfg.ladder = {100.0, 200.0};  // does not top out at nominal
  EXPECT_THROW(DownratePolicy{cfg}, std::invalid_argument);
  cfg = DownrateConfig{};
  cfg.gating_effectiveness = 1.5;
  EXPECT_THROW(DownratePolicy{cfg}, std::invalid_argument);
}

TEST(Downrate, RejectsMultiChannelTrace) {
  // The policy prices one link: a multi-channel trace must be rejected, not
  // silently read as its first channel.
  LoadTrace two_channels;
  two_channels.times = {Seconds{0.0}};
  two_channels.loads = {{0.1, 0.9}};
  two_channels.end = Seconds{10.0};
  EXPECT_THROW((void)run(two_channels, DownrateConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpp
