// Tests for CoreParkingPolicy: whole core switches parked against the
// single-channel aggregate cross-pod load, through the same reactive fixed
// point (detail::settle_parking) as the pipeline tier.
#include "netpp/mech/core_parking.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace netpp {
namespace {

using namespace netpp::literals;

constexpr int kSwitches = 8;

LoadTrace constant_trace(double load, double duration = 10.0) {
  LoadTrace trace;
  trace.times = {0.0_s};
  trace.loads = {{load}};
  trace.end = Seconds{duration};
  return trace;
}

MechanismReport run(const LoadTrace& trace, const CoreParkingConfig& config,
                    int switches = kSwitches, double load_scale = 1.0) {
  CoreParkingPolicy policy{config, switches, load_scale};
  return run_mechanism(trace, policy);
}

TEST(CoreParking, RejectsInvalidConfigs) {
  const CoreParkingConfig ok;
  EXPECT_NO_THROW((CoreParkingPolicy{ok, kSwitches}));
  EXPECT_THROW((CoreParkingPolicy{ok, 0}), std::invalid_argument);

  CoreParkingConfig bad = ok;
  bad.min_active = 0;
  EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument);
  bad.min_active = kSwitches + 1;
  EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument);

  bad = ok;
  bad.hi_threshold = 0.5;
  bad.lo_threshold = 0.6;  // lo >= hi
  EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument);
  bad = ok;
  bad.hi_threshold = 1.5;
  EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument);

  bad = ok;
  bad.wake_latency = Seconds{-1.0};
  EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument);

  for (double scale : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((CoreParkingPolicy{ok, kSwitches, scale}),
                 std::invalid_argument)
        << "load_scale=" << scale;
  }

  for (double watts : {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    bad = ok;
    bad.switch_power = Watts{watts};
    EXPECT_THROW((CoreParkingPolicy{bad, kSwitches}), std::invalid_argument)
        << "switch_power=" << watts;
  }
}

TEST(CoreParking, RejectsMultiChannelTrace) {
  LoadTrace per_pod;
  per_pod.times = {0.0_s};
  per_pod.loads = {{0.1, 0.2}};
  per_pod.end = 1.0_s;
  EXPECT_THROW((void)run(per_pod, CoreParkingConfig{}),
               std::invalid_argument);
}

TEST(CoreParking, IdleTraceParksDownToMinActive) {
  CoreParkingConfig config;
  config.min_active = 2;
  const MechanismReport report = run(constant_trace(0.0), config);
  // The fixed point parks all the way down at the first decision point.
  EXPECT_EQ(report.mean_on_components, 2.0);
  EXPECT_EQ(report.park_transitions,
            static_cast<std::size_t>(kSwitches - 2));
  EXPECT_EQ(report.wake_transitions, 0u);
  EXPECT_DOUBLE_EQ(report.savings, 1.0 - 2.0 / kSwitches);
  EXPECT_DOUBLE_EQ(report.energy.value(),
                   2.0 * config.switch_power.value() * 10.0);
}

TEST(CoreParking, FullLoadKeepsEverySwitchOn) {
  const MechanismReport report = run(constant_trace(1.0), CoreParkingConfig{});
  EXPECT_EQ(report.mean_on_components, static_cast<double>(kSwitches));
  EXPECT_EQ(report.transitions(), 0u);
  EXPECT_DOUBLE_EQ(report.savings, 0.0);
}

TEST(CoreParking, LoadScaleRescalesTheOfferedLoad) {
  // 4 switches at 0.3 of capacity fit on 3 (0.3 is not under lo * 2/4);
  // scaled x2 the same trace needs all 4.
  const CoreParkingConfig config;
  const MechanismReport unscaled = run(constant_trace(0.3), config, 4);
  const MechanismReport scaled = run(constant_trace(0.3), config, 4, 2.0);
  EXPECT_EQ(unscaled.mean_on_components, 3.0);
  EXPECT_EQ(scaled.mean_on_components, 4.0);

  // Scaling the policy is bit-identical to scaling the trace.
  const MechanismReport pre_scaled =
      run(constant_trace(2.0 * 0.3), config, 4);
  EXPECT_EQ(scaled.energy.value(), pre_scaled.energy.value());
  EXPECT_EQ(scaled.transitions(), pre_scaled.transitions());
}

}  // namespace
}  // namespace netpp
