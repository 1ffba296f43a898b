// Golden equivalence suite: every §4 mechanism policy, driven by
// run_mechanism, must reproduce the pre-refactor ("seed") simulator outputs
// bit-identically on the fixed scenarios in golden_inputs.h. The expected
// values below were recorded by tests/mech/golden_record_main.cpp against
// the seed implementations, before the mechanisms moved onto the unified
// PowerStateTimeline / run_mechanism engine. They are keyed on
// MechanismReport fields, plus the policy accessors for values the report
// does not carry (emergency wakes, down-rating violation and outage time).
// Every comparison is exact (EXPECT_EQ on doubles, no tolerance): a
// refactor must preserve floating-point operation order, not just
// "approximately the same answer".
#include <gtest/gtest.h>

#include "golden_inputs.h"

namespace netpp {
namespace {

MechanismReport run_rate(RateAdaptMode mode, bool lanes) {
  RateAdaptPolicy policy{golden::rateadapt_config(lanes), mode};
  return run_mechanism(golden::rate_trace(), policy);
}

/// Rate adaptation pins energy, average power, savings against nominal
/// clocks, clock changes (level_transitions) and the time-weighted mean
/// frequency (mean_level).
void expect_rate_eq(const MechanismReport& r, const MechanismReport& e) {
  EXPECT_EQ(r.energy.value(), e.energy.value());
  EXPECT_EQ(r.average_power.value(), e.average_power.value());
  EXPECT_EQ(r.savings, e.savings);
  EXPECT_EQ(r.level_transitions, e.level_transitions);
  EXPECT_EQ(r.mean_level, e.mean_level);
}

TEST(GoldenEquivalence, RateAdaptationNone) {
  MechanismReport e;
  e.energy = Joules{0x1.49f4cp+15};  // 42234.375
  e.average_power = Watts{0x1.5ff4p+9};  // 703.90625
  e.savings = 0x0p+0;  // 0
  e.level_transitions = 0;
  e.mean_level = 0x1p+0;  // 1
  expect_rate_eq(run_rate(RateAdaptMode::kNone, false), e);
}

TEST(GoldenEquivalence, RateAdaptationGlobalAsic) {
  MechanismReport e;
  e.energy = Joules{0x1.37ecf33333333p+15};  // 39926.474999999999
  e.average_power = Watts{0x1.4cb87ae147ae1p+9};  // 665.44124999999997
  e.savings = 0x1.bfa6ffc233e3p-5;  // 0.054645061043285259
  e.level_transitions = 20;
  e.mean_level = 0x1.446ff513cc1e1p-1;  // 0.63366666666666671
  expect_rate_eq(run_rate(RateAdaptMode::kGlobalAsic, false), e);
}

TEST(GoldenEquivalence, RateAdaptationPerPipeline) {
  MechanismReport e;
  e.energy = Joules{0x1.312c2p+15};  // 39062.0625
  e.average_power = Watts{0x1.4584666666666p+9};  // 651.03437499999995
  e.savings = 0x1.33a8be305fe78p-4;  // 0.075112097669256417
  e.level_transitions = 20;
  e.mean_level = 0x1.fc5f92c5f92c6p-2;  // 0.49645833333333333
  expect_rate_eq(run_rate(RateAdaptMode::kPerPipeline, false), e);
}

TEST(GoldenEquivalence, RateAdaptationPerPipelineWithLanes) {
  MechanismReport e;
  e.energy = Joules{0x1.053a2p+15};  // 33437.0625
  e.average_power = Watts{0x1.16a4666666666p+9};  // 557.28437499999995
  e.savings = 0x1.aa97da1f4a604p-3;  // 0.20829744728079913
  e.level_transitions = 20;
  e.mean_level = 0x1.fc5f92c5f92c6p-2;  // 0.49645833333333333
  expect_rate_eq(run_rate(RateAdaptMode::kPerPipeline, true), e);
}

/// Parking pins energy, average power, savings against all-on, the mean
/// active pipeline count (mean_on_components), wakes, parks and the
/// circuit-switch buffering.
void expect_parking_eq(const MechanismReport& r, const MechanismReport& e) {
  EXPECT_EQ(r.energy.value(), e.energy.value());
  EXPECT_EQ(r.average_power.value(), e.average_power.value());
  EXPECT_EQ(r.savings, e.savings);
  EXPECT_EQ(r.mean_on_components, e.mean_on_components);
  EXPECT_EQ(r.wake_transitions, e.wake_transitions);
  EXPECT_EQ(r.park_transitions, e.park_transitions);
  EXPECT_EQ(r.max_buffered.value(), e.max_buffered.value());
  EXPECT_EQ(r.dropped.value(), e.dropped.value());
  EXPECT_EQ(r.max_added_delay.value(), e.max_added_delay.value());
}

TEST(GoldenEquivalence, ParkingReactive) {
  MechanismReport e;
  e.energy = Joules{0x1.9c5f8p+14};  // 26391.875
  e.average_power = Watts{0x1.49e6p+9};  // 659.796875
  e.savings = 0x1.277a2aaefc9dp-4;  // 0.07213799165018675
  e.mean_on_components = 0x1.5666666666666p+1;  // 2.6749999999999998
  e.wake_transitions = 6;
  e.park_transitions = 7;
  e.max_buffered = Bits{0x1.e848p+22};  // 8000000
  e.dropped = Bits{0x1.8727b6bcap+44};  // 26879976000000
  e.max_added_delay = Seconds{0x1.4f8b588e368f1p-21};  // 6.25e-07
  ReactiveParkingPolicy policy{golden::parking_config()};
  expect_parking_eq(run_mechanism(golden::parking_trace(), policy), e);
}

TEST(GoldenEquivalence, ParkingPredictive) {
  MechanismReport e;
  e.energy = Joules{0x1.97468p+14};  // 26065.625
  e.average_power = Watts{0x1.45d2p+9};  // 651.640625
  e.savings = 0x1.5675572225038p-4;  // 0.083607998242144599
  e.mean_on_components = 0x1.4p+1;  // 2.5
  e.wake_transitions = 7;
  e.park_transitions = 8;
  PredictiveParkingPolicy policy{golden::parking_config(), golden::forecast()};
  expect_parking_eq(run_mechanism(golden::parking_trace(), policy), e);
}

TEST(GoldenEquivalence, ParkingReactiveResilient) {
  MechanismReport e;
  e.energy = Joules{0x1.abaa8p+14};  // 27370.625
  e.average_power = Watts{0x1.5622p+9};  // 684.265625
  e.savings = 0x1.6abdf98aa773p-5;  // 0.044280040155383893
  e.mean_on_components = 0x1.7e66666666666p+1;  // 2.9874999999999998
  e.wake_transitions = 9;
  e.park_transitions = 10;
  e.max_buffered = Bits{0x1.e848p+22};  // 8000000
  e.dropped = Bits{0x1.ac686d5b80001p+44};  // 29439968000000.004
  e.max_added_delay = Seconds{0x1.4f8b588e368f1p-21};  // 6.25e-07
  ResilientParkingPolicy policy{golden::parking_config(), golden::recalls()};
  expect_parking_eq(
      run_mechanism(policy.splice(golden::parking_trace()), policy), e);
  EXPECT_EQ(policy.emergency_wakes(), 3u);
}

TEST(GoldenEquivalence, ResilientWithoutRecallsMatchesReactive) {
  ReactiveParkingPolicy reactive_policy{golden::parking_config()};
  const MechanismReport reactive =
      run_mechanism(golden::parking_trace(), reactive_policy);
  ResilientParkingPolicy resilient_policy{golden::parking_config(), {}};
  const MechanismReport resilient = run_mechanism(
      resilient_policy.splice(golden::parking_trace()), resilient_policy);
  EXPECT_EQ(reactive.energy.value(), resilient.energy.value());
  EXPECT_EQ(reactive.wake_transitions, resilient.wake_transitions);
  EXPECT_EQ(reactive.park_transitions, resilient.park_transitions);
  EXPECT_EQ(reactive.dropped.value(), resilient.dropped.value());
}

TEST(GoldenEquivalence, Downrating) {
  DownratePolicy policy{golden::downrate_config()};
  const MechanismReport r = run_mechanism(golden::diurnal_trace(), policy);
  EXPECT_EQ(r.energy.value(), 0x1.3a88p+16);  // 80520
  EXPECT_EQ(r.baseline_energy.value(), 0x1.77p+16);  // 96000
  EXPECT_EQ(r.savings, 0x1.4a3d70a3d70a4p-3);  // 0.16125
  EXPECT_EQ(r.level_transitions, 3u);
  EXPECT_EQ(policy.violation_time().value(), 0.0);
  EXPECT_EQ(policy.outage_time().value(), 0x1.3333333333334p-3);  // 0.15
  EXPECT_EQ(r.mean_level, 0x1.068p+8);  // 262.5 (Gbps)
}

struct EeeGolden {
  double energy_j = 0.0;
  double always_on_energy_j = 0.0;
  double savings = 0.0;
  double lpi_fraction = 0.0;
  double mean_added_delay_s = 0.0;
  double max_added_delay_s = 0.0;
  std::size_t wakes = 0;
  std::size_t frames = 0;
};

void expect_eq(const EeeResult& r, const EeeGolden& e) {
  EXPECT_EQ(r.energy.value(), e.energy_j);
  EXPECT_EQ(r.always_on_energy.value(), e.always_on_energy_j);
  EXPECT_EQ(r.energy_savings_fraction, e.savings);
  EXPECT_EQ(r.lpi_time_fraction, e.lpi_fraction);
  EXPECT_EQ(r.mean_added_delay.value(), e.mean_added_delay_s);
  EXPECT_EQ(r.max_added_delay.value(), e.max_added_delay_s);
  EXPECT_EQ(r.wake_transitions, e.wakes);
  EXPECT_EQ(r.frames, e.frames);
}

TEST(GoldenEquivalence, EeeLink) {
  EeeGolden e;
  e.energy_j = 0x1.49e1d337151dcp-6;  // 0.020134407296000009
  e.always_on_energy_j = 0x1.999999999999ap-3;  // 0.2
  e.savings = 0x1.cc74b6ff64b36p-1;  // 0.89932796352
  e.lpi_fraction = 0x1.ff9e20a9fe1cap-1;  // 0.99925329279999997
  e.mean_added_delay_s = 0x1.4d97916260c8cp-19;  // 2.4854545454547075e-06
  e.max_added_delay_s = 0x1.2ca5d05ea8p-18;  // 4.4800000000011497e-06
  e.wakes = 4;
  e.frames = 11;
  expect_eq(simulate_eee_link(golden::eee_config(false), golden::eee_frames(),
                              golden::eee_horizon()),
            e);
}

TEST(GoldenEquivalence, EeeLinkCoalescing) {
  EeeGolden e;
  e.energy_j = 0x1.49bf65f138e7ep-6;  // 0.020126199296000007
  e.always_on_energy_j = 0x1.999999999999ap-3;  // 0.2
  e.savings = 0x1.cc7a18124f1bcp-1;  // 0.89936900351999993
  e.lpi_fraction = 0x1.ffa41abf0290ap-1;  // 0.99929889279999995
  e.mean_added_delay_s = 0x1.c9ed2e1a25846p-18;  // 6.8236363636367435e-06
  e.max_added_delay_s = 0x1.e5de40bd8bp-17;  // 1.4480000000004212e-05
  e.wakes = 4;
  e.frames = 11;
  expect_eq(simulate_eee_link(golden::eee_config(true), golden::eee_frames(),
                              golden::eee_horizon()),
            e);
}

}  // namespace
}  // namespace netpp
