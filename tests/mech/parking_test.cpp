#include "netpp/mech/parking.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace netpp {
namespace {

using namespace netpp::literals;

LoadTrace constant_trace(double load, double duration) {
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  trace.loads = {{load}};
  trace.end = Seconds{duration};
  return trace;
}

/// ML-phase-like trace: idle compute phases with communication bursts.
LoadTrace phase_trace(int iterations, double burst_load) {
  LoadTrace trace;
  for (int k = 0; k < iterations; ++k) {
    trace.times.push_back(Seconds{k * 1.0});        // compute: idle
    trace.loads.push_back({0.0});
    trace.times.push_back(Seconds{k * 1.0 + 0.9});  // comm burst
    trace.loads.push_back({burst_load});
  }
  trace.end = Seconds{static_cast<double>(iterations)};
  return trace;
}

/// A forecast that mirrors the trace exactly (ML predictability).
std::vector<LoadForecast> mirror_forecast(const LoadTrace& trace) {
  std::vector<LoadForecast> forecast;
  for (std::size_t i = 0; i < trace.times.size(); ++i) {
    forecast.push_back(LoadForecast{trace.times[i], trace.loads[i][0]});
  }
  return forecast;
}

ParkingConfig default_config() {
  ParkingConfig cfg;
  cfg.model = SwitchPowerModel{};
  return cfg;
}

MechanismReport run_reactive(const LoadTrace& trace, const ParkingConfig& cfg) {
  ReactiveParkingPolicy policy{cfg};
  return run_mechanism(trace, policy);
}

MechanismReport run_predictive(const LoadTrace& trace,
                               std::vector<LoadForecast> forecast,
                               const ParkingConfig& cfg) {
  PredictiveParkingPolicy policy{cfg, std::move(forecast)};
  return run_mechanism(trace, policy);
}

TEST(Parking, IdleTraceParksDownToMinimum) {
  const auto cfg = default_config();
  const auto result = run_reactive(constant_trace(0.0, 10.0), cfg);
  EXPECT_NEAR(result.mean_on_components, 1.0, 0.05);
  EXPECT_GT(result.savings, 0.0);
  EXPECT_DOUBLE_EQ(result.dropped.value(), 0.0);
}

TEST(Parking, FullLoadKeepsEverythingOn) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  const auto result = run_reactive(constant_trace(1.0, 10.0), cfg);
  EXPECT_NEAR(result.mean_on_components, pipes, 1e-9);
  // The circuit switch overhead makes it slightly *worse* than all-on.
  EXPECT_LT(result.savings, 0.0);
}

TEST(Parking, ParkingSavesLeakageUnlikeRateAdaptation) {
  // At zero load, parked pipelines save their full share (leakage included),
  // so the floor power is chassis + ports + 1 pipeline + circuit switch.
  const auto cfg = default_config();
  const auto result = run_reactive(constant_trace(0.0, 100.0), cfg);
  const auto& m = cfg.model;
  const double floor = m.chassis_power().value() +
                       0.30 * 750.0 +  // ports
                       m.pipeline_power(PipelineState{true, 1.0, 0.0}).value() +
                       cfg.circuit_switch_power.value();
  EXPECT_NEAR(result.average_power.value(), floor, 1.0);
}

TEST(Parking, ReactiveFollowsBursts) {
  const auto cfg = default_config();
  const auto result = run_reactive(phase_trace(5, 0.9), cfg);
  // Should park during compute and wake for bursts: mean well below max,
  // above min.
  EXPECT_GT(result.mean_on_components, 1.0);
  EXPECT_LT(result.mean_on_components, 4.0);
  EXPECT_GT(result.wake_transitions, 0u);
  EXPECT_GT(result.park_transitions, 0u);
  EXPECT_GT(result.savings, 0.10);
}

TEST(Parking, ReactiveBuffersDuringWake) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(10.0);
  const auto result = run_reactive(phase_trace(3, 0.9), cfg);
  // The burst hits while pipelines are waking: traffic must be buffered.
  EXPECT_GT(result.max_buffered.value(), 0.0);
  EXPECT_GT(result.max_added_delay.value(), 0.0);
}

TEST(Parking, SmallBufferDropsDuringWake) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(50.0);
  cfg.buffer_capacity = Bits::from_bytes(1e3);  // absurdly small
  const auto result = run_reactive(phase_trace(3, 0.9), cfg);
  EXPECT_GT(result.dropped.value(), 0.0);
}

TEST(Parking, PredictivePreWakingAvoidsBuffering) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(10.0);

  const auto trace = phase_trace(5, 0.9);
  const auto reactive = run_reactive(trace, cfg);
  const auto predictive = run_predictive(trace, mirror_forecast(trace), cfg);

  EXPECT_GT(reactive.max_buffered.value(), 0.0);
  EXPECT_NEAR(predictive.max_buffered.value(), 0.0, 1e-6);
  EXPECT_NEAR(predictive.max_added_delay.value(), 0.0, 1e-9);
  // Predictive still saves energy.
  EXPECT_GT(predictive.savings, 0.10);
}

TEST(Parking, PredictiveEnergyCloseToReactive) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds::from_milliseconds(1.0);
  const auto trace = phase_trace(5, 0.9);
  const auto reactive = run_reactive(trace, cfg);
  const auto predictive = run_predictive(trace, mirror_forecast(trace), cfg);
  EXPECT_NEAR(predictive.energy.value(), reactive.energy.value(),
              0.15 * reactive.energy.value());
}

TEST(Parking, ZeroWakeLatencyNeverBuffers) {
  auto cfg = default_config();
  cfg.wake_latency = Seconds{0.0};
  const auto result = run_reactive(phase_trace(4, 0.95), cfg);
  EXPECT_NEAR(result.max_buffered.value(), 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(result.dropped.value(), 0.0);
}

TEST(Parking, MinActiveIsRespected) {
  auto cfg = default_config();
  cfg.min_active = 2;
  const auto result = run_reactive(constant_trace(0.0, 10.0), cfg);
  EXPECT_GE(result.mean_on_components, 2.0 - 1e-9);
}

TEST(Parking, InvalidConfigsThrow) {
  // Every parking policy validates its config on construction, whichever
  // subclass builds it.
  auto cfg = default_config();
  cfg.hi_threshold = 0.5;
  cfg.lo_threshold = 0.6;  // lo >= hi
  EXPECT_THROW(ReactiveParkingPolicy{cfg}, std::invalid_argument);
  EXPECT_THROW((PredictiveParkingPolicy{cfg, {}}), std::invalid_argument);
  EXPECT_THROW((ResilientParkingPolicy{cfg, {}}), std::invalid_argument);
  cfg = default_config();
  cfg.min_active = 0;
  EXPECT_THROW(ReactiveParkingPolicy{cfg}, std::invalid_argument);
  cfg = default_config();
  cfg.wake_latency = Seconds{-1.0};
  EXPECT_THROW(ReactiveParkingPolicy{cfg}, std::invalid_argument);
  cfg = default_config();
  std::vector<LoadForecast> unsorted = {{Seconds{1.0}, 0.5},
                                        {Seconds{0.5}, 0.2}};
  EXPECT_THROW((PredictiveParkingPolicy{cfg, unsorted}),
               std::invalid_argument);
}

TEST(Parking, TraceValidation) {
  const auto cfg = default_config();
  LoadTrace empty;
  EXPECT_THROW((void)run_reactive(empty, cfg), std::invalid_argument);
  LoadTrace bad;
  bad.times = {Seconds{0.0}, Seconds{0.0}};
  bad.loads = {{0.1}, {0.2}};
  bad.end = Seconds{1.0};
  EXPECT_THROW((void)run_reactive(bad, cfg), std::invalid_argument);
}

TEST(Parking, RejectsMultiChannelTrace) {
  // The policies price the whole-switch aggregate: a per-pipeline trace
  // must be rejected, not silently read as its first channel.
  const auto cfg = default_config();
  LoadTrace per_pipe;
  per_pipe.times = {Seconds{0.0}};
  per_pipe.loads = {{0.1, 0.9}};
  per_pipe.end = Seconds{1.0};
  EXPECT_THROW((void)run_reactive(per_pipe, cfg), std::invalid_argument);
  EXPECT_THROW((void)run_predictive(per_pipe, {}, cfg),
               std::invalid_argument);
  const ResilientParkingPolicy resilient{cfg, {}};
  EXPECT_THROW((void)resilient.splice(per_pipe), std::invalid_argument);
}

TEST(Parking, TraceValidationRejectsNonFiniteValues) {
  const auto cfg = default_config();
  // NaN slips through plain range comparisons; validate() must catch it.
  LoadTrace nan_load = constant_trace(0.5, 1.0);
  nan_load.loads[0][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_reactive(nan_load, cfg), std::invalid_argument);
  LoadTrace inf_time = constant_trace(0.5, 1.0);
  inf_time.times[0] = Seconds{std::numeric_limits<double>::infinity()};
  EXPECT_THROW((void)run_reactive(inf_time, cfg), std::invalid_argument);
  LoadTrace nan_end = constant_trace(0.5, 1.0);
  nan_end.end = Seconds{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_reactive(nan_end, cfg), std::invalid_argument);
}

TEST(Parking, ResilientWithNoRecallsMatchesReactiveExactly) {
  const auto cfg = default_config();
  const auto trace = phase_trace(4, 0.9);
  const auto reactive = run_reactive(trace, cfg);
  ResilientParkingPolicy policy{cfg, {}};
  const auto resilient = run_mechanism(policy.splice(trace), policy);
  EXPECT_EQ(resilient.energy.value(), reactive.energy.value());
  EXPECT_EQ(resilient.mean_on_components, reactive.mean_on_components);
  EXPECT_EQ(resilient.wake_transitions, reactive.wake_transitions);
  EXPECT_EQ(resilient.park_transitions, reactive.park_transitions);
  EXPECT_EQ(policy.emergency_wakes(), 0u);
}

TEST(Parking, EmergencyRecallWakesEveryPipeline) {
  const auto cfg = default_config();
  const int pipes = cfg.model.config().num_pipelines;
  // Idle trace: the reactive policy parks down to 1 pipeline; an emergency
  // recall mid-trace must force all of them awake and add the rerouted load.
  const auto trace = constant_trace(0.05, 10.0);
  ResilientParkingPolicy policy{
      cfg, {EmergencyRecall{Seconds{4.0}, Seconds{6.0}, 0.5}}};
  const auto result = run_mechanism(policy.splice(trace), policy);
  EXPECT_GE(policy.emergency_wakes(), static_cast<std::size_t>(pipes - 1));
  // 2 s of 10 s with all pipes on, the rest near 1: mean well above idle.
  const auto baseline = run_reactive(trace, cfg);
  EXPECT_GT(result.mean_on_components, baseline.mean_on_components);
  EXPECT_LT(result.savings, baseline.savings);
}

TEST(Parking, EmergencyRecallValidation) {
  const auto cfg = default_config();
  EXPECT_THROW((ResilientParkingPolicy{
                   cfg, {EmergencyRecall{Seconds{2.0}, Seconds{1.0}, 0.1}}}),
               std::invalid_argument);
  EXPECT_THROW(
      (ResilientParkingPolicy{
          cfg, {EmergencyRecall{Seconds{1.0}, Seconds{2.0},
                                std::numeric_limits<double>::quiet_NaN()}}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace netpp
