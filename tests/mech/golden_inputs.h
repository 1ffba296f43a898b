// Deterministic input scenarios for the mechanism golden-equivalence suite.
//
// These inputs were fixed when the pre-refactor ("seed") simulators were
// still in place; golden_equivalence_test.cpp pins every mechanism's outputs
// on them bit-for-bit. The `golden_record` executable (tests/CMakeLists.txt)
// re-prints the expected values should they ever need re-recording (only
// legitimate after a deliberate, documented behavior change).
#pragma once

#include <vector>

#include "netpp/mech/downrate.h"
#include "netpp/mech/eee.h"
#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/units.h"

namespace netpp::golden {

/// Per-pipeline trace (4 channels) for rate adaptation.
inline LoadTrace rate_trace() {
  LoadTrace trace;
  trace.times = {Seconds{0.0},  Seconds{10.0}, Seconds{20.0},
                 Seconds{30.0}, Seconds{40.0}, Seconds{50.0}};
  trace.loads = {
      {0.9, 0.8, 0.7, 0.6},    {0.2, 0.1, 0.05, 0.3}, {0.5, 0.5, 0.5, 0.5},
      {0.05, 0.9, 0.1, 0.2},   {0.0, 0.0, 0.0, 0.0},  {0.6, 0.55, 0.62, 0.58},
  };
  trace.end = Seconds{60.0};
  return trace;
}

inline RateAdaptConfig rateadapt_config(bool lanes) {
  RateAdaptConfig config;
  config.headroom = 0.10;
  config.min_frequency = 0.25;
  config.hysteresis = 0.05;
  if (lanes) config.lane_steps = {0.25, 0.5, 1.0};
  return config;
}

/// Whole-switch aggregate trace (1 channel) for pipeline parking.
inline LoadTrace parking_trace() {
  LoadTrace trace;
  trace.times = {Seconds{0.0},  Seconds{5.0},  Seconds{10.0}, Seconds{15.0},
                 Seconds{20.0}, Seconds{25.0}, Seconds{30.0}, Seconds{35.0}};
  trace.loads = {{0.9}, {0.2}, {0.1}, {0.85}, {0.3}, {0.95}, {0.05}, {0.5}};
  trace.end = Seconds{40.0};
  return trace;
}

inline ParkingConfig parking_config() {
  ParkingConfig config;
  config.wake_latency = Seconds{0.5};
  config.buffer_capacity = Bits::from_bytes(1e6);
  return config;
}

inline std::vector<LoadForecast> forecast() {
  return {{Seconds{0.0}, 0.9},  {Seconds{5.0}, 0.2},  {Seconds{15.0}, 0.8},
          {Seconds{20.0}, 0.3}, {Seconds{25.0}, 0.95}, {Seconds{30.0}, 0.05},
          {Seconds{35.0}, 0.5}};
}

inline std::vector<EmergencyRecall> recalls() {
  return {{Seconds{7.0}, Seconds{12.0}, 0.4},
          {Seconds{22.0}, Seconds{24.0}, 0.3}};
}

/// One link's utilization (1 channel) for down-rating.
inline LoadTrace diurnal_trace() {
  LoadTrace trace;
  for (double load : {0.9, 0.5, 0.2, 0.1, 0.15, 0.4, 0.8, 0.95}) {
    const auto i = static_cast<double>(trace.loads.size());
    trace.times.push_back(Seconds{600.0 * i});
    trace.loads.push_back({load});
  }
  trace.end = Seconds{600.0 * static_cast<double>(trace.loads.size())};
  return trace;
}

inline DownrateConfig downrate_config() {
  DownrateConfig config;
  config.gating_effectiveness = 0.6;
  return config;
}

inline EeeConfig eee_config(bool coalescing) {
  EeeConfig config;
  if (coalescing) {
    config.coalescing_timer = Seconds::from_microseconds(10.0);
    config.coalesce_frames = 3;
  }
  return config;
}

inline std::vector<EeeFrame> eee_frames() {
  const Bits mtu = Bits::from_bytes(1500.0);
  const Bits small = Bits::from_bytes(64.0);
  return {
      {Seconds{0.0}, mtu},
      {Seconds::from_microseconds(1.0), mtu},
      {Seconds::from_microseconds(2.0), small},
      {Seconds::from_microseconds(1000.0), mtu},
      {Seconds::from_microseconds(1001.0), mtu},
      {Seconds::from_microseconds(1003.0), mtu},
      {Seconds::from_microseconds(10000.0), small},
      {Seconds::from_microseconds(20000.0), mtu},
      {Seconds::from_microseconds(20000.5), mtu},
      {Seconds::from_microseconds(20007.0), mtu},
      {Seconds::from_microseconds(40000.0), small},
  };
}

inline Seconds eee_horizon() { return Seconds{0.05}; }

}  // namespace netpp::golden
