// §4.4 "Dynamic Opt. #2: Turning off Pipelines".
//
// A circuit switch (electrical, with small buffers) sits between the
// physical ports and the ASIC pipelines, decoupling the fixed port->pipeline
// mapping. Traffic can then be concentrated onto a subset of pipelines and
// the rest powered off entirely — killing their leakage, which rate
// adaptation cannot (§4.3 keeps most components powered).
//
// The policies consume a single-channel aggregate offered-load trace
// (fraction of the whole switch's capacity):
//
//   - Reactive: keep enough pipelines on so that the load fits under a
//     target utilization; hysteresis thresholds avoid flapping. Waking a
//     pipeline takes `wake_latency`; while capacity is short, the excess is
//     buffered in the circuit switch (bounded buffer -> possible loss) and
//     drained once capacity returns.
//   - Predictive (the paper: "leverage the predictability of ML training
//     workloads"): a known schedule of (time, required pipelines) is
//     followed, pre-waking `wake_latency` early so capacity is ready when
//     the burst starts.
//   - Resilient: reactive, plus fault-driven emergency recalls that force
//     every pipeline awake while rerouted traffic passes through.
//
// Energy accounts the powered pipelines (at their served load), the chassis
// and ports (always on), and the circuit switch's own overhead — the
// "is the addition worth it?" question of §4.4.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/power/switch_model.h"
#include "netpp/units.h"

namespace netpp {

struct ParkingConfig {
  SwitchPowerModel model{};
  /// Extra power drawn by the circuit switch / indirection layer.
  Watts circuit_switch_power{20.0};
  /// Time to power a parked pipeline back on.
  Seconds wake_latency{Seconds::from_milliseconds(1.0)};
  /// Reactive policy: wake another pipeline when load exceeds
  /// `hi_threshold` of the active capacity; park one when load falls below
  /// `lo_threshold` of what the remaining pipelines could carry.
  double hi_threshold = 0.85;
  double lo_threshold = 0.60;
  int min_active = 1;
  /// Circuit-switch buffer absorbing excess while pipelines wake.
  Bits buffer_capacity{Bits::from_bytes(64e6)};
  /// Switch nominal capacity (to convert load fractions to bits).
  Gbps switch_capacity{Gbps::from_tbps(51.2)};
};

/// One entry of a predictive schedule: from `at`, the workload needs
/// `required_load` (fraction of switch capacity).
struct LoadForecast {
  Seconds at{};
  double required_load = 0.0;
};

/// A fault-driven recall window: from `at` until `until`, traffic rerouted
/// around failed hardware adds `extra_load` (fraction of switch capacity,
/// clamped so the total stays <= 1) and every parked pipeline is recalled so
/// parked capacity cannot amplify the failure.
struct EmergencyRecall {
  Seconds at{};
  Seconds until{};
  double extra_load = 0.0;
};

namespace detail {

/// Checks the reactive-parking knobs every parking tier shares, with
/// "<type_name>: constraint" errors: 0 <= lo_threshold < hi_threshold <= 1,
/// min_active in [1, count], and a non-negative wake latency.
void validate_parking(const char* type_name, double hi_threshold,
                      double lo_threshold, int min_active, int count,
                      Seconds wake_latency);

/// Reactive hysteresis step shared by every parking tier (pipelines, the
/// composite stack, core switches): wake when the load exceeds
/// `hi_threshold` of the provisioned capacity; park when it would fit under
/// `lo_threshold` of one fewer of the `count` units.
[[nodiscard]] int reactive_parking_target(double hi_threshold,
                                          double lo_threshold, int count,
                                          double offered, int provisioned);

/// Steers `timeline` to a fixed point of `desired(provisioned)`, clamped
/// into [min_active, count]: wakes the shortfall, or cancels pending wakes
/// before parking powered units (never below `min_active` on). Iterates so
/// that policies moving one unit per decision (hysteresis) converge within
/// a single decision point.
void settle_parking(PowerStateTimeline& timeline, int count, int min_active,
                    const std::function<int(int provisioned)>& desired);

}  // namespace detail

/// Pipeline parking as a MechanismPolicy (§4.4): a subclass supplies the
/// desired pipeline count per decision point; the base emits wake/park
/// transitions onto the timeline (canceling pending wakes before parking),
/// prices powered/waking/parked pipelines plus the circuit switch, and
/// opts in to the driver's capacity-shortfall buffering. The trace must be
/// single-channel (whole-switch aggregate load).
class ParkingPolicy : public MechanismPolicy {
 public:
  explicit ParkingPolicy(ParkingConfig config);

  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  void observe(const LoadSegment& seg, PowerStateTimeline& timeline) override;
  [[nodiscard]] bool models_buffering() const override { return true; }
  [[nodiscard]] double capacity_fraction(
      const PowerStateTimeline& timeline) const override;
  [[nodiscard]] Bits buffer_capacity() const override {
    return config_.buffer_capacity;
  }
  [[nodiscard]] double nominal_capacity_bps() const override {
    return config_.switch_capacity.bits_per_second();
  }

  [[nodiscard]] const ParkingConfig& config() const { return config_; }

 protected:
  /// Desired pipeline count at decision time `t` for the aggregate
  /// `offered` load, given the currently provisioned (on + waking) count.
  /// Clamped into [min_active, num_pipelines] by the base.
  [[nodiscard]] virtual int desired_count(double t, double offered,
                                          int provisioned) = 0;

  ParkingConfig config_;
  int pipes_ = 0;

 private:
  std::vector<PortState> ports_;
  double offered_ = 0.0;  ///< current segment load, for the power functions
};

/// Reactive hysteresis-threshold policy (wake over hi, park under lo).
class ReactiveParkingPolicy : public ParkingPolicy {
 public:
  using ParkingPolicy::ParkingPolicy;
  [[nodiscard]] std::string_view name() const override {
    return "parking-reactive";
  }

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;
};

/// Predictive policy: follows a (sorted) load forecast, pre-waking
/// `wake_latency` before each capacity increase. Forecast command times are
/// the policy's breakpoints; the trace supplies the actual offered load
/// (forecast errors show up as buffering/loss).
class PredictiveParkingPolicy : public ParkingPolicy {
 public:
  PredictiveParkingPolicy(ParkingConfig config,
                          std::vector<LoadForecast> forecast);
  [[nodiscard]] std::string_view name() const override {
    return "parking-predictive";
  }
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  [[nodiscard]] double next_breakpoint(double t) const override;

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;

 private:
  struct Command {
    double at;
    int count;
  };
  std::vector<LoadForecast> forecast_;
  std::vector<Command> commands_;
};

/// Reactive policy with fault-driven emergency recalls: inside each recall
/// window every pipeline is forced awake. Run it over `splice(trace)`, which
/// also adds each window's rerouted `extra_load` to the offered load;
/// outside the windows it behaves exactly like ReactiveParkingPolicy (no
/// recalls is bit-identical to it).
class ResilientParkingPolicy : public ReactiveParkingPolicy {
 public:
  ResilientParkingPolicy(ParkingConfig config,
                         std::vector<EmergencyRecall> recalls);
  [[nodiscard]] std::string_view name() const override {
    return "parking-reactive-resilient";
  }

  /// `trace` with extra segment boundaries at the recall-window edges and
  /// each window's `extra_load` added inside it (clamped to 1).
  [[nodiscard]] LoadTrace splice(const LoadTrace& trace) const;

  /// Pipelines force-woken by recall windows so far.
  [[nodiscard]] std::size_t emergency_wakes() const { return emergency_; }

 protected:
  [[nodiscard]] int desired_count(double t, double offered,
                                  int provisioned) override;

 private:
  std::vector<EmergencyRecall> recalls_;
  std::size_t emergency_ = 0;
};

}  // namespace netpp
