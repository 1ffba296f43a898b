// §4.3 "Dynamic Opt. #1: Rate Adaptation".
//
// Evaluates frequency scaling of a switch's packet pipelines over a
// piecewise-constant load trace, at three capability levels:
//
//   kNone         - today's default: everything at nominal frequency;
//   kGlobalAsic   - what some routers support today: ONE clock for the
//                   whole ASIC, set to cover the most loaded pipeline;
//   kPerPipeline  - the paper's proposal: each pipeline is clocked
//                   independently to match its own load.
//
// Optionally, SerDes down-rating (§4.3: "set a 100G-capable interface at
// 10G") scales port lane power to the smallest allowed step that covers the
// load. Policies apply headroom (run slightly faster than the load) and
// hysteresis to avoid clock-flapping; the MechanismReport's
// level_transitions counts the frequency changes and mean_level is the
// time-weighted mean frequency.
#pragma once

#include <string_view>
#include <vector>

#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/power/switch_model.h"
#include "netpp/units.h"

namespace netpp {

enum class RateAdaptMode {
  kNone,
  kGlobalAsic,
  kPerPipeline,
};

struct RateAdaptConfig {
  SwitchPowerModel model{};
  /// Run the clock at load * (1 + headroom).
  double headroom = 0.10;
  /// Clocks cannot go below this fraction of nominal.
  double min_frequency = 0.25;
  /// A new target frequency is only applied if it differs from the current
  /// one by more than this (hysteresis band).
  double hysteresis = 0.05;
  /// Down-rate SerDes lanes to the smallest step covering the pipeline's
  /// load. Empty disables down-rating (ports stay at full lanes).
  std::vector<double> lane_steps;  ///< e.g. {0.25, 0.5, 1.0}
};

namespace detail {

/// Smallest allowed lane step >= `load` (steps are fractions of full
/// lanes); falls back to full lanes when no step covers the load.
[[nodiscard]] double pick_lane_step(const std::vector<double>& steps,
                                    double load);

/// Clock target for `load`: `headroom` above it, floored at
/// `min_frequency`, capped at nominal.
[[nodiscard]] double target_frequency(const RateAdaptConfig& config,
                                      double load);

/// Checks the clocking knobs ("<type_name>: constraint" errors):
/// min_frequency in (0, 1] and a non-negative headroom.
void validate_rate_adapt(const char* type_name, const RateAdaptConfig& config);

}  // namespace detail

/// Rate adaptation as a MechanismPolicy (§4.3): per segment, requests a
/// target clock level per pipeline (headroom above the load, floored at
/// min_frequency) through the timeline's hysteresis rules, and optionally
/// down-rates SerDes lanes to the switch-wide mean load step. The trace
/// needs one channel per pipeline.
class RateAdaptPolicy : public MechanismPolicy {
 public:
  RateAdaptPolicy(RateAdaptConfig config, RateAdaptMode mode);

  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  void observe(const LoadSegment& seg, PowerStateTimeline& timeline) override;

  [[nodiscard]] const RateAdaptConfig& config() const { return config_; }
  [[nodiscard]] RateAdaptMode mode() const { return mode_; }

 private:
  RateAdaptConfig config_;
  RateAdaptMode mode_;
  int pipes_ = 0;
  std::vector<PortState> ports_;      ///< nominal (full-lane) ports
  std::vector<PortState> seg_ports_;  ///< current segment, possibly down-rated
};

}  // namespace netpp
