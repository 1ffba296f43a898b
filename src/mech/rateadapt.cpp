#include "netpp/mech/rateadapt.h"

#include <algorithm>
#include <utility>

#include "netpp/validation.h"

namespace netpp {

namespace detail {

double pick_lane_step(const std::vector<double>& steps, double load) {
  // Smallest allowed step >= load; steps are fractions of full lanes.
  double best = 1.0;
  bool found = false;
  for (double s : steps) {
    if (s >= load - 1e-12 && (!found || s < best)) {
      best = s;
      found = true;
    }
  }
  return found ? best : 1.0;
}

double target_frequency(const RateAdaptConfig& config, double load) {
  return std::clamp(load * (1.0 + config.headroom), config.min_frequency,
                    1.0);
}

void validate_rate_adapt(const char* type_name,
                         const RateAdaptConfig& config) {
  validation::require(config.min_frequency > 0.0 && config.min_frequency <= 1.0,
                      type_name, "min_frequency must be in (0, 1]");
  validation::require(config.headroom >= 0.0, type_name,
                      "headroom must be non-negative");
}

}  // namespace detail

RateAdaptPolicy::RateAdaptPolicy(RateAdaptConfig config, RateAdaptMode mode)
    : config_(std::move(config)),
      mode_(mode),
      pipes_(config_.model.config().num_pipelines),
      ports_(static_cast<std::size_t>(config_.model.config().num_ports),
             PortState{}),
      seg_ports_(ports_) {
  detail::validate_rate_adapt("RateAdaptPolicy", config_);
}

std::string_view RateAdaptPolicy::name() const {
  switch (mode_) {
    case RateAdaptMode::kNone:
      return "rate-adapt-none";
    case RateAdaptMode::kGlobalAsic:
      return "rate-adapt-global";
    case RateAdaptMode::kPerPipeline:
      return "rate-adapt-per-pipeline";
  }
  return "rate-adapt";
}

PowerStateTimeline RateAdaptPolicy::make_timeline(const LoadTrace& trace) {
  validation::require(trace.channels() == pipes_, "RateAdaptPolicy",
                      "trace needs one channel per pipeline");
  PowerStateTimeline timeline{
      pipes_, TransitionRules{Seconds{0.0}, Seconds{0.0}, config_.hysteresis},
      trace.times.front()};
  timeline.set_power_model(
      // Loads are relative to nominal capacity and must be <= frequency
      // (guaranteed: frequency >= load by construction, except kNone where
      // frequency is 1).
      [this](std::span<const ComponentTrack> tracks) {
        std::vector<PipelineState> states(static_cast<std::size_t>(pipes_));
        for (int p = 0; p < pipes_; ++p) {
          const auto& track = tracks[static_cast<std::size_t>(p)];
          states[static_cast<std::size_t>(p)] =
              PipelineState{true, track.level, track.load};
        }
        return config_.model.total_power(states, seg_ports_);
      },
      [this](std::span<const ComponentTrack> tracks) {
        std::vector<PipelineState> states(static_cast<std::size_t>(pipes_));
        for (int p = 0; p < pipes_; ++p) {
          states[static_cast<std::size_t>(p)] = PipelineState{
              true, 1.0, tracks[static_cast<std::size_t>(p)].load};
        }
        return config_.model.total_power(states, ports_);
      });
  return timeline;
}

void RateAdaptPolicy::observe(const LoadSegment& seg,
                              PowerStateTimeline& timeline) {
  const auto& loads = seg.loads;
  for (int p = 0; p < pipes_; ++p) {
    timeline.set_load(p, loads[static_cast<std::size_t>(p)]);
  }

  // Decide frequencies for this segment; the timeline applies hysteresis
  // (upward moves always honored: load must be served).
  switch (mode_) {
    case RateAdaptMode::kNone:
      break;
    case RateAdaptMode::kGlobalAsic: {
      const double max_load = *std::max_element(loads.begin(), loads.end());
      const double want = detail::target_frequency(config_, max_load);
      for (int p = 0; p < pipes_; ++p) timeline.request_level(p, want);
      break;
    }
    case RateAdaptMode::kPerPipeline:
      for (int p = 0; p < pipes_; ++p) {
        timeline.request_level(
            p, detail::target_frequency(config_,
                                        loads[static_cast<std::size_t>(p)]));
      }
      break;
  }

  // Optional SerDes down-rating: scale every port group's lanes to the
  // switch-wide mean load step (ports are not modeled individually here).
  seg_ports_ = ports_;
  if (!config_.lane_steps.empty() && mode_ != RateAdaptMode::kNone) {
    double mean_load = 0.0;
    for (double l : loads) mean_load += l;
    mean_load /= static_cast<double>(pipes_);
    const double lane = detail::pick_lane_step(config_.lane_steps, mean_load);
    for (auto& port : seg_ports_) port.lane_fraction = lane;
  }
}

}  // namespace netpp
