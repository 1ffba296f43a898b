#include "netpp/mech/parking.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "netpp/validation.h"

namespace netpp {

namespace detail {

void validate_parking(const char* type_name, double hi_threshold,
                      double lo_threshold, int min_active, int count,
                      Seconds wake_latency) {
  validation::require(hi_threshold > 0.0 && hi_threshold <= 1.0 &&
                          lo_threshold >= 0.0 && lo_threshold < hi_threshold,
                      type_name,
                      "need 0 <= lo_threshold < hi_threshold <= 1");
  validation::require(min_active >= 1 && min_active <= count, type_name,
                      "min_active must be in [1, parkable unit count]");
  validation::require(wake_latency.value() >= 0.0, type_name,
                      "wake latency must be non-negative");
}

int reactive_parking_target(double hi_threshold, double lo_threshold,
                            int count, double offered, int provisioned) {
  const double provisioned_frac = static_cast<double>(provisioned) / count;
  if (offered > hi_threshold * provisioned_frac) {
    // Provision enough to bring utilization under hi.
    return static_cast<int>(std::ceil(offered * count / hi_threshold));
  }
  const double smaller_frac = static_cast<double>(provisioned - 1) / count;
  if (provisioned > 1 && offered < lo_threshold * smaller_frac) {
    return provisioned - 1;
  }
  return provisioned;
}

void settle_parking(PowerStateTimeline& timeline, int count, int min_active,
                    const std::function<int(int provisioned)>& desired) {
  for (int guard = 0; guard <= count; ++guard) {
    const int provisioned = timeline.provisioned();
    const int target = std::clamp(desired(provisioned), min_active, count);
    if (target == provisioned) break;
    if (target > provisioned) {
      for (int k = provisioned; k < target; ++k) timeline.wake_one();
    } else {
      // Cancel pending wakes first, then park active units (instant).
      int excess = provisioned - target;
      while (excess > 0 && timeline.cancel_last_wake()) --excess;
      while (excess > 0 && timeline.count(PowerState::kOn) > min_active) {
        timeline.park_one();
        --excess;
      }
    }
  }
}

}  // namespace detail

ParkingPolicy::ParkingPolicy(ParkingConfig config)
    : config_(std::move(config)),
      pipes_(config_.model.config().num_pipelines),
      ports_(static_cast<std::size_t>(config_.model.config().num_ports),
             PortState{}) {
  detail::validate_parking("ParkingPolicy", config_.hi_threshold,
                           config_.lo_threshold, config_.min_active, pipes_,
                           config_.wake_latency);
}

PowerStateTimeline ParkingPolicy::make_timeline(const LoadTrace& trace) {
  validation::require(trace.channels() == 1, "ParkingPolicy",
                      "trace must be single-channel aggregate switch load");
  PowerStateTimeline timeline{
      pipes_, TransitionRules{config_.wake_latency, Seconds{0.0}, 0.0},
      trace.times.front()};
  timeline.set_power_model(
      // Powered pipelines serve the concentrated load; waking pipelines draw
      // idle power (leakage + clock, no load); parked pipelines draw nothing.
      // The circuit switch's own overhead is always on.
      [this](std::span<const ComponentTrack> tracks) {
        int active = 0;
        for (const auto& track : tracks) {
          active += track.state == PowerState::kOn ? 1 : 0;
        }
        const double capacity_frac = static_cast<double>(active) / pipes_;
        const double served_frac = std::min(offered_, capacity_frac);
        std::vector<PipelineState> states;
        states.reserve(static_cast<std::size_t>(pipes_));
        for (const auto& track : tracks) {
          if (track.state == PowerState::kOn) {
            const double pipe_load =
                active > 0 ? std::min(1.0, served_frac * pipes_ / active)
                           : 0.0;
            states.push_back(PipelineState{true, 1.0, pipe_load});
          } else if (track.state == PowerState::kWaking) {
            states.push_back(PipelineState{true, 1.0, 0.0});
          } else {
            states.push_back(PipelineState{false, 1.0, 0.0});
          }
        }
        return config_.model.total_power(states, ports_) +
               config_.circuit_switch_power;
      },
      // Baseline: every pipeline always on at the offered load, no circuit
      // switch.
      [this](std::span<const ComponentTrack> /*tracks*/) {
        const std::vector<PipelineState> all_on(
            static_cast<std::size_t>(pipes_),
            PipelineState{true, 1.0, offered_});
        return config_.model.total_power(all_on, ports_);
      });
  return timeline;
}

void ParkingPolicy::observe(const LoadSegment& seg,
                            PowerStateTimeline& timeline) {
  offered_ = seg.loads[0];
  detail::settle_parking(timeline, pipes_, config_.min_active,
                         [&](int provisioned) {
                           return desired_count(seg.at.value(), offered_,
                                                provisioned);
                         });
}

double ParkingPolicy::capacity_fraction(
    const PowerStateTimeline& timeline) const {
  return static_cast<double>(timeline.count(PowerState::kOn)) / pipes_;
}

int ReactiveParkingPolicy::desired_count(double /*t*/, double offered,
                                         int provisioned) {
  return detail::reactive_parking_target(config_.hi_threshold,
                                         config_.lo_threshold, pipes_,
                                         offered, provisioned);
}

PredictiveParkingPolicy::PredictiveParkingPolicy(
    ParkingConfig config, std::vector<LoadForecast> forecast)
    : ParkingPolicy(std::move(config)), forecast_(std::move(forecast)) {
  for (std::size_t i = 1; i < forecast_.size(); ++i) {
    validation::require(forecast_[i].at > forecast_[i - 1].at,
                        "PredictiveParkingPolicy",
                        "forecast must be sorted by time");
  }
}

PowerStateTimeline PredictiveParkingPolicy::make_timeline(
    const LoadTrace& trace) {
  PowerStateTimeline timeline = ParkingPolicy::make_timeline(trace);
  // Convert the forecast into a step function of desired counts, shifting
  // capacity *increases* earlier by the wake latency.
  const double wake = config_.wake_latency.value();
  commands_.clear();
  commands_.reserve(forecast_.size());
  int prev = pipes_;
  for (const auto& f : forecast_) {
    const int count = std::clamp(
        static_cast<int>(std::ceil(f.required_load * pipes_ /
                                   std::max(config_.hi_threshold, 1e-9))),
        config_.min_active, pipes_);
    const double at =
        count > prev
            ? std::max(trace.times.front().value(), f.at.value() - wake)
            : f.at.value();
    commands_.push_back(Command{at, count});
    prev = count;
  }
  std::sort(commands_.begin(), commands_.end(),
            [](const Command& a, const Command& b) { return a.at < b.at; });
  return timeline;
}

double PredictiveParkingPolicy::next_breakpoint(double t) const {
  for (const auto& c : commands_) {
    if (c.at > t + 1e-15) return c.at;  // commands are sorted
  }
  return std::numeric_limits<double>::infinity();
}

int PredictiveParkingPolicy::desired_count(double t, double /*offered*/,
                                           int /*provisioned*/) {
  int want = pipes_;  // before the first command: all on
  for (const auto& c : commands_) {
    if (c.at <= t + 1e-15) {
      want = c.count;
    } else {
      break;
    }
  }
  return want;
}

ResilientParkingPolicy::ResilientParkingPolicy(
    ParkingConfig config, std::vector<EmergencyRecall> recalls)
    : ReactiveParkingPolicy(std::move(config)), recalls_(std::move(recalls)) {
  for (const auto& r : recalls_) {
    validation::require(std::isfinite(r.at.value()) &&
                            std::isfinite(r.until.value()) && r.until > r.at,
                        "EmergencyRecall", "window needs finite until > at");
    validation::require_finite_non_negative(
        r.extra_load, "EmergencyRecall", "extra_load must be finite and >= 0");
  }
}

LoadTrace ResilientParkingPolicy::splice(const LoadTrace& trace) const {
  trace.validate();
  validation::require(trace.channels() == 1, "ResilientParkingPolicy",
                      "trace must be single-channel aggregate switch load");
  if (recalls_.empty()) return trace;

  // Extra segment boundaries at window edges, and the rerouted load added
  // (clamped to 1) inside them.
  const double t0 = trace.times.front().value();
  const double t_end = trace.end.value();
  std::vector<double> cuts;
  cuts.reserve(trace.times.size() + recalls_.size() * 2);
  for (const auto& tt : trace.times) cuts.push_back(tt.value());
  for (const auto& r : recalls_) {
    for (double b : {r.at.value(), r.until.value()}) {
      if (b > t0 && b < t_end) cuts.push_back(b);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  LoadTrace spliced;
  spliced.end = trace.end;
  std::size_t seg = 0;
  for (double c : cuts) {
    while (seg + 1 < trace.times.size() &&
           trace.times[seg + 1].value() <= c + 1e-15) {
      ++seg;
    }
    double load = trace.loads[seg][0];
    for (const auto& r : recalls_) {
      if (c >= r.at.value() - 1e-15 && c < r.until.value() - 1e-15) {
        load += r.extra_load;
      }
    }
    spliced.times.push_back(Seconds{c});
    spliced.loads.push_back({std::min(1.0, load)});
  }
  return spliced;
}

int ResilientParkingPolicy::desired_count(double t, double offered,
                                          int provisioned) {
  for (const auto& r : recalls_) {
    if (t >= r.at.value() - 1e-15 && t < r.until.value() - 1e-15) {
      // Fault mode: every pipeline is recalled for the window so parked
      // capacity cannot amplify the failure.
      if (provisioned < pipes_) {
        emergency_ += static_cast<std::size_t>(pipes_ - provisioned);
      }
      return pipes_;
    }
  }
  return ReactiveParkingPolicy::desired_count(t, offered, provisioned);
}

}  // namespace netpp
