#include "netpp/mech/core_parking.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netpp/mech/parking.h"

namespace netpp {

CoreParkingPolicy::CoreParkingPolicy(CoreParkingConfig config,
                                     int num_switches, double load_scale)
    : config_(config), switches_(num_switches), load_scale_(load_scale) {
  if (switches_ < 1) {
    throw std::invalid_argument(
        "CoreParkingPolicy: need at least one core switch");
  }
  detail::validate_parking("CoreParkingPolicy", config_.hi_threshold,
                           config_.lo_threshold, config_.min_active, switches_,
                           config_.wake_latency);
  if (!(std::isfinite(load_scale_) && load_scale_ > 0.0)) {
    throw std::invalid_argument(
        "CoreParkingPolicy: load_scale must be finite and positive");
  }
  if (config_.switch_power.value() < 0.0 ||
      !std::isfinite(config_.switch_power.value())) {
    throw std::invalid_argument(
        "CoreParkingPolicy: switch_power must be finite and non-negative");
  }
}

PowerStateTimeline CoreParkingPolicy::make_timeline(const LoadTrace& trace) {
  if (trace.channels() != 1) {
    throw std::invalid_argument(
        "CoreParkingPolicy: trace must be single-channel aggregate core "
        "load");
  }
  PowerStateTimeline timeline{
      switches_, TransitionRules{config_.wake_latency, Seconds{0.0}, 0.0},
      trace.times.front()};
  const double per_switch = config_.switch_power.value();
  timeline.set_power_model(
      // Flat draw per powered-or-waking switch; parked switches draw
      // nothing (that is the whole mechanism).
      [per_switch](std::span<const ComponentTrack> tracks) {
        double watts = 0.0;
        for (const auto& track : tracks) {
          if (track.state == PowerState::kOn ||
              track.state == PowerState::kWaking) {
            watts += per_switch;
          }
        }
        return Watts{watts};
      },
      // Baseline: every core switch always on.
      [per_switch, this](std::span<const ComponentTrack> /*tracks*/) {
        return Watts{per_switch * switches_};
      });
  return timeline;
}

void CoreParkingPolicy::observe(const LoadSegment& seg,
                                PowerStateTimeline& timeline) {
  const double offered =
      std::min(1.0, seg.loads.front() * load_scale_);

  // The same reactive fixed point as the pipeline policies, over switches.
  detail::settle_parking(
      timeline, switches_, config_.min_active, [&](int provisioned) {
        return detail::reactive_parking_target(config_.hi_threshold,
                                               config_.lo_threshold, switches_,
                                               offered, provisioned);
      });

  // Load bookkeeping: the powered set carries the offered core load spread
  // evenly (ECMP), concentrated onto fewer switches as others park.
  const int active = timeline.count(PowerState::kOn);
  const double concentrated =
      active > 0 ? std::min(1.0, offered * switches_ / active) : 0.0;
  for (int c = 0; c < switches_; ++c) {
    timeline.set_load(
        c, timeline.track(c).state == PowerState::kOn ? concentrated : 0.0);
  }
}

}  // namespace netpp
