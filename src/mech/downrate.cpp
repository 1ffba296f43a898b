#include "netpp/mech/downrate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "netpp/validation.h"

namespace netpp {
namespace {

/// Smallest ladder step whose speed covers `needed_gbps`; falls back to the
/// top step.
double pick_step(const std::vector<double>& ladder, double needed_gbps) {
  for (double step : ladder) {
    if (step >= needed_gbps - 1e-12) return step;
  }
  return ladder.back();
}

}  // namespace

DownratePolicy::DownratePolicy(DownrateConfig config)
    : config_(std::move(config)) {
  if (config_.ladder.empty()) {
    throw std::invalid_argument("speed ladder must not be empty");
  }
  if (!std::is_sorted(config_.ladder.begin(), config_.ladder.end())) {
    throw std::invalid_argument("speed ladder must be ascending");
  }
  for (double s : config_.ladder) {
    if (s <= 0.0) throw std::invalid_argument("ladder speeds must be positive");
  }
  if (std::fabs(config_.ladder.back() - config_.nominal.value()) > 1e-9) {
    throw std::invalid_argument("ladder must top out at the nominal speed");
  }
  if (config_.gating_effectiveness < 0.0 ||
      config_.gating_effectiveness > 1.0) {
    throw std::invalid_argument("gating effectiveness must be in [0, 1]");
  }
  if (config_.headroom < 0.0) {
    throw std::invalid_argument("headroom must be non-negative");
  }
  nominal_power_w_ =
      config_.end_power.at(config_.nominal).value() * 2.0;  // both ends
}

PowerStateTimeline DownratePolicy::make_timeline(const LoadTrace& trace) {
  validation::require(trace.channels() == 1, "DownratePolicy",
                      "trace must be single-channel link utilization");
  PowerStateTimeline timeline{
      1, TransitionRules{Seconds{0.0}, config_.down_dwell, 0.0},
      trace.times.front()};
  timeline.set_level(0, config_.nominal.value());
  // Per-end power at a step, degraded by gating effectiveness: the realized
  // power is nominal_power - effectiveness * (nominal_power - step_power).
  timeline.set_power_model([this](std::span<const ComponentTrack> tracks) {
    const double ideal =
        config_.end_power.at(Gbps{tracks[0].level}).value() * 2.0;
    return Watts{nominal_power_w_ -
                 config_.gating_effectiveness * (nominal_power_w_ - ideal)};
  });
  return timeline;
}

void DownratePolicy::observe(const LoadSegment& seg,
                             PowerStateTimeline& timeline) {
  const double load_gbps = seg.loads[0] * config_.nominal.value();
  const double wanted =
      pick_step(config_.ladder, load_gbps * (1.0 + config_.headroom));
  // Upward steps apply immediately (load must be served); downward steps
  // wait out the dwell — both are the timeline's rules. Every applied step
  // costs a renegotiation outage.
  if (timeline.request_level(0, wanted)) {
    outage_time_ += config_.transition_outage.value();
  }
  timeline.set_load(0, seg.loads[0]);
}

void DownratePolicy::on_interval(Seconds t0, Seconds t1,
                                 const LoadSegment& seg,
                                 const PowerStateTimeline& timeline) {
  const double load_gbps = seg.loads[0] * config_.nominal.value();
  if (load_gbps > timeline.track(0).level + 1e-9) {
    violation_time_ += (t1 - t0).value();
  }
}

void DownratePolicy::finish(const LoadTrace& trace,
                            const PowerStateTimeline& /*timeline*/,
                            MechanismReport& report) {
  // The do-nothing baseline is the nominal draw for the whole duration
  // (one-shot, not integrated, so it is exact).
  const double duration = trace.duration().value();
  report.baseline_energy = Joules{nominal_power_w_ * duration};
  report.savings =
      report.baseline_energy.value() > 0.0
          ? 1.0 - report.energy.value() / report.baseline_energy.value()
          : 0.0;
}

}  // namespace netpp
