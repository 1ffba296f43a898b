#include "netpp/power/state_timeline.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

PowerStateTimeline::PowerStateTimeline(int num_components,
                                       TransitionRules rules, Seconds start)
    : rules_(rules), start_(start.value()), now_(start.value()) {
  if (num_components < 1) {
    throw std::invalid_argument(
        "PowerStateTimeline: needs at least one component");
  }
  if (rules_.wake_latency.value() < 0.0) {
    throw std::invalid_argument(
        "PowerStateTimeline: wake latency must be non-negative");
  }
  if (rules_.min_dwell.value() < 0.0) {
    throw std::invalid_argument(
        "PowerStateTimeline: min dwell must be non-negative");
  }
  if (rules_.level_hysteresis < 0.0) {
    throw std::invalid_argument(
        "PowerStateTimeline: level hysteresis must be non-negative");
  }
  tracks_.resize(static_cast<std::size_t>(num_components));
  dwell_anchor_.assign(static_cast<std::size_t>(num_components), now_);
}

void PowerStateTimeline::set_power_model(PowerFn actual, PowerFn baseline) {
  power_fn_ = std::move(actual);
  baseline_fn_ = std::move(baseline);
}

int PowerStateTimeline::count(PowerState state) const {
  int n = 0;
  for (const auto& t : tracks_) n += t.state == state ? 1 : 0;
  return n;
}

int PowerStateTimeline::provisioned() const {
  return count(PowerState::kOn) + static_cast<int>(pending_.size());
}

void PowerStateTimeline::set_load(int component, double load) {
  tracks_[static_cast<std::size_t>(component)].load = load;
}

void PowerStateTimeline::set_level(int component, double level) {
  tracks_[static_cast<std::size_t>(component)].level = level;
  dwell_anchor_[static_cast<std::size_t>(component)] = now_;
}

void PowerStateTimeline::request_on(int component) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  if (track.state == PowerState::kOn || track.state == PowerState::kWaking) {
    return;
  }
  ++wakes_;
  const PowerState from = track.state;
  if (rules_.wake_latency.value() == 0.0) {
    track.state = PowerState::kOn;
  } else {
    track.state = PowerState::kWaking;
    pending_.push_back(
        PendingWake{component, now_ + rules_.wake_latency.value()});
  }
  if (transition_listener_) {
    transition_listener_(component, from, track.state, Seconds{now_});
  }
}

int PowerStateTimeline::wake_one() {
  for (std::size_t c = 0; c < tracks_.size(); ++c) {
    if (tracks_[c].state == PowerState::kOff ||
        tracks_[c].state == PowerState::kSleep) {
      request_on(static_cast<int>(c));
      return static_cast<int>(c);
    }
  }
  return -1;
}

void PowerStateTimeline::request_off(int component, PowerState target) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  if (track.state == target) return;
  if (track.state == PowerState::kWaking) {
    throw std::logic_error(
        "PowerStateTimeline: cancel the pending wake before parking a "
        "waking component");
  }
  const PowerState from = track.state;
  track.state = target;
  ++parks_;
  if (transition_listener_) {
    transition_listener_(component, from, target, Seconds{now_});
  }
}

int PowerStateTimeline::park_one() {
  for (std::size_t c = tracks_.size(); c-- > 0;) {
    if (tracks_[c].state == PowerState::kOn) {
      request_off(static_cast<int>(c));
      return static_cast<int>(c);
    }
  }
  return -1;
}

bool PowerStateTimeline::cancel_last_wake() {
  if (pending_.empty()) return false;
  const PendingWake wake = pending_.back();
  pending_.pop_back();
  tracks_[static_cast<std::size_t>(wake.component)].state = PowerState::kOff;
  --wakes_;  // never happened
  if (transition_listener_) {
    transition_listener_(wake.component, PowerState::kWaking, PowerState::kOff,
                         Seconds{now_});
  }
  return true;
}

bool PowerStateTimeline::request_level(int component, double level) {
  auto& track = tracks_[static_cast<std::size_t>(component)];
  auto& anchor = dwell_anchor_[static_cast<std::size_t>(component)];
  if (level == track.level) {
    anchor = now_;  // the current level is exactly sufficient
    return false;
  }
  if (level > track.level) {
    // Upward moves always apply: load must be served.
    track.level = level;
    anchor = now_;
    ++level_changes_;
    return true;
  }
  // Downward: honor the hysteresis band, then the dwell.
  if (rules_.level_hysteresis > 0.0 &&
      !(track.level - level > rules_.level_hysteresis)) {
    return false;
  }
  if (rules_.min_dwell.value() > 0.0 &&
      now_ - anchor < rules_.min_dwell.value()) {
    return false;
  }
  track.level = level;
  anchor = now_;
  ++level_changes_;
  return true;
}

double PowerStateTimeline::next_event() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& wake : pending_) {
    earliest = earliest < wake.deadline ? earliest : wake.deadline;
  }
  return earliest;
}

template <class Self, class Io>
void PowerStateTimeline::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "PowerStateTimeline";
  constexpr std::string_view kRules =
      "snapshot transition rules do not match this timeline";
  io.open_section("power_timeline");
  io.echo(self.rules_.wake_latency, kWho, kRules);
  io.echo(self.rules_.min_dwell, kWho, kRules);
  io.echo(self.rules_.level_hysteresis, kWho, kRules);
  io.echo(self.tracks_.size(), kWho,
          "snapshot component count does not match this timeline");
  for (auto& t : self.tracks_) {
    io.enum_u8(t.state, PowerState::kOn, kWho,
               "snapshot holds an invalid power state");
    io.field(t.level);
    io.field(t.load);
  }
  io.field(self.dwell_anchor_);
  io.check(self.dwell_anchor_.size() == self.tracks_.size(), kWho,
           "snapshot dwell anchors do not match the component count");
  io.seq(self.pending_, 12, [&self, &io, kWho](auto& p) {
    auto component = static_cast<std::uint32_t>(p.component);
    io.field(component);
    io.check(component < self.tracks_.size(), kWho,
             "snapshot pending wake references a bad component");
    if constexpr (Io::kReading) p.component = static_cast<int>(component);
    io.field(p.deadline);
  });
  io.check(self.pending_.size() <= self.tracks_.size(), kWho,
           "snapshot has more pending wakes than components");
  io.field(self.start_);
  io.field(self.now_);
  io.field(self.energy_j_);
  io.field(self.baseline_j_);
  for (auto& r : self.residency_) io.field(r);
  io.field(self.level_time_);
  io.field(self.wakes_);
  io.field(self.parks_);
  io.field(self.level_changes_);
  io.close_section();
}

void PowerStateTimeline::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void PowerStateTimeline::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
  check_invariants();
}

void PowerStateTimeline::check_invariants() const {
  const auto req = [](bool ok, std::string_view constraint) {
    validation::require(ok, "PowerStateTimeline", constraint);
  };
  req(std::isfinite(start_) && std::isfinite(now_) && now_ >= start_,
      "clock must be finite and at or after the trace start");
  req(std::isfinite(energy_j_) && energy_j_ >= 0.0,
      "energy integral must be finite and non-negative");
  req(std::isfinite(baseline_j_) && baseline_j_ >= 0.0,
      "baseline energy integral must be finite and non-negative");
  for (const auto& t : tracks_) {
    req(std::isfinite(t.level) && std::isfinite(t.load),
        "track level and load must be finite");
  }
  std::size_t waking = 0;
  for (const auto& t : tracks_) {
    waking += t.state == PowerState::kWaking ? 1 : 0;
  }
  req(pending_.size() == waking,
      "every pending wake must pair with exactly one waking component");
  for (const auto& p : pending_) {
    req(tracks_[static_cast<std::size_t>(p.component)].state ==
            PowerState::kWaking,
        "pending wake must reference a waking component");
    req(std::isfinite(p.deadline), "pending wake deadline must be finite");
  }
  // Residency sums: every component contributes dt to exactly one state per
  // advance, so the total must cover [start, now] x components.
  double total = 0.0;
  for (double res : residency_) {
    req(std::isfinite(res) && res >= 0.0,
        "residency must be finite and non-negative");
    total += res;
  }
  const double expected = (now_ - start_) * static_cast<double>(tracks_.size());
  const double tol = 1e-9 * (expected > 1.0 ? expected : 1.0);
  req(std::abs(total - expected) <= tol,
      "residency totals must cover [start, now] across all components");
}

void PowerStateTimeline::advance_to(Seconds t) {
  const double target = t.value();
  if (target < now_) {
    throw std::invalid_argument("PowerStateTimeline: time must be monotone");
  }
  const double dt = target - now_;

  if (power_fn_) energy_j_ += power_fn_(tracks_).value() * dt;
  if (baseline_fn_) baseline_j_ += baseline_fn_(tracks_).value() * dt;

  std::array<int, kNumPowerStates> counts{};
  double level_sum = 0.0;
  for (const auto& track : tracks_) {
    ++counts[static_cast<std::size_t>(track.state)];
    level_sum += track.level;
  }
  for (std::size_t s = 0; s < kNumPowerStates; ++s) {
    residency_[s] += counts[s] * dt;
  }
  level_time_ += (level_sum / static_cast<double>(tracks_.size())) * dt;

  now_ = target;

  // Complete wakes due at (or epsilon-before) the new time, in request
  // order. Completion is not a counted transition — the wake was counted
  // when requested.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->deadline <= now_ + 1e-15) {
      tracks_[static_cast<std::size_t>(it->component)].state = PowerState::kOn;
      if (transition_listener_) {
        transition_listener_(it->component, PowerState::kWaking,
                             PowerState::kOn, Seconds{now_});
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace netpp
