#include "netpp/faults/injector.h"

#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

namespace {

const char* fault_event_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSwitchDown:
      return "fault.switch_down";
    case FaultKind::kLinkDown:
      return "fault.link_down";
    case FaultKind::kLinkDegraded:
      return "fault.link_degraded";
  }
  return "fault";
}

}  // namespace

FaultInjector::FaultInjector(SimulatorBackend& backend, FaultSchedule schedule)
    : backend_(backend), schedule_(std::move(schedule)) {
  schedule_.validate(backend_.graph());
  was_enabled_.assign(schedule_.faults.size(), true);
  prior_factor_.assign(schedule_.faults.size(), 1.0);
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: already armed");
  armed_ = true;
  scheduled_.resize(schedule_.faults.size());
  for (std::size_t i = 0; i < schedule_.faults.size(); ++i) {
    scheduled_[i].apply_event = backend_.schedule_control_at(
        schedule_.faults[i].at, [this, i] { apply(i); });
    scheduled_[i].repair_event = backend_.schedule_control_at(
        schedule_.faults[i].recover_at, [this, i] { repair(i); });
  }
}

void FaultInjector::apply(std::size_t index) {
  scheduled_[index].applied = true;
  const FaultSpec& f = schedule_.faults[index];
  if (events_) {
    const bool on_node = f.kind == FaultKind::kSwitchDown;
    events_->begin_span(
        "faults", fault_event_name(f.kind), backend_.now(), index,
        on_node ? "node" : "link",
        static_cast<double>(on_node ? f.node : f.link));
  }
  const auto before = backend_.realloc_stats();
  switch (f.kind) {
    case FaultKind::kSwitchDown:
      was_enabled_[index] = backend_.node_enabled(f.node);
      backend_.set_node_enabled(f.node, false);
      break;
    case FaultKind::kLinkDown:
      was_enabled_[index] = backend_.link_enabled(f.link);
      backend_.set_link_enabled(f.link, false);
      break;
    case FaultKind::kLinkDegraded:
      prior_factor_[index] = backend_.link_capacity_factor(f.link);
      backend_.set_link_capacity_factor(
          f.link, f.capacity_factor * prior_factor_[index]);
      break;
  }
  const auto after = backend_.realloc_stats();
  Outcome outcome;
  outcome.spec = f;
  outcome.flows_rerouted = after.reroutes - before.reroutes;
  outcome.flows_stranded = after.stranded - before.stranded;
  log_.push_back(outcome);
  if (listener_) listener_(f, /*recovery=*/false);
}

void FaultInjector::repair(std::size_t index) {
  scheduled_[index].repaired = true;
  const FaultSpec& f = schedule_.faults[index];
  if (events_) {
    events_->end_span("faults", fault_event_name(f.kind), backend_.now(),
                      index);
  }
  switch (f.kind) {
    case FaultKind::kSwitchDown:
      // Restore the pre-fault state: a parked switch stays parked.
      backend_.set_node_enabled(f.node, was_enabled_[index]);
      break;
    case FaultKind::kLinkDown:
      backend_.set_link_enabled(f.link, was_enabled_[index]);
      break;
    case FaultKind::kLinkDegraded:
      backend_.set_link_capacity_factor(f.link, prior_factor_[index]);
      break;
  }
  if (listener_) listener_(f, /*recovery=*/true);
}

template <class Self, class Io>
void FaultInjector::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "FaultInjector";
  io.open_section("fault_injector");
  const std::size_t n = self.schedule_.faults.size();
  io.echo(n, kWho, "snapshot fault count does not match the schedule");
  if constexpr (Io::kReading) self.scheduled_.assign(n, Scheduled{});
  std::size_t applied = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& s = self.scheduled_[i];
    io.field(s.applied);
    io.field(s.repaired);
    io.check(s.applied || !s.repaired, kWho,
             "snapshot marks a fault repaired before it applied");
    applied += s.applied ? 1 : 0;
    if (!s.applied) {
      state::pending_event(io, self.backend_, s.apply_event, self,
                           [i](auto& injector) { injector.apply(i); });
    }
    if (!s.repaired) {
      state::pending_event(io, self.backend_, s.repair_event, self,
                           [i](auto& injector) { injector.repair(i); });
    }
    bool was_enabled = self.was_enabled_[i];
    io.field(was_enabled);
    if constexpr (Io::kReading) self.was_enabled_[i] = was_enabled;
    io.field(self.prior_factor_[i]);
  }
  io.seq(self.log_, 49, [&io, kWho](auto& o) {
    io.enum_u8(o.spec.kind, FaultKind::kLinkDegraded, kWho,
               "snapshot holds an invalid fault kind");
    io.field(o.spec.node);
    io.field(o.spec.link);
    io.field(o.spec.at);
    io.field(o.spec.recover_at);
    io.field(o.spec.capacity_factor);
    io.field(o.flows_rerouted);
    io.field(o.flows_stranded);
  });
  io.check(self.log_.size() == applied, kWho,
           "snapshot log length must match the applied faults");
  io.close_section();
}

void FaultInjector::save_state(state::SnapshotWriter& w) const {
  if (!armed_) {
    throw std::logic_error("FaultInjector: save_state before arm()");
  }
  transfer(*this, w);
}

void FaultInjector::restore_state(state::SnapshotReader& r) {
  validation::require(!armed_, "FaultInjector",
                      "restore must target a freshly constructed injector");
  transfer(*this, r);
  armed_ = true;
}

}  // namespace netpp
