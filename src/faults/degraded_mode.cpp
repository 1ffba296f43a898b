#include "netpp/faults/degraded_mode.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "netpp/validation.h"

namespace netpp {

DegradedModeController::DegradedModeController(
    SimulatorBackend& backend, const BuiltTopology& topology,
    std::vector<TrafficDemand> demands, DegradedModeConfig config)
    : backend_(backend),
      topology_(topology),
      demands_(std::move(demands)),
      config_(config),
      workspace_(topology.graph),
      surviving_(topology.graph),
      live_(topology.graph),
      capacity_factors_(topology.graph.num_links()),
      failed_node_(topology.graph.num_nodes(), false),
      failed_link_(topology.graph.num_links(), false),
      desired_on_(topology.graph.num_nodes(), true),
      wake_pending_(topology.graph.num_nodes(), false),
      powered_count_(static_cast<double>(topology.switches.size()),
                     backend.now()) {
  if (!std::isfinite(config_.min_headroom) || config_.min_headroom < 0.0) {
    throw std::invalid_argument(
        "DegradedModeConfig: min_headroom must be finite and >= 0");
  }
  if (config_.wake_latency.value() < 0.0) {
    throw std::invalid_argument(
        "DegradedModeConfig: wake_latency must be non-negative");
  }
  config_.tailor.validate();
  for (auto& d : demands_) {
    d.validate(topology.graph);
    d.rate *= 1.0 + config_.min_headroom;
  }
}

const Router& DegradedModeController::surviving_router() {
  for (NodeId n = 0; n < topology_.graph.num_nodes(); ++n) {
    surviving_.set_node_enabled(n, !failed_node_[n]);
  }
  for (LinkId l = 0; l < topology_.graph.num_links(); ++l) {
    surviving_.set_link_enabled(l, !failed_link_[l]);
  }
  return surviving_;
}

const Router& DegradedModeController::live_router() {
  for (NodeId n = 0; n < topology_.graph.num_nodes(); ++n) {
    live_.set_node_enabled(n, backend_.node_enabled(n));
  }
  for (LinkId l = 0; l < topology_.graph.num_links(); ++l) {
    live_.set_link_enabled(l, backend_.link_enabled(l));
  }
  return live_;
}

bool DegradedModeController::live_fabric_satisfiable() {
  for (LinkId l = 0; l < topology_.graph.num_links(); ++l) {
    capacity_factors_[l] = backend_.link_capacity_factor(l);
  }
  return workspace_.satisfiable(live_router(), demands_, config_.tailor,
                                capacity_factors_);
}

TailorResult DegradedModeController::tailor_initial() {
  const TailorResult tailored = workspace_.tailor(
      surviving_router(), topology_, demands_, config_.tailor);
  if (tailored.feasible) {
    for (NodeId sw : tailored.powered_off) park_now(sw);
  }
  note_power_change();
  return tailored;
}

FaultInjector::Listener DegradedModeController::listener() {
  return [this](const FaultSpec& fault, bool recovery) {
    on_event(fault, recovery);
  };
}

void DegradedModeController::on_event(const FaultSpec& fault, bool recovery) {
  // Track the failed-hardware sets first; everything else keys off them.
  switch (fault.kind) {
    case FaultKind::kSwitchDown:
      failed_node_[fault.node] = !recovery;
      break;
    case FaultKind::kLinkDown:
      failed_link_[fault.link] = !recovery;
      break;
    case FaultKind::kLinkDegraded:
      break;  // degraded links stay routable; capacity is in the simulator
  }

  if (config_.policy == DegradedPolicy::kNone) {
    note_power_change();
    return;
  }

  if (recovery) {
    if (fault.kind == FaultKind::kSwitchDown) {
      // The injector restored the switch's pre-fault enablement; reconcile
      // with what this controller wants now.
      const bool enabled = backend_.node_enabled(fault.node);
      if (!desired_on_[fault.node] && enabled) {
        backend_.set_node_enabled(fault.node, false);
      } else if (desired_on_[fault.node] && !enabled) {
        wake_later(fault.node);
      }
    }
    retailor_and_apply();
    note_power_change();
    return;
  }

  // Failure: recall parked capacity only if the surviving powered fabric no
  // longer satisfies the (headroom-inflated) demands.
  if (!live_fabric_satisfiable()) {
    if (config_.policy == DegradedPolicy::kEmergencyWakeAll) {
      wake_all_parked();
    } else {
      retailor_and_apply();
    }
  }
  note_power_change();
}

void DegradedModeController::retailor_and_apply() {
  ++retailor_passes_;
  if (events_) {
    events_->instant("degraded_mode", "retailor", backend_.now());
  }
  const TailorResult tailored = workspace_.tailor(
      surviving_router(), topology_, demands_, config_.tailor);
  if (!tailored.feasible) {
    // The surviving fabric cannot satisfy the demands even fully powered:
    // wake everything we have (best effort).
    wake_all_parked();
    return;
  }
  for (NodeId sw : tailored.powered_off) {
    if (desired_on_[sw]) park_now(sw);
  }
  for (NodeId sw : tailored.powered_on) {
    if (!desired_on_[sw]) wake_later(sw);
  }
}

void DegradedModeController::wake_all_parked() {
  for (NodeId sw : topology_.switches) {
    if (!desired_on_[sw] && !failed_node_[sw]) wake_later(sw);
  }
}

void DegradedModeController::park_now(NodeId sw) {
  desired_on_[sw] = false;
  if (!failed_node_[sw] && backend_.node_enabled(sw)) {
    backend_.set_node_enabled(sw, false);
    note_power_change();
  }
}

void DegradedModeController::wake_later(NodeId sw) {
  desired_on_[sw] = true;
  if (failed_node_[sw] || wake_pending_[sw] || backend_.node_enabled(sw)) {
    return;
  }
  wake_pending_[sw] = true;
  ++emergency_wakes_;
  if (events_) {
    events_->instant("degraded_mode", "emergency_wake", backend_.now(),
                     "switch", static_cast<double>(sw));
  }
  const SimulatorBackend::ControlId event = backend_.schedule_control_after(
      config_.wake_latency, [this, sw] { complete_wake(sw); });
  pending_wakes_.push_back(PendingWake{sw, event});
}

void DegradedModeController::complete_wake(NodeId sw) {
  wake_pending_[sw] = false;
  for (std::size_t i = 0; i < pending_wakes_.size(); ++i) {
    if (pending_wakes_[i].sw == sw) {
      pending_wakes_.erase(pending_wakes_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  // The wake may have been overtaken by a re-park decision or a failure
  // of the switch itself while it was booting.
  if (!desired_on_[sw] || failed_node_[sw]) return;
  if (!backend_.node_enabled(sw)) {
    backend_.set_node_enabled(sw, true);
    note_power_change();
  }
}

std::size_t DegradedModeController::powered_switches() const {
  std::size_t powered = 0;
  for (NodeId sw : topology_.switches) {
    if (backend_.node_enabled(sw)) ++powered;
  }
  return powered;
}

void DegradedModeController::note_power_change() {
  const double powered = static_cast<double>(powered_switches());
  powered_count_.set(backend_.now(), powered);
  powered_gauge_.set(powered);
}

double DegradedModeController::powered_switch_seconds(Seconds until) const {
  return powered_count_.integral(until);
}

template <class Self, class Io>
void DegradedModeController::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "DegradedModeController";
  const std::size_t num_nodes = self.topology_.graph.num_nodes();
  const auto mask = [&io, kWho](auto& flags, std::size_t size,
                                std::string_view what) {
    io.field(flags);
    io.check(flags.size() == size, kWho, what);
  };
  io.open_section("degraded_mode");
  mask(self.failed_node_, num_nodes,
       "snapshot failed-node mask does not match the topology");
  mask(self.failed_link_, self.topology_.graph.num_links(),
       "snapshot failed-link mask does not match the topology");
  mask(self.desired_on_, num_nodes,
       "snapshot desired-power mask does not match the topology");
  mask(self.wake_pending_, num_nodes,
       "snapshot wake-pending mask does not match the topology");
  io.seq(self.pending_wakes_, 20, [&self, &io, kWho, num_nodes](auto& p) {
    io.field(p.sw);
    io.check(p.sw < num_nodes && self.wake_pending_[p.sw], kWho,
             "snapshot wake event lacks a matching pending flag");
    state::pending_event(
        io, self.backend_, p.event, self,
        [sw = p.sw](auto& controller) { controller.complete_wake(sw); });
  });
  io.field(self.powered_count_);
  io.field(self.emergency_wakes_);
  io.field(self.retailor_passes_);
  io.close_section();
}

void DegradedModeController::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void DegradedModeController::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
  check_invariants();
}

void DegradedModeController::check_invariants() const {
  std::size_t flagged = 0;
  for (const bool pending : wake_pending_) {
    if (pending) ++flagged;
  }
  validation::require(
      flagged == pending_wakes_.size(), "DegradedModeController",
      "every pending wake flag must pair with exactly one scheduled wake");
  for (const PendingWake& p : pending_wakes_) {
    validation::require(p.sw < wake_pending_.size() && wake_pending_[p.sw],
                        "DegradedModeController",
                        "scheduled wakes must reference pending switches");
  }
  const double powered = static_cast<double>(powered_switches());
  validation::require(
      powered_count_.current() == powered, "DegradedModeController",
      "the powered-count integrator must track the live enablement");
}

}  // namespace netpp
