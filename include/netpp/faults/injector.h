// Fault injector: binds a FaultSchedule to a running simulator backend.
//
// `arm()` schedules every failure and repair as control-plane events on the
// backend (netsim/backend.h). A failure applies the fault through the
// backend's dynamic topology API (so affected flows are re-routed or
// stranded immediately); a repair restores the device to the enablement
// state it had before the fault — a switch that was parked by a power
// mechanism stays parked after its repair unless a policy decides otherwise.
// On the single backend the control events ride the simulator's own engine
// (bit-identical to the pre-seam injector); on the sharded backend they
// fire at bounded-lag barriers, where cross-shard mutation is legal.
//
// Degraded-mode policies (emergency wake, re-tailoring — see
// faults/degraded_mode.h) attach as a listener and run after each
// failure/repair has been applied.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netpp/faults/fault_model.h"
#include "netpp/netsim/backend.h"
#include "netpp/state/snapshot.h"

namespace netpp {

class FaultInjector {
 public:
  /// Called after a fault (recovery=false) or repair (recovery=true) has
  /// been applied to the simulator.
  using Listener = std::function<void(const FaultSpec&, bool recovery)>;

  /// One applied fault, with what it did to the traffic.
  struct Outcome {
    FaultSpec spec;
    /// Flows moved to a surviving path by this fault.
    std::uint64_t flows_rerouted = 0;
    /// Flows left with no path by this fault.
    std::uint64_t flows_stranded = 0;
  };

  /// `backend` must outlive the injector. The schedule is copied and
  /// validated against the backend's graph.
  FaultInjector(SimulatorBackend& backend, FaultSchedule schedule);

  /// Schedules all failure/repair events. Call once, before running the
  /// engine past the first failure time.
  void arm();

  void set_listener(Listener listener) { listener_ = std::move(listener); }

  /// Optional event log (must outlive the injector): each fault becomes an
  /// async span from application to repair, named after its kind.
  void set_event_log(telemetry::EventLog* log) { events_ = log; }

  /// Applied faults in application order.
  [[nodiscard]] const std::vector<Outcome>& log() const { return log_; }

  /// Faults applied so far (repairs not counted).
  [[nodiscard]] std::size_t faults_applied() const { return log_.size(); }

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// Serializes the injection progress: per-fault applied/repaired flags,
  /// the (time, FIFO seq) of every not-yet-fired failure/repair event, the
  /// pre-fault enablement map, and the application log. Call at an event
  /// boundary on an armed injector.
  void save_state(state::SnapshotWriter& w) const;
  /// Restores into a freshly constructed (un-armed) injector over the same
  /// schedule; re-registers the pending failure/repair events with their
  /// original FIFO sequence numbers (the backend clock must already be
  /// restored). The injector counts as armed afterwards.
  void restore_state(state::SnapshotReader& r);

 private:
  void apply(std::size_t index);
  void repair(std::size_t index);
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  /// Event bookkeeping for one fault: the scheduled handles and whether each
  /// side already fired — what a snapshot needs to re-register exactly the
  /// still-pending events.
  struct Scheduled {
    SimulatorBackend::ControlId apply_event = 0;
    SimulatorBackend::ControlId repair_event = 0;
    bool applied = false;
    bool repaired = false;
  };

  SimulatorBackend& backend_;
  FaultSchedule schedule_;
  /// Device enablement before each fault, restored on repair.
  std::vector<bool> was_enabled_;
  std::vector<double> prior_factor_;
  std::vector<Scheduled> scheduled_;
  std::vector<Outcome> log_;
  Listener listener_;
  telemetry::EventLog* events_ = nullptr;
  bool armed_ = false;
};

}  // namespace netpp
