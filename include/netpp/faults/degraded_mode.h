// Degraded-mode policies: what a power-proportional fabric does when
// hardware fails while capacity is parked.
//
// OCS topology tailoring (§4.2) powers switches off to fit the demand —
// which removes exactly the spare paths a failure would need. This
// controller closes the loop:
//
//   kNone            — baseline: parked capacity is never recalled; flows
//                      strand until the failed device is repaired.
//   kEmergencyWakeAll — any failure that leaves the (headroom-inflated)
//                      demands unsatisfiable wakes *every* parked switch
//                      after `wake_latency` (panic mode: maximal spare
//                      capacity, maximal power).
//   kRetailor        — re-run topology tailoring over the surviving fabric:
//                      wake only the parked switches the new solution needs
//                      (after `wake_latency`), park the ones it does not.
//
// `min_headroom` is the energy-vs-resilience guardrail: tailoring must keep
// the demands satisfiable even if they grew by this fraction, so the parked
// set always leaves spare capacity. 0 reproduces the §4.2 exact-fit
// behavior; larger values keep more switches on (less savings, faster
// recovery).
#pragma once

#include <cstdint>
#include <vector>

#include "netpp/faults/injector.h"
#include "netpp/mech/ocs.h"
#include "netpp/netsim/backend.h"
#include "netpp/sim/stats.h"
#include "netpp/topo/builders.h"

namespace netpp {

enum class DegradedPolicy : std::uint8_t {
  kNone,
  kEmergencyWakeAll,
  kRetailor,
};

struct DegradedModeConfig {
  DegradedPolicy policy = DegradedPolicy::kRetailor;
  TailorConfig tailor{};
  /// Demands are inflated by (1 + min_headroom) whenever the powered set is
  /// chosen, trading energy for spare capacity. Must be >= 0.
  double min_headroom = 0.0;
  /// Time to power a parked switch back on (OCS reconfig + switch boot).
  Seconds wake_latency{Seconds::from_milliseconds(50.0)};
};

/// Owns the powered/parked bookkeeping for one simulated fabric. Attach its
/// `listener()` to a FaultInjector; call `tailor_initial()` before the run
/// to park the no-fault surplus.
class DegradedModeController {
 public:
  /// All references must outlive the controller. `demands` is the job's
  /// steady-state demand matrix (the tailoring input). Throws
  /// std::invalid_argument for an invalid config (`config.tailor` included)
  /// or demand.
  DegradedModeController(SimulatorBackend& backend,
                         const BuiltTopology& topology,
                         std::vector<TrafficDemand> demands,
                         DegradedModeConfig config);

  /// Tailors the healthy fabric and parks the surplus switches (through the
  /// simulator, so it is safe mid-run too). Returns the tailoring result.
  TailorResult tailor_initial();

  /// Adapter for FaultInjector::set_listener.
  [[nodiscard]] FaultInjector::Listener listener();

  /// Applies the policy to one failure/repair event.
  void on_event(const FaultSpec& fault, bool recovery);

  /// Switches currently powered (enabled and not failed).
  [[nodiscard]] std::size_t powered_switches() const;

  /// Integral of the powered-switch count over sim time up to `until` —
  /// multiply by a per-switch power to get the energy the policy spent.
  [[nodiscard]] double powered_switch_seconds(Seconds until) const;

  /// Emergency wakes issued (scheduled wake-ups of parked switches).
  [[nodiscard]] std::size_t emergency_wakes() const {
    return emergency_wakes_;
  }

  /// Re-tailoring passes run (on failure or recovery).
  [[nodiscard]] std::size_t retailor_passes() const {
    return retailor_passes_;
  }

  [[nodiscard]] const DegradedModeConfig& config() const { return config_; }

  /// Optional event log (must outlive the controller): records emergency
  /// wakes, re-tailoring passes, and park/wake decisions as instants.
  void set_event_log(telemetry::EventLog* log) { events_ = log; }

  /// Optional registry gauge mirroring the powered-switch count; updated on
  /// every power change (the sampler tracks it for the watts time series).
  void set_powered_gauge(telemetry::Gauge gauge) {
    powered_gauge_ = gauge;
    note_power_change();
  }

  /// Serializes the controller's power bookkeeping: failed/desired/pending
  /// masks, the powered-count integrator, and the (time, FIFO seq) of every
  /// in-flight wake event. Call at an event boundary.
  void save_state(state::SnapshotWriter& w) const;
  /// Restores into a controller built over the same topology; re-registers
  /// the pending wake events with their original FIFO sequence numbers (the
  /// backend clock must already be restored). Runs check_invariants().
  void restore_state(state::SnapshotReader& r);
  /// Cross-checks the wake bookkeeping (every pending flag has exactly one
  /// scheduled wake) and that the powered-count integrator's current value
  /// matches the simulator's live enablement. Throws
  /// std::invalid_argument("DegradedModeController: constraint").
  void check_invariants() const;

 private:
  /// `surviving_` with exactly the failed devices masked (parked switches
  /// enabled), i.e. the hardware that could be powered right now.
  const Router& surviving_router();
  /// `live_` mirroring the backend's live enablement (failures + parks).
  const Router& live_router();
  /// Whether the live fabric (failures + parked switches + degraded links)
  /// still satisfies the headroom-inflated demands.
  [[nodiscard]] bool live_fabric_satisfiable();
  void park_now(NodeId sw);
  void wake_later(NodeId sw);
  /// Wake-event body: clears the pending record for `sw` and powers it on
  /// unless the wake was overtaken (re-parked or failed while booting). A
  /// named member (not an anonymous closure) so restores can re-register
  /// pending wakes verbatim.
  void complete_wake(NodeId sw);
  void retailor_and_apply();
  void wake_all_parked();
  void note_power_change();
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  SimulatorBackend& backend_;
  const BuiltTopology& topology_;
  /// The job's demands scaled by (1 + min_headroom), once.
  std::vector<TrafficDemand> demands_;
  DegradedModeConfig config_;
  /// Every tailoring pass and satisfiability check of the run runs here and
  /// on these two routers, whose masks are rewritten in place before each
  /// use; `capacity_factors_` likewise mirrors the backend's link factors.
  /// All are refilled from the state below, so none is snapshotted.
  TailorWorkspace workspace_;
  Router surviving_;
  Router live_;
  std::vector<double> capacity_factors_;

  std::vector<bool> failed_node_;
  std::vector<bool> failed_link_;
  /// The controller's target power state per node; a parked switch is a
  /// non-failed switch with desired_on_ == false.
  std::vector<bool> desired_on_;
  /// Wake already scheduled (a repeat failure must not double-schedule).
  std::vector<bool> wake_pending_;
  /// The scheduled wake event per pending switch (parallel bookkeeping to
  /// wake_pending_), kept so snapshots can serialize in-flight wakes.
  struct PendingWake {
    NodeId sw = kInvalidNode;
    SimulatorBackend::ControlId event = 0;
  };
  std::vector<PendingWake> pending_wakes_;
  TimeWeighted powered_count_;
  telemetry::EventLog* events_ = nullptr;
  telemetry::Gauge powered_gauge_;
  std::size_t emergency_wakes_ = 0;
  std::size_t retailor_passes_ = 0;
};

}  // namespace netpp
