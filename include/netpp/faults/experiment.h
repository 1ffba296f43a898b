// One-call fault-resilience experiment: topology + workload + fault schedule
// + degraded-mode policy -> ResilienceReport.
//
// This is the harness behind bench_fault_resilience, the `netpp_cli faults`
// subcommand, and the integration tests: it wires a simulator backend
// (single FlowSimulator or pod-sharded, per FaultExperimentConfig::backend),
// an optional initial tailoring pass, a FaultInjector, and a
// DegradedModeController together, runs the backend dry, and folds the
// observable state into a ResilienceInput/ResilienceReport. Everything is a
// pure function of its inputs (seeded faults, deterministic simulator), so
// two calls with the same arguments are bit-identical — including across
// sharded worker-thread counts.
#pragma once

#include <vector>

#include <memory>

#include "netpp/analysis/resilience.h"
#include "netpp/faults/degraded_mode.h"
#include "netpp/faults/fault_model.h"
#include "netpp/faults/injector.h"
#include "netpp/mech/ocs.h"
#include "netpp/netsim/backend.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/builders.h"

namespace netpp {

struct FaultExperimentConfig {
  /// Run the initial tailoring pass and park the surplus switches before the
  /// workload starts (the power-proportional operating point). When false,
  /// the whole fabric stays powered.
  bool tailor = false;
  /// Degraded-mode policy applied on faults (tailor config, headroom, wake
  /// latency live here too).
  DegradedModeConfig degraded{};
  /// Demand matrix used for tailoring / satisfiability checks. May be empty
  /// when `tailor` is false and the policy is kNone.
  std::vector<TrafficDemand> demands;
  /// Per-switch draw used to convert powered-switch-seconds to energy.
  Watts switch_power{350.0};
  FlowSimulator::Config sim{};
  /// Which simulator runs the experiment. The default single backend is
  /// bit-identical to the pre-seam harness; the sharded backend fires the
  /// fault/wake control events at bounded-lag barriers. On the sharded
  /// backend the per-shard simulators keep private registries, so their
  /// netsim.* metrics stay out of `telemetry` below; faults.* metrics still
  /// land there.
  BackendConfig backend{};
  /// Optional telemetry bundle (must outlive the call). When set, the
  /// simulator/injector/controller share its registry and event log, the
  /// sampler (if a period is configured) records the fault-experiment time
  /// series (active/stranded flows, powered switches, fabric watts, mean
  /// utilization), and end-of-run totals land under "faults.*".
  telemetry::Telemetry* telemetry = nullptr;
};

struct FaultExperimentResult {
  ResilienceReport report;
  /// The initial tailoring outcome (feasible=false when `tailor` is off).
  TailorResult tailoring;
  FlowSimulator::ReallocStats realloc;
  std::size_t emergency_wakes = 0;
  std::size_t retailor_passes = 0;
  /// Switches still powered when the run ended.
  std::size_t powered_at_end = 0;
  /// Engine time when the run drained (last completion, repair, or wake).
  Seconds end{};
  /// Flow-completion-time summary of the run.
  SummaryStat fct;
};

/// Runs `workload` over `topology` while `schedule` fails/repairs devices.
/// `schedule` may be empty (the no-fault baseline). The simulator strands
/// unroutable flows so they can resume on recovery.
[[nodiscard]] FaultExperimentResult run_fault_experiment(
    const BuiltTopology& topology, const std::vector<FlowSpec>& workload,
    const FaultSchedule& schedule, const FaultExperimentConfig& config);

/// The resumable form of run_fault_experiment: owns the engine, router,
/// simulator, injector, and controller for one experiment, and can stop at
/// any event boundary, serialize everything, and later continue from a
/// restored snapshot — with the hard guarantee that the resumed run is
/// bit-identical to the uninterrupted one.
///
///   // straight-line
///   FaultExperimentRun a{topology, workload, schedule, config};
///   a.run();
///   auto result = a.finish();
///
///   // save mid-run, restore into a fresh object, continue
///   FaultExperimentRun b{topology, workload, schedule, config};
///   b.run_until(t);
///   state::SnapshotWriter w; b.save_state(w);
///   state::SnapshotReader r{w.take()};
///   FaultExperimentRun c{topology, workload, schedule, config, r};
///   c.run();  // finish() now bit-matches `result`
///
/// The restoring constructor must receive the same topology, workload,
/// schedule, and config the snapshot was taken with; mismatches are rejected
/// with std::invalid_argument, never undefined behavior.
class FaultExperimentRun {
 public:
  /// Fresh run: wires telemetry, runs the initial tailoring pass (when
  /// configured), arms the injector, and submits the workload. The topology
  /// and telemetry bundle must outlive the run.
  FaultExperimentRun(const BuiltTopology& topology,
                     const std::vector<FlowSpec>& workload,
                     const FaultSchedule& schedule,
                     const FaultExperimentConfig& config);

  /// Restored run: builds the same shell, then restores every component
  /// (engine clock first) from `r` and audits the invariants.
  FaultExperimentRun(const BuiltTopology& topology,
                     const std::vector<FlowSpec>& workload,
                     const FaultSchedule& schedule,
                     const FaultExperimentConfig& config,
                     state::SnapshotReader& r);

  FaultExperimentRun(const FaultExperimentRun&) = delete;
  FaultExperimentRun& operator=(const FaultExperimentRun&) = delete;

  /// Advances the backend to `until` (an event boundary: no callback is
  /// ever interrupted mid-flight).
  void run_until(Seconds until) { backend_->run_until(until); }
  /// Drains the backend (runs the experiment to the end).
  void run() { backend_->run(); }

  /// Serializes the whole experiment: orchestrator header, simulator,
  /// injector, controller, and (when a telemetry bundle is attached) the
  /// metric registry and sampler. Call at an event boundary.
  void save_state(state::SnapshotWriter& w) const;

  /// Folds the observable state into the experiment result (and refreshes
  /// the end-of-run telemetry metrics when a bundle is attached). Call
  /// after run(); calling mid-run reports the state so far.
  [[nodiscard]] FaultExperimentResult finish();

  [[nodiscard]] SimulatorBackend& backend() { return *backend_; }
  [[nodiscard]] const SimulatorBackend& backend() const { return *backend_; }
  /// Shard 0's simulator — the whole fabric on the single backend (the
  /// pre-seam accessor the tests use).
  [[nodiscard]] FlowSimulator& sim() { return backend_->shard_sim(0); }
  [[nodiscard]] DegradedModeController& controller() { return controller_; }
  [[nodiscard]] FaultInjector& injector() { return injector_; }
  [[nodiscard]] const TailorResult& tailoring() const { return tailoring_; }

  /// Runs every component's invariant audit (backend, controller); also
  /// invoked automatically at the end of a restore.
  void check_invariants() const;

 private:
  /// Shell shared by both constructors (member wiring, telemetry hookup).
  FaultExperimentRun(const BuiltTopology& topology,
                     const std::vector<FlowSpec>& workload,
                     const FaultSchedule& schedule,
                     const FaultExperimentConfig& config, bool fresh);
  void wire_telemetry();
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  const BuiltTopology& topology_;
  FaultExperimentConfig config_;
  std::size_t flows_submitted_ = 0;
  std::unique_ptr<SimulatorBackend> backend_;
  DegradedModeController controller_;
  FaultInjector injector_;
  TailorResult tailoring_;
};

}  // namespace netpp
