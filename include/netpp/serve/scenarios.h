// Canned scenarios and report tables shared by netpp_cli and netpp_serve.
//
// The CLI's `cluster`/`savings`/`faults`/`mech` subcommands and the query
// server answer the same questions; this module is the single definition of
// both the scenario construction (topology, workload, fault schedule,
// mechanism config) and the result rendering (the exact Table rows), so a
// serve answer is byte-identical to the equivalent one-shot CLI run by
// construction — the equivalence tests pin it at the process level.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netpp/analysis/report.h"
#include "netpp/cluster/cluster.h"
#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/netsim/backend.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/builders.h"

namespace netpp::serve {

/// The canned analyses: the query commands and the CLI subcommands that
/// answer them.
enum class QueryKind : std::uint8_t { kCluster, kSavings, kFaults, kMech };

/// The knob set behind the canned scenarios, with the CLI's defaults. Each
/// knob is one row of scenario_fields() (serve/query.h), which names its
/// query field and CLI flag and checks its values for both front ends; both
/// parse into this struct and hand it to the builders below.
struct ScenarioOptions {
  // cluster / savings analytics
  ClusterConfig cluster;
  double prop = 0.5;
  // faults
  double mtbf_s = 10.0;  ///< 0 disables fault injection
  double mttr_s = 0.5;
  double headroom = 0.0;
  std::uint64_t fault_seed = 1;
  DegradedPolicy policy = DegradedPolicy::kRetailor;
  // mech
  std::string stack = "all";
  int mech_iterations = 4;
  double mech_volume_gbit = 2.0;
  double mech_horizon_s = 4.0;
  int mech_ocs_devices = 4;
  double pod_budget_w = 0.0;   ///< 0 = unbudgeted pod domains
  double core_budget_w = 0.0;  ///< 0 = unbudgeted core domain
  // simulator backend (faults / mech)
  BackendConfig backend{};
  // telemetry sampling cadence (faults, when a bundle is attached)
  double sample_period_s = 0.02;
};

/// The canned `faults` scenario pieces: 4x4 leaf-spine fabric (k=4 fat tree
/// on the sharded backend), ring all-reduce training traffic, topology
/// tailored to the ring demand before the run. Kept as data so snapshot
/// save/restore — and the serve engine's warm-baseline forks — can rebuild
/// the identical shell around a snapshot.
struct CannedFaultScenario {
  BuiltTopology topo;
  std::vector<FlowSpec> workload;
  FaultSchedule schedule;
  FaultExperimentConfig config;
  Seconds fault_horizon{5.0};
};

/// Builds the canned faults scenario for `opt` (`opt.backend` picks the
/// fabric). `tel` lands in config.telemetry and must outlive the run.
[[nodiscard]] CannedFaultScenario make_canned_fault_scenario(
    const ScenarioOptions& opt, telemetry::Telemetry* tel);

/// The canned `mech` scenario: k=4 fat tree at 100 G running
/// phase-structured ML training, a ring all-reduce demand matrix tailoring
/// must keep satisfiable, and the composed stack config for `opt.stack`.
/// config.telemetry is left null; callers attach their own bundle.
struct CannedMechScenario {
  BuiltTopology topo;
  std::vector<FlowSpec> workload;
  std::vector<TrafficDemand> demands;
  CompositeConfig config;
  Seconds horizon{4.0};
};

[[nodiscard]] CannedMechScenario make_canned_mech_scenario(
    const ScenarioOptions& opt);

/// The telemetry bundle a `kind` run reports into: events on, and the
/// sampler at `opt.sample_period_s` for faults (off for mech). A serve
/// metrics answer lists the same series as the CLI's --metrics-out file
/// because both build their bundle here.
[[nodiscard]] std::unique_ptr<telemetry::Telemetry> make_scenario_telemetry(
    QueryKind kind, const ScenarioOptions& opt);

/// Restores the faults run of `s` from `snapshot`, which must hold exactly
/// one experiment snapshot, with `tel` attached in place of
/// s.config.telemetry (it must outlive the call), runs it to the end and
/// returns its result. `s` is only read, so concurrent resumes may share
/// it. Throws std::invalid_argument on a damaged or mismatched snapshot.
[[nodiscard]] FaultExperimentResult resume_fault_run(
    const CannedFaultScenario& s, telemetry::Telemetry* tel,
    state::SnapshotReader& snapshot);

/// Result tables — the exact rows the CLI prints.
[[nodiscard]] Table cluster_summary_table(const ClusterConfig& config);
[[nodiscard]] Table savings_cell_table(const ClusterConfig& config,
                                       double prop);
[[nodiscard]] Table faults_summary_table(const FaultExperimentResult& result);
[[nodiscard]] Table mech_summary_table(const std::string& stack,
                                       const CompositeReport& report);

}  // namespace netpp::serve
