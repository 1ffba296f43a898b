#include "netpp/serve/scenarios.h"

#include <stdexcept>

#include "netpp/analysis/savings.h"
#include "netpp/traffic/generators.h"

namespace netpp::serve {

using namespace netpp::literals;

CannedFaultScenario make_canned_fault_scenario(const ScenarioOptions& opt,
                                               telemetry::Telemetry* tel) {
  // The sharded backend needs a pod-partitionable fabric (tier-3 core), so
  // it swaps the canned leaf-spine for the k=4 fat tree `mech` runs on.
  CannedFaultScenario s{opt.backend.kind == BackendKind::kSharded
                            ? build_fat_tree(4, 100_Gbps)
                            : build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps),
                        {}, {}, {}, Seconds{5.0}};
  s.config.backend = opt.backend;
  MlTrafficConfig traffic;
  traffic.compute_time = Seconds{0.3};
  traffic.comm_allowance = Seconds{0.5};
  traffic.volume_per_host = Bits::from_gigabits(12.0);
  traffic.iterations = 6;
  s.workload = make_ml_training_traffic(s.topo.hosts, traffic).flows;

  s.config.tailor = true;
  s.config.degraded.policy = opt.policy;
  s.config.degraded.min_headroom = opt.headroom;
  s.config.telemetry = tel;
  for (std::size_t i = 0; i < s.topo.hosts.size(); ++i) {
    s.config.demands.push_back(TrafficDemand{
        s.topo.hosts[i], s.topo.hosts[(i + 1) % s.topo.hosts.size()],
        30_Gbps});
  }

  if (opt.mtbf_s > 0.0) {
    FaultGeneratorConfig faults;
    faults.switches =
        DeviceReliability{Seconds{opt.mtbf_s}, Seconds{opt.mttr_s}};
    faults.links =
        DeviceReliability{Seconds{opt.mtbf_s * 2.0}, Seconds{opt.mttr_s}};
    faults.degraded_fraction = 0.25;
    faults.horizon = s.fault_horizon;
    faults.seed = opt.fault_seed;
    s.schedule = FaultGenerator{faults}.generate(s.topo.graph);
  }
  return s;
}

CannedMechScenario make_canned_mech_scenario(const ScenarioOptions& opt) {
  // Canned scenario: k=4 fat tree at 100 G running phase-structured ML
  // training, with a ring all-reduce demand matrix that tailoring must keep
  // satisfiable. The composed stack (tailoring -> parking -> rate
  // adaptation) is priced against the all-on baseline and against each
  // mechanism alone.
  CannedMechScenario s{build_fat_tree(4, 100_Gbps),
                       {},
                       {},
                       {},
                       Seconds{opt.mech_horizon_s}};
  MlTrafficConfig traffic;
  traffic.compute_time = Seconds{0.9};
  traffic.comm_allowance = Seconds{0.1};
  traffic.iterations = opt.mech_iterations;
  traffic.volume_per_host = Bits::from_gigabits(opt.mech_volume_gbit);
  s.workload = make_ml_training_traffic(s.topo.hosts, traffic).flows;

  s.config.tailor = opt.stack == "all" || opt.stack == "tailor";
  s.config.park =
      opt.stack == "all" || opt.stack == "dynamic" || opt.stack == "park";
  s.config.rate_adapt =
      opt.stack == "all" || opt.stack == "dynamic" || opt.stack == "rate";
  s.config.parking.switch_capacity = Gbps{4 * 100.0};  // 4 ports at 100 G
  s.config.num_ocs_devices = opt.mech_ocs_devices;
  s.config.backend = opt.backend;
  s.config.domains.pod_budget = Watts{opt.pod_budget_w};
  s.config.domains.core_budget = Watts{opt.core_budget_w};

  for (std::size_t i = 0; i < s.topo.hosts.size(); ++i) {
    s.demands.push_back(TrafficDemand{
        s.topo.hosts[i], s.topo.hosts[(i + 1) % s.topo.hosts.size()],
        5_Gbps});
  }
  return s;
}

std::unique_ptr<telemetry::Telemetry> make_scenario_telemetry(
    QueryKind kind, const ScenarioOptions& opt) {
  telemetry::TelemetryConfig config;
  config.events = true;
  config.sample_period =
      Seconds{kind == QueryKind::kFaults ? opt.sample_period_s : 0.0};
  return std::make_unique<telemetry::Telemetry>(config);
}

FaultExperimentResult resume_fault_run(const CannedFaultScenario& s,
                                       telemetry::Telemetry* tel,
                                       state::SnapshotReader& snapshot) {
  FaultExperimentConfig config = s.config;
  config.telemetry = tel;
  FaultExperimentRun run{s.topo, s.workload, s.schedule, config, snapshot};
  if (!snapshot.at_end()) {
    throw std::invalid_argument(
        "SnapshotReader: trailing bytes after the experiment snapshot");
  }
  run.run();
  return run.finish();
}

Table cluster_summary_table(const ClusterConfig& config) {
  const ClusterModel cluster{config};
  Table table{{"metric", "value"}};
  table.add_row({"GPUs", fmt(config.num_gpus, 0)});
  table.add_row({"bandwidth/GPU", to_string(config.bandwidth_per_gpu)});
  table.add_row({"switches", fmt(cluster.network().tree.switches, 1)});
  table.add_row({"transceivers", fmt(cluster.network().transceivers, 0)});
  table.add_row(
      {"compute max (MW)",
       fmt(cluster.compute_envelope().max_power().megawatts(), 3)});
  table.add_row(
      {"network max (MW)",
       fmt(cluster.network_envelope().max_power().megawatts(), 3)});
  table.add_row(
      {"average power (MW)", fmt(cluster.average_total_power().megawatts(), 3)});
  table.add_row({"peak power (MW)",
                 fmt(cluster.peak_total_power().megawatts(), 3)});
  table.add_row(
      {"network share", fmt_percent(cluster.network_share_of_average())});
  table.add_row({"network efficiency",
                 fmt_percent(cluster.network_energy_efficiency())});
  return table;
}

Table savings_cell_table(const ClusterConfig& config, double prop) {
  const auto cell = savings_at(config, config.bandwidth_per_gpu, prop,
                               config.network_proportionality);
  const CostModel cost;
  Table table{{"metric", "value"}};
  table.add_row({"proportionality", fmt(prop, 2)});
  table.add_row({"savings", fmt_percent(cell.savings_fraction)});
  table.add_row(
      {"absolute (kW)", fmt(cell.absolute_savings.kilowatts(), 1)});
  table.add_row(
      {"electricity ($/yr)",
       fmt(cost.annual_electricity_savings(cell.absolute_savings).value(),
           0)});
  table.add_row(
      {"with cooling ($/yr)",
       fmt(cost.annual_total_savings(cell.absolute_savings).value(), 0)});
  return table;
}

Table faults_summary_table(const FaultExperimentResult& result) {
  Table table{{"metric", "value"}};
  table.add_row({"switches parked initially",
                 std::to_string(result.tailoring.powered_off.size())});
  table.add_row({"faults injected",
                 std::to_string(result.report.faults_injected)});
  table.add_row(
      {"flows rerouted", std::to_string(result.report.flows_rerouted)});
  table.add_row(
      {"strand events", std::to_string(result.report.strand_events)});
  table.add_row({"availability", fmt_percent(result.report.availability, 2)});
  table.add_row({"stranded demand (Gbit*s)",
                 fmt(result.report.stranded_demand_gbit_seconds, 3)});
  table.add_row(
      {"mean recovery", to_string(result.report.mean_recovery)});
  table.add_row({"p99 recovery", to_string(result.report.p99_recovery)});
  table.add_row(
      {"completion rate", fmt_percent(result.report.completion_rate, 2)});
  table.add_row({"emergency wakes", std::to_string(result.emergency_wakes)});
  table.add_row({"re-tailor passes", std::to_string(result.retailor_passes)});
  table.add_row(
      {"energy vs all-on", fmt_percent(result.report.energy_delta, 1)});
  const RouteCacheStats& rc = result.realloc.route_cache;
  table.add_row({"route-cache hits", std::to_string(rc.hits)});
  table.add_row({"route-cache misses", std::to_string(rc.misses)});
  table.add_row(
      {"route-cache epoch flushes", std::to_string(rc.epoch_flushes)});
  table.add_row({"route-cache entries", std::to_string(rc.entries)});
  table.add_row({"route-cache resident KiB",
                 fmt(static_cast<double>(rc.pool_bytes) / 1024.0, 1)});
  return table;
}

Table mech_summary_table(const std::string& stack,
                         const CompositeReport& report) {
  const MechanismValue value = mechanism_value(
      report.baseline_energy, report.energy, report.horizon);
  Table table{{"metric", "value"}};
  table.add_row({"stack", stack});
  table.add_row({"switches", std::to_string(report.switches_total)});
  table.add_row({"switches tailored off",
                 std::to_string(report.tailoring.powered_off.size())});
  table.add_row({"horizon (s)", fmt(report.horizon.value(), 3)});
  table.add_row(
      {"baseline power (W)", fmt(report.baseline_average_power.value(), 1)});
  table.add_row({"stack power (W)", fmt(report.average_power.value(), 1)});
  table.add_row({"baseline energy (kJ)",
                 fmt(report.baseline_energy.value() / 1e3, 3)});
  table.add_row({"stack energy (kJ)", fmt(report.energy.value() / 1e3, 3)});
  for (const auto& single : report.singles) {
    table.add_row({single.name + " savings", fmt_percent(single.savings, 2)});
  }
  table.add_row(
      {"best single savings", fmt_percent(report.best_single_savings, 2)});
  table.add_row({"combined savings", fmt_percent(report.combined_savings, 2)});
  table.add_row({"wake transitions", std::to_string(report.wake_transitions)});
  table.add_row({"park transitions", std::to_string(report.park_transitions)});
  table.add_row(
      {"level transitions", std::to_string(report.level_transitions)});
  table.add_row({"dropped (Mbit)", fmt(report.dropped.value() / 1e6, 3)});
  for (const auto& d : report.domains) {
    table.add_row({"domain " + d.name + " savings",
                   fmt_percent(d.savings, 2) + " (" +
                       fmt(d.average_power.value(), 1) + " W)"});
    if (d.budget.value() > 0.0) {
      table.add_row({"domain " + d.name + " within budget",
                     d.within_budget ? "yes" : "no"});
    }
  }
  table.add_row(
      {"sustained value ($/yr)", fmt(value.annual_savings.value(), 0)});
  table.add_row({"avoided CO2 (t/yr)", fmt(value.annual_co2_tons, 3)});
  return table;
}

}  // namespace netpp::serve
