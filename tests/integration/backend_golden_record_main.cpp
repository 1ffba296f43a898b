// Re-prints the expectations for backend_equivalence_test.cpp as
// ready-to-paste C++ (hexfloat doubles, exact integers). The single-backend
// values were recorded once against the pre-backend-seam drivers; the
// multi-shard values pin the sharded backend's own answers at 2 and 4
// shards (worker-count invariant, so one worker records them). It also
// prints the barrier-reconcile expectations of flowsim_sharded_test.cpp
// (scenarios in tests/netsim/sharded_reconcile_inputs.h). Run again
// only after a deliberate behavior change — the suite's whole point is that
// refactors do NOT change these values. Built as the plain
// `backend_golden_record` executable (not a test):
// ./build/tests/backend_golden_record
#include <cstdio>
#include <string>

#include "../netsim/sharded_reconcile_inputs.h"
#include "backend_golden_inputs.h"

namespace {

using namespace netpp;

void field(const char* name, double v) {
  std::printf("  %s = %a;  // %.17g\n", name, v, v);
}
void field(const char* name, std::size_t v) {
  std::printf("  %s = %zu;\n", name, v);
}

void print_composite(const char* tag, const CompositeReport& r) {
  std::printf("{  // %s\n", tag);
  field("e.horizon_s", r.horizon.value());
  field("e.baseline_j", r.baseline_energy.value());
  field("e.energy_j", r.energy.value());
  field("e.combined_savings", r.combined_savings);
  field("e.best_single_savings", r.best_single_savings);
  field("e.singles", r.singles.size());
  for (const auto& single : r.singles) {
    std::printf("  // single %s\n", single.name.c_str());
    field("  energy_j", single.energy.value());
    field("  savings", single.savings);
  }
  field("e.tailored_off", r.tailoring.powered_off.size());
  field("e.wakes", r.wake_transitions);
  field("e.parks", r.park_transitions);
  field("e.levels", r.level_transitions);
  field("e.dropped_bits", r.dropped.value());
  field("e.average_power_w", r.average_power.value());
  field("e.baseline_power_w", r.baseline_average_power.value());
  std::printf("}\n");
}

void print_fault(const char* tag, const FaultExperimentResult& r) {
  std::printf("{  // %s\n", tag);
  field("e.availability", r.report.availability);
  field("e.completion_rate", r.report.completion_rate);
  field("e.stranded_gbit_s", r.report.stranded_demand_gbit_seconds);
  field("e.mean_recovery_s", r.report.mean_recovery.value());
  field("e.p99_recovery_s", r.report.p99_recovery.value());
  field("e.energy_delta", r.report.energy_delta);
  field("e.faults_injected", r.report.faults_injected);
  field("e.flows_rerouted", static_cast<std::size_t>(r.report.flows_rerouted));
  field("e.strand_events", static_cast<std::size_t>(r.report.strand_events));
  field("e.emergency_wakes", r.emergency_wakes);
  field("e.retailor_passes", r.retailor_passes);
  field("e.powered_at_end", r.powered_at_end);
  field("e.end_s", r.end.value());
  field("e.fct_count", r.fct.count());
  field("e.fct_mean_s", r.fct.mean());
  field("e.fct_max_s", r.fct.max());
  field("e.tailored_off", r.tailoring.powered_off.size());
  std::printf("}\n");
}

void print_reconcile(const char* tag, const golden::ReconcileOutcome& r) {
  std::printf("{  // %s\n", tag);
  field("e.completed", r.completed.size());
  field("e.fct_mean_s", r.fct.mean());
  field("e.fct_m2", r.fct.m2());
  field("e.fct_sum_s", r.fct.sum());
  field("e.last_finished_s", r.completed.back().finished.value());
  std::printf("  e.events = {");
  for (std::size_t s = 0; s < r.events.size(); ++s) {
    std::printf("%s%llu", s == 0 ? "" : ", ",
                static_cast<unsigned long long>(r.events[s]));
  }
  std::printf("};\n");
  field("e.image_bytes", r.image.size());
  std::printf("  e.image_crc = 0x%08x;\n",
              static_cast<unsigned>(state::crc32(r.image.data(), r.image.size())));
  std::printf("}\n");
}

BackendConfig sharded(std::size_t shards) {
  BackendConfig b;
  b.kind = BackendKind::kSharded;
  b.num_shards = shards;
  b.num_threads = 1;
  return b;
}

}  // namespace

int main() {
  using namespace netpp;
  {
    const BuiltTopology topo = golden::composite_topology();
    const golden::CompositeScenario s = golden::composite_scenario(topo);
    print_composite("composite full stack",
                    run_composite(topo, s.workload, s.demands, s.horizon,
                                  s.config));
  }
  {
    const BuiltTopology topo = golden::fault_topology();
    const golden::FaultScenario s =
        golden::fault_scenario(topo, DegradedPolicy::kRetailor);
    print_fault("faults re-tailor",
                run_fault_experiment(topo, s.workload, s.schedule, s.config));
  }
  {
    const BuiltTopology topo = golden::fault_topology();
    const golden::FaultScenario s =
        golden::fault_scenario(topo, DegradedPolicy::kEmergencyWakeAll);
    print_fault("faults wake-all",
                run_fault_experiment(topo, s.workload, s.schedule, s.config));
  }
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const std::string tag = "shards=" + std::to_string(shards);
    {
      const BuiltTopology topo = golden::composite_topology();
      golden::CompositeScenario s = golden::composite_scenario(topo);
      s.config.backend = sharded(shards);
      print_composite(("composite full stack, " + tag).c_str(),
                      run_composite(topo, s.workload, s.demands, s.horizon,
                                    s.config));
    }
    {
      const BuiltTopology topo = golden::fault_topology();
      golden::FaultScenario s =
          golden::fault_scenario(topo, DegradedPolicy::kRetailor);
      s.config.backend = sharded(shards);
      print_fault(("faults re-tailor, " + tag).c_str(),
                  run_fault_experiment(topo, s.workload, s.schedule,
                                       s.config));
    }
  }
  {
    const BuiltTopology topo = build_fat_tree(4, Gbps{100.0});
    print_reconcile(
        "reconcile, raised half holds the minimum",
        golden::run_reconcile(
            topo, golden::ReconcileScenario::kRaisedHalfHoldsMinimum, 1));
    print_reconcile(
        "reconcile, raised half holds the minimum, uncapped",
        golden::run_reconcile(
            topo, golden::ReconcileScenario::kRaisedHalfHoldsMinimumUncapped,
            1));
    print_reconcile(
        "reconcile, sporadic raises",
        golden::run_reconcile(topo, golden::ReconcileScenario::kSporadicRaises,
                              1));
  }
  return 0;
}
