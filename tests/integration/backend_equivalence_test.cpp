// Backend golden-equivalence suite — the hard guarantee of the simulator
// seam (netpp/netsim/backend.h):
//
//   1. The default single backend reproduces the pre-seam experiment
//      drivers bit-identically. The expectations below are hexfloat
//      constants recorded by backend_golden_record_main.cpp against the
//      drivers BEFORE the backend refactor; every double must match to
//      the last bit, not to a tolerance.
//   2. The sharded backend at num_shards=1 keeps its core tier intact and
//      reproduces the same goldens bit-identically (the FlowSimulator and
//      the one-shard ShardedFlowSimulator are bitwise-equivalent, and the
//      control plane allocates identical (time, seq) pairs).
//   3. At 2 and 4 shards the composite and the re-tailor fault storm
//      reproduce hexfloat goldens recorded from the sharded backend itself,
//      so a reconcile change cannot move every worker count in step.
//   4. For a fixed shard count > 1, composite and fault-storm results are
//      bit-identical across worker-thread counts 1/2/4 — determinism does
//      not depend on the parallelism the host happens to grant.
//
// Scenarios live in backend_golden_inputs.h so the recorder and the suite
// can never drift apart.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "backend_golden_inputs.h"
#include "netpp/sim/thread_budget.h"

namespace netpp {
namespace {

// --- Recorded goldens (hexfloat: bitwise expectations) -------------------

struct SingleGolden {
  std::string name;
  double energy_j = 0.0;
  double savings = 0.0;
};

struct CompositeGolden {
  double horizon_s = 0.0;
  double baseline_j = 0.0;
  double energy_j = 0.0;
  double combined_savings = 0.0;
  double best_single_savings = 0.0;
  std::vector<SingleGolden> singles;
  std::size_t tailored_off = 0;
  std::size_t wakes = 0;
  std::size_t parks = 0;
  std::size_t levels = 0;
  double dropped_bits = 0.0;
  double average_power_w = 0.0;
  double baseline_power_w = 0.0;
};

CompositeGolden composite_golden() {
  CompositeGolden e;
  e.horizon_s = 0x1p+2;                        // 4
  e.baseline_j = 0x1.a6508p+15;                // 54056.25
  e.energy_j = 0x1.ab9078624dd2dp+14;          // 27364.117562499992
  e.combined_savings = 0x1.f9a29d7b11af8p-2;   // 0.4937843901029022
  e.best_single_savings = 0x1.56df5a3f29f1p-2; // 0.33483639727136083
  e.singles = {
      {"tailoring", 0x1.18e88p+15, 0x1.56df5a3f29f1p-2},
      {"parking", 0x1.4aa859999999ap+15, 0x1.bc7c9ef22e21cp-3},
      {"rate-adaptation", 0x1.7585c4p+15, 0x1.d93aceddff828p-4},
  };
  e.tailored_off = 7;
  e.wakes = 78;
  e.parks = 117;
  e.levels = 125;
  e.dropped_bits = 0x0p+0;
  e.average_power_w = 0x1.ab9078624dd2dp+12;   // 6841.0293906249981
  e.baseline_power_w = 0x1.a6508p+13;          // 13514.0625
  return e;
}

struct FaultGolden {
  double availability = 0.0;
  double completion_rate = 0.0;
  double stranded_gbit_s = 0.0;
  double mean_recovery_s = 0.0;
  double p99_recovery_s = 0.0;
  double energy_delta = 0.0;
  std::size_t faults_injected = 0;
  std::size_t flows_rerouted = 0;
  std::size_t strand_events = 0;
  std::size_t emergency_wakes = 0;
  std::size_t retailor_passes = 0;
  std::size_t powered_at_end = 0;
  double end_s = 0.0;
  std::size_t fct_count = 0;
  double fct_mean_s = 0.0;
  double fct_max_s = 0.0;
  std::size_t tailored_off = 0;
};

FaultGolden retailor_golden() {
  FaultGolden e;
  e.availability = 0x1.875584452ef72p-1;    // 0.76432431549572599
  e.completion_rate = 0x1p+0;               // 1
  e.stranded_gbit_s = 0x1.3f7a19a001346p+7; // 159.7384767533751
  e.mean_recovery_s = 0x1.3770ad95d3a4cp-2; // 0.30414077021570018
  e.p99_recovery_s = 0x1.5075e01c7e3d4p+0;  // 1.3142986363948141
  e.energy_delta = -0x1.407b854a77d74p-3;   // -0.15648559697636311
  e.faults_injected = 21;
  e.flows_rerouted = 11;
  e.strand_events = 26;
  e.emergency_wakes = 33;
  e.retailor_passes = 42;
  e.powered_at_end = 13;
  e.end_s = 0x1.75b711a0b928ep+2;           // 5.8392986363948136
  e.fct_count = 96;
  e.fct_mean_s = 0x1.65e67339bfd33p-2;      // 0.34951190986608366
  e.fct_max_s = 0x1.8a0f79b617d6cp+0;       // 1.5392986363948138
  e.tailored_off = 7;
  return e;
}

FaultGolden wake_all_golden() {
  FaultGolden e;
  e.availability = 0x1.87e31faede05bp-1;    // 0.76540469178781778
  e.completion_rate = 0x1p+0;               // 1
  e.stranded_gbit_s = 0x1.3df157f643123p+7; // 158.97137422150362
  e.mean_recovery_s = 0x1.41f5369f838a1p-2; // 0.31441197727770925
  e.p99_recovery_s = 0x1.5075e01c7e3d4p+0;  // 1.3142986363948141
  e.energy_delta = -0x1.2260072bdd80cp-3;   // -0.14178472139946086
  e.faults_injected = 21;
  e.flows_rerouted = 13;
  e.strand_events = 25;
  e.emergency_wakes = 41;
  e.retailor_passes = 21;
  e.powered_at_end = 13;
  e.end_s = 0x1.75b711a0b928ep+2;           // 5.8392986363948136
  e.fct_count = 96;
  e.fct_mean_s = 0x1.65651fc560c28p-2;      // 0.34901857034873496
  e.fct_max_s = 0x1.8a0f79b617d6cp+0;       // 1.5392986363948138
  e.tailored_off = 7;
  return e;
}

// The sharded backend's own answers at 2 and 4 shards (backend_golden_record
// prints them). Worker-count invariance alone would pass a reconcile change
// that moves every worker count the same way; these pin the values.
CompositeGolden sharded_composite_golden(std::size_t shards) {
  CompositeGolden e;
  e.horizon_s = 0x1p+2;                        // 4
  e.baseline_j = 0x1.7da9p+15;                 // 48852.5
  e.energy_j = 0x1.a18b6e5604188p+14;          // 26722.857749999996
  e.combined_savings = 0x1.cfdc553f9fc94p-2;   // 0.45298894120055277
  e.best_single_savings = 0x1.29a5a1b3921cap-2; // 0.29067089708817362
  if (shards == 2) {
    e.singles = {
        {"tailoring", 0x1.0eb9p+15, 0x1.29a5a1b3921cap-2},
        {"parking", 0x1.13db933333333p+15, 0x1.1bde9b608156ap-2},
        {"rate-adaptation", 0x1.56af0cp+15, 0x1.a24bffe27ca1p-4},
    };
  } else {
    e.singles = {
        {"tailoring", 0x1.0eb9p+15, 0x1.29a5a1b3921cap-2},
        {"parking", 0x1.13db8cccccccdp+15, 0x1.1bdeac8c5b79ep-2},
        {"rate-adaptation", 0x1.56b2p+15, 0x1.a22c4e725e678p-4},
    };
  }
  e.tailored_off = 7;
  e.wakes = 72;
  e.parks = 108;
  e.levels = 120;
  e.dropped_bits = 0x0p+0;
  e.average_power_w = 0x1.a18b6e5604188p+12;   // 6680.7144374999989
  e.baseline_power_w = 0x1.7da9p+13;           // 12213.125
  return e;
}

FaultGolden sharded_retailor_golden(std::size_t shards) {
  FaultGolden e;
  e.completion_rate = 0x1p+0;               // 1
  e.stranded_gbit_s = 0x1.3e1fa6b4f1d3p+7;  // 159.06181874706226
  e.mean_recovery_s = 0x1.503e3d65728e8p-2; // 0.32836242610632249
  e.p99_recovery_s = 0x1.5075e01c7e3d4p+0;  // 1.3142986363948141
  e.energy_delta = -0x1.4087b490ab4c8p-3;   // -0.15650883738036314
  e.faults_injected = 21;
  e.strand_events = 24;
  e.emergency_wakes = 33;
  e.retailor_passes = 42;
  e.powered_at_end = 13;
  e.end_s = 0x1.75c28f5c28f5cp+2;           // 5.8399999999999999
  e.fct_count = 96;
  e.fct_max_s = 0x1.8a0f79b617d6cp+0;       // 1.5392986363948138
  e.tailored_off = 7;
  if (shards == 2) {
    e.availability = 0x1.867afeaca1d7fp-1;  // 0.76265712601973223
    e.flows_rerouted = 8;
    e.fct_mean_s = 0x1.622ca88ae3e59p-2;    // 0.34587348315924299
  } else {
    e.availability = 0x1.837ae2fd003fcp-1;  // 0.75679692591086178
    e.flows_rerouted = 6;
    e.fct_mean_s = 0x1.59a3ea0d6fe48p-2;    // 0.33753934580815725
  }
  return e;
}

// EXPECT_EQ on doubles is deliberate throughout: the contract is bitwise
// identity, not closeness.
void expect_matches(const CompositeReport& r, const CompositeGolden& e) {
  EXPECT_EQ(r.horizon.value(), e.horizon_s);
  EXPECT_EQ(r.baseline_energy.value(), e.baseline_j);
  EXPECT_EQ(r.energy.value(), e.energy_j);
  EXPECT_EQ(r.combined_savings, e.combined_savings);
  EXPECT_EQ(r.best_single_savings, e.best_single_savings);
  ASSERT_EQ(r.singles.size(), e.singles.size());
  for (std::size_t i = 0; i < e.singles.size(); ++i) {
    EXPECT_EQ(r.singles[i].name, e.singles[i].name);
    EXPECT_EQ(r.singles[i].energy.value(), e.singles[i].energy_j);
    EXPECT_EQ(r.singles[i].savings, e.singles[i].savings);
  }
  EXPECT_EQ(r.tailoring.powered_off.size(), e.tailored_off);
  EXPECT_EQ(r.wake_transitions, e.wakes);
  EXPECT_EQ(r.park_transitions, e.parks);
  EXPECT_EQ(r.level_transitions, e.levels);
  EXPECT_EQ(r.dropped.value(), e.dropped_bits);
  EXPECT_EQ(r.average_power.value(), e.average_power_w);
  EXPECT_EQ(r.baseline_average_power.value(), e.baseline_power_w);
}

void expect_matches(const FaultExperimentResult& r, const FaultGolden& e) {
  EXPECT_EQ(r.report.availability, e.availability);
  EXPECT_EQ(r.report.completion_rate, e.completion_rate);
  EXPECT_EQ(r.report.stranded_demand_gbit_seconds, e.stranded_gbit_s);
  EXPECT_EQ(r.report.mean_recovery.value(), e.mean_recovery_s);
  EXPECT_EQ(r.report.p99_recovery.value(), e.p99_recovery_s);
  EXPECT_EQ(r.report.energy_delta, e.energy_delta);
  EXPECT_EQ(r.report.faults_injected, e.faults_injected);
  EXPECT_EQ(static_cast<std::size_t>(r.report.flows_rerouted),
            e.flows_rerouted);
  EXPECT_EQ(static_cast<std::size_t>(r.report.strand_events),
            e.strand_events);
  EXPECT_EQ(r.emergency_wakes, e.emergency_wakes);
  EXPECT_EQ(r.retailor_passes, e.retailor_passes);
  EXPECT_EQ(r.powered_at_end, e.powered_at_end);
  EXPECT_EQ(r.end.value(), e.end_s);
  EXPECT_EQ(r.fct.count(), e.fct_count);
  EXPECT_EQ(r.fct.mean(), e.fct_mean_s);
  EXPECT_EQ(r.fct.max(), e.fct_max_s);
  EXPECT_EQ(r.tailoring.powered_off.size(), e.tailored_off);
}

// Bitwise equality between two live runs (the cross-worker contract).
void expect_identical(const CompositeReport& a, const CompositeReport& b) {
  EXPECT_EQ(a.horizon.value(), b.horizon.value());
  EXPECT_EQ(a.baseline_energy.value(), b.baseline_energy.value());
  EXPECT_EQ(a.energy.value(), b.energy.value());
  EXPECT_EQ(a.combined_savings, b.combined_savings);
  EXPECT_EQ(a.best_single_savings, b.best_single_savings);
  ASSERT_EQ(a.singles.size(), b.singles.size());
  for (std::size_t i = 0; i < a.singles.size(); ++i) {
    EXPECT_EQ(a.singles[i].name, b.singles[i].name);
    EXPECT_EQ(a.singles[i].energy.value(), b.singles[i].energy.value());
    EXPECT_EQ(a.singles[i].savings, b.singles[i].savings);
  }
  EXPECT_EQ(a.tailoring.powered_off, b.tailoring.powered_off);
  EXPECT_EQ(a.wake_transitions, b.wake_transitions);
  EXPECT_EQ(a.park_transitions, b.park_transitions);
  EXPECT_EQ(a.level_transitions, b.level_transitions);
  EXPECT_EQ(a.dropped.value(), b.dropped.value());
  EXPECT_EQ(a.average_power.value(), b.average_power.value());
  EXPECT_EQ(a.baseline_average_power.value(), b.baseline_average_power.value());
  ASSERT_EQ(a.domains.size(), b.domains.size());
  for (std::size_t i = 0; i < a.domains.size(); ++i) {
    EXPECT_EQ(a.domains[i].name, b.domains[i].name);
    EXPECT_EQ(a.domains[i].switches, b.domains[i].switches);
    EXPECT_EQ(a.domains[i].energy.value(), b.domains[i].energy.value());
    EXPECT_EQ(a.domains[i].baseline_energy.value(),
              b.domains[i].baseline_energy.value());
    EXPECT_EQ(a.domains[i].savings, b.domains[i].savings);
    EXPECT_EQ(a.domains[i].average_power.value(),
              b.domains[i].average_power.value());
  }
}

void expect_identical(const FaultExperimentResult& a,
                      const FaultExperimentResult& b) {
  EXPECT_EQ(a.report.availability, b.report.availability);
  EXPECT_EQ(a.report.completion_rate, b.report.completion_rate);
  EXPECT_EQ(a.report.stranded_demand_gbit_seconds,
            b.report.stranded_demand_gbit_seconds);
  EXPECT_EQ(a.report.mean_recovery.value(), b.report.mean_recovery.value());
  EXPECT_EQ(a.report.p99_recovery.value(), b.report.p99_recovery.value());
  EXPECT_EQ(a.report.energy_delta, b.report.energy_delta);
  EXPECT_EQ(a.report.faults_injected, b.report.faults_injected);
  EXPECT_EQ(a.report.flows_rerouted, b.report.flows_rerouted);
  EXPECT_EQ(a.report.strand_events, b.report.strand_events);
  EXPECT_EQ(a.emergency_wakes, b.emergency_wakes);
  EXPECT_EQ(a.retailor_passes, b.retailor_passes);
  EXPECT_EQ(a.powered_at_end, b.powered_at_end);
  EXPECT_EQ(a.end.value(), b.end.value());
  EXPECT_EQ(a.fct.count(), b.fct.count());
  EXPECT_EQ(a.fct.mean(), b.fct.mean());
  EXPECT_EQ(a.fct.max(), b.fct.max());
  EXPECT_EQ(a.tailoring.powered_off, b.tailoring.powered_off);
}

CompositeReport run_composite_on(BackendConfig backend) {
  const BuiltTopology topo = golden::composite_topology();
  golden::CompositeScenario s = golden::composite_scenario(topo);
  s.config.backend = backend;
  return run_composite(topo, s.workload, s.demands, s.horizon, s.config);
}

FaultExperimentResult run_faults_on(DegradedPolicy policy,
                                    BackendConfig backend) {
  const BuiltTopology topo = golden::fault_topology();
  golden::FaultScenario s = golden::fault_scenario(topo, policy);
  s.config.backend = backend;
  return run_fault_experiment(topo, s.workload, s.schedule, s.config);
}

BackendConfig sharded(std::size_t shards, std::size_t threads) {
  BackendConfig b;
  b.kind = BackendKind::kSharded;
  b.num_shards = shards;
  b.num_threads = threads;
  return b;
}

// --- Contract 1: the single backend reproduces the pre-seam drivers -----

TEST(BackendGolden, SingleBackendCompositeBitIdentical) {
  expect_matches(run_composite_on(BackendConfig{}), composite_golden());
}

TEST(BackendGolden, SingleBackendFaultRetailorBitIdentical) {
  expect_matches(run_faults_on(DegradedPolicy::kRetailor, BackendConfig{}),
                 retailor_golden());
}

TEST(BackendGolden, SingleBackendFaultWakeAllBitIdentical) {
  expect_matches(
      run_faults_on(DegradedPolicy::kEmergencyWakeAll, BackendConfig{}),
      wake_all_golden());
}

// --- Contract 2: the sharded backend at one shard matches the goldens ---

TEST(BackendGolden, ShardedOneShardCompositeBitIdentical) {
  expect_matches(run_composite_on(sharded(1, 1)), composite_golden());
}

TEST(BackendGolden, ShardedOneShardFaultRetailorBitIdentical) {
  expect_matches(run_faults_on(DegradedPolicy::kRetailor, sharded(1, 1)),
                 retailor_golden());
}

TEST(BackendGolden, ShardedOneShardFaultWakeAllBitIdentical) {
  expect_matches(
      run_faults_on(DegradedPolicy::kEmergencyWakeAll, sharded(1, 1)),
      wake_all_golden());
}

// --- Contract 3: shards > 1 reproduce their recorded answers ----------

TEST(BackendGolden, ShardedMultiShardCompositeMatchesRecorded) {
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_matches(run_composite_on(sharded(shards, 2)),
                   sharded_composite_golden(shards));
  }
}

TEST(BackendGolden, ShardedMultiShardFaultRetailorMatchesRecorded) {
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    expect_matches(run_faults_on(DegradedPolicy::kRetailor, sharded(shards, 2)),
                   sharded_retailor_golden(shards));
  }
}

// --- Contract 4: fixed shards, bit-identical across worker counts ------

TEST(BackendGolden, CompositeBitIdenticalAcrossWorkerCounts) {
  thread_budget::set_pool_size(4);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const CompositeReport one = run_composite_on(sharded(shards, 1));
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      expect_identical(run_composite_on(sharded(shards, threads)), one);
    }
  }
}

TEST(BackendGolden, FaultStormBitIdenticalAcrossWorkerCounts) {
  thread_budget::set_pool_size(4);
  const FaultExperimentResult one =
      run_faults_on(DegradedPolicy::kRetailor, sharded(2, 1));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical(run_faults_on(DegradedPolicy::kRetailor,
                                   sharded(2, threads)),
                     one);
  }
}

}  // namespace
}  // namespace netpp
