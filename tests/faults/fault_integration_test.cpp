// End-to-end: fault injection meets power proportionality. Kills switches
// mid-simulation while tailored capacity is parked and checks that the
// degraded-mode policies recall capacity, that every flow completes, and
// that the no-fault configuration is bit-identical to a plain simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "netpp/faults/degraded_mode.h"
#include "netpp/faults/experiment.h"
#include "netpp/faults/injector.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

std::vector<FlowSpec> ring_workload(const BuiltTopology& topo) {
  MlTrafficConfig traffic;
  traffic.compute_time = Seconds{0.2};
  traffic.comm_allowance = Seconds{0.3};
  traffic.volume_per_host = Bits::from_gigabits(8.0);
  traffic.iterations = 4;
  return make_ml_training_traffic(topo.hosts, traffic).flows;
}

std::vector<TrafficDemand> ring_demands(const BuiltTopology& topo, Gbps rate) {
  std::vector<TrafficDemand> demands;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    demands.push_back(TrafficDemand{
        topo.hosts[i], topo.hosts[(i + 1) % topo.hosts.size()], rate});
  }
  return demands;
}

TEST(FaultExperiment, ZeroFaultRunBitIdenticalToPlainSimulation) {
  // The acceptance bar for the whole fault layer: with an empty schedule,
  // the armed injector + controller machinery must not perturb the
  // simulation at all — completion times identical to the last bit.
  const auto topo = build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps);
  const auto workload = ring_workload(topo);

  SimEngine plain_engine;
  Router plain_router{topo.graph};
  FlowSimulator plain{topo.graph, plain_router, plain_engine};
  for (const auto& spec : workload) plain.submit(spec);
  plain_engine.run();

  FaultExperimentConfig config;  // no tailoring, kNone policy
  config.degraded.policy = DegradedPolicy::kNone;
  const auto faulty =
      run_fault_experiment(topo, workload, FaultSchedule{}, config);

  ASSERT_EQ(faulty.fct.count(), plain.fct_stats().count());
  EXPECT_EQ(faulty.fct.mean(), plain.fct_stats().mean());
  EXPECT_EQ(faulty.fct.max(), plain.fct_stats().max());
  EXPECT_EQ(faulty.report.availability, 1.0);
  EXPECT_EQ(faulty.report.stranded_demand_gbit_seconds, 0.0);
  EXPECT_EQ(faulty.report.faults_injected, 0u);
}

TEST(FaultExperiment, ZeroFaultRowIdenticalAcrossRepeatedRuns) {
  // Same inputs -> bit-identical outputs (the sweep's determinism claim).
  const auto topo = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
  const auto workload = ring_workload(topo);
  FaultExperimentConfig config;
  config.tailor = true;
  config.demands = ring_demands(topo, 20_Gbps);
  const auto a = run_fault_experiment(topo, workload, FaultSchedule{}, config);
  const auto b = run_fault_experiment(topo, workload, FaultSchedule{}, config);
  EXPECT_EQ(a.fct.mean(), b.fct.mean());
  EXPECT_EQ(a.report.energy.value(), b.report.energy.value());
  EXPECT_EQ(a.tailoring.powered_off, b.tailoring.powered_off);
}

/// Kills the one spine the tailoring left powered, mid-communication.
class KillPoweredSpine : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
    config_.strand_unroutable = true;
  }

  /// Runs the scenario under `policy` and returns the controller for
  /// inspection. All flows must complete.
  struct Run {
    std::size_t completed = 0;
    std::size_t submitted = 0;
    std::size_t stranded_at_end = 0;
    std::size_t parked_initially = 0;
    std::size_t emergency_wakes = 0;
    std::size_t retailor_passes = 0;
    std::vector<double> strand_durations;
    Seconds end{};
  };

  Run run_policy(DegradedPolicy policy, double min_headroom = 0.0) {
    const auto backend = make_backend(topo_.graph, BackendConfig{}, config_);

    DegradedModeConfig degraded;
    degraded.policy = policy;
    degraded.min_headroom = min_headroom;
    degraded.wake_latency = Seconds::from_milliseconds(50.0);
    DegradedModeController controller{*backend, topo_,
                                      ring_demands(topo_, 20_Gbps), degraded};
    const TailorResult tailored = controller.tailor_initial();
    EXPECT_TRUE(tailored.feasible);
    EXPECT_FALSE(tailored.powered_off.empty())
        << "tailoring must park at least one spine for this scenario";

    // Kill every spine that is still powered, mid-run: only the parked
    // (tailored-away) capacity can absorb the failure.
    FaultSchedule schedule;
    for (NodeId sw : tailored.powered_on) {
      if (topo_.graph.node(sw).tier == 2) {  // spine tier
        FaultSpec f;
        f.kind = FaultKind::kSwitchDown;
        f.node = sw;
        f.at = Seconds{0.25};
        f.recover_at = Seconds{30.0};  // repair far after the workload ends
        schedule.faults.push_back(f);
      }
    }
    EXPECT_FALSE(schedule.empty());
    FaultInjector injector{*backend, schedule};
    injector.set_listener(controller.listener());
    injector.arm();

    const auto workload = ring_workload(topo_);
    for (const auto& spec : workload) backend->submit(spec);
    backend->run();

    Run result;
    result.completed = backend->completed().size();
    result.submitted = workload.size();
    result.stranded_at_end = backend->stranded_flows();
    result.parked_initially = tailored.powered_off.size();
    result.emergency_wakes = controller.emergency_wakes();
    result.retailor_passes = controller.retailor_passes();
    result.strand_durations = backend->strand_durations();
    result.end = backend->now();
    return result;
  }

  BuiltTopology topo_;
  FlowSimulator::Config config_;
};

TEST_F(KillPoweredSpine, EmergencyWakeAllRecallsParkedCapacity) {
  const Run run = run_policy(DegradedPolicy::kEmergencyWakeAll);
  EXPECT_GE(run.emergency_wakes, 1u);
  // Every flow completes: cross-leaf traffic resumes over the woken spine.
  EXPECT_EQ(run.completed, run.submitted);
  EXPECT_EQ(run.stranded_at_end, 0u);
  // Any stranding lasted about the wake latency, not the 30 s repair time.
  for (double d : run.strand_durations) EXPECT_LT(d, 0.1);
}

TEST_F(KillPoweredSpine, RetailorRecallsParkedCapacity) {
  const Run run = run_policy(DegradedPolicy::kRetailor);
  EXPECT_GE(run.retailor_passes, 1u);
  EXPECT_GE(run.emergency_wakes, 1u);
  EXPECT_EQ(run.completed, run.submitted);
  EXPECT_EQ(run.stranded_at_end, 0u);
  for (double d : run.strand_durations) EXPECT_LT(d, 0.1);
}

TEST_F(KillPoweredSpine, NoPolicyStrandsUntilTheWorkloadCannotFinish) {
  // Baseline: without a recall policy the cross-leaf flows stay stranded
  // until the (late) repair — the failure mode the policies exist to fix.
  const Run run = run_policy(DegradedPolicy::kNone);
  EXPECT_EQ(run.emergency_wakes, 0u);
  EXPECT_EQ(run.retailor_passes, 0u);
  // The repair at t=30 eventually resumes them (no flow is lost forever).
  EXPECT_EQ(run.completed, run.submitted);
  EXPECT_GE(run.end.value(), 30.0);
}

TEST(DegradedMode, ExcessHeadroomKeepsWholeFabricPowered) {
  // The min_headroom guardrail: when the inflated demands exceed what the
  // tailored fabric could ever satisfy, tailoring declares infeasible and
  // parks nothing — headroom trades energy for resilience, never the
  // other way around.
  const auto topo = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
  FlowSimulator::Config sim_config;
  sim_config.strand_unroutable = true;
  const auto backend = make_backend(topo.graph, BackendConfig{}, sim_config);

  DegradedModeConfig degraded;
  degraded.min_headroom = 5.0;  // 20G ring inflated to 120G > any link
  DegradedModeController controller{*backend, topo, ring_demands(topo, 20_Gbps),
                                    degraded};
  const TailorResult tailored = controller.tailor_initial();
  EXPECT_FALSE(tailored.feasible);
  EXPECT_TRUE(tailored.powered_off.empty());
  EXPECT_EQ(controller.powered_switches(), topo.switches.size());
}

TEST(DegradedMode, InvalidTailorConfigIsRejected) {
  // The controller validates its tailoring config up front, before any
  // pass could park switches on a NaN or negative satisfaction.
  const auto topo = build_fat_tree(4, 100_Gbps);
  FlowSimulator::Config sim_config;
  sim_config.strand_unroutable = true;
  const auto backend = make_backend(topo.graph, BackendConfig{}, sim_config);
  std::vector<DegradedModeConfig> invalid(4);
  invalid[0].tailor.satisfaction = std::nan("");
  invalid[1].tailor.satisfaction = -1.0;
  invalid[2].tailor.satisfaction = 2.0;
  invalid[3].tailor.max_ecmp_paths = 0;
  for (const DegradedModeConfig& degraded : invalid) {
    try {
      DegradedModeController controller{
          *backend, topo, ring_demands(topo, 90_Gbps), degraded};
      ADD_FAILURE() << "accepted satisfaction " << degraded.tailor.satisfaction
                    << ", max_ecmp_paths " << degraded.tailor.max_ecmp_paths;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}.rfind("TailorConfig: ", 0), 0u)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace netpp
