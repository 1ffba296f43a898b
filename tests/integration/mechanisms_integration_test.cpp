// End-to-end integration: ML training traffic over a simulated fat tree,
// load traces recorded per switch, and the §4 mechanisms evaluated on those
// traces. Verifies the cross-module story the paper tells:
//   - the network idles most of the time under phase-structured ML traffic;
//   - every mechanism saves energy on that workload;
//   - pipeline parking (off = leakage gone) beats rate adaptation
//     (clock scaling only) at deep idle, matching §4.4's motivation;
//   - OCS tailoring can power off a large share of an over-provisioned
//     fabric for a placement-friendly workload.
#include <gtest/gtest.h>

#include "netpp/mech/ocs.h"
#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/mech/trace_recorder.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

class MlClusterIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = build_fat_tree(4, 100_Gbps);
    router_ = std::make_unique<Router>(topo_->graph);
    sim_ = std::make_unique<FlowSimulator>(topo_->graph, *router_, engine_);

    MlTrafficConfig cfg;
    cfg.compute_time = 0.9_s;
    cfg.comm_allowance = 0.1_s;
    cfg.iterations = 4;
    cfg.volume_per_host = Bits::from_gigabits(2.0);
    traffic_ = make_ml_training_traffic(topo_->hosts, cfg);

    recorder_ =
        std::make_unique<NodeLoadRecorder>(*sim_, topo_->switches);
    sim_->set_load_listener(recorder_->listener());
    recorder_->sample(0.0_s);
    for (const auto& flow : traffic_.flows) sim_->submit(flow);
    engine_.run();
    horizon_ = Seconds{4.0};
    engine_.run_until(horizon_);
  }

  std::optional<BuiltTopology> topo_;
  SimEngine engine_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<FlowSimulator> sim_;
  std::unique_ptr<NodeLoadRecorder> recorder_;
  MlTraffic traffic_;
  Seconds horizon_{};
};

TEST_F(MlClusterIntegration, AllFlowsComplete) {
  EXPECT_EQ(sim_->completed().size(), traffic_.flows.size());
  EXPECT_EQ(sim_->unroutable_flows(), 0u);
  EXPECT_EQ(sim_->active_flows(), 0u);
}

TEST_F(MlClusterIntegration, NetworkIdlesMostOfTheTime) {
  // The paper's premise: with a 10%-ish communication ratio the network is
  // idle ~90% of the time.
  const NodeId edge = topo_->graph.nodes_at_tier(1).front();
  const LoadTrace trace = recorder_->load_trace(edge, 1, horizon_);
  double busy = 0.0;
  for (std::size_t i = 0; i < trace.num_segments(); ++i) {
    if (trace.loads[i][0] > 0.0) {
      busy += (trace.segment_end(i) - trace.times[i]).value();
    }
  }
  EXPECT_LT(busy / horizon_.value(), 0.35);
  EXPECT_GT(busy, 0.0);
}

TEST_F(MlClusterIntegration, EveryMechanismSavesEnergyOnMlTraffic) {
  const NodeId edge = topo_->graph.nodes_at_tier(1).front();
  const SwitchPowerModel model;

  const LoadTrace pipe_trace =
      recorder_->load_trace(edge, model.config().num_pipelines, horizon_);
  RateAdaptConfig ra_cfg;
  ra_cfg.model = model;
  RateAdaptPolicy global_policy{ra_cfg, RateAdaptMode::kGlobalAsic};
  const MechanismReport global = run_mechanism(pipe_trace, global_policy);
  RateAdaptPolicy per_pipe_policy{ra_cfg, RateAdaptMode::kPerPipeline};
  const MechanismReport per_pipe = run_mechanism(pipe_trace, per_pipe_policy);
  EXPECT_GT(global.savings, 0.0);
  EXPECT_GT(per_pipe.savings, 0.0);
  EXPECT_GE(per_pipe.savings, global.savings - 1e-9);

  ParkingConfig park_cfg;
  park_cfg.model = model;
  park_cfg.switch_capacity = Gbps{4 * 100.0};  // 4 ports at 100 G
  ReactiveParkingPolicy parking{park_cfg};
  const MechanismReport parked =
      run_mechanism(recorder_->load_trace(edge, 1, horizon_), parking);
  EXPECT_GT(parked.savings, 0.0);
}

TEST_F(MlClusterIntegration, ParkingBeatsRateAdaptationAtDeepIdle) {
  // §4.4: "Rate adaptation keeps most components powered on. To get larger
  // savings, we must turn entire pipelines off."
  const NodeId edge = topo_->graph.nodes_at_tier(1).front();
  const SwitchPowerModel model;
  RateAdaptConfig ra_cfg;
  ra_cfg.model = model;
  RateAdaptPolicy rate_policy{ra_cfg, RateAdaptMode::kPerPipeline};
  const MechanismReport adapted = run_mechanism(
      recorder_->load_trace(edge, model.config().num_pipelines, horizon_),
      rate_policy);

  ParkingConfig park_cfg;
  park_cfg.model = model;
  park_cfg.switch_capacity = Gbps{4 * 100.0};
  ReactiveParkingPolicy parking{park_cfg};
  const MechanismReport parked =
      run_mechanism(recorder_->load_trace(edge, 1, horizon_), parking);

  EXPECT_GT(parked.savings, adapted.savings);
}

TEST_F(MlClusterIntegration, PredictiveParkingUsesTheSchedule) {
  const NodeId edge = topo_->graph.nodes_at_tier(1).front();
  const SwitchPowerModel model;
  ParkingConfig cfg;
  cfg.model = model;
  cfg.switch_capacity = Gbps{4 * 100.0};
  cfg.wake_latency = Seconds::from_milliseconds(20.0);

  const LoadTrace agg = recorder_->load_trace(edge, 1, horizon_);
  // Forecast straight from the generator's schedule: comm bursts need full
  // capacity, compute phases need none.
  std::vector<LoadForecast> forecast;
  for (const auto& w : traffic_.schedule) {
    forecast.push_back(LoadForecast{w.compute_begin, 0.0});
    forecast.push_back(LoadForecast{w.comm_begin, 1.0});
  }
  PredictiveParkingPolicy predictive_policy{cfg, forecast};
  const MechanismReport predictive = run_mechanism(agg, predictive_policy);
  ReactiveParkingPolicy reactive_policy{cfg};
  const MechanismReport reactive = run_mechanism(agg, reactive_policy);

  EXPECT_GT(predictive.savings, 0.0);
  // Pre-waking from the schedule avoids (or at least never worsens) loss.
  EXPECT_LE(predictive.dropped.value(), reactive.dropped.value() + 1e-9);
}

TEST_F(MlClusterIntegration, OcsTailoringParksFabricForRingTraffic) {
  // Ring all-reduce between adjacent hosts mostly stays below the cores.
  std::vector<TrafficDemand> demands;
  const auto& hosts = topo_->hosts;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    demands.push_back(
        TrafficDemand{hosts[i], hosts[(i + 1) % hosts.size()], 5_Gbps});
  }
  const auto result = tailor_topology(*topo_, demands);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.switches_off_fraction, 0.2);

  // Energy framing: powered-off switches save their idle draw.
  const SwitchPowerModel model;
  const Watts saved =
      model.idle_power() * static_cast<double>(result.powered_off.size());
  const OcsOverheadModel ocs;
  EXPECT_GT(ocs.net_power_savings(saved, 4).value(), 0.0);
}

}  // namespace
}  // namespace netpp
