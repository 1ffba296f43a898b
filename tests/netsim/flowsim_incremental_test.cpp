// The incremental reallocation fast paths must not change what the
// simulator computes: a run with incremental_reallocation on and one with
// it off see the same completions, the same per-flow FCTs, and the same
// link-utilization histories. The fast paths skip the solver only when the
// skipped solve would reproduce the current allocation, so agreement is
// expected to near-machine precision (the only divergence source is
// carried-rate bookkeeping drift, bounded by the solver's slack margin).
#include <gtest/gtest.h>

#include <map>

#include "netpp/faults/fault_model.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

struct RunResult {
  std::map<FlowId, double> fct;
  double mean_util = 0.0;
  std::size_t completed = 0;
  FlowSimulator::ReallocStats stats;
};

RunResult run_workload(const BuiltTopology& topo,
                       const std::vector<FlowSpec>& flows, Gbps cap,
                       bool incremental) {
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = cap;
  cfg.incremental_reallocation = incremental;
  FlowSimulator sim{topo.graph, router, engine, cfg};
  for (const auto& f : flows) sim.submit(f);
  engine.run();

  RunResult result;
  result.completed = sim.completed().size();
  for (const auto& record : sim.completed()) {
    result.fct[record.id] = record.fct().value();
  }
  double util = 0.0;
  const auto num_links = topo.graph.num_links();
  for (LinkId l = 0; l < num_links; ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      util += sim.average_link_utilization(DirectedLink{l, dir});
    }
  }
  result.mean_util = util / static_cast<double>(num_links * 2);
  result.stats = sim.realloc_stats();
  return result;
}

void expect_equivalent(const RunResult& fast, const RunResult& full) {
  ASSERT_EQ(fast.completed, full.completed);
  ASSERT_EQ(fast.fct.size(), full.fct.size());
  for (const auto& [id, fct] : full.fct) {
    const auto it = fast.fct.find(id);
    ASSERT_NE(it, fast.fct.end()) << "flow " << id;
    EXPECT_NEAR(it->second, fct, 1e-9 * (1.0 + fct)) << "flow " << id;
  }
  EXPECT_NEAR(fast.mean_util, full.mean_util,
              1e-9 * (1.0 + full.mean_util));
}

TEST(FlowSimIncremental, NicBoundPoissonMatchesFullResolve) {
  // Uncongested NIC-capped regime: this is where the fast paths fire.
  const auto topo = build_fat_tree(4, 100_Gbps);
  PoissonTrafficConfig tcfg;
  tcfg.arrivals_per_second = 200.0;
  tcfg.duration = Seconds{4.0};
  tcfg.min_size = Bits::from_gigabits(0.5);
  tcfg.max_size = Bits::from_gigabits(10.0);
  tcfg.seed = 99;
  const auto flows = make_poisson_traffic(topo.hosts, tcfg);

  const auto fast = run_workload(topo, flows, 25_Gbps, true);
  const auto full = run_workload(topo, flows, 25_Gbps, false);

  expect_equivalent(fast, full);
  // The fast paths must actually engage in this regime...
  EXPECT_GT(fast.stats.fast_arrivals, 0u);
  EXPECT_GT(fast.stats.fast_departures, 0u);
  EXPECT_LT(fast.stats.full_solves, full.stats.full_solves);
  // ...and the control run must not take them.
  EXPECT_EQ(full.stats.fast_arrivals, 0u);
  EXPECT_EQ(full.stats.fast_departures, 0u);
}

TEST(FlowSimIncremental, CongestedUncappedMatchesFullResolve) {
  // No NIC cap: every completion frees a saturated bottleneck, so the fast
  // departure path must decline and results stay identical by construction.
  const auto topo = build_fat_tree(4, 100_Gbps);
  PoissonTrafficConfig tcfg;
  tcfg.arrivals_per_second = 150.0;
  tcfg.duration = Seconds{3.0};
  tcfg.min_size = Bits::from_gigabits(1.0);
  tcfg.max_size = Bits::from_gigabits(20.0);
  tcfg.seed = 7;
  const auto flows = make_poisson_traffic(topo.hosts, tcfg);

  const auto fast = run_workload(topo, flows, Gbps{0.0}, true);
  const auto full = run_workload(topo, flows, Gbps{0.0}, false);

  expect_equivalent(fast, full);
  // Uncapped arrivals can never take the arrival fast path.
  EXPECT_EQ(fast.stats.fast_arrivals, 0u);
}

TEST(FlowSimIncremental, OverloadedNicCappedMatchesFullResolve) {
  // NIC-capped but congested: access links saturate, so both fast paths
  // engage only sometimes — the mixed regime exercises the handoff between
  // fast and full events.
  const auto topo = build_leaf_spine(2, 2, 4, 100_Gbps, 100_Gbps);
  PoissonTrafficConfig tcfg;
  tcfg.arrivals_per_second = 400.0;
  tcfg.duration = Seconds{3.0};
  tcfg.min_size = Bits::from_gigabits(1.0);
  tcfg.max_size = Bits::from_gigabits(15.0);
  tcfg.seed = 1;
  const auto flows = make_poisson_traffic(topo.hosts, tcfg);

  const auto fast = run_workload(topo, flows, 40_Gbps, true);
  const auto full = run_workload(topo, flows, 40_Gbps, false);

  expect_equivalent(fast, full);
  EXPECT_GT(fast.stats.full_solves, 0u);
}

struct FaultRun {
  std::map<FlowId, double> finished;
  std::size_t completed = 0;
  std::size_t events = 0;
  double fct_sum = 0.0;
  FlowSimulator::ReallocStats stats;
};

/// Runs `flows` under `schedule`, applying each fault and its repair
/// directly on the simulator. Devices never overlap their own faults, so a
/// repair restores exactly what its fault changed.
FaultRun run_with_faults(const BuiltTopology& topo,
                         const std::vector<FlowSpec>& flows,
                         const FaultSchedule& schedule, Gbps cap,
                         bool incremental) {
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = cap;
  cfg.incremental_reallocation = incremental;
  cfg.strand_unroutable = true;
  FlowSimulator sim{topo.graph, router, engine, cfg};
  for (const auto& f : flows) sim.submit(f);
  for (const FaultSpec& fault : schedule.faults) {
    engine.schedule_at(fault.at, [&sim, fault] {
      switch (fault.kind) {
        case FaultKind::kSwitchDown:
          sim.set_node_enabled(fault.node, false);
          break;
        case FaultKind::kLinkDown:
          sim.set_link_enabled(fault.link, false);
          break;
        case FaultKind::kLinkDegraded:
          sim.set_link_capacity_factor(fault.link, fault.capacity_factor);
          break;
      }
    });
    engine.schedule_at(fault.recover_at, [&sim, fault] {
      switch (fault.kind) {
        case FaultKind::kSwitchDown:
          sim.set_node_enabled(fault.node, true);
          break;
        case FaultKind::kLinkDown:
          sim.set_link_enabled(fault.link, true);
          break;
        case FaultKind::kLinkDegraded:
          sim.set_link_capacity_factor(fault.link, 1.0);
          break;
      }
    });
  }

  FaultRun result;
  result.events = engine.run();
  result.completed = sim.completed().size();
  for (const auto& record : sim.completed()) {
    result.finished[record.id] = record.finished.value();
  }
  result.fct_sum = sim.fct_stats().sum();
  result.stats = sim.realloc_stats();
  return result;
}

TEST(FlowSimIncremental, CappedFullEvaluationUnderFaultsMatchesFullResolve) {
  // Every topology change re-solves a capped run over the whole fabric (the
  // full evaluation); every other event takes the seeded binding-subset
  // walk. Switch and link outages plus degraded links keep both busy.
  const auto topo = build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps);
  PoissonTrafficConfig tcfg;
  tcfg.arrivals_per_second = 400.0;
  tcfg.duration = Seconds{3.0};
  tcfg.min_size = Bits::from_gigabits(1.0);
  tcfg.max_size = Bits::from_gigabits(15.0);
  tcfg.seed = 23;
  const auto flows = make_poisson_traffic(topo.hosts, tcfg);

  FaultGeneratorConfig fcfg;
  fcfg.switches = {Seconds{4.0}, Seconds{0.3}};
  fcfg.links = {Seconds{3.0}, Seconds{0.3}};
  fcfg.degraded_fraction = 0.5;
  fcfg.horizon = Seconds{3.0};
  fcfg.seed = 0xFA17;
  const FaultSchedule schedule = FaultGenerator{fcfg}.generate(topo.graph);
  ASSERT_FALSE(schedule.empty());

  const auto fast = run_with_faults(topo, flows, schedule, 25_Gbps, true);
  const auto full = run_with_faults(topo, flows, schedule, 25_Gbps, false);

  ASSERT_EQ(fast.completed, flows.size());
  ASSERT_EQ(full.completed, flows.size());
  for (const auto& [id, finished] : full.finished) {
    const auto it = fast.finished.find(id);
    ASSERT_NE(it, fast.finished.end()) << "flow " << id;
    EXPECT_NEAR(it->second, finished, 1e-9) << "flow " << id;
  }
  EXPECT_GT(fast.stats.topology_changes, 0u);
  EXPECT_GT(fast.stats.stranded, 0u);
  EXPECT_GT(fast.stats.binding_solves, fast.stats.topology_changes);

  // Golden: completions, engine events and the FCT sum of the incremental
  // run, to the last bit.
  EXPECT_EQ(fast.completed, 1220u);
  EXPECT_EQ(fast.events, 2506u);
  EXPECT_EQ(fast.fct_sum, 0x1.d097d6d4617eep+9);  // 929.1862435794881
}

TEST(FlowSimIncremental, StatsCountEveryEvent) {
  // Every admit and every completion batch lands in exactly one bucket.
  const auto topo = build_fat_tree(4, 100_Gbps);
  MlTrafficConfig mcfg;
  mcfg.iterations = 3;
  mcfg.volume_per_host = Bits::from_gigabits(1.0);
  const auto traffic = make_ml_training_traffic(topo.hosts, mcfg);

  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = 25_Gbps;
  FlowSimulator sim{topo.graph, router, engine, cfg};
  for (const auto& f : traffic.flows) sim.submit(f);
  engine.run();

  const auto& stats = sim.realloc_stats();
  EXPECT_GT(stats.full_solves + stats.fast_arrivals + stats.fast_departures,
            0u);
  EXPECT_EQ(sim.active_flows(), 0u);
  EXPECT_EQ(sim.completed().size(), traffic.flows.size());
}

}  // namespace
}  // namespace netpp
