// Edge cases and input hardening for the flow simulator and its solver:
// degenerate inputs must fail loudly (descriptive exceptions), not corrupt
// the simulation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "netpp/mech/ocs.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

struct Fixture {
  BuiltTopology topo = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
};

TEST(FlowSimEdge, RejectsInvalidFlowSpecs) {
  Fixture f;
  const NodeId h0 = f.topo.hosts[0];
  const NodeId h1 = f.topo.hosts[1];
  const Bits size = Bits::from_gigabits(1.0);

  // Endpoints outside the graph.
  EXPECT_THROW(f.sim.submit(FlowSpec{NodeId{100000}, h1, size, 0.0_s, 0}),
               std::out_of_range);
  EXPECT_THROW(f.sim.submit(FlowSpec{h0, NodeId{100000}, size, 0.0_s, 0}),
               std::out_of_range);
  // src == dst is meaningless for a network flow.
  EXPECT_THROW(f.sim.submit(FlowSpec{h0, h0, size, 0.0_s, 0}),
               std::invalid_argument);
  // NaN / non-positive sizes.
  EXPECT_THROW(
      f.sim.submit(FlowSpec{
          h0, h1, Bits{std::numeric_limits<double>::quiet_NaN()}, 0.0_s, 0}),
      std::invalid_argument);
  EXPECT_THROW(f.sim.submit(FlowSpec{h0, h1, Bits{-1.0}, 0.0_s, 0}),
               std::invalid_argument);
  EXPECT_THROW(f.sim.submit(FlowSpec{h0, h1, Bits{0.0}, 0.0_s, 0}),
               std::invalid_argument);
  // Non-finite start time.
  EXPECT_THROW(
      f.sim.submit(FlowSpec{
          h0, h1, size, Seconds{std::numeric_limits<double>::infinity()}, 0}),
      std::invalid_argument);
  // Nothing leaked into the simulation.
  EXPECT_EQ(f.sim.active_flows(), 0u);
  f.engine.run();
  EXPECT_EQ(f.sim.completed().size(), 0u);
  // A start before now() is rejected up front too.
  f.engine.run_until(1.0_s);
  EXPECT_THROW(f.sim.submit(FlowSpec{h0, h1, size, 0.5_s, 0}),
               std::invalid_argument);
  // No rejected submit took an id.
  EXPECT_EQ(f.sim.submit(FlowSpec{h0, h1, size, 1.0_s, 0}), 1u);
  f.engine.run();
  ASSERT_EQ(f.sim.completed().size(), 1u);
  EXPECT_EQ(f.sim.completed()[0].id, 1u);
}

TEST(FlowSimEdge, ZeroCapacityResourceYieldsZeroRate) {
  // Graph::add_link rejects non-positive capacities, so a dead link reaches
  // the solver as a zero-capacity resource: the solver must pin flows
  // crossing it to zero instead of dividing by it.
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[1].resources = {0, 1};
  const std::vector<double> capacities = {100.0, 0.0};
  const auto rates = max_min_fair_rates(flows, capacities);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_NEAR(rates[0], 100.0, 1e-9);
}

TEST(FlowSimEdge, EmptyDemandMatrixIsTriviallySatisfiable) {
  Fixture f;
  EXPECT_TRUE(demands_satisfiable(f.router, {}, TailorConfig{}));
  // Tailoring an empty matrix parks everything parkable without crashing.
  const auto result = tailor_topology(f.topo, {}, TailorConfig{});
  EXPECT_TRUE(result.feasible);
}

TEST(FlowSimEdge, AllLinksSaturatedStillConservesCapacity) {
  Fixture f;
  // Saturate every access link with bidirectional all-pairs-ish traffic.
  const auto& hosts = f.topo.hosts;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      f.sim.submit(FlowSpec{hosts[i], hosts[j], Bits::from_gigabits(50.0),
                            0.0_s, 0});
    }
  }
  std::size_t events = f.engine.run();
  EXPECT_GT(events, 0u);
  EXPECT_EQ(f.sim.completed().size(), hosts.size() * (hosts.size() - 1));
  EXPECT_EQ(f.sim.active_flows(), 0u);
  // With every flow bottlenecked at its 100 G access link shared by 3 peers
  // in each direction, no flow can beat the line rate.
  for (const auto& record : f.sim.completed()) {
    EXPECT_GE(record.fct().value(), 50.0 / 100.0 - 1e-9);
  }
}

TEST(FlowSimEdge, IncrementalMatchesFullAcrossTopologyChange) {
  // Regression for the incremental fast paths: a mid-simulation topology
  // change (spine failure + repair) must leave the incremental solver's
  // dynamics identical to the always-full-solve configuration.
  const auto run = [](bool incremental) {
    BuiltTopology topo = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
    SimEngine engine;
    Router router{topo.graph};
    FlowSimulator::Config config;
    config.incremental_reallocation = incremental;
    config.strand_unroutable = true;
    FlowSimulator sim{topo.graph, router, engine, config};
    const auto& hosts = topo.hosts;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      sim.submit(FlowSpec{hosts[i], hosts[(i + 1) % hosts.size()],
                          Bits::from_gigabits(60.0), Seconds{0.05 * i}, i});
    }
    const NodeId spine = topo.graph.nodes_at_tier(2).back();
    engine.schedule_at(Seconds{0.2},
                       [&sim, spine] { sim.set_node_enabled(spine, false); });
    engine.schedule_at(Seconds{0.5},
                       [&sim, spine] { sim.set_node_enabled(spine, true); });
    engine.run();
    std::vector<double> finished;
    for (const auto& record : sim.completed()) {
      finished.push_back(record.finished.value());
    }
    return finished;
  };

  const auto fast = run(true);
  const auto full = run(false);
  ASSERT_EQ(fast.size(), full.size());
  ASSERT_FALSE(fast.empty());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], full[i], 1e-9) << "flow " << i;
  }
}

TEST(FlowSimEdge, CompletionRetryAtLargeSimTimeMakesProgress) {
  // At t = 86400 s one ulp of simulated time (~1.5e-11 s) outlasts the last
  // bits of an 800 G flow. The completion fires with 1.34 bits left, above
  // the 1-bit threshold, and its retry at now + leftover / rate rounds back
  // to now. With no other event at that instant, the retry must move to the
  // next representable time instead of re-firing a no-op forever.
  BuiltTopology topo = build_leaf_spine(1, 1, 2, 800_Gbps, 800_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
  const double bits = 1e9 * (1.0 + 0.0137 * 5);  // 1.0685 Gbit
  sim.submit(
      FlowSpec{topo.hosts[0], topo.hosts[1], Bits{bits}, Seconds{86400.0}, 0});
  int steps = 0;
  while (steps < 1000 && engine.step()) ++steps;
  ASSERT_LT(steps, 1000) << "stuck at t = " << engine.now().value();
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_EQ(sim.active_flows(), 0u);
  EXPECT_NEAR(sim.completed()[0].finished.value(), 86400.0 + bits / 800e9,
              1e-9);
}

TEST(FlowSimEdge, TopologyChangeValidation) {
  Fixture f;
  EXPECT_THROW(f.sim.set_node_enabled(NodeId{100000}, false),
               std::out_of_range);
  EXPECT_THROW(f.sim.set_link_enabled(LinkId{100000}, false),
               std::out_of_range);
  EXPECT_THROW(f.sim.set_link_capacity_factor(LinkId{0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(f.sim.set_link_capacity_factor(LinkId{0}, 1.5),
               std::invalid_argument);
  EXPECT_THROW(
      f.sim.set_link_capacity_factor(
          LinkId{0}, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

}  // namespace
}  // namespace netpp
