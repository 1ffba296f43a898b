#include "netpp/netsim/flowsim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "netpp/state/snapshot.h"
#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

/// Two hosts on one leaf switch with 100 G links.
struct Dumbbell {
  BuiltTopology topo = build_leaf_spine(1, 1, 2, 100_Gbps, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
};

TEST(FlowSimulator, SingleFlowFinishesAtLineRate) {
  Dumbbell d;
  // 100 Gbit over a 100 Gbps path: exactly 1 s.
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.engine.run();
  ASSERT_EQ(d.sim.completed().size(), 1u);
  EXPECT_NEAR(d.sim.completed()[0].fct().value(), 1.0, 1e-6);
  EXPECT_EQ(d.sim.active_flows(), 0u);
}

TEST(FlowSimulator, TwoFlowsShareTheLink) {
  Dumbbell d;
  // Two concurrent 100 Gbit flows, same direction: each gets 50 G -> 2 s.
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 1});
  d.engine.run();
  ASSERT_EQ(d.sim.completed().size(), 2u);
  for (const auto& r : d.sim.completed()) {
    EXPECT_NEAR(r.fct().value(), 2.0, 1e-6);
  }
}

TEST(FlowSimulator, OppositeDirectionsDoNotContend) {
  Dumbbell d;
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.sim.submit(FlowSpec{d.topo.hosts[1], d.topo.hosts[0],
                        Bits::from_gigabits(100.0), 0.0_s, 1});
  d.engine.run();
  for (const auto& r : d.sim.completed()) {
    EXPECT_NEAR(r.fct().value(), 1.0, 1e-6);
  }
}

TEST(FlowSimulator, LateArrivalReducesEarlierFlowRate) {
  Dumbbell d;
  // Flow A: 100 Gbit at t=0. Flow B: 50 Gbit at t=0.5.
  // A runs at 100 G for 0.5 s (50 Gbit left), then both at 50 G.
  // B finishes at 0.5 + 1.0 = 1.5; A finishes at the same time, 1.5 s.
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(50.0), 0.5_s, 1});
  d.engine.run();
  ASSERT_EQ(d.sim.completed().size(), 2u);
  for (const auto& r : d.sim.completed()) {
    EXPECT_NEAR(r.finished.value(), 1.5, 1e-6) << "tag " << r.spec.tag;
  }
}

TEST(FlowSimulator, FlowRateCapThrottles) {
  FlowSimulator::Config config;
  config.flow_rate_cap = 25_Gbps;
  Dumbbell d;
  FlowSimulator sim{d.topo.graph, d.router, d.engine, config};
  sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                      Bits::from_gigabits(100.0), 0.0_s, 0});
  d.engine.run();
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_NEAR(sim.completed()[0].fct().value(), 4.0, 1e-6);
}

TEST(FlowSimulator, UnroutableFlowIsCounted) {
  Dumbbell d;
  const auto& adj = d.topo.graph.neighbors(d.topo.hosts[0]);
  d.router.set_link_enabled(adj[0].link, false);
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(1.0), 0.0_s, 0});
  d.engine.run();
  EXPECT_EQ(d.sim.unroutable_flows(), 1u);
  EXPECT_TRUE(d.sim.completed().empty());
}

TEST(FlowSimulator, UtilizationIsTracked) {
  Dumbbell d;
  double mid_util = -1.0;
  const auto& adj = d.topo.graph.neighbors(d.topo.hosts[0]);
  const LinkId access = adj[0].link;
  d.engine.schedule_at(0.5_s, [&] {
    // Host0 -> leaf is direction a->b or b->a depending on construction.
    const double u0 =
        d.sim.directed_link_utilization(DirectedLink{access, 0});
    const double u1 =
        d.sim.directed_link_utilization(DirectedLink{access, 1});
    mid_util = std::max(u0, u1);
  });
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.engine.run();
  EXPECT_NEAR(mid_util, 1.0, 1e-9);
  // After completion the link is idle again.
  const double u0 = d.sim.directed_link_utilization(DirectedLink{access, 0});
  const double u1 = d.sim.directed_link_utilization(DirectedLink{access, 1});
  EXPECT_DOUBLE_EQ(u0 + u1, 0.0);
}

TEST(FlowSimulator, AverageUtilizationOverWindow) {
  Dumbbell d;
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.engine.run();
  d.engine.run_until(2.0_s);  // 1 s busy, 1 s idle
  const auto& adj = d.topo.graph.neighbors(d.topo.hosts[0]);
  const double avg =
      d.sim.average_link_utilization(DirectedLink{adj[0].link, 0}) +
      d.sim.average_link_utilization(DirectedLink{adj[0].link, 1});
  EXPECT_NEAR(avg, 0.5, 1e-6);
}

TEST(FlowSimulator, NodeLoadReflectsTraffic) {
  Dumbbell d;
  double leaf_load = -1.0;
  const NodeId leaf = d.topo.graph.nodes_at_tier(1).at(0);
  d.engine.schedule_at(0.5_s, [&] { leaf_load = d.sim.node_load(leaf); });
  d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                        Bits::from_gigabits(100.0), 0.0_s, 0});
  d.engine.run();
  // The leaf has 3 links (1 spine + 2 hosts) = 6 directed; the flow crosses
  // 2 of them at full rate -> load = 2/6.
  EXPECT_NEAR(leaf_load, 2.0 / 6.0, 1e-9);
}

TEST(FlowSimulator, FctStatsAccumulate) {
  Dumbbell d;
  for (int i = 0; i < 5; ++i) {
    d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                          Bits::from_gigabits(10.0), Seconds{i * 10.0}, 0});
  }
  d.engine.run();
  EXPECT_EQ(d.sim.fct_stats().count(), 5u);
  EXPECT_NEAR(d.sim.fct_stats().mean(), 0.1, 1e-6);
}

TEST(FlowSimulator, EcmpSpreadsLoadAcrossFabric) {
  // k=4 fat tree, many cross-pod flows: at least 3 of 4 core switches carry
  // traffic at some point (hash spread).
  auto topo = build_fat_tree(4, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};

  const auto cores = topo.graph.nodes_at_tier(3);
  std::vector<double> peak(cores.size(), 0.0);
  sim.set_load_listener([&](Seconds) {
    for (std::size_t c = 0; c < cores.size(); ++c) {
      peak[c] = std::max(peak[c], sim.node_load(cores[c]));
    }
  });
  for (int i = 0; i < 8; ++i) {
    sim.submit(FlowSpec{topo.hosts[i % 4],
                        topo.hosts[topo.hosts.size() - 1 - (i % 4)],
                        Bits::from_gigabits(50.0), 0.0_s,
                        static_cast<std::uint64_t>(i)});
  }
  engine.run();
  int used = 0;
  for (double p : peak) {
    if (p > 0.0) ++used;
  }
  EXPECT_GE(used, 3);
  EXPECT_EQ(sim.completed().size(), 8u);
}

// Several flows finishing at one instant complete in swap-and-pop order:
// the event walks the active columns from the front, and each removal moves
// the last active flow into the freed slot, where it is checked next. Flows
// 2, 5 and 6 (the last index) finish together, so they complete as 2, 6, 5.
// Seven flows admitted at t = 0: ids 1..7, active indices 0..6.
struct CompletionOrderRun {
  std::vector<FlowRecord> completed;
  FlowSimulator::ReallocStats stats;
};

CompletionOrderRun run_simultaneous_completions(bool capped) {
  // Capped: 7 flows at a 10 G cap over distinct 100 G paths, so no link
  // saturates and every departure takes the fast path. Uncapped: 7 flows
  // share one 100 G link, so each departure re-solves.
  BuiltTopology topo = capped ? build_leaf_spine(2, 2, 4, 100_Gbps, 100_Gbps)
                              : build_leaf_spine(1, 1, 2, 100_Gbps, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config config;
  if (capped) config.flow_rate_cap = 10_Gbps;
  FlowSimulator sim{topo.graph, router, engine, config};
  const double gigabits[7] = {2.0, 3.0, 1.0, 4.0, 5.0, 1.0, 1.0};
  const auto& hosts = topo.hosts;
  for (std::size_t k = 0; k < 7; ++k) {
    const NodeId src = capped ? hosts[k] : hosts[0];
    const NodeId dst = capped ? hosts[(k + 3) % hosts.size()] : hosts[1];
    sim.submit(
        FlowSpec{src, dst, Bits::from_gigabits(gigabits[k]), 0.0_s, k});
  }
  engine.run();
  return {sim.completed(), sim.realloc_stats()};
}

void expect_completions(const std::vector<FlowRecord>& completed,
                        const std::vector<FlowId>& ids,
                        const std::vector<double>& finished) {
  ASSERT_EQ(completed.size(), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(completed[k].id, ids[k]) << "completion " << k;
    EXPECT_EQ(completed[k].finished.value(), finished[k]) << "completion " << k;
  }
}

TEST(FlowSimulator, SimultaneousCompletionOrderOnFastDeparturePath) {
  const CompletionOrderRun run = run_simultaneous_completions(true);
  EXPECT_EQ(run.stats.full_solves, 0u);
  EXPECT_EQ(run.stats.fast_departures, 7u);
  expect_completions(run.completed, {3, 7, 6, 1, 2, 4, 5},
                     {0x1.999999999999ap-4, 0x1.999999999999ap-4,
                      0x1.999999999999ap-4, 0x1.999999999999ap-3,
                      0x1.3333333333334p-2, 0x1.999999999999ap-2, 0x1p-1});
}

TEST(FlowSimulator, SimultaneousCompletionOrderOnReallocatePath) {
  const CompletionOrderRun run = run_simultaneous_completions(false);
  EXPECT_EQ(run.stats.fast_departures, 0u);
  expect_completions(run.completed, {3, 7, 6, 1, 2, 4, 5},
                     {0x1.1eb851eb851ecp-4, 0x1.1eb851eb851ecp-4,
                      0x1.1eb851eb851ecp-4, 0x1.c28f5c28f5c2ap-4,
                      0x1.1eb851eb851ecp-3, 0x1.47ae147ae147bp-3,
                      0x1.5c28f5c28f5c3p-3});
}

// Pending submissions live in a slot pool; each admission frees its slot for
// the next submission, the last freed first. The first batch starts in
// shuffled order, so its admissions free slots out of slot order, and the
// second batch, submitted once the first is admitted, takes them back out of
// slot order. Results are pinned to goldens recorded before the pool, and a
// run cut while recycled slots hold pending flows resumes bit-identically.
struct SlotReuseRun {
  BuiltTopology topo = build_leaf_spine(2, 2, 4, 100_Gbps, 100_Gbps);
  SimEngine engine;
  std::unique_ptr<Router> router = std::make_unique<Router>(topo.graph);
  std::unique_ptr<FlowSimulator> sim;

  SlotReuseRun() { sim = make_sim(); }

  std::unique_ptr<FlowSimulator> make_sim() {
    FlowSimulator::Config config;
    config.flow_rate_cap = 60_Gbps;
    return std::make_unique<FlowSimulator>(topo.graph, *router, engine,
                                           config);
  }

  /// Submits `starts.size()` flows whose endpoints and sizes cycle through
  /// the hosts; flow k starts at starts[k].
  void submit_batch(const std::vector<double>& starts, std::uint64_t tag0) {
    const auto& h = topo.hosts;
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::uint64_t tag = tag0 + k;
      sim->submit(FlowSpec{h[tag % h.size()], h[(3 * tag + 5) % h.size()],
                           Bits::from_gigabits(
                               4.0 * static_cast<double>(1 + (5 * tag) % 7)),
                           Seconds{starts[k]}, tag});
    }
  }

  /// Both batches; with `cut` the run is saved at t = 0.8 s, while four
  /// second-batch flows still wait in recycled slots, and finished by a
  /// fresh simulator (and router) restored from the image.
  void run(bool cut) {
    submit_batch({0.4, 0.1, 0.7, 0.2, 0.6, 0.3, 0.5, 0.0}, 0);
    engine.run_until(0.75_s);
    submit_batch({0.75, 0.9, 0.75, 1.2, 0.8, 0.75, 1.0, 0.85}, 8);
    engine.run_until(0.8_s);
    if (cut) {
      state::SnapshotWriter w;
      sim->save_state(w);
      const Seconds now = engine.now();
      const std::uint64_t next_seq = engine.next_seq();
      sim.reset();
      router = std::make_unique<Router>(topo.graph);
      sim = make_sim();
      engine.restore_clock(now, next_seq);
      state::SnapshotReader r{w.buffer()};
      sim->restore_state(r);
    }
    engine.run();
  }

  [[nodiscard]] std::vector<std::uint8_t> image() const {
    state::SnapshotWriter w;
    sim->save_state(w);
    return w.buffer();
  }
};

TEST(FlowSimulator, RecycledPendingSlotsKeepResultsAndSnapshots) {
  SlotReuseRun straight;
  straight.run(false);
  const FlowSimulator& sim = *straight.sim;
  // Goldens recorded before pending submissions moved into the slot pool.
  expect_completions(
      sim.completed(), {8, 4, 1, 2, 6, 7, 11, 14, 3, 15, 5, 9, 10, 13, 16, 12},
      {0x1.1111111111111p-4, 0x1.5555555555556p-2, 0x1.ddddddddddddep-2,
       0x1p-1, 0x1.4444444444444p-1, 0x1.6666666666666p-1,
       0x1.d1eb851eb851fp-1, 0x1.e666666666666p-1, 0x1.fc962fc962fc9p-1,
       0x1.1111111111111p+0, 0x1.1eb851eb851ebp+0, 0x1.2666666666666p+0,
       0x1.2aaaaaaaaaaabp+0, 0x1.3333333333334p+0, 0x1.4eeeeeeeeeeefp+0,
       0x1.aaaaaaaaaaaabp+0});
  EXPECT_EQ(sim.realloc_stats().full_solves, 6u);
  EXPECT_EQ(sim.fct_stats().count(), 16u);
  EXPECT_EQ(sim.fct_stats().mean(), 0x1.1ba06d3a06d3ap-2);
  EXPECT_EQ(sim.fct_stats().m2(), 0x1.6c489718cdb5ep-2);
  EXPECT_EQ(sim.fct_stats().sum(), 0x1.1ba06d3a06d3ap+2);
  const std::vector<std::uint8_t> image = straight.image();
  EXPECT_EQ(image.size(), 18888u);
  EXPECT_EQ(state::crc32(image.data(), image.size()), 0x76ef3a5bu);

  SlotReuseRun resumed;
  resumed.run(true);
  const FlowSimulator& again = *resumed.sim;
  ASSERT_EQ(again.completed().size(), sim.completed().size());
  for (std::size_t i = 0; i < sim.completed().size(); ++i) {
    const FlowRecord& a = again.completed()[i];
    const FlowRecord& b = sim.completed()[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.spec.tag, b.spec.tag) << i;
    EXPECT_EQ(a.finished.value(), b.finished.value()) << i;
  }
  EXPECT_EQ(again.fct_stats().mean(), sim.fct_stats().mean());
  EXPECT_EQ(again.fct_stats().m2(), sim.fct_stats().m2());
  EXPECT_EQ(again.fct_stats().sum(), sim.fct_stats().sum());
  EXPECT_EQ(resumed.image(), image);
}

TEST(FlowSimulator, InvalidSubmitsThrow) {
  Dumbbell d;
  EXPECT_THROW(d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[0],
                                     Bits{1.0}, 0.0_s, 0}),
               std::invalid_argument);
  EXPECT_THROW(d.sim.submit(FlowSpec{d.topo.hosts[0], 9999, Bits{1.0},
                                     0.0_s, 0}),
               std::out_of_range);
  EXPECT_THROW(d.sim.submit(FlowSpec{d.topo.hosts[0], d.topo.hosts[1],
                                     Bits{0.0}, 0.0_s, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpp
