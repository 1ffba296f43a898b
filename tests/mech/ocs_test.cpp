#include "netpp/mech/ocs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include "ocs_reference.h"

namespace netpp {
namespace {

using namespace netpp::literals;

TEST(OcsTailoring, LightRingTrafficTurnsOffCoreSwitches) {
  // k=4 fat tree, a light ring workload among 4 hosts of pod 0/1: most of
  // the fabric is unnecessary.
  const auto topo = build_fat_tree(4, 100_Gbps);
  std::vector<TrafficDemand> demands;
  for (int i = 0; i < 4; ++i) {
    demands.push_back(
        TrafficDemand{topo.hosts[i], topo.hosts[(i + 1) % 4], 10_Gbps});
  }
  const auto result = tailor_topology(topo, demands);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.powered_off.size(), 0u);
  EXPECT_GT(result.switches_off_fraction, 0.3);
  // Demands must still be satisfiable on the tailored topology.
  Router router{topo.graph};
  for (NodeId sw : result.powered_off) router.set_node_enabled(sw, false);
  EXPECT_TRUE(demands_satisfiable(router, demands, TailorConfig{}));
}

TEST(OcsTailoring, HeavyAllToAllKeepsMoreSwitches) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  // Cross-pod heavy demands close to line rate: needs real fabric capacity.
  std::vector<TrafficDemand> heavy, light;
  const auto n = topo.hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    heavy.push_back(
        TrafficDemand{topo.hosts[i], topo.hosts[(i + 5) % n], 80_Gbps});
    light.push_back(
        TrafficDemand{topo.hosts[i], topo.hosts[(i + 5) % n], 2_Gbps});
  }
  const auto heavy_result = tailor_topology(topo, heavy);
  const auto light_result = tailor_topology(topo, light);
  ASSERT_TRUE(light_result.feasible);
  if (heavy_result.feasible) {
    EXPECT_LE(heavy_result.powered_off.size(),
              light_result.powered_off.size());
  }
}

TEST(OcsTailoring, ToRSwitchesAreProtected) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  std::vector<TrafficDemand> demands = {
      TrafficDemand{topo.hosts[0], topo.hosts[1], 1_Gbps}};
  const auto result = tailor_topology(topo, demands);
  // Every host's sole attachment (its edge switch) must stay powered if any
  // of its hosts... (only attachment rule protects all edge switches here).
  for (NodeId off : result.powered_off) {
    EXPECT_NE(topo.graph.node(off).tier, 1)
        << "edge switch " << topo.graph.node(off).name << " was powered off";
  }
}

TEST(OcsTailoring, PinnedSwitchesStayOn) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  std::vector<TrafficDemand> demands = {
      TrafficDemand{topo.hosts[0], topo.hosts[1], 1_Gbps}};
  TailorConfig cfg;
  cfg.pinned = topo.graph.nodes_at_tier(3);  // pin all cores
  const auto result = tailor_topology(topo, demands, cfg);
  for (NodeId core : cfg.pinned) {
    EXPECT_EQ(std::count(result.powered_off.begin(), result.powered_off.end(),
                         core),
              0);
  }
}

TEST(OcsTailoring, InfeasibleDemandsReportedAsSuch) {
  const auto topo = build_leaf_spine(2, 1, 2, 100_Gbps, 100_Gbps);
  // Two hosts on one leaf both demanding full line rate to hosts on the
  // other leaf: the single 100 G uplink cannot carry 200 G.
  std::vector<TrafficDemand> demands = {
      TrafficDemand{topo.hosts[0], topo.hosts[2], 100_Gbps},
      TrafficDemand{topo.hosts[1], topo.hosts[3], 100_Gbps}};
  const auto result = tailor_topology(topo, demands);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.powered_off.empty());
}

TEST(OcsTailoring, ZeroDemandThrows) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  std::vector<TrafficDemand> demands = {
      TrafficDemand{topo.hosts[0], topo.hosts[1], Gbps{0.0}}};
  EXPECT_THROW(tailor_topology(topo, demands), std::invalid_argument);
}

TEST(OcsTailoring, EmptyDemandsParkEverythingButProtected) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto result = tailor_topology(topo, {});
  EXPECT_TRUE(result.feasible);
  // All aggs and cores can go; the 8 edge switches are protected.
  EXPECT_EQ(result.powered_on.size(), 8u);
}

TEST(OcsTailoring, IncrementalMatchesReference) {
  // The incremental greedy (re-route only the demands whose ECMP set
  // crosses the candidate) against the from-scratch reference, over
  // fabrics, failure masks, demand shapes, pinned lists, ECMP truncation
  // and slack. Every TailorResult field and every satisfiable bool must
  // match exactly.
  struct Fabric {
    const char* name;
    BuiltTopology topo;
  };
  const std::vector<Fabric> fabrics = {
      {"fat_tree_k4", build_fat_tree(4, 100_Gbps)},
      {"fat_tree_k6", build_fat_tree(6, 100_Gbps)},
      {"leaf_spine_4x4x4", build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps)},
  };
  constexpr std::size_t kEcmp[] = {1, 2, 8, 16};
  constexpr double kSatisfaction[] = {0.999, 0.5};
  constexpr double kFailP[] = {0.0, 0.05, 0.15};
  constexpr double kFactor[] = {1.0, 1.0, 0.5, 0.25, 0.1};
  std::mt19937_64 rng{0x0c5a11};
  auto uniform = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(rng);
  };
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  int feasible = 0;
  int infeasible = 0;
  int kept_on = 0;  // feasible runs where an unprotected candidate stayed on
  for (const Fabric& f : fabrics) {
    const BuiltTopology& topo = f.topo;
    const Graph& g = topo.graph;
    const std::size_t n = topo.hosts.size();
    for (int trial = 0; trial < 300; ++trial) {
      SCOPED_TRACE(std::string{f.name} + " trial " + std::to_string(trial));
      Router base{g};
      const double fail_p = kFailP[pick(3)];
      for (NodeId sw : topo.switches) {
        if (uniform(0.0, 1.0) < fail_p) base.set_node_enabled(sw, false);
      }
      for (const Link& link : g.links()) {
        const bool fabric = g.node(link.a).kind != NodeKind::kHost &&
                            g.node(link.b).kind != NodeKind::kHost;
        if (fabric && uniform(0.0, 1.0) < fail_p / 2.0) {
          base.set_link_enabled(link.id, false);
        }
      }

      // Ring, strided or random demands at rates that straddle the fabric's
      // capacity, so some candidates must stay on.
      std::vector<TrafficDemand> demands;
      const double gbps = std::exp(uniform(std::log(1.0), std::log(80.0)));
      auto add = [&](std::size_t a, std::size_t b) {
        demands.push_back(TrafficDemand{topo.hosts[a], topo.hosts[b],
                                        Gbps{gbps * uniform(0.5, 1.5)}});
      };
      const std::size_t count = 2 + pick(n - 1);
      switch (trial % 3) {
        case 0:
          for (std::size_t i = 0; i < count; ++i) add(i, (i + 1) % count);
          break;
        case 1: {
          const std::size_t stride = 1 + pick(n - 1);
          for (std::size_t i = 0; i < count; ++i) add(i, (i + stride) % n);
          break;
        }
        default:
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t a = pick(n);
            const std::size_t b = (a + 1 + pick(n - 1)) % n;
            add(a, b);
          }
      }

      TailorConfig cfg;
      cfg.max_ecmp_paths = kEcmp[pick(4)];
      cfg.satisfaction = kSatisfaction[pick(2)];
      if (trial % 4 == 3) {
        for (std::size_t i = 0, m = 1 + pick(3); i < m; ++i) {
          cfg.pinned.push_back(topo.switches[pick(topo.switches.size())]);
        }
      }

      const TailorResult got = tailor_topology_on(base, topo, demands, cfg);
      const TailorResult want =
          testing::tailor_topology_on_reference(base, topo, demands, cfg);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(got.powered_on, want.powered_on);
      EXPECT_EQ(got.powered_off, want.powered_off);
      EXPECT_EQ(got.switches_off_fraction, want.switches_off_fraction);

      std::vector<double> factors(g.num_links());
      for (double& factor : factors) factor = kFactor[pick(5)];
      Router tailored = base;
      for (NodeId sw : want.powered_off) tailored.set_node_enabled(sw, false);
      for (const Router* router : {&base, &tailored}) {
        EXPECT_EQ(demands_satisfiable(*router, demands, cfg),
                  testing::demands_satisfiable_reference(*router, demands,
                                                         cfg));
        EXPECT_EQ(demands_satisfiable(*router, demands, cfg, factors),
                  testing::demands_satisfiable_reference(*router, demands,
                                                         cfg, factors));
      }

      if (!want.feasible) {
        ++infeasible;
        continue;
      }
      ++feasible;
      std::vector<bool> protect(g.num_nodes(), false);
      for (NodeId sw : cfg.pinned) protect[sw] = true;
      for (NodeId host : topo.hosts) {
        if (g.degree(host) == 1) protect[g.neighbors(host)[0].neighbor] = true;
      }
      kept_on += std::any_of(want.powered_on.begin(), want.powered_on.end(),
                             [&](NodeId sw) { return !protect[sw]; });
    }
  }
  // The sweep covers both greedy outcomes and infeasible fabrics.
  EXPECT_GT(feasible, 400);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(kept_on, 400);
}

TEST(OcsOverhead, ReconfigurationIsNegligibleForLongJobs) {
  // The paper: tens-of-ms OCS reconfiguration vs jobs lasting days.
  OcsOverheadModel model;
  const double overhead = model.time_overhead(Seconds::from_hours(24.0));
  EXPECT_LT(overhead, 1e-6);
}

TEST(OcsOverhead, ShortJobsPayMore) {
  OcsOverheadModel model;
  EXPECT_GT(model.time_overhead(Seconds{1.0}),
            model.time_overhead(Seconds{1000.0}));
}

TEST(OcsOverhead, NetSavingsSubtractOcsPower) {
  OcsOverheadModel model;
  const Watts net = model.net_power_savings(Watts{1000.0}, 4);
  EXPECT_DOUBLE_EQ(net.value(), 1000.0 - 4 * 50.0);
}

TEST(OcsOverhead, InvalidInputsThrow) {
  OcsOverheadModel model;
  EXPECT_THROW((void)model.time_overhead(Seconds{0.0}), std::invalid_argument);
  EXPECT_THROW((void)model.net_power_savings(Watts{10.0}, -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpp
