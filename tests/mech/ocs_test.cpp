#include "netpp/mech/ocs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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

// The fabrics and cases of the reference sweeps: failure masks, demand
// shapes, pinned lists, ECMP truncation, slack and capacity factors.
struct Fabric {
  const char* name;
  BuiltTopology topo;
};

struct SweepCase {
  std::size_t fabric;
  int trial;
  Router base;
  std::vector<TrafficDemand> demands;
  TailorConfig cfg;
  std::vector<double> factors;
};

std::vector<Fabric> sweep_fabrics() {
  std::vector<Fabric> fabrics;
  fabrics.push_back({"fat_tree_k4", build_fat_tree(4, 100_Gbps)});
  fabrics.push_back({"fat_tree_k6", build_fat_tree(6, 100_Gbps)});
  fabrics.push_back({"leaf_spine_4x4x4",
                     build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps)});
  return fabrics;
}

/// `fabrics` must outlive the cases (their routers refer to its graphs).
std::vector<SweepCase> sweep_cases(const std::vector<Fabric>& fabrics) {
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
  std::vector<SweepCase> cases;
  for (std::size_t fabric = 0; fabric < fabrics.size(); ++fabric) {
    const BuiltTopology& topo = fabrics[fabric].topo;
    const Graph& g = topo.graph;
    const std::size_t n = topo.hosts.size();
    for (int trial = 0; trial < 300; ++trial) {
      Router base{g};
      const double fail_p = kFailP[pick(3)];
      for (NodeId sw : topo.switches) {
        if (uniform(0.0, 1.0) < fail_p) base.set_node_enabled(sw, false);
      }
      for (const Link& link : g.links()) {
        const bool in_fabric = g.node(link.a).kind != NodeKind::kHost &&
                               g.node(link.b).kind != NodeKind::kHost;
        if (in_fabric && uniform(0.0, 1.0) < fail_p / 2.0) {
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

      std::vector<double> factors(g.num_links());
      for (double& factor : factors) factor = kFactor[pick(5)];
      cases.push_back(SweepCase{fabric, trial, std::move(base),
                                std::move(demands), std::move(cfg),
                                std::move(factors)});
    }
  }
  return cases;
}

/// Runs one case through `tailor` and `satisfiable` (the base fabric and the
/// tailored one, with and without capacity factors) and expects every
/// TailorResult field and every bool to equal the from-scratch reference's.
/// Returns the reference result.
template <class Tailor, class Satisfiable>
TailorResult expect_reference(const SweepCase& c, const BuiltTopology& topo,
                              Tailor&& tailor, Satisfiable&& satisfiable) {
  const TailorResult got = tailor(c.base, topo, c.demands, c.cfg);
  const TailorResult want =
      testing::tailor_topology_on_reference(c.base, topo, c.demands, c.cfg);
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.powered_on, want.powered_on);
  EXPECT_EQ(got.powered_off, want.powered_off);
  EXPECT_EQ(got.switches_off_fraction, want.switches_off_fraction);

  Router tailored = c.base;
  for (NodeId sw : want.powered_off) tailored.set_node_enabled(sw, false);
  const Router* const routers[] = {&c.base, &tailored};
  for (const Router* router : routers) {
    EXPECT_EQ(satisfiable(*router, c.demands, c.cfg, std::span<const double>{}),
              testing::demands_satisfiable_reference(*router, c.demands,
                                                     c.cfg));
    EXPECT_EQ(satisfiable(*router, c.demands, c.cfg,
                          std::span<const double>{c.factors}),
              testing::demands_satisfiable_reference(*router, c.demands,
                                                     c.cfg, c.factors));
  }
  return want;
}

TEST(OcsTailoring, IncrementalMatchesReference) {
  // The incremental greedy (re-route only the demands whose ECMP set
  // crosses the candidate) against the from-scratch reference.
  const std::vector<Fabric> fabrics = sweep_fabrics();
  const std::vector<SweepCase> cases = sweep_cases(fabrics);
  int feasible = 0;
  int infeasible = 0;
  int kept_on = 0;  // feasible runs where an unprotected candidate stayed on
  for (const SweepCase& c : cases) {
    const BuiltTopology& topo = fabrics[c.fabric].topo;
    const Graph& g = topo.graph;
    SCOPED_TRACE(std::string{fabrics[c.fabric].name} + " trial " +
                 std::to_string(c.trial));
    const TailorResult want = expect_reference(
        c, topo, tailor_topology_on,
        [](const Router& router, const std::vector<TrafficDemand>& demands,
           const TailorConfig& cfg, std::span<const double> factors) {
          return demands_satisfiable(router, demands, cfg, factors);
        });

    if (!want.feasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    std::vector<bool> protect(g.num_nodes(), false);
    for (NodeId sw : c.cfg.pinned) protect[sw] = true;
    for (NodeId host : topo.hosts) {
      if (g.degree(host) == 1) protect[g.neighbors(host)[0].neighbor] = true;
    }
    kept_on += std::any_of(want.powered_on.begin(), want.powered_on.end(),
                           [&](NodeId sw) { return !protect[sw]; });
  }
  // The sweep covers both greedy outcomes and infeasible fabrics.
  EXPECT_GT(feasible, 400);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(kept_on, 400);
}

TEST(OcsTailoring, ReusedWorkspaceMatchesReference) {
  // The same cases through one workspace per fabric, reused by every call
  // in a seeded shuffled order that interleaves the fabrics: no call may
  // read routes, rates or masks an earlier call left behind.
  const std::vector<Fabric> fabrics = sweep_fabrics();
  const std::vector<SweepCase> cases = sweep_cases(fabrics);
  std::vector<TailorWorkspace> workspaces;
  workspaces.reserve(fabrics.size());
  for (const Fabric& f : fabrics) workspaces.emplace_back(f.topo.graph);
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937_64{0x5eed});
  std::size_t switches = 0;  // fabric changes between consecutive calls
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SweepCase& c = cases[order[i]];
    switches += i > 0 && cases[order[i - 1]].fabric != c.fabric;
    TailorWorkspace& workspace = workspaces[c.fabric];
    SCOPED_TRACE(std::string{fabrics[c.fabric].name} + " trial " +
                 std::to_string(c.trial) + ", call " + std::to_string(i));
    expect_reference(
        c, fabrics[c.fabric].topo,
        [&](const Router& base, const BuiltTopology& t,
            const std::vector<TrafficDemand>& demands,
            const TailorConfig& cfg) {
          return workspace.tailor(base, t, demands, cfg);
        },
        [&](const Router& router, const std::vector<TrafficDemand>& demands,
            const TailorConfig& cfg, std::span<const double> factors) {
          return workspace.satisfiable(router, demands, cfg, factors);
        });
  }
  EXPECT_GT(switches, cases.size() / 2);
}

/// 16 demands at 90 G on a k=4 fat tree, host i to host i + 4 (the next
/// pod): at the default satisfaction every one of the 20 switches must stay
/// powered, while a NaN or negative satisfaction would park 7 of them.
std::vector<TrafficDemand> saturating_demands(const BuiltTopology& topo) {
  std::vector<TrafficDemand> demands;
  const std::size_t n = topo.hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    demands.push_back(
        TrafficDemand{topo.hosts[i], topo.hosts[(i + 4) % n], 90_Gbps});
  }
  return demands;
}

TEST(OcsTailoring, InvalidConfigIsRejected) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto demands = saturating_demands(topo);
  const Router router{topo.graph};
  const TailorResult valid = tailor_topology_on(router, topo, demands, {});
  ASSERT_TRUE(valid.feasible);
  ASSERT_TRUE(valid.powered_off.empty());

  std::vector<TailorConfig> invalid(5);
  invalid[0].satisfaction = std::nan("");
  invalid[1].satisfaction = -1.0;
  invalid[2].satisfaction = 0.0;
  invalid[3].satisfaction = 2.0;
  invalid[4].max_ecmp_paths = 0;
  for (const TailorConfig& cfg : invalid) {
    SCOPED_TRACE("satisfaction " + std::to_string(cfg.satisfaction) +
                 ", max_ecmp_paths " + std::to_string(cfg.max_ecmp_paths));
    const auto expect_rejected = [](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "accepted an invalid TailorConfig";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string{e.what()}.rfind("TailorConfig: ", 0), 0u)
            << e.what();
      }
    };
    expect_rejected([&] { (void)tailor_topology(topo, demands, cfg); });
    expect_rejected(
        [&] { (void)tailor_topology_on(router, topo, demands, cfg); });
    expect_rejected([&] { (void)demands_satisfiable(router, demands, cfg); });
    expect_rejected([&] {
      const std::vector<double> factors(topo.graph.num_links(), 1.0);
      (void)demands_satisfiable(router, demands, cfg, factors);
    });
  }
  TailorConfig exact;
  exact.satisfaction = 1.0;
  exact.max_ecmp_paths = 1;
  EXPECT_NO_THROW((void)tailor_topology_on(router, topo, demands, exact));
}

TEST(OcsTailoring, WorkspaceRejectsAnotherGraphsRouter) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto other = build_fat_tree(4, 100_Gbps);
  TailorWorkspace workspace{topo.graph};
  EXPECT_THROW((void)workspace.tailor(Router{other.graph}, topo,
                                      saturating_demands(topo), {}),
               std::invalid_argument);
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
