// Property test for the route cache's one load-bearing claim: after ANY
// sequence of node/link enable/disable toggles, a cached lookup returns
// exactly what a Router built from scratch on the same masks returns —
// same status, same paths, element-wise. The cache never sees the toggles
// directly (epoch-versioned lazy invalidation), so this exercises the
// flush path, the symmetry canonicalization under degraded attachment
// links, and pool reuse across generations.
#include <gtest/gtest.h>

#include <vector>

#include "netpp/sim/random.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/route_cache.h"

namespace netpp {
namespace {

using namespace netpp::literals;

/// A Router constructed from scratch with the given masks applied — the
/// memoization-free ground truth.
Router fresh_router(const BuiltTopology& topo,
                    const std::vector<bool>& node_on,
                    const std::vector<bool>& link_on) {
  Router router{topo.graph};
  for (NodeId n = 0; n < topo.graph.num_nodes(); ++n) {
    if (!node_on[n]) router.set_node_enabled(n, false);
  }
  for (LinkId l = 0; l < topo.graph.num_links(); ++l) {
    if (!link_on[l]) router.set_link_enabled(l, false);
  }
  return router;
}

void expect_same(const RouteResult& cached, const RouteResult& truth,
                 NodeId src, NodeId dst) {
  ASSERT_EQ(cached.status, truth.status) << "pair " << src << "->" << dst;
  ASSERT_EQ(cached.paths.size(), truth.paths.size())
      << "pair " << src << "->" << dst;
  for (std::size_t i = 0; i < truth.paths.size(); ++i) {
    EXPECT_EQ(cached.paths[i].links, truth.paths[i].links)
        << "pair " << src << "->" << dst << " path " << i;
  }
}

/// Runs `rounds` rounds of random toggles on one live Router + RouteCache;
/// after each round compares sampled pairs against a fresh Router.
void toggle_sweep(const BuiltTopology& topo, std::uint64_t seed, int rounds,
                  int pairs_per_round) {
  Rng rng{seed};
  Router live{topo.graph};
  RouteCache cache{live, RouteCache::Config{}};

  std::vector<bool> node_on(topo.graph.num_nodes(), true);
  std::vector<bool> link_on(topo.graph.num_links(), true);
  const auto num_hosts = static_cast<std::int64_t>(topo.hosts.size());

  for (int round = 0; round < rounds; ++round) {
    // 1-4 toggles per round: links, transit switches, and occasionally a
    // host node (endpoints are exempt from the node mask, but its uplink's
    // far end isn't — the canonicalization must notice).
    const int toggles = static_cast<int>(rng.uniform_int(1, 4));
    for (int t = 0; t < toggles; ++t) {
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const auto l = static_cast<LinkId>(rng.uniform_int(
              0, static_cast<std::int64_t>(topo.graph.num_links()) - 1));
          link_on[l] = !link_on[l];
          live.set_link_enabled(l, link_on[l]);
          break;
        }
        case 1: {
          const auto i = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(topo.switches.size()) - 1));
          const NodeId n = topo.switches[i];
          node_on[n] = !node_on[n];
          live.set_node_enabled(n, node_on[n]);
          break;
        }
        default: {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, num_hosts - 1));
          const NodeId n = topo.hosts[i];
          node_on[n] = !node_on[n];
          live.set_node_enabled(n, node_on[n]);
          break;
        }
      }
    }

    const Router truth = fresh_router(topo, node_on, link_on);
    for (int p = 0; p < pairs_per_round; ++p) {
      const NodeId src = topo.hosts[static_cast<std::size_t>(
          rng.uniform_int(0, num_hosts - 1))];
      const NodeId dst = topo.hosts[static_cast<std::size_t>(
          rng.uniform_int(0, num_hosts - 1))];
      if (src == dst) continue;
      expect_same(cache.find_paths_copy(src, dst),
                  truth.find_paths(src, dst), src, dst);
      // Per-flow selection must agree too (same set, same hash).
      const auto picked = cache.route(src, dst, /*flow_id=*/round * 131u + p);
      const auto direct = truth.ecmp_route(src, dst, round * 131u + p);
      ASSERT_EQ(picked.has_value(), direct.has_value());
      if (picked) {
        EXPECT_EQ(picked->links(), direct->links);
      }
    }
  }
}

TEST(RouteCacheProperty, FatTreeK4ToggleSweep) {
  const auto topo = build_fat_tree(4, 400_Gbps);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    toggle_sweep(topo, 0xA11CEull + seed, /*rounds=*/24, /*pairs_per_round=*/24);
  }
}

TEST(RouteCacheProperty, FatTreeK6ToggleSweep) {
  const auto topo = build_fat_tree(6, 400_Gbps);
  for (std::uint64_t seed : {1ull, 2ull}) {
    toggle_sweep(topo, 0xB0B5ull + seed, /*rounds=*/12, /*pairs_per_round=*/16);
  }
}

TEST(RouteCacheProperty, LeafSpineToggleSweep) {
  const auto topo = build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps);
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    toggle_sweep(topo, 0xCAFEull + seed, /*rounds=*/20, /*pairs_per_round=*/20);
  }
}

TEST(RouteCacheProperty, BackboneRingToggleSweep) {
  // Non-fat-tree shape: multi-hop rings where symmetry canonicalization
  // still applies to the single-homed access hosts.
  const auto topo = build_backbone_ring(10, 3, 400_Gbps);
  toggle_sweep(topo, 0xD1A1ull, /*rounds=*/20, /*pairs_per_round=*/20);
}

}  // namespace
}  // namespace netpp
