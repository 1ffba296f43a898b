#include "netpp/topo/route_cache.h"

#include <gtest/gtest.h>

#include <set>

#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

class RouteCacheFatTree : public ::testing::Test {
 protected:
  BuiltTopology topo_ = build_fat_tree(4, 400_Gbps);
  Router router_{topo_.graph};
  RouteCache cache_{router_};
};

TEST_F(RouteCacheFatTree, FirstLookupMissesRepeatHits) {
  const NodeId src = topo_.hosts[0];
  const NodeId dst = topo_.hosts.back();
  (void)cache_.find_paths(src, dst);
  auto stats = cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  (void)cache_.find_paths(src, dst);
  stats = cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(RouteCacheFatTree, SymmetryKeySharesEntriesAcrossHostPairs) {
  // Hosts 0 and 1 hang off the same edge switch, as do the last two hosts:
  // all four cross-pod combinations canonicalize to one (ToR, ToR) entry.
  const NodeId a0 = topo_.hosts[0], a1 = topo_.hosts[1];
  const NodeId b0 = topo_.hosts[topo_.hosts.size() - 2];
  const NodeId b1 = topo_.hosts.back();
  (void)cache_.find_paths(a0, b0);
  (void)cache_.find_paths(a0, b1);
  (void)cache_.find_paths(a1, b0);
  (void)cache_.find_paths(a1, b1);
  const auto stats = cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(RouteCacheFatTree, ResidentSetScalesWithTorPairsNotHostPairs) {
  // All ordered host pairs of the k=4 tree: 16 x 15 = 240 queries. With
  // (ToR, ToR) canonical keys the resident set is bounded by ordered pairs
  // of the 8 edge switches (56) plus the 8 same-ToR keys.
  std::uint64_t queries = 0;
  for (NodeId s : topo_.hosts) {
    for (NodeId d : topo_.hosts) {
      if (s == d) continue;
      ASSERT_TRUE(cache_.find_paths(s, d).ok());
      ++queries;
    }
  }
  const auto stats = cache_.stats();
  EXPECT_EQ(queries, 240u);
  EXPECT_LE(stats.entries, 64u);
  EXPECT_EQ(stats.misses, stats.entries);
  EXPECT_EQ(stats.hits, queries - stats.misses);
  EXPECT_GT(stats.pool_bytes, 0u);
}

TEST_F(RouteCacheFatTree, FindPathsCopyMatchesRouterExactly) {
  for (const NodeId dst : {topo_.hosts[1], topo_.hosts[5], topo_.hosts.back()}) {
    const auto cached = cache_.find_paths_copy(topo_.hosts[0], dst);
    const auto fresh = router_.find_paths(topo_.hosts[0], dst);
    ASSERT_EQ(cached.status, fresh.status);
    ASSERT_EQ(cached.paths.size(), fresh.paths.size());
    for (std::size_t i = 0; i < fresh.paths.size(); ++i) {
      EXPECT_EQ(cached.paths[i].links, fresh.paths[i].links);
    }
  }
}

TEST_F(RouteCacheFatTree, RouteMatchesEcmpRouteSelection) {
  const NodeId src = topo_.hosts[0];
  const NodeId dst = topo_.hosts.back();
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const auto cached = cache_.route(src, dst, flow);
    const auto direct = router_.ecmp_route(src, dst, flow);
    ASSERT_TRUE(cached.has_value());
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(cached->links(), direct->links);
  }
}

TEST_F(RouteCacheFatTree, PathRefIndexedAccessMatchesMaterialized) {
  const auto view = cache_.find_paths(topo_.hosts[0], topo_.hosts.back());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.size(), 4u);  // 2 aggs x 2 cores in a k=4 tree
  std::set<std::vector<LinkId>> distinct;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const auto ref = view.path(i);
    const auto links = ref.links();
    ASSERT_EQ(links.size(), ref.hops());
    for (std::size_t h = 0; h < ref.hops(); ++h) {
      EXPECT_EQ(ref.link(h), links[h]);
    }
    distinct.insert(links);
  }
  EXPECT_EQ(distinct.size(), view.size());
}

TEST_F(RouteCacheFatTree, SameEndpointIsOneTrivialPath) {
  const auto view = cache_.find_paths(topo_.hosts[3], topo_.hosts[3]);
  EXPECT_TRUE(view.ok());
  ASSERT_EQ(view.size(), 1u);
  EXPECT_EQ(view.path(0).hops(), 0u);
  // Trivial pairs never touch the table.
  EXPECT_EQ(cache_.stats().misses, 0u);
}

TEST_F(RouteCacheFatTree, InvalidEndpointReportedWithoutCaching) {
  const auto view = cache_.find_paths(NodeId{100000}, topo_.hosts[0]);
  EXPECT_EQ(view.status(), RouteStatus::kInvalidEndpoint);
  EXPECT_EQ(cache_.stats().misses, 0u);
  EXPECT_EQ(cache_.stats().entries, 0u);
}

TEST_F(RouteCacheFatTree, TopologyToggleFlushesOnNextLookup) {
  const NodeId src = topo_.hosts[0];
  const NodeId dst = topo_.hosts.back();
  const auto before = cache_.find_paths_copy(src, dst);
  ASSERT_TRUE(before.ok());

  // Disable one link of the cached set; the epoch bump invalidates lazily.
  router_.set_link_enabled(before.paths[0].links[2], false);
  EXPECT_EQ(cache_.stats().epoch_flushes, 0u);  // nothing observed yet

  const auto after = cache_.find_paths_copy(src, dst);
  const auto stats = cache_.stats();
  EXPECT_EQ(stats.epoch_flushes, 1u);
  EXPECT_EQ(stats.entries, 1u);  // rebuilt fresh
  const auto fresh = router_.find_paths(src, dst);
  ASSERT_EQ(after.status, fresh.status);
  ASSERT_EQ(after.paths.size(), fresh.paths.size());
  for (std::size_t i = 0; i < fresh.paths.size(); ++i) {
    EXPECT_EQ(after.paths[i].links, fresh.paths[i].links);
  }
  // The disabled link is gone from every surviving path.
  for (const auto& p : after.paths) {
    for (LinkId lid : p.links) EXPECT_NE(lid, before.paths[0].links[2]);
  }
}

TEST_F(RouteCacheFatTree, RevertedToggleStillFlushesOnce) {
  // Epoch comparison, not mask comparison: disable + re-enable is two
  // epoch bumps, so the next lookup flushes even though the masks are back
  // to the original state — and the result matches the original.
  const NodeId src = topo_.hosts[0];
  const NodeId dst = topo_.hosts.back();
  const auto before = cache_.find_paths_copy(src, dst);
  router_.set_link_enabled(0, false);
  router_.set_link_enabled(0, true);
  const auto after = cache_.find_paths_copy(src, dst);
  EXPECT_EQ(cache_.stats().epoch_flushes, 1u);
  ASSERT_EQ(after.paths.size(), before.paths.size());
  for (std::size_t i = 0; i < before.paths.size(); ++i) {
    EXPECT_EQ(after.paths[i].links, before.paths[i].links);
  }
}

TEST_F(RouteCacheFatTree, DisabledAttachmentLinkFallsBackToDirectKey) {
  // With a host's uplink down the pair is disconnected; the canonical key
  // must not route around the forced first hop via the symmetry shortcut.
  const NodeId src = topo_.hosts[0];
  const NodeId dst = topo_.hosts.back();
  const auto adj = topo_.graph.neighbors(src);
  ASSERT_EQ(adj.size(), 1u);
  router_.set_link_enabled(adj[0].link, false);
  const auto view = cache_.find_paths(src, dst);
  EXPECT_EQ(view.status(), RouteStatus::kDisconnected);
  // Other pairs under the same ToR pair still route.
  EXPECT_TRUE(cache_.find_paths(topo_.hosts[1], dst).ok());
}

TEST(RouteCacheLeafSpine, SwitchEndpointsBypassSymmetryKeying) {
  // Multi-homed nodes (switches queried as endpoints) keep their direct
  // key; results still match the Router.
  const auto topo = build_leaf_spine(3, 2, 2, 100_Gbps, 100_Gbps);
  Router router{topo.graph};
  RouteCache cache{router};
  const NodeId leaf = topo.switches[0];
  const NodeId spine = topo.switches[topo.switches.size() - 1];
  const auto cached = cache.find_paths_copy(leaf, spine);
  const auto fresh = router.find_paths(leaf, spine);
  ASSERT_EQ(cached.status, fresh.status);
  ASSERT_EQ(cached.paths.size(), fresh.paths.size());
  for (std::size_t i = 0; i < fresh.paths.size(); ++i) {
    EXPECT_EQ(cached.paths[i].links, fresh.paths[i].links);
  }
}

}  // namespace
}  // namespace netpp
