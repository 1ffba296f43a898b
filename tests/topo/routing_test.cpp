#include "netpp/topo/routing.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

class RoutingFatTree : public ::testing::Test {
 protected:
  BuiltTopology topo_ = build_fat_tree(4, 400_Gbps);
  Router router_{topo_.graph};
};

TEST_F(RoutingFatTree, SameEdgePairIsTwoHops) {
  // Hosts 0 and 1 share an edge switch in pod 0.
  const auto path = router_.shortest_path(topo_.hosts[0], topo_.hosts[1]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 2u);
}

TEST_F(RoutingFatTree, CrossPodPairIsSixHops) {
  // Host 0 (pod 0) to the last host (pod 3): up to core and back down.
  const auto path =
      router_.shortest_path(topo_.hosts[0], topo_.hosts.back());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hops(), 6u);
}

TEST_F(RoutingFatTree, PathNodesAreConsistent) {
  const auto path =
      router_.shortest_path(topo_.hosts[0], topo_.hosts.back());
  ASSERT_TRUE(path.has_value());
  const auto nodes = path->nodes(topo_.graph);
  EXPECT_EQ(nodes.front(), topo_.hosts[0]);
  EXPECT_EQ(nodes.back(), topo_.hosts.back());
  EXPECT_EQ(nodes.size(), path->hops() + 1);
}

TEST_F(RoutingFatTree, EcmpEnumeratesCorePaths) {
  // Cross-pod in a k=4 fat tree: 4 equal-cost paths (2 aggs x 2 cores).
  const auto paths =
      router_.ecmp_paths(topo_.hosts[0], topo_.hosts.back(), 16);
  EXPECT_EQ(paths.size(), 4u);
  for (const auto& p : paths) EXPECT_EQ(p.hops(), 6u);
  // Paths must be distinct.
  std::set<std::vector<LinkId>> distinct;
  for (const auto& p : paths) distinct.insert(p.links);
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST_F(RoutingFatTree, EcmpMaxPathsIsRespected) {
  const auto paths =
      router_.ecmp_paths(topo_.hosts[0], topo_.hosts.back(), 2);
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(RoutingFatTree, EcmpRouteIsDeterministicPerFlow) {
  const auto a =
      router_.ecmp_route(topo_.hosts[0], topo_.hosts.back(), 12345);
  const auto b =
      router_.ecmp_route(topo_.hosts[0], topo_.hosts.back(), 12345);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->links, b->links);
}

TEST_F(RoutingFatTree, EcmpRouteSpreadsFlows) {
  std::set<std::vector<LinkId>> seen;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const auto p =
        router_.ecmp_route(topo_.hosts[0], topo_.hosts.back(), flow);
    ASSERT_TRUE(p.has_value());
    seen.insert(p->links);
  }
  EXPECT_GE(seen.size(), 3u);  // most of the 4 ECMP paths get used
}

TEST_F(RoutingFatTree, DisabledNodeIsRoutedAround) {
  const auto before =
      router_.ecmp_paths(topo_.hosts[0], topo_.hosts.back(), 16);
  ASSERT_EQ(before.size(), 4u);
  // Disable one core switch: half the cross-pod paths disappear.
  const auto cores = topo_.graph.nodes_at_tier(3);
  router_.set_node_enabled(cores[0], false);
  const auto after =
      router_.ecmp_paths(topo_.hosts[0], topo_.hosts.back(), 16);
  EXPECT_EQ(after.size(), 3u);
  for (const auto& p : after) {
    for (const NodeId n : p.nodes(topo_.graph)) EXPECT_NE(n, cores[0]);
  }
}

TEST_F(RoutingFatTree, DisabledLinkIsRoutedAround) {
  // Disabling the host's access link disconnects it.
  const auto& host_adj = topo_.graph.neighbors(topo_.hosts[0]);
  router_.set_link_enabled(host_adj[0].link, false);
  EXPECT_FALSE(
      router_.shortest_path(topo_.hosts[0], topo_.hosts[1]).has_value());
  EXPECT_TRUE(
      router_.shortest_path(topo_.hosts[1], topo_.hosts[2]).has_value());
}

TEST_F(RoutingFatTree, DisablingAllCoresDisconnectsPods) {
  for (NodeId core : topo_.graph.nodes_at_tier(3)) {
    router_.set_node_enabled(core, false);
  }
  // Intra-pod still fine; cross-pod dead.
  EXPECT_TRUE(
      router_.shortest_path(topo_.hosts[0], topo_.hosts[1]).has_value());
  EXPECT_FALSE(
      router_.shortest_path(topo_.hosts[0], topo_.hosts.back()).has_value());
}

TEST_F(RoutingFatTree, SelfRouteIsEmpty) {
  const auto path = router_.shortest_path(topo_.hosts[0], topo_.hosts[0]);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST_F(RoutingFatTree, OutOfRangeEndpointsThrow) {
  EXPECT_THROW(router_.shortest_path(topo_.hosts[0], 100000),
               std::out_of_range);
}

TEST(Routing, FindPathsReportsStructuredStatus) {
  const auto topo = build_leaf_spine(2, 1, 1, 100_Gbps, 100_Gbps);
  Router router{topo.graph};

  // Healthy endpoints: kOk with at least one path.
  const auto ok = router.find_paths(topo.hosts[0], topo.hosts[1]);
  EXPECT_EQ(ok.status, RouteStatus::kOk);
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(ok.paths.empty());

  // Bad input (endpoint does not exist) is distinguishable from a healthy
  // pair that is merely disconnected.
  const auto invalid = router.find_paths(topo.hosts[0], 100000);
  EXPECT_EQ(invalid.status, RouteStatus::kInvalidEndpoint);
  EXPECT_FALSE(invalid.ok());
  EXPECT_TRUE(invalid.paths.empty());

  router.set_node_enabled(topo.graph.nodes_at_tier(2).front(),
                          false);  // the only spine
  const auto cut = router.find_paths(topo.hosts[0], topo.hosts[1]);
  EXPECT_EQ(cut.status, RouteStatus::kDisconnected);
  EXPECT_FALSE(cut.ok());

  EXPECT_FALSE(router.connected(topo.hosts[0], topo.hosts[1]));
  EXPECT_TRUE(router.connected(topo.hosts[0], topo.hosts[0]));
}

TEST(Routing, EcmpPathsStillThrowsOnInvalidEndpoint) {
  // The legacy throwing API delegates to find_paths but keeps its contract.
  const auto topo = build_leaf_spine(2, 1, 1, 100_Gbps, 100_Gbps);
  Router router{topo.graph};
  EXPECT_THROW(router.ecmp_paths(topo.hosts[0], 100000), std::out_of_range);
  router.set_node_enabled(topo.graph.nodes_at_tier(2).front(), false);
  EXPECT_TRUE(router.ecmp_paths(topo.hosts[0], topo.hosts[1]).empty());
}

TEST(Routing, LongerEquallyCheapPathsOnRing) {
  // On an even ring, the two directions to the antipode are equal cost.
  const auto topo = build_backbone_ring(6, 0, 400_Gbps);
  Router router{topo.graph};
  const auto paths =
      router.ecmp_paths(topo.switches[0], topo.switches[3], 16);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(Routing, FlatEnumerationMatchesEcmpPaths) {
  // enumerate_paths against ecmp_paths (same paths, order and count) and
  // find_paths' status over random node and link masks, ECMP truncation,
  // disconnected pairs and src == dst. The buffers start with a sentinel
  // each: the enumeration appends, with ends as offsets into `links`. The
  // first path must also be shortest_path's early-exit walkback.
  const std::vector<BuiltTopology> fabrics = {
      build_fat_tree(4, 100_Gbps), build_fat_tree(6, 100_Gbps),
      build_leaf_spine(4, 4, 4, 100_Gbps, 100_Gbps)};
  constexpr std::size_t kMaxPaths[] = {1, 2, 8, 16};
  std::mt19937_64 rng{0xf1a7};
  auto uniform = [&] {
    return std::uniform_real_distribution<double>{0.0, 1.0}(rng);
  };
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng);
  };
  int disconnected = 0;
  int self = 0;
  int truncated = 0;
  int multipath = 0;
  std::vector<LinkId> links;
  std::vector<std::size_t> ends;
  for (const BuiltTopology& topo : fabrics) {
    const Graph& g = topo.graph;
    for (int trial = 0; trial < 40; ++trial) {
      Router router{g};
      const double fail_p = 0.1 * (trial % 4);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        if (uniform() < fail_p) router.set_node_enabled(n, false);
      }
      for (LinkId l = 0; l < g.num_links(); ++l) {
        if (uniform() < fail_p / 2.0) router.set_link_enabled(l, false);
      }
      for (int query = 0; query < 40; ++query) {
        const NodeId src = static_cast<NodeId>(pick(g.num_nodes()));
        const NodeId dst =
            query % 8 == 0 ? src : static_cast<NodeId>(pick(g.num_nodes()));
        const std::size_t max_paths = kMaxPaths[pick(4)];
        SCOPED_TRACE(std::to_string(src) + " -> " + std::to_string(dst) +
                     ", max_paths " + std::to_string(max_paths));
        const std::vector<Path> want = router.ecmp_paths(src, dst, max_paths);
        links.assign(1, kInvalidLink);
        ends.assign(1, 7);
        const RouteStatus status =
            router.enumerate_paths(src, dst, max_paths, links, ends);
        EXPECT_EQ(status, router.find_paths(src, dst, max_paths).status);
        EXPECT_EQ(links.front(), kInvalidLink);
        EXPECT_EQ(ends.front(), 7u);
        ASSERT_EQ(ends.size() - 1, want.size());
        std::size_t begin = 1;
        for (std::size_t p = 0; p < want.size(); ++p) {
          const std::vector<LinkId> got(
              links.begin() + static_cast<std::ptrdiff_t>(begin),
              links.begin() + static_cast<std::ptrdiff_t>(ends[p + 1]));
          EXPECT_EQ(got, want[p].links) << "path " << p;
          begin = ends[p + 1];
        }
        EXPECT_EQ(begin, links.size());
        if (!want.empty()) {
          const auto first = router.shortest_path(src, dst);
          ASSERT_TRUE(first.has_value());
          EXPECT_EQ(first->links, want.front().links);
        }
        self += src == dst;
        disconnected += status == RouteStatus::kDisconnected;
        multipath += want.size() > 1;
        truncated += want.size() == max_paths && max_paths > 1 &&
                     router.ecmp_paths(src, dst, max_paths + 1).size() >
                         max_paths;
      }
    }
  }
  EXPECT_GT(self, 300);
  EXPECT_GT(disconnected, 300);
  EXPECT_GT(multipath, 300);
  EXPECT_GT(truncated, 100);
}

}  // namespace
}  // namespace netpp
