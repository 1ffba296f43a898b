// Allocation guard for TailorWorkspace: once a workspace is warm, a second
// tailoring pass and a second satisfiability check on the same fabric and
// demands allocate nothing beyond the returned TailorResult's own lists.
// It replaces the global operator new with a counting one, so it is its own
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "netpp/mech/ocs.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

/// Allocations made by `call`.
template <class Call>
std::size_t allocations_in(Call&& call) {
  g_allocations.store(0);
  g_counting.store(true);
  call();
  g_counting.store(false);
  return g_allocations.load();
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netpp {
namespace {

using namespace netpp::literals;

TEST(TailorWorkspaceAllocations, WarmPassAndCheckAllocateOnlyTheResult) {
  // A re-tailor pass over a k=4 fat tree with a failed core and a failed
  // agg uplink, at a load that keeps some candidates on: the greedy
  // re-routes, re-solves and rejects steps. The check prices degraded links.
  const auto topo = build_fat_tree(4, 100_Gbps);
  const Graph& g = topo.graph;
  std::vector<TrafficDemand> demands;
  const std::size_t n = topo.hosts.size();
  for (std::size_t i = 0; i < n; ++i) {
    demands.push_back(
        TrafficDemand{topo.hosts[i], topo.hosts[(i + 5) % n], 30_Gbps});
  }
  Router base{g};
  base.set_node_enabled(g.nodes_at_tier(3).front(), false);
  const NodeId agg = g.nodes_at_tier(2).back();
  for (const Adjacency& adj : g.neighbors(agg)) {
    if (g.node(adj.neighbor).tier == 3) {
      base.set_link_enabled(adj.link, false);
      break;
    }
  }
  std::vector<double> factors(g.num_links(), 1.0);
  for (std::size_t l = 0; l < factors.size(); l += 3) factors[l] = 0.5;

  TailorWorkspace workspace{g};
  const TailorConfig config;
  const TailorResult warm = workspace.tailor(base, topo, demands, config);
  ASSERT_TRUE(warm.feasible);
  ASSERT_FALSE(warm.powered_off.empty());
  Router tailored = base;
  for (NodeId sw : warm.powered_off) tailored.set_node_enabled(sw, false);
  const bool warm_check =
      workspace.satisfiable(tailored, demands, config, factors);

  TailorResult again;
  const std::size_t pass = allocations_in(
      [&] { again = workspace.tailor(base, topo, demands, config); });
  EXPECT_EQ(again.powered_on, warm.powered_on);
  EXPECT_EQ(again.powered_off, warm.powered_off);
  const std::size_t result_lists = (again.powered_on.capacity() > 0 ? 1 : 0) +
                                   (again.powered_off.capacity() > 0 ? 1 : 0);
  EXPECT_EQ(pass, result_lists);

  bool check = !warm_check;
  EXPECT_EQ(allocations_in([&] {
              check = workspace.satisfiable(tailored, demands, config, factors);
            }),
            0u);
  EXPECT_EQ(check, warm_check);
}

}  // namespace
}  // namespace netpp
