// The from-scratch OCS tailoring greedy, kept as the semantic reference for
// the incremental one in src/mech/ocs.cpp (ocs_test's
// IncrementalMatchesReference sweep). Every feasibility check re-routes
// every demand on the enabled graph and solves a fresh max-min problem; the
// greedy order comes from a second, identical route + solve. The library
// version must match it field for field: same powered sets in the same
// order, same fraction bits, same feasibility, and the same satisfiable
// bool for every check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "netpp/mech/ocs.h"

namespace netpp::testing {

/// Routes all demands on the currently-enabled graph and returns per-flow
/// max-min rates (empty if any demand is unroutable). Also accumulates the
/// carried bits/s per switch into `switch_load` when non-null.
inline std::vector<double> route_and_allocate_reference(
    const Router& router, const std::vector<TrafficDemand>& demands,
    const TailorConfig& config, std::map<NodeId, double>* switch_load,
    std::span<const double> link_capacity_factors = {}) {
  const Graph& g = router.graph();
  std::vector<FairShareFlow> flows;
  std::vector<double> capacities(g.num_links() * 2);
  for (const auto& link : g.links()) {
    const double factor = link.id < link_capacity_factors.size()
                              ? link_capacity_factors[link.id]
                              : 1.0;
    capacities[link.id * 2] = link.capacity.bits_per_second() * factor;
    capacities[link.id * 2 + 1] = link.capacity.bits_per_second() * factor;
  }

  std::vector<std::vector<NodeId>> transit_nodes;
  flows.reserve(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    auto paths = router.ecmp_paths(demands[d].src, demands[d].dst,
                                   config.max_ecmp_paths);
    if (paths.empty()) return {};
    // Deterministic spread of demands across their ECMP sets.
    std::uint64_t h = d + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    const auto path =
        std::optional<Path>{std::move(paths[h % paths.size()])};
    FairShareFlow flow;
    flow.cap = demands[d].rate.bits_per_second();
    NodeId at = path->src;
    std::vector<NodeId> transits;
    for (LinkId lid : path->links) {
      const Link& link = g.link(lid);
      const int dir = (at == link.a) ? 0 : 1;
      flow.resources.push_back(static_cast<std::size_t>(lid) * 2 + dir);
      at = link.other(at);
      if (at != path->dst && g.node(at).kind != NodeKind::kHost) {
        transits.push_back(at);
      }
    }
    flows.push_back(std::move(flow));
    transit_nodes.push_back(std::move(transits));
  }

  auto rates = max_min_fair_rates(flows, capacities);
  if (switch_load) {
    for (std::size_t d = 0; d < demands.size(); ++d) {
      // First hop switch (the ToR) plus transit switches carry this flow.
      for (NodeId sw : transit_nodes[d]) (*switch_load)[sw] += rates[d];
    }
  }
  return rates;
}

inline bool demands_satisfiable_reference(
    const Router& router, const std::vector<TrafficDemand>& demands,
    const TailorConfig& config,
    std::span<const double> link_capacity_factors = {}) {
  const auto rates = route_and_allocate_reference(
      router, demands, config, nullptr, link_capacity_factors);
  if (rates.empty() && !demands.empty()) return false;
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (rates[d] + 1e-9 <
        config.satisfaction * demands[d].rate.bits_per_second()) {
      return false;
    }
  }
  return true;
}

inline TailorResult tailor_topology_on_reference(
    const Router& base, const BuiltTopology& topology,
    const std::vector<TrafficDemand>& demands,
    const TailorConfig& config = TailorConfig()) {
  const Graph& g = topology.graph;
  for (const auto& d : demands) d.validate(g);
  Router router = base;  // failed devices stay masked throughout

  // Only switches that survive (enabled in `base`) participate.
  std::vector<NodeId> candidates;
  for (NodeId sw : topology.switches) {
    if (base.node_enabled(sw)) candidates.push_back(sw);
  }

  TailorResult result;
  result.feasible = demands_satisfiable_reference(router, demands, config);
  if (!result.feasible) {
    result.powered_on = candidates;
    return result;
  }

  // Protect pinned switches and every host's sole attachment point.
  std::vector<bool> protected_switch(g.num_nodes(), false);
  for (NodeId pinned : config.pinned) protected_switch.at(pinned) = true;
  for (NodeId host : topology.hosts) {
    if (g.degree(host) == 1) {
      protected_switch[g.neighbors(host)[0].neighbor] = true;
    }
  }

  // Initial load per switch on the surviving topology, for the greedy order
  // (least-loaded switches are the cheapest to lose).
  std::map<NodeId, double> load;
  for (NodeId sw : candidates) load[sw] = 0.0;
  route_and_allocate_reference(router, demands, config, &load);

  std::vector<NodeId> order = candidates;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (load[a] != load[b]) return load[a] < load[b];
    return a < b;
  });

  for (NodeId sw : order) {
    if (protected_switch[sw]) continue;
    router.set_node_enabled(sw, false);
    if (demands_satisfiable_reference(router, demands, config)) {
      result.powered_off.push_back(sw);
    } else {
      router.set_node_enabled(sw, true);
    }
  }

  for (NodeId sw : candidates) {
    if (router.node_enabled(sw)) result.powered_on.push_back(sw);
  }
  result.switches_off_fraction =
      candidates.empty()
          ? 0.0
          : static_cast<double>(result.powered_off.size()) /
                static_cast<double>(candidates.size());
  return result;
}

}  // namespace netpp::testing
