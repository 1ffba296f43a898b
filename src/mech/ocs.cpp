#include "netpp/mech/ocs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

// The greedy tailor re-routes incrementally (`try_without`): powering off
// switch `sw` re-enumerates only the demands whose enumerated ECMP set
// transits `sw`. That is exact. Let G be the enabled graph, H = G minus sw,
// and D, E the BFS hop distances from a demand's src in G and H. If one of
// the demand's enumerated paths avoids sw, it lies in H, so E(dst) = D(dst).
// A node v that H's DFS reaches k steps back from dst has
// E(v) = D(dst) - k, and D(v) = E(v): were D(v) smaller, the k-step walk
// from v to dst would give D(dst) <= D(v) + k < D(dst). So every H
// predecessor edge is a G predecessor edge, and H's DFS tree is G's with
// branches pruned, in the same adjacency order. Every pruned path crosses
// sw, because every shortest src-prefix of a pruned node does. H's path
// list is therefore G's with the paths through sw filtered out, in order.
// If none of G's first `max_ecmp_paths` paths transits sw, they are also
// H's first `max_ecmp_paths`: same paths, same order, same count, and so
// the same `h % size` pick. Invalidation is on the whole enumerated set,
// not the chosen path alone, because the set's size feeds the pick.
// Endpoints are always routable, so a demand that starts or ends at sw is
// unaffected. The rows reach the solver in demand order, as a from-scratch
// check builds them, so every check's rates are the same bits.
//
// Reuse across calls keeps that exactness because a call reads only what it
// wrote: `prepare` refills capacities and caps, `route_all` re-routes every
// demand (clearing its lists) before any solve reads a row, and an
// unroutable demand ends the call before a solve. Only buffer capacity, not
// routing state, outlives a call.

void TrafficDemand::validate(const Graph& graph) const {
  if (src >= graph.num_nodes() || dst >= graph.num_nodes()) {
    throw std::out_of_range("TrafficDemand: endpoint does not exist");
  }
  validation::require(src != dst, "TrafficDemand", "src must differ from dst");
  validation::require(std::isfinite(rate.value()) && rate.value() > 0.0,
                      "TrafficDemand", "rate must be finite and positive");
}

void TailorConfig::validate() const {
  validation::require(satisfaction > 0.0 && satisfaction <= 1.0,
                      "TailorConfig", "satisfaction must be in (0, 1]");
  validation::require(max_ecmp_paths >= 1, "TailorConfig",
                      "max_ecmp_paths must be at least 1");
}

TailorWorkspace::TailorWorkspace(const Graph& graph) : router_(graph) {}

void TailorWorkspace::prepare(const Graph& graph,
                              const std::vector<TrafficDemand>& demands,
                              std::span<const double> link_capacity_factors) {
  capacities_.resize(graph.num_links() * 2);
  for (const auto& link : graph.links()) {
    const double factor = link.id < link_capacity_factors.size()
                              ? link_capacity_factors[link.id]
                              : 1.0;
    capacities_[link.id * 2] = link.capacity.bits_per_second() * factor;
    capacities_[link.id * 2 + 1] = link.capacity.bits_per_second() * factor;
  }
  caps_.clear();
  for (const auto& d : demands) caps_.push_back(d.rate.bits_per_second());
  routes_.resize(demands.size());
  saved_.resize(demands.size());
}

/// Routes every demand on the router's enabled graph, stopping at the first
/// unroutable one (then false).
bool TailorWorkspace::route_all(const Router& router,
                                const std::vector<TrafficDemand>& demands,
                                std::size_t max_paths) {
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (!route(router, demands[d], d, max_paths, routes_[d])) return false;
  }
  return true;
}

/// Solves the current rows, in demand order, and reports whether every
/// demand's max-min rate reaches `satisfaction` of its demand.
bool TailorWorkspace::satisfied(double satisfaction) {
  arena_.clear();
  start_.assign(1, 0);
  for (const Route& route : routes_) {
    arena_.insert(arena_.end(), route.row.begin(), route.row.end());
    start_.push_back(static_cast<std::uint32_t>(arena_.size()));
  }
  rates_ = solver_.solve(arena_, start_, caps_, capacities_);
  for (std::size_t d = 0; d < caps_.size(); ++d) {
    if (rates_[d] + 1e-9 < satisfaction * caps_[d]) return false;
  }
  return true;
}

/// Bits/s each node carries under the last solve, into `load_`: a demand's
/// rate counts at every switch its chosen path transits, summed in demand
/// order.
void TailorWorkspace::switch_load(std::size_t num_nodes) {
  load_.assign(num_nodes, 0.0);
  for (std::size_t d = 0; d < routes_.size(); ++d) {
    for (NodeId sw : routes_[d].transits) load_[sw] += rates_[d];
  }
}

/// Greedy step for the switch the caller just disabled in the router:
/// re-routes the demands whose enumerated set transits `sw` and solves.
/// Keeps the new routes when every demand stays routable and satisfied;
/// otherwise restores the saved ones (the caller re-enables `sw`).
bool TailorWorkspace::try_without(const Router& router,
                                  const std::vector<TrafficDemand>& demands,
                                  const TailorConfig& config, NodeId sw) {
  affected_.clear();
  for (std::size_t d = 0; d < routes_.size(); ++d) {
    const auto& crossed = routes_[d].crossed;
    if (std::find(crossed.begin(), crossed.end(), sw) != crossed.end()) {
      affected_.push_back(d);
    }
  }
  // No row changes, so the solve would repeat the last satisfied one.
  if (affected_.empty()) return true;
  // Copies, not swaps: each Route keeps its own buffers, so a pass that
  // repeats an earlier one needs no capacity that pass did not leave.
  for (const std::size_t d : affected_) saved_[d] = routes_[d];
  bool ok = true;
  for (const std::size_t d : affected_) {
    if (!route(router, demands[d], d, config.max_ecmp_paths, routes_[d])) {
      ok = false;
      break;
    }
  }
  if (ok) ok = satisfied(config.satisfaction);
  if (!ok) {
    for (const std::size_t d : affected_) routes_[d] = saved_[d];
  }
  return ok;
}

/// Enumerates demand d's ECMP set on the enabled graph into `out`; false
/// when the demand is unroutable.
bool TailorWorkspace::route(const Router& router, const TrafficDemand& demand,
                            std::size_t d, std::size_t max_paths,
                            Route& out) {
  const Graph& g = router.graph();
  path_links_.clear();
  path_ends_.clear();
  if (router.enumerate_paths(demand.src, demand.dst, max_paths, path_links_,
                             path_ends_) == RouteStatus::kInvalidEndpoint) {
    throw std::out_of_range("routing endpoint does not exist");
  }
  if (path_ends_.empty()) return false;
  // Exact reserves: a fresh workspace's first route grows each list once.
  out.crossed.clear();
  out.crossed.reserve(path_links_.size());
  std::size_t begin = 0;
  for (const std::size_t end : path_ends_) {
    NodeId at = demand.src;
    for (std::size_t i = begin; i < end; ++i) {
      at = g.link(path_links_[i]).other(at);
      if (at != demand.dst) out.crossed.push_back(at);
    }
    begin = end;
  }
  // Deterministic spread of demands across their ECMP sets.
  std::uint64_t h = d + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  const std::size_t pick = h % path_ends_.size();
  const std::size_t first = pick == 0 ? 0 : path_ends_[pick - 1];
  out.row.clear();
  out.row.reserve(path_ends_[pick] - first);
  out.transits.clear();
  out.transits.reserve(path_ends_[pick] - first);
  NodeId at = demand.src;
  for (std::size_t i = first; i < path_ends_[pick]; ++i) {
    const LinkId lid = path_links_[i];
    const Link& link = g.link(lid);
    const std::uint32_t dir = (at == link.a) ? 0 : 1;
    out.row.push_back(static_cast<std::uint32_t>(lid) * 2 + dir);
    at = link.other(at);
    if (at != demand.dst && g.node(at).kind != NodeKind::kHost) {
      out.transits.push_back(at);
    }
  }
  return true;
}

bool TailorWorkspace::satisfiable(
    const Router& router, const std::vector<TrafficDemand>& demands,
    const TailorConfig& config,
    std::span<const double> link_capacity_factors) {
  config.validate();
  prepare(router.graph(), demands, link_capacity_factors);
  return route_all(router, demands, config.max_ecmp_paths) &&
         satisfied(config.satisfaction);
}

TailorResult TailorWorkspace::tailor(const Router& base,
                                     const BuiltTopology& topology,
                                     const std::vector<TrafficDemand>& demands,
                                     const TailorConfig& config) {
  config.validate();
  const Graph& g = topology.graph;
  for (const auto& d : demands) d.validate(g);
  validation::require(&base.graph() == &router_.graph(), "TailorWorkspace",
                      "base must route over the workspace's graph");
  // Failed devices stay masked throughout.
  router_.restore_enablement(base.node_mask(), base.link_mask(),
                             base.topology_epoch());

  // Only switches that survive (enabled in `base`) participate.
  candidates_.clear();
  for (NodeId sw : topology.switches) {
    if (base.node_enabled(sw)) candidates_.push_back(sw);
  }

  prepare(router_.graph(), demands, {});
  TailorResult result;
  result.feasible = route_all(router_, demands, config.max_ecmp_paths) &&
                    satisfied(config.satisfaction);
  if (!result.feasible) {
    result.powered_on = candidates_;
    return result;
  }

  // Protect pinned switches and every host's sole attachment point.
  protected_.assign(g.num_nodes(), false);
  for (NodeId pinned : config.pinned) protected_.at(pinned) = true;
  for (NodeId host : topology.hosts) {
    if (g.degree(host) == 1) protected_[g.neighbors(host)[0].neighbor] = true;
  }

  // Load per switch under the feasibility solve, for the greedy order
  // (least-loaded switches are the cheapest to lose).
  switch_load(g.num_nodes());
  order_ = candidates_;
  std::sort(order_.begin(), order_.end(), [this](NodeId a, NodeId b) {
    if (load_[a] != load_[b]) return load_[a] < load_[b];
    return a < b;
  });

  // The result's lists take one allocation each.
  result.powered_on.reserve(candidates_.size());
  result.powered_off.reserve(candidates_.size());
  for (NodeId sw : order_) {
    if (protected_[sw]) continue;
    router_.set_node_enabled(sw, false);
    if (try_without(router_, demands, config, sw)) {
      result.powered_off.push_back(sw);
    } else {
      router_.set_node_enabled(sw, true);
    }
  }

  for (NodeId sw : candidates_) {
    if (router_.node_enabled(sw)) result.powered_on.push_back(sw);
  }
  result.switches_off_fraction =
      candidates_.empty()
          ? 0.0
          : static_cast<double>(result.powered_off.size()) /
                static_cast<double>(candidates_.size());
  return result;
}

bool demands_satisfiable(const Router& router,
                         const std::vector<TrafficDemand>& demands,
                         const TailorConfig& config) {
  return demands_satisfiable(router, demands, config, {});
}

bool demands_satisfiable(const Router& router,
                         const std::vector<TrafficDemand>& demands,
                         const TailorConfig& config,
                         std::span<const double> link_capacity_factors) {
  return TailorWorkspace{router.graph()}.satisfiable(router, demands, config,
                                                     link_capacity_factors);
}

TailorResult tailor_topology(const BuiltTopology& topology,
                             const std::vector<TrafficDemand>& demands,
                             const TailorConfig& config) {
  return tailor_topology_on(Router{topology.graph}, topology, demands,
                            config);
}

TailorResult tailor_topology_on(const Router& base,
                                const BuiltTopology& topology,
                                const std::vector<TrafficDemand>& demands,
                                const TailorConfig& config) {
  return TailorWorkspace{base.graph()}.tailor(base, topology, demands, config);
}

double OcsOverheadModel::time_overhead(Seconds job_duration) const {
  if (job_duration.value() <= 0.0) {
    throw std::invalid_argument("job duration must be positive");
  }
  const double lost = config_.reconfiguration_time.value() *
                      config_.reconfigurations_per_job;
  return lost / (lost + job_duration.value());
}

Watts OcsOverheadModel::net_power_savings(Watts switch_savings,
                                          int num_ocs_devices) const {
  if (num_ocs_devices < 0) {
    throw std::invalid_argument("device count must be non-negative");
  }
  return switch_savings - config_.ocs_power * num_ocs_devices;
}

}  // namespace netpp
