#include "netpp/mech/ocs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "netpp/validation.h"

namespace netpp {
namespace {

/// One call's routing-and-solve workspace, behind `demands_satisfiable` and
/// `tailor_topology_on`. Per demand it keeps the chosen ECMP path's
/// directed-resource row, the switches that path transits, and every node
/// that any path of the demand's enumerated ECMP set transits; one
/// MaxMinSolver, CSR arena and capacity vector serve every check of the
/// call. Nothing outlives the call, so fault events share no routing state.
///
/// The greedy tailor re-routes incrementally (`try_without`): powering off
/// switch `sw` re-enumerates only the demands whose enumerated set transits
/// `sw`. That is exact. Let G be the enabled graph, H = G minus sw, and D,
/// E the BFS hop distances from a demand's src in G and H. If one of the
/// demand's enumerated paths avoids sw, it lies in H, so E(dst) = D(dst).
/// A node v that H's DFS reaches k steps back from dst has
/// E(v) = D(dst) - k, and D(v) = E(v): were D(v) smaller, the k-step walk
/// from v to dst would give D(dst) <= D(v) + k < D(dst). So every H
/// predecessor edge is a G predecessor edge, and H's DFS tree is G's with
/// branches pruned, in the same adjacency order. Every pruned path crosses
/// sw, because every shortest src-prefix of a pruned node does. H's path
/// list is therefore G's with the paths through sw filtered out, in order.
/// If none of G's first `max_ecmp_paths` paths transits sw, they are also
/// H's first `max_ecmp_paths`: same paths, same order, same count, and so
/// the same `h % size` pick. Invalidation is on the whole enumerated set,
/// not the chosen path alone, because the set's size feeds the pick.
/// Endpoints are always routable, so a demand that starts or ends at sw is
/// unaffected. The rows reach the solver in demand order, as a from-scratch
/// check builds them, so every check's rates are the same bits.
class DemandRoutes {
 public:
  DemandRoutes(const Router& router, const std::vector<TrafficDemand>& demands,
               const TailorConfig& config,
               std::span<const double> link_capacity_factors)
      : router_(router),
        demands_(demands),
        config_(config),
        routes_(demands.size()),
        saved_(demands.size()) {
    const Graph& g = router.graph();
    capacities_.resize(g.num_links() * 2);
    for (const auto& link : g.links()) {
      const double factor = link.id < link_capacity_factors.size()
                                ? link_capacity_factors[link.id]
                                : 1.0;
      capacities_[link.id * 2] = link.capacity.bits_per_second() * factor;
      capacities_[link.id * 2 + 1] = link.capacity.bits_per_second() * factor;
    }
    caps_.reserve(demands.size());
    for (const auto& d : demands) caps_.push_back(d.rate.bits_per_second());
  }

  /// Routes every demand on the router's enabled graph, stopping at the
  /// first unroutable one (then false).
  bool route_all() {
    for (std::size_t d = 0; d < demands_.size(); ++d) {
      if (!route(d, routes_[d])) return false;
    }
    return true;
  }

  /// Solves the current rows, in demand order, and reports whether every
  /// demand's max-min rate reaches `satisfaction` of its demand.
  bool satisfied() {
    arena_.clear();
    start_.assign(1, 0);
    for (const Route& route : routes_) {
      arena_.insert(arena_.end(), route.row.begin(), route.row.end());
      start_.push_back(static_cast<std::uint32_t>(arena_.size()));
    }
    rates_ = solver_.solve(arena_, start_, caps_, capacities_);
    for (std::size_t d = 0; d < demands_.size(); ++d) {
      if (rates_[d] + 1e-9 < config_.satisfaction * caps_[d]) return false;
    }
    return true;
  }

  /// Bits/s each node carries under the last solve: a demand's rate counts
  /// at every switch its chosen path transits, summed in demand order.
  [[nodiscard]] std::vector<double> switch_load() const {
    std::vector<double> load(router_.graph().num_nodes(), 0.0);
    for (std::size_t d = 0; d < routes_.size(); ++d) {
      for (NodeId sw : routes_[d].transits) load[sw] += rates_[d];
    }
    return load;
  }

  /// Greedy step for the switch the caller just disabled in the router:
  /// re-routes the demands whose enumerated set transits `sw` and solves.
  /// Keeps the new routes when every demand stays routable and satisfied;
  /// otherwise restores the saved ones (the caller re-enables `sw`).
  bool try_without(NodeId sw) {
    affected_.clear();
    for (std::size_t d = 0; d < routes_.size(); ++d) {
      const auto& crossed = routes_[d].crossed;
      if (std::find(crossed.begin(), crossed.end(), sw) != crossed.end()) {
        affected_.push_back(d);
      }
    }
    // No row changes, so the solve would repeat the last satisfied one.
    if (affected_.empty()) return true;
    for (const std::size_t d : affected_) std::swap(routes_[d], saved_[d]);
    bool ok = true;
    for (const std::size_t d : affected_) {
      if (!route(d, routes_[d])) {
        ok = false;
        break;
      }
    }
    if (ok) ok = satisfied();
    if (!ok) {
      for (const std::size_t d : affected_) std::swap(routes_[d], saved_[d]);
    }
    return ok;
  }

 private:
  struct Route {
    std::vector<std::uint32_t> row;  ///< directed resources of the chosen path
    std::vector<NodeId> transits;    ///< switches the chosen path transits
    std::vector<NodeId> crossed;     ///< transit nodes of every path
  };

  /// Enumerates demand d's ECMP set on the enabled graph into `out`; false
  /// when the demand is unroutable.
  bool route(std::size_t d, Route& out) {
    const Graph& g = router_.graph();
    const auto paths = router_.ecmp_paths(demands_[d].src, demands_[d].dst,
                                          config_.max_ecmp_paths);
    if (paths.empty()) return false;
    out.crossed.clear();
    for (const Path& p : paths) {
      NodeId at = p.src;
      for (LinkId lid : p.links) {
        at = g.link(lid).other(at);
        if (at != p.dst) out.crossed.push_back(at);
      }
    }
    // Deterministic spread of demands across their ECMP sets.
    std::uint64_t h = d + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    const Path& path = paths[h % paths.size()];
    out.row.clear();
    out.transits.clear();
    NodeId at = path.src;
    for (LinkId lid : path.links) {
      const Link& link = g.link(lid);
      const std::uint32_t dir = (at == link.a) ? 0 : 1;
      out.row.push_back(static_cast<std::uint32_t>(lid) * 2 + dir);
      at = link.other(at);
      if (at != path.dst && g.node(at).kind != NodeKind::kHost) {
        out.transits.push_back(at);
      }
    }
    return true;
  }

  const Router& router_;
  const std::vector<TrafficDemand>& demands_;
  const TailorConfig& config_;
  std::vector<Route> routes_;
  std::vector<Route> saved_;  ///< pre-step routes of the affected demands
  std::vector<std::size_t> affected_;
  std::vector<double> capacities_;  ///< per directed resource
  std::vector<double> caps_;        ///< per demand, bits/s
  std::vector<std::uint32_t> arena_;
  std::vector<std::uint32_t> start_;
  MaxMinSolver solver_;
  std::span<const double> rates_;  ///< last solve, valid until the next
};

}  // namespace

void TrafficDemand::validate(const Graph& graph) const {
  if (src >= graph.num_nodes() || dst >= graph.num_nodes()) {
    throw std::out_of_range("TrafficDemand: endpoint does not exist");
  }
  validation::require(src != dst, "TrafficDemand", "src must differ from dst");
  validation::require(std::isfinite(rate.value()) && rate.value() > 0.0,
                      "TrafficDemand", "rate must be finite and positive");
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
  DemandRoutes routes{router, demands, config, link_capacity_factors};
  return routes.route_all() && routes.satisfied();
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
  const Graph& g = topology.graph;
  for (const auto& d : demands) d.validate(g);
  Router router = base;  // failed devices stay masked throughout

  // Only switches that survive (enabled in `base`) participate.
  std::vector<NodeId> candidates;
  for (NodeId sw : topology.switches) {
    if (base.node_enabled(sw)) candidates.push_back(sw);
  }

  DemandRoutes routes{router, demands, config, {}};
  TailorResult result;
  result.feasible = routes.route_all() && routes.satisfied();
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

  // Load per switch under the feasibility solve, for the greedy order
  // (least-loaded switches are the cheapest to lose).
  const std::vector<double> load = routes.switch_load();

  std::vector<NodeId> order = candidates;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (load[a] != load[b]) return load[a] < load[b];
    return a < b;
  });

  for (NodeId sw : order) {
    if (protected_switch[sw]) continue;
    router.set_node_enabled(sw, false);
    if (routes.try_without(sw)) {
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
