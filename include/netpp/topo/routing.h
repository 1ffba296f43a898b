// Routing over explicit topologies: BFS shortest paths, ECMP path
// enumeration, and deterministic flow-to-path assignment by hash.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "netpp/topo/graph.h"

namespace netpp {

/// A path as the sequence of links from src to dst (nodes are implied).
struct Path {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::vector<LinkId> links;

  [[nodiscard]] std::size_t hops() const { return links.size(); }
  [[nodiscard]] bool empty() const { return links.empty(); }

  /// The node sequence src, ..., dst implied by the links.
  [[nodiscard]] std::vector<NodeId> nodes(const Graph& g) const;
};

/// Why a route lookup produced no usable path.
enum class RouteStatus : std::uint8_t {
  kOk,               ///< at least one path found
  kInvalidEndpoint,  ///< src or dst is not a node of the graph (bad input)
  kDisconnected,     ///< endpoints exist but no enabled path connects them
};

/// Structured routing outcome. Callers on the fault path need to tell "bad
/// input" apart from "disconnected by failure" without catching exceptions.
struct RouteResult {
  RouteStatus status = RouteStatus::kDisconnected;
  std::vector<Path> paths;

  [[nodiscard]] bool ok() const { return status == RouteStatus::kOk; }
};

/// ECMP fan-out limit per (src, dst) pair: the default of the Router's
/// enumerations, and the one the flow simulator and RouteCache route with.
inline constexpr std::size_t kMaxEcmpPaths = 16;

/// SplitMix-style avalanche over (src, dst, flow_id) — the standard
/// 5-tuple-hash stand-in. Shared by `Router::ecmp_route` and
/// `RouteCache::route` so cached and uncached selection pick the same path.
[[nodiscard]] inline std::uint64_t ecmp_flow_hash(NodeId src, NodeId dst,
                                                  std::uint64_t flow_id) {
  std::uint64_t h = flow_id;
  h ^= (static_cast<std::uint64_t>(src) << 32) | dst;
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Routing engine with optional link/node masks so that mechanisms can
/// "turn off" switches or links and re-route around them.
///
/// Queries reuse an internal scratch workspace (BFS distances/queue), so
/// repeated lookups allocate nothing after warm-up. The flip side: a single
/// Router must not be queried from multiple threads concurrently — give each
/// thread (or each sweep scenario) its own Router, which is what SweepRunner
/// scenarios do anyway.
class Router {
 public:
  explicit Router(const Graph& graph);

  /// Marks a node usable/unusable (unusable nodes cannot be transited;
  /// endpoints are always allowed). Bumps `topology_epoch()` on change.
  void set_node_enabled(NodeId id, bool enabled);
  /// Marks a link usable/unusable. Bumps `topology_epoch()` on change.
  void set_link_enabled(LinkId id, bool enabled);

  [[nodiscard]] bool node_enabled(NodeId id) const {
    return node_enabled_.at(id) != 0;
  }
  [[nodiscard]] bool link_enabled(LinkId id) const {
    return link_enabled_.at(id) != 0;
  }

  /// Unchecked (assert-only) mask accessors for hot loops that already
  /// guarantee the id is in range (BFS inner loops, path re-validation).
  [[nodiscard]] bool node_enabled_unchecked(NodeId id) const {
    assert(id < node_enabled_.size());
    return node_enabled_[id] != 0;
  }
  [[nodiscard]] bool link_enabled_unchecked(LinkId id) const {
    assert(id < link_enabled_.size());
    return link_enabled_[id] != 0;
  }

  /// Monotonic counter bumped every time an enable mask actually changes.
  /// Cached routing state (RouteCache) self-invalidates by comparing epochs
  /// instead of being flushed eagerly on every toggle.
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }

  /// Raw enable masks (snapshot support).
  [[nodiscard]] const std::vector<std::uint8_t>& node_mask() const {
    return node_enabled_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& link_mask() const {
    return link_enabled_;
  }

  /// Snapshot restore: overwrites both masks and the epoch verbatim. Mask
  /// sizes must match this router's graph.
  void restore_enablement(const std::vector<std::uint8_t>& nodes,
                          const std::vector<std::uint8_t>& links,
                          std::uint64_t epoch) {
    if (nodes.size() != node_enabled_.size() ||
        links.size() != link_enabled_.size()) {
      throw std::invalid_argument(
          "Router: restored mask sizes do not match the graph");
    }
    node_enabled_ = nodes;
    link_enabled_ = links;
    epoch_ = epoch;
  }

  /// One shortest path (BFS, hop count), or nullopt if disconnected.
  /// Direct early-exit BFS: stops the moment dst is labeled, then walks the
  /// first predecessor chain back — no shortest-path-DAG bookkeeping. The
  /// returned path is identical to `ecmp_paths(src, dst, 1).front()`.
  [[nodiscard]] std::optional<Path> shortest_path(NodeId src,
                                                  NodeId dst) const;

  /// All shortest paths up to `max_paths` (ECMP set), deterministic order.
  [[nodiscard]] std::vector<Path> ecmp_paths(
      NodeId src, NodeId dst, std::size_t max_paths = kMaxEcmpPaths) const;

  /// Non-throwing variant of `ecmp_paths`: reports invalid endpoints and
  /// disconnection as distinct statuses instead of exception vs empty vector.
  [[nodiscard]] RouteResult find_paths(
      NodeId src, NodeId dst, std::size_t max_paths = kMaxEcmpPaths) const;

  /// The one ECMP enumeration behind `find_paths`, `ecmp_paths` and
  /// RouteCache's pool, writing into caller-owned buffers so a warm caller
  /// allocates nothing: appends the links of each path, in `find_paths`'
  /// order, to `links` back to back, and after each path its end offset in
  /// `links` to `ends`. Returns `find_paths`' status; appends nothing unless
  /// it is kOk (src == dst appends one empty path).
  RouteStatus enumerate_paths(NodeId src, NodeId dst, std::size_t max_paths,
                              std::vector<LinkId>& links,
                              std::vector<std::size_t>& ends) const;

  /// Whether any enabled path connects src and dst (false for invalid ids).
  [[nodiscard]] bool connected(NodeId src, NodeId dst) const;

  /// Picks one of the ECMP paths by hashing (src, dst, flow_id) — the
  /// standard 5-tuple-hash stand-in. Returns nullopt if disconnected.
  [[nodiscard]] std::optional<Path> ecmp_route(
      NodeId src, NodeId dst, std::uint64_t flow_id,
      std::size_t max_paths = kMaxEcmpPaths) const;

  [[nodiscard]] const Graph& graph() const { return graph_; }

 private:
  /// BFS from src; fills dist_ for every node at distance < dist_[dst] (plus
  /// dst itself) and stops there — nodes beyond the dst level can never sit
  /// on a shortest path. When `stop_at_dst` additionally stops the instant
  /// dst is labeled (enough for reachability / single-path walkback).
  /// Returns false when dst was not reached.
  bool bfs(NodeId src, NodeId dst, bool stop_at_dst) const;

  const Graph& graph_;
  // uint8 instead of vector<bool>: the BFS inner loop reads these per edge,
  // and byte loads beat bit extraction there.
  std::vector<std::uint8_t> node_enabled_;
  std::vector<std::uint8_t> link_enabled_;
  std::uint64_t epoch_ = 0;

  // Scratch workspace (see class comment): reused across queries so the
  // steady state allocates nothing.
  mutable std::vector<std::uint32_t> dist_;
  mutable std::vector<NodeId> queue_;   // flat FIFO, head index walks forward
  mutable std::vector<LinkId> stack_;   // DFS link stack for enumeration
  mutable std::vector<LinkId> path_links_;       // find_paths' flat set
  mutable std::vector<std::size_t> path_ends_;
};

}  // namespace netpp
