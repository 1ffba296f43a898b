// Epoch-versioned ECMP route cache.
//
// Every (src, dst) route lookup in the flow simulator used to run a fresh
// BFS + shortest-path-DAG enumeration, even though host pairs repeat
// constantly and the ECMP set only changes when the topology masks change.
// RouteCache memoizes Router::find_paths results in a flat path pool (one
// contiguous LinkId arena + fixed-stride spans — shortest paths of one pair
// all have the same hop count, so a set is just base/num_paths/hops) and
// fronts it with the Router's topology epoch: Router::set_node_enabled /
// set_link_enabled bump the epoch, and the cache lazily drops everything on
// the first lookup that observes a newer epoch. No eager flush hooks, so it
// composes with dynamic-topology callers (fault injection, parking) that
// toggle devices mid-run.
//
// Fat-tree symmetry: a single-homed host's ECMP set is its uplink, the
// (src-ToR, dst-ToR) set, and the peer's downlink — in exactly the order
// Router enumerates (the DFS's branch decisions are identical once the
// forced first/last hops are peeled). With `Config::symmetry` (default on)
// the cache keys such pairs by their attachment switches, so every host
// pair under the same ToR pair shares one entry and the resident set scales
// with ToR pairs, not host pairs. Lookups return composed views; nothing is
// materialized per host pair.
//
// Not thread-safe: lookups mutate the pool and stats. One cache per
// simulator/thread, like the Router it fronts.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "netpp/state/snapshot.h"
#include "netpp/topo/routing.h"

namespace netpp {

/// Observability counters for the route cache (exposed through
/// FlowSimulator::realloc_stats() and the CLI).
struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< lookups that ran the Router BFS
  std::uint64_t epoch_flushes = 0;   ///< whole-cache drops on epoch change
  std::uint64_t entries = 0;         ///< resident path-set entries
  std::uint64_t pool_bytes = 0;      ///< resident bytes (pool + index)
};

class RouteCache {
 public:
  struct Config {
    /// ECMP fan-out limit per (src, dst) pair; matches
    /// Router::ecmp_paths' `max_paths`.
    std::size_t max_paths = 16;
    /// Key single-homed endpoints by their attachment switch (see file
    /// comment). Purely an occupancy optimization: results are identical.
    bool symmetry = true;
  };

  /// One cached path: the shared middle span plus the caller pair's forced
  /// first/last hop (kInvalidLink when the endpoint is not canonicalized).
  /// Views stay valid until the next lookup (the pool may grow) or topology
  /// change; consume immediately.
  class PathRef {
   public:
    PathRef(const LinkId* mid, std::uint32_t mid_hops, LinkId prefix,
            LinkId suffix)
        : mid_(mid), mid_hops_(mid_hops), prefix_(prefix), suffix_(suffix) {}

    [[nodiscard]] std::size_t hops() const {
      return mid_hops_ + (prefix_ != kInvalidLink ? 1 : 0) +
             (suffix_ != kInvalidLink ? 1 : 0);
    }
    [[nodiscard]] LinkId link(std::size_t i) const {
      if (prefix_ != kInvalidLink) {
        if (i == 0) return prefix_;
        --i;
      }
      if (i < mid_hops_) return mid_[i];
      assert(i == mid_hops_ && suffix_ != kInvalidLink);
      return suffix_;
    }
    /// Materializes the link sequence (tests, compatibility shims).
    [[nodiscard]] std::vector<LinkId> links() const {
      std::vector<LinkId> out;
      out.reserve(hops());
      for (std::size_t i = 0; i < hops(); ++i) out.push_back(link(i));
      return out;
    }

   private:
    const LinkId* mid_;
    std::uint32_t mid_hops_;
    LinkId prefix_;
    LinkId suffix_;
  };

  /// A cached ECMP set. Same validity rules as PathRef.
  class PathSetView {
   public:
    PathSetView(RouteStatus status, const LinkId* base,
                std::uint32_t num_paths, std::uint32_t hops, LinkId prefix,
                LinkId suffix)
        : status_(status), base_(base), num_paths_(num_paths), hops_(hops),
          prefix_(prefix), suffix_(suffix) {}

    [[nodiscard]] RouteStatus status() const { return status_; }
    [[nodiscard]] bool ok() const { return status_ == RouteStatus::kOk; }
    /// Number of ECMP paths (0 when not ok).
    [[nodiscard]] std::size_t size() const { return num_paths_; }
    [[nodiscard]] PathRef path(std::size_t i) const {
      assert(i < num_paths_);
      return PathRef{base_ + i * hops_, hops_, prefix_, suffix_};
    }

   private:
    RouteStatus status_;
    const LinkId* base_;
    std::uint32_t num_paths_;
    std::uint32_t hops_;  ///< middle hops (shortest paths share hop count)
    LinkId prefix_;
    LinkId suffix_;
  };

  /// `router` must outlive the cache.
  RouteCache(const Router& router, Config config);
  explicit RouteCache(const Router& router) : RouteCache(router, Config{}) {}

  /// Cached equivalent of Router::find_paths(src, dst, config.max_paths):
  /// same statuses, same paths, same order.
  [[nodiscard]] PathSetView find_paths(NodeId src, NodeId dst);

  /// Cached equivalent of Router::ecmp_route: hashes (src, dst, flow_id)
  /// into the set — same selection, no Path materialization. nullopt when
  /// disconnected or the endpoints are invalid.
  [[nodiscard]] std::optional<PathRef> route(NodeId src, NodeId dst,
                                             std::uint64_t flow_id);

  /// Materializing shim with Router::find_paths' exact signature semantics
  /// (equivalence tests compare this against a fresh Router).
  [[nodiscard]] RouteResult find_paths_copy(NodeId src, NodeId dst);

  /// Warms the index lines for (src, dst) without performing the lookup:
  /// canonicalizes the pair, computes its Fibonacci-hash slot, and issues a
  /// non-faulting prefetch of the key/slot words. Burst callers (topology
  /// reroutes, stranded retries) sweep their whole batch through this first
  /// so the grouped lookups that follow land on warm lines instead of
  /// serializing one table miss per flow. Never mutates the cache; a stale
  /// epoch simply makes the prefetch a no-op-in-effect.
  void prefetch(NodeId src, NodeId dst) const;

  [[nodiscard]] RouteCacheStats stats() const;
  [[nodiscard]] const Router& router() const { return router_; }

  /// Serializes the full cache contents — table, entries, path pool, epoch,
  /// and counters — so a restored run replays the same hit/miss sequence
  /// (the counters feed metrics that must match bitwise).
  void save_state(state::SnapshotWriter& w) const;
  /// Restores a save_state() image. The attachment maps are structural
  /// (rebuilt by the constructor) and are validated, not overwritten.
  void restore_state(state::SnapshotReader& r);

  /// Cache-vs-router agreement audit: when the cache is current (its epoch
  /// matches the router's), every kOk entry's paths must be walkable on the
  /// live topology — consecutive links share a node, every link is enabled,
  /// and every transit node is enabled (the canonical endpoints are exempt,
  /// matching Router semantics). A stale cache is trivially in agreement
  /// (it flushes on the next lookup). Throws
  /// std::invalid_argument("RouteCache: constraint") on violation.
  void check_agreement() const;

 private:
  struct Entry {
    std::uint32_t begin = 0;      ///< first link in pool_
    std::uint32_t num_paths = 0;
    std::uint32_t hops = 0;       ///< hop count of every path in the set
    RouteStatus status = RouteStatus::kDisconnected;
  };

  /// Where a lookup's key canonicalized to: the cache key pair plus the
  /// forced first/last links peeled off single-homed endpoints.
  struct CanonicalKey {
    NodeId a;
    NodeId b;
    LinkId prefix;
    LinkId suffix;
  };

  void flush_if_stale();
  [[nodiscard]] CanonicalKey canonicalize(NodeId src, NodeId dst) const;
  /// Looks up (a, b) in the open-addressing table; computes and inserts on
  /// miss. Returns the entry index.
  std::uint32_t lookup(NodeId a, NodeId b);
  void insert_key(std::uint64_t key, std::uint32_t entry_index);
  void grow_table();
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  const Router& router_;
  Config config_;

  // Single-homed endpoint info, fixed by graph structure: the attachment
  // switch and uplink of every degree-1 node (kInvalid* otherwise).
  std::vector<NodeId> attach_node_;
  std::vector<LinkId> attach_link_;

  // Open-addressing hash table: key (a << 32 | b) -> entry index.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> slots_;
  std::size_t occupied_ = 0;

  std::vector<Entry> entries_;
  std::vector<LinkId> pool_;  ///< flat arena: entries' paths back to back
  std::vector<std::size_t> path_ends_;  ///< path ends of the last miss

  std::uint64_t epoch_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t epoch_flushes_ = 0;
};

}  // namespace netpp
