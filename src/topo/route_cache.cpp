#include "netpp/topo/route_cache.h"

#include <algorithm>

#include "netpp/validation.h"

namespace netpp {

namespace {

constexpr std::uint64_t kEmptyKey = ~0ULL;  // (kInvalidNode, kInvalidNode)
constexpr std::size_t kInitialTable = 1024;  // power of two

[[nodiscard]] std::uint64_t pair_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

[[nodiscard]] std::size_t key_slot(std::uint64_t key, std::size_t mask) {
  // Fibonacci hashing: the keys are structured (two small ids), so mix
  // before masking.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
}

}  // namespace

RouteCache::RouteCache(const Router& router) : router_(router) {
  const Graph& graph = router.graph();
  attach_node_.assign(graph.num_nodes(), kInvalidNode);
  attach_link_.assign(graph.num_nodes(), kInvalidLink);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const auto adj = graph.neighbors(n);
    if (adj.size() == 1) {
      attach_node_[n] = adj[0].neighbor;
      attach_link_[n] = adj[0].link;
    }
  }
  keys_.assign(kInitialTable, kEmptyKey);
  slots_.assign(kInitialTable, 0);
  epoch_ = router.topology_epoch();
}

void RouteCache::flush_if_stale() {
  const std::uint64_t current = router_.topology_epoch();
  if (current == epoch_) return;
  epoch_ = current;
  if (occupied_ > 0) {
    ++epoch_flushes_;
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    occupied_ = 0;
    entries_.clear();
    pool_.clear();
  }
}

RouteCache::CanonicalKey RouteCache::canonicalize(NodeId src,
                                                  NodeId dst) const {
  CanonicalKey key{src, dst, kInvalidLink, kInvalidLink};
  // A single-homed endpoint's first/last hop is forced, so the rest of the
  // set is exactly the attachment pair's set — but only while the forced hop
  // is usable and the attachment switch can be transited; otherwise fall
  // back to the direct key (the Router query then reports disconnection with
  // endpoint-exemption semantics intact). Masks are epoch-stable, so these
  // checks cannot go stale between flush and lookup.
  const NodeId src_at = attach_node_[src];
  if (src_at != kInvalidNode && src_at != dst &&
      router_.link_enabled_unchecked(attach_link_[src]) &&
      router_.node_enabled_unchecked(src_at)) {
    key.a = src_at;
    key.prefix = attach_link_[src];
  }
  const NodeId dst_at = attach_node_[dst];
  if (dst_at != kInvalidNode && dst_at != src &&
      router_.link_enabled_unchecked(attach_link_[dst]) &&
      router_.node_enabled_unchecked(dst_at)) {
    key.b = dst_at;
    key.suffix = attach_link_[dst];
  }
  return key;
}

void RouteCache::grow_table() {
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint32_t> old_slots = std::move(slots_);
  keys_.assign(old_keys.size() * 2, kEmptyKey);
  slots_.assign(old_slots.size() * 2, 0);
  occupied_ = 0;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] != kEmptyKey) insert_key(old_keys[i], old_slots[i]);
  }
}

void RouteCache::insert_key(std::uint64_t key, std::uint32_t entry_index) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = key_slot(key, mask);
  while (keys_[slot] != kEmptyKey) slot = (slot + 1) & mask;
  keys_[slot] = key;
  slots_[slot] = entry_index;
  ++occupied_;
}

std::uint32_t RouteCache::lookup(NodeId a, NodeId b) {
  const std::uint64_t key = pair_key(a, b);
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = key_slot(key, mask);
  while (keys_[slot] != kEmptyKey) {
    if (keys_[slot] == key) {
      ++hits_;
      return slots_[slot];
    }
    slot = (slot + 1) & mask;
  }

  // Miss: run the real enumeration straight into the pool.
  ++misses_;
  Entry entry;
  entry.begin = static_cast<std::uint32_t>(pool_.size());
  path_ends_.clear();
  entry.status =
      router_.enumerate_paths(a, b, kMaxEcmpPaths, pool_, path_ends_);
  entry.num_paths = static_cast<std::uint32_t>(path_ends_.size());
  entry.hops = path_ends_.empty()
                   ? 0
                   : static_cast<std::uint32_t>(path_ends_.front() -
                                                entry.begin);
  // ECMP sets are equal-cost, so the pool's fixed stride holds.
  assert(path_ends_.empty() ||
         path_ends_.back() - entry.begin ==
             std::size_t{entry.num_paths} * entry.hops);
  const auto index = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(entry);
  if ((occupied_ + 1) * 4 >= keys_.size() * 3) grow_table();
  insert_key(key, index);
  return index;
}

RouteCache::PathSetView RouteCache::find_paths(NodeId src, NodeId dst) {
  const Graph& graph = router_.graph();
  if (src >= graph.num_nodes() || dst >= graph.num_nodes()) {
    return PathSetView{RouteStatus::kInvalidEndpoint, nullptr, 0, 0,
                       kInvalidLink, kInvalidLink};
  }
  if (src == dst) {
    // One trivial empty path, like Router::find_paths.
    return PathSetView{RouteStatus::kOk, nullptr, 1, 0, kInvalidLink,
                       kInvalidLink};
  }
  flush_if_stale();
  const CanonicalKey key = canonicalize(src, dst);
  const Entry& entry = entries_[lookup(key.a, key.b)];
  return PathSetView{entry.status, pool_.data() + entry.begin,
                     entry.num_paths, entry.hops, key.prefix, key.suffix};
}

std::optional<RouteCache::PathRef> RouteCache::route(NodeId src, NodeId dst,
                                                     std::uint64_t flow_id) {
  const PathSetView view = find_paths(src, dst);
  if (!view.ok() || view.size() == 0) return std::nullopt;
  const std::uint64_t h = ecmp_flow_hash(src, dst, flow_id);
  return view.path(h % view.size());
}

void RouteCache::prefetch(NodeId src, NodeId dst) const {
  const Graph& graph = router_.graph();
  if (src >= graph.num_nodes() || dst >= graph.num_nodes() || src == dst) {
    return;
  }
  const CanonicalKey key = canonicalize(src, dst);
  const std::size_t mask = keys_.size() - 1;
  const std::size_t slot = key_slot(pair_key(key.a, key.b), mask);
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(keys_.data() + slot, 0, 1);
  __builtin_prefetch(slots_.data() + slot, 0, 1);
#else
  (void)slot;
#endif
}

RouteResult RouteCache::find_paths_copy(NodeId src, NodeId dst) {
  const PathSetView view = find_paths(src, dst);
  RouteResult out;
  out.status = view.status();
  out.paths.reserve(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    out.paths.push_back(Path{src, dst, view.path(i).links()});
  }
  return out;
}

template <class Self, class Io>
void RouteCache::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "RouteCache";
  constexpr std::string_view kConfig =
      "snapshot config does not match this cache's config";
  io.open_section("route_cache");
  // The image format carries the fan-out limit and symmetry keying.
  io.echo(kMaxEcmpPaths, kWho, kConfig);
  io.echo(true, kWho, kConfig);
  io.field(self.keys_);
  io.field(self.slots_);
  io.field(self.occupied_);
  const std::size_t keys = self.keys_.size();
  io.check(keys != 0 && (keys & (keys - 1)) == 0 &&
               keys == self.slots_.size() && self.occupied_ <= keys,
           kWho, "corrupt snapshot hash table");
  io.seq(self.entries_, 13, [&io, kWho](auto& e) {
    io.field(e.begin);
    io.field(e.num_paths);
    io.field(e.hops);
    io.enum_u8(e.status, RouteStatus::kDisconnected, kWho,
               "corrupt snapshot route status");
  });
  io.field(self.pool_);
  if constexpr (Io::kReading) {
    const std::size_t pool = self.pool_.size();
    for (const Entry& e : self.entries_) {
      const std::uint64_t span =
          static_cast<std::uint64_t>(e.num_paths) * e.hops;
      io.check(e.begin <= pool && span <= pool - e.begin, kWho,
               "snapshot entry spans past the path pool");
    }
    for (std::size_t i = 0; i < keys; ++i) {
      io.check(self.keys_[i] == kEmptyKey ||
                   self.slots_[i] < self.entries_.size(),
               kWho, "snapshot slot points past the entries");
    }
  }
  io.field(self.epoch_);
  io.field(self.hits_);
  io.field(self.misses_);
  io.field(self.epoch_flushes_);
  io.close_section();
}

void RouteCache::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void RouteCache::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
}

void RouteCache::check_agreement() const {
  if (epoch_ != router_.topology_epoch()) return;  // stale: flushes lazily
  const Graph& graph = router_.graph();
  for (std::size_t slot = 0; slot < keys_.size(); ++slot) {
    if (keys_[slot] == kEmptyKey) continue;
    const auto a = static_cast<NodeId>(keys_[slot] >> 32);
    const auto b = static_cast<NodeId>(keys_[slot] & 0xffffffffu);
    const Entry& e = entries_[slots_[slot]];
    if (e.status != RouteStatus::kOk) continue;
    for (std::uint32_t p = 0; p < e.num_paths; ++p) {
      NodeId at = a;
      for (std::uint32_t h = 0; h < e.hops; ++h) {
        const LinkId l = pool_[e.begin + p * e.hops + h];
        if (l >= graph.num_links()) {
          validation::fail("RouteCache",
                           "cached path references a link outside the graph");
        }
        const Link& link = graph.link(l);
        if (link.a != at && link.b != at) {
          validation::fail("RouteCache",
                           "cached path links do not form a walk");
        }
        if (!router_.link_enabled(l)) {
          validation::fail("RouteCache",
                           "current-epoch cached path crosses a disabled link");
        }
        at = link.other(at);
        if (h + 1 < e.hops && at != b && !router_.node_enabled(at)) {
          validation::fail(
              "RouteCache",
              "current-epoch cached path transits a disabled node");
        }
      }
      if (at != b) {
        validation::fail("RouteCache",
                         "cached path does not reach the canonical endpoint");
      }
    }
  }
}

RouteCacheStats RouteCache::stats() const {
  RouteCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.epoch_flushes = epoch_flushes_;
  s.entries = entries_.size();
  s.pool_bytes = pool_.size() * sizeof(LinkId) +
                 entries_.size() * sizeof(Entry) +
                 keys_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  return s;
}

}  // namespace netpp
