#include "netpp/topo/routing.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace netpp {

namespace {
constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
}  // namespace

std::vector<NodeId> Path::nodes(const Graph& g) const {
  std::vector<NodeId> out;
  out.reserve(links.size() + 1);
  out.push_back(src);
  NodeId at = src;
  for (LinkId lid : links) {
    at = g.link(lid).other(at);
    out.push_back(at);
  }
  return out;
}

Router::Router(const Graph& graph)
    : graph_(graph),
      node_enabled_(graph.num_nodes(), 1),
      link_enabled_(graph.num_links(), 1) {}

void Router::set_node_enabled(NodeId id, bool enabled) {
  auto& slot = node_enabled_.at(id);
  const std::uint8_t value = enabled ? 1 : 0;
  if (slot == value) return;
  slot = value;
  ++epoch_;
}

void Router::set_link_enabled(LinkId id, bool enabled) {
  auto& slot = link_enabled_.at(id);
  const std::uint8_t value = enabled ? 1 : 0;
  if (slot == value) return;
  slot = value;
  ++epoch_;
}

bool Router::bfs(NodeId src, NodeId dst, bool stop_at_dst) const {
  dist_.assign(graph_.num_nodes(), kInf);
  queue_.clear();
  dist_[src] = 0;
  queue_.push_back(src);
  std::size_t head = 0;
  std::uint32_t best = kInf;  // dist of dst once labeled
  while (head < queue_.size()) {
    const NodeId at = queue_[head++];
    // BFS pops in nondecreasing distance order; once the frontier reaches
    // dst's level, every node that could sit on a shortest path (distance
    // < best) is already fully labeled.
    if (dist_[at] >= best) break;
    if (at == dst) continue;  // no need to expand beyond the target
    for (const auto& adj : graph_.neighbors(at)) {
      if (!link_enabled_[adj.link]) continue;
      const NodeId next = adj.neighbor;
      if (next != dst && !node_enabled_[next]) continue;
      if (dist_[next] != kInf) continue;
      dist_[next] = dist_[at] + 1;
      if (next == dst) {
        best = dist_[next];
        if (stop_at_dst) return true;
      }
      queue_.push_back(next);
    }
  }
  return dist_[dst] != kInf;
}

std::optional<Path> Router::shortest_path(NodeId src, NodeId dst) const {
  if (src >= graph_.num_nodes() || dst >= graph_.num_nodes()) {
    throw std::out_of_range("routing endpoint does not exist");
  }
  if (src == dst) return Path{src, dst, {}};
  if (!bfs(src, dst, /*stop_at_dst=*/true)) return std::nullopt;

  // Greedy walkback from dst: at each node take the first neighbor (in
  // adjacency order) one level closer to src — exactly the first path the
  // shortest-path-DAG DFS would emit, without the DAG bookkeeping.
  Path path{src, dst, {}};
  path.links.reserve(dist_[dst]);
  NodeId at = dst;
  while (at != src) {
    for (const auto& adj : graph_.neighbors(at)) {
      if (!link_enabled_[adj.link]) continue;
      const NodeId prev = adj.neighbor;
      if (prev != src && !node_enabled_[prev]) continue;
      if (dist_[prev] == kInf || dist_[prev] + 1 != dist_[at]) continue;
      path.links.push_back(adj.link);
      at = prev;
      break;
    }
  }
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

std::vector<Path> Router::ecmp_paths(NodeId src, NodeId dst,
                                     std::size_t max_paths) const {
  auto result = find_paths(src, dst, max_paths);
  if (result.status == RouteStatus::kInvalidEndpoint) {
    throw std::out_of_range("routing endpoint does not exist");
  }
  return std::move(result.paths);
}

RouteResult Router::find_paths(NodeId src, NodeId dst,
                               std::size_t max_paths) const {
  path_links_.clear();
  path_ends_.clear();
  RouteResult result;
  result.status =
      enumerate_paths(src, dst, max_paths, path_links_, path_ends_);
  result.paths.reserve(path_ends_.size());
  std::size_t begin = 0;
  for (const std::size_t end : path_ends_) {
    result.paths.push_back(Path{
        src, dst,
        {path_links_.begin() + static_cast<std::ptrdiff_t>(begin),
         path_links_.begin() + static_cast<std::ptrdiff_t>(end)}});
    begin = end;
  }
  return result;
}

RouteStatus Router::enumerate_paths(NodeId src, NodeId dst,
                                    std::size_t max_paths,
                                    std::vector<LinkId>& links,
                                    std::vector<std::size_t>& ends) const {
  if (src >= graph_.num_nodes() || dst >= graph_.num_nodes()) {
    return RouteStatus::kInvalidEndpoint;
  }
  if (src == dst) {
    ends.push_back(links.size());
    return RouteStatus::kOk;
  }
  if (max_paths == 0) return RouteStatus::kOk;

  // BFS from src recording hop distances; transit through disabled nodes or
  // links is forbidden, but src/dst themselves are always usable.
  if (!bfs(src, dst, /*stop_at_dst=*/false)) return RouteStatus::kDisconnected;

  // Enumerate shortest paths by DFS along strictly-decreasing distances
  // from dst back to src; deterministic by adjacency order.
  const std::size_t first = ends.size();
  const auto found = [&] { return ends.size() - first; };
  stack_.clear();
  // Depth-first from dst towards src over predecessors.
  auto dfs = [&](auto&& self, NodeId at) -> void {
    if (found() >= max_paths) return;
    if (at == src) {
      links.insert(links.end(), stack_.rbegin(), stack_.rend());
      ends.push_back(links.size());
      return;
    }
    for (const auto& adj : graph_.neighbors(at)) {
      if (!link_enabled_[adj.link]) continue;
      const NodeId prev = adj.neighbor;
      if (prev != src && !node_enabled_[prev]) continue;
      if (dist_[prev] == kInf || dist_[prev] + 1 != dist_[at]) continue;
      stack_.push_back(adj.link);
      self(self, prev);
      stack_.pop_back();
      if (found() >= max_paths) return;
    }
  };
  dfs(dfs, dst);
  return RouteStatus::kOk;
}

bool Router::connected(NodeId src, NodeId dst) const {
  if (src >= graph_.num_nodes() || dst >= graph_.num_nodes()) return false;
  if (src == dst) return true;
  return bfs(src, dst, /*stop_at_dst=*/true);
}

std::optional<Path> Router::ecmp_route(NodeId src, NodeId dst,
                                       std::uint64_t flow_id,
                                       std::size_t max_paths) const {
  auto paths = ecmp_paths(src, dst, max_paths);
  if (paths.empty()) return std::nullopt;
  const std::uint64_t h = ecmp_flow_hash(src, dst, flow_id);
  return std::move(paths[h % paths.size()]);
}

}  // namespace netpp
