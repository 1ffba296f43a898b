#include "netpp/netsim/sharded.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "netpp/sim/thread_budget.h"
#include "netpp/validation.h"

namespace netpp {

namespace {

constexpr const char* kName = "ShardedFlowSimulator";

/// Verbatim single-shard topology: the global graph copied with identical
/// node and link ids and no gateway. Built directly (not through
/// build_shard_topology) so one-shard operation works on any graph the
/// plain FlowSimulator accepts, partitionable or not.
ShardTopology make_verbatim_topology(const Graph& graph) {
  ShardTopology topo;
  for (const Node& n : graph.nodes()) topo.graph.add_node(n.kind, n.tier, n.name);
  for (const Link& l : graph.links())
    topo.graph.add_link(l.a, l.b, l.capacity, l.optical);
  topo.local_of_global.resize(graph.num_nodes());
  topo.global_of_local.resize(graph.num_nodes());
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    topo.local_of_global[n] = n;
    topo.global_of_local[n] = n;
  }
  topo.local_link_of_global.resize(graph.num_links());
  for (LinkId l = 0; l < graph.num_links(); ++l)
    topo.local_link_of_global[l] = l;
  return topo;
}

/// All-in-one-pod partition for single-shard operation: every node, core
/// included, sits in pod 0, so one-shard runs accept any graph (and any
/// endpoint) the plain FlowSimulator does.
PodPartition make_trivial_partition(const Graph& graph) {
  PodPartition p;
  p.pod_of_node.assign(graph.num_nodes(), 0);
  p.num_pods = 1;
  p.pod_nodes.resize(1);
  p.pod_nodes[0].resize(graph.num_nodes());
  for (NodeId n = 0; n < graph.num_nodes(); ++n) p.pod_nodes[0][n] = n;
  return p;
}

}  // namespace

ShardedFlowSimulator::ShardedFlowSimulator(const Graph& graph, Config config)
    : graph_(graph), config_(std::move(config)) {
  validation::require(config_.num_shards >= 1, kName,
                      "num_shards must be at least 1");
  validation::require(
      std::isfinite(config_.barrier_interval.value()) &&
          config_.barrier_interval.value() > 0.0,
      kName, "barrier_interval must be finite and positive");
  validation::require(config_.shard.telemetry == nullptr, kName,
                      "shard config must not carry a telemetry bundle (each "
                      "shard owns a private registry; see merged_metrics)");
  validation::require(graph_.num_nodes() > 0, kName,
                      "graph must not be empty");

  std::vector<ShardTopology> topologies;
  if (config_.num_shards == 1) {
    // Pod 0 -> shard 0 over a verbatim topology: every global id maps to
    // itself, so the general fault and query paths below reach shard 0 with
    // the caller's own ids.
    partition_ = make_trivial_partition(graph_);
    shard_of_pod_.assign(1, 0);
    topologies.push_back(make_verbatim_topology(graph_));
  } else {
    partition_ = make_pod_partition(graph_);
    shard_of_pod_ =
        assign_pods_contiguous(partition_.num_pods, config_.num_shards);
    topologies.reserve(config_.num_shards);
    for (std::size_t s = 0; s < config_.num_shards; ++s) {
      topologies.push_back(build_shard_topology(
          graph_, partition_, shard_of_pod_, static_cast<int>(s)));
    }
  }

  shards_.reserve(topologies.size());
  for (std::size_t s = 0; s < topologies.size(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->topo = std::move(topologies[s]);
    shard->router = std::make_unique<Router>(shard->topo.graph);
    shard->engine = std::make_unique<SimEngine>();
    telemetry::TelemetryConfig tcfg;
    tcfg.events = false;
    tcfg.sample_period = Seconds{0.0};
    shard->telemetry = std::make_unique<telemetry::Telemetry>(tcfg);
    FlowSimulator::Config scfg = config_.shard;
    scfg.telemetry = shard->telemetry.get();
    shard->sim = std::make_unique<FlowSimulator>(
        shard->topo.graph, *shard->router, *shard->engine, scfg);
    for (std::size_t g = 0; g < shard->topo.gateway_links.size(); ++g) {
      for (const LinkId l : shard->topo.gateway_links[g].global_links) {
        gateway_of_boundary_.emplace(
            l, std::make_pair(static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(g)));
      }
    }
    shards_.push_back(std::move(shard));
  }
}

std::uint32_t ShardedFlowSimulator::shard_of_node(NodeId global) const {
  validation::require(global < graph_.num_nodes(), kName,
                      "flow endpoint must be a node of the graph");
  const int pod = partition_.pod_of_node[global];
  validation::require(pod != PodPartition::kCore, kName,
                      "flow endpoints must be pod-local nodes, not core");
  return static_cast<std::uint32_t>(shard_of_pod_[static_cast<std::size_t>(pod)]);
}

FlowId ShardedFlowSimulator::submit(const FlowSpec& spec) {
  validation::require(spec.start.value() + 1e-15 >= now_.value(), kName,
                      "flow start must not precede the current barrier time");
  FlowEntry entry;
  entry.spec = spec;
  entry.src_shard = shard_of_node(spec.src);
  entry.dst_shard = shard_of_node(spec.dst);
  const std::uint64_t f = flows_.size();
  Shard& src = *shards_[entry.src_shard];
  Shard& dst = *shards_[entry.dst_shard];
  // A same-shard flow runs whole in its shard; a cross flow runs as an
  // ingress half (src -> gateway) and an egress half (gateway -> dst).
  FlowSpec in_src = spec;
  in_src.src = src.topo.local_of_global[spec.src];
  FlowSpec in_dst = spec;
  in_dst.dst = dst.topo.local_of_global[spec.dst];
  if (entry.cross()) {
    in_src.dst = src.topo.gateway;
    in_src.tag = 2 * f + 1;
    in_dst.src = dst.topo.gateway;
    in_dst.tag = 2 * f + 1;
    dst.sim->check_submit(in_dst);
  } else {
    in_src.dst = in_dst.dst;
    in_src.tag = 2 * f;
  }
  // Every check runs before the id is taken: restore_state rebuilds each
  // record from flows_[id - 1], so a rejected submit must leave no gap.
  src.sim->check_submit(in_src);
  entry.id = next_id_++;
  src.sim->submit(in_src);
  if (entry.cross()) {
    ++src.live_cross_halves;
    dst.sim->submit(in_dst);
    ++dst.live_cross_halves;
    entry.pair = static_cast<std::uint32_t>(pairs_.size());
    pairs_.push_back(CrossPair{.dst_shard = entry.dst_shard});
  }
  flows_.push_back(entry);
  return entry.id;
}

void ShardedFlowSimulator::run_until(Seconds until) {
  validation::require(
      std::isfinite(until.value()) && until.value() + 1e-15 >= now_.value(),
      kName, "run_until target must be finite and not precede now");
  const double interval = config_.barrier_interval.value();
  while (now_.value() < until.value()) {
    // Barriers sit on the fixed grid cursor * interval (recomputed by
    // multiplication, never accumulated) plus the caller's boundary, so the
    // window sequence — and with it every cross-shard exchange — is the
    // same no matter how the caller slices its run_until calls.
    const double next_grid =
        static_cast<double>(grid_cursor_ + 1) * interval;
    const bool grid_hit = next_grid <= until.value();
    const Seconds target{grid_hit ? next_grid : until.value()};
    advance_shards(target);
    now_ = target;
    barrier_sync();
    if (barrier_listener_) barrier_listener_(now_);
    if (grid_hit) ++grid_cursor_;
  }
}

void ShardedFlowSimulator::run() {
  const double interval = config_.barrier_interval.value();
  if (shards_.size() == 1) {
    // No cross-shard windows to respect: run the engine dry so now() lands
    // exactly on the last event, as the plain FlowSimulator would.
    shards_[0]->engine->run();
    now_ = shards_[0]->engine->now();
    // Catch the grid up to the first cursor at or past the current one whose
    // next barrier lies after now, as stepping one barrier at a time would,
    // but from floor(now / interval) instead of from the old cursor: the
    // makespan can be a huge number of windows. (c + 1) * interval is
    // monotone in c (exact for c < 2^53), so the test flips once and the two
    // short walks only absorb the division's rounding.
    const double t = now_.value();
    std::uint64_t c = std::max(
        grid_cursor_,
        static_cast<std::uint64_t>(std::min(std::floor(t / interval), 0x1p53)));
    while (c > grid_cursor_ && static_cast<double>(c) * interval > t) --c;
    while (static_cast<double>(c + 1) * interval <= t) ++c;
    grid_cursor_ = c;
    barrier_sync();
    if (barrier_listener_) barrier_listener_(now_);
    return;
  }
  // Draining window by window keeps every barrier on the fixed grid: the
  // barrier sequence stays a pure function of the grid and the caller's
  // explicit run_until boundaries, never of event times, so an interrupted
  // run replays the straight-line run exactly.
  while (std::isfinite(next_event_time())) {
    run_until(Seconds{static_cast<double>(grid_cursor_ + 1) * interval});
  }
}

void ShardedFlowSimulator::advance_shards(Seconds target) {
  // Only a shard with an event at or before the target has work in this
  // window (SimEngine::run_until runs events at exactly `until`); the rest
  // just move their clock. With at most one busy shard there is nothing to
  // overlap, so the window runs on this thread instead of waking helpers.
  std::size_t busy = 0;
  for (const auto& shard : shards_) {
    if (shard->engine->next_event_time() <= target.value()) ++busy;
  }
  // A fresh stamp marks this window's collections. On the 2^32 wrap every
  // old stamp is cleared, so none can collide with a new one.
  if (++barrier_gen_ == 0) {
    for (CrossPair& pair : pairs_) pair.seen_dst = 0;
    barrier_gen_ = 1;
  }
  // Workers claim whole shards; two workers never touch the same shard or
  // the same cross-pair field (see collect_cross_halves), and nothing that
  // acts across shards happens until the serial barrier phase.
  thread_budget::parallel_for(
      shards_.size(), busy > 1 ? config_.num_threads : 1, [&](std::size_t s) {
        shards_[s]->engine->run_until(target);
        collect_cross_halves(s);
      });
}

void ShardedFlowSimulator::collect_cross_halves(std::size_t s) {
  Shard& shard = *shards_[s];
  shard.src_halves.clear();
  shard.minima.reset();
  // The coming drain retires one live half per odd-tag record this window
  // appended. Settle only when halves outlive it: settling a shard with none
  // would split one remaining -= rate * dt step in two and move bits.
  const std::vector<FlowRecord>& records = shard.sim->completed();
  std::size_t live = shard.live_cross_halves;
  for (std::size_t i = shard.completed_cursor; i < records.size(); ++i) {
    live -= records[i].spec.tag & 1;
  }
  if (live == 0) return;
  // A raise only delays its lane, so the settled columns' completion minima
  // stay the rescan's unless a raised lane attained one.
  const soa::CompletionPass minima = shard.sim->settle_and_scan_to_now();
  shard.minima = minima;
  // Every live half ends (ingress) or starts (egress) at the gateway, so it
  // crosses exactly one gateway link, once. Even tags on these links are
  // intra-shard flows between this shard's pods, transiting the gateway.
  const auto owner = static_cast<std::uint32_t>(s);
  const auto visit = [&](std::uint32_t index, std::uint64_t tag,
                         double remaining) {
    if ((tag & 1) == 0) return;
    const FlowEntry& entry = flows_[tag >> 1];
    CrossPair& pair = pairs_[entry.pair];
    assert(index < kAttainsMinimum);
    std::uint32_t lane = index;
    if (shard.sim->attains_completion_minimum(index, minima)) {
      lane |= kAttainsMinimum;
    }
    if (entry.src_shard == owner) {
      pair.lane_src = lane;
      pair.remaining_src = remaining;
      shard.src_halves.push_back(entry.pair);
    } else {
      pair.seen_dst = barrier_gen_;
      pair.lane_dst = lane;
      pair.remaining_dst = remaining;
    }
  };
  for (const ShardTopology::GatewayLink& gl : shard.topo.gateway_links) {
    shard.sim->for_each_flow_on(DirectedLink{gl.local_link, 0}, visit);
    shard.sim->for_each_flow_on(DirectedLink{gl.local_link, 1}, visit);
  }
}

void ShardedFlowSimulator::barrier_sync() {
  drain_completions();
  reconcile_cross_flows();
}

void ShardedFlowSimulator::drain_completions() {
  // Every completion is drained at the first barrier at or after its finish
  // time, but callers may add extra barriers anywhere by splitting their
  // run_until windows, which changes how completions batch per barrier. The
  // drain therefore collects first and applies in (finish time, flow id)
  // order: batches partition completions into time intervals, so sorted
  // batches concatenate to the same global sequence no matter where the
  // windows were cut, keeping completed_ — and the FctAccumulator's fold
  // order — a pure function of the flow dynamics.
  struct Pending {
    std::size_t flow;
    double finished;
  };
  std::vector<Pending> ready;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const auto& records = shard.sim->completed();
    for (std::size_t i = shard.completed_cursor; i < records.size(); ++i) {
      const FlowRecord& rec = records[i];
      const std::size_t flow = rec.spec.tag >> 1;
      FlowEntry& entry = flows_[flow];
      if ((rec.spec.tag & 1) == 0) {
        ready.push_back({flow, rec.finished.value()});
        continue;
      }
      if (static_cast<std::uint32_t>(s) == entry.src_shard) {
        entry.finished_src = rec.finished.value();
      } else {
        entry.finished_dst = rec.finished.value();
      }
      --shard.live_cross_halves;
      if (entry.finished_src >= 0.0 && entry.finished_dst >= 0.0) {
        ready.push_back(
            {flow, std::max(entry.finished_src, entry.finished_dst)});
      }
    }
    shard.completed_cursor = records.size();
  }
  if (shards_.size() > 1) {
    // A lone shard's records are already in the host sim's event order;
    // re-sorting same-time ties there would break bit-identity with the
    // plain FlowSimulator.
    std::sort(ready.begin(), ready.end(),
              [this](const Pending& a, const Pending& b) {
                if (a.finished != b.finished) return a.finished < b.finished;
                return flows_[a.flow].id < flows_[b.flow].id;
              });
  }
  for (const Pending& p : ready) complete_entry(flows_[p.flow], p.finished);
}

void ShardedFlowSimulator::complete_entry(FlowEntry& entry, double finished) {
  entry.completed = true;
  FlowRecord record;
  record.id = entry.id;
  record.spec = entry.spec;
  record.finished = Seconds{finished};
  fct_.add(record.fct().value());
  completed_.push_back(record);
}

void ShardedFlowSimulator::reconcile_cross_flows() {
  // Raise the faster half of every live pair to the slower half's remaining
  // volume: the end-to-end rate is min(halves) at window granularity. A
  // pair is live when both shards collected their half this window; halves
  // whose partner is pending, stranded, or already finished run
  // unconstrained. Raises leave rates untouched, so per-link feasibility is
  // preserved; each raised shard re-derives its completion event once at
  // the end.
  //
  // Visiting order cannot matter: each raise writes one (shard, lane), each
  // lane belongs to exactly one pair, and the raised value comes from the
  // remaining volumes fixed at collection, which no raise changes. So the
  // raises commute, and each raised shard's one reschedule sees the same
  // columns whatever order the pairs were visited in.
  const auto raise = [](Shard& shard, std::uint32_t lane, double bits) {
    shard.sim->raise_remaining_bits(lane & ~kAttainsMinimum, bits);
    shard.raised = true;
    if ((lane & kAttainsMinimum) != 0) shard.minima.reset();
  };
  for (const auto& shard : shards_) {
    for (const std::uint32_t p : shard->src_halves) {
      const CrossPair& pair = pairs_[p];
      if (pair.seen_dst != barrier_gen_) continue;
      const double r = std::max(pair.remaining_src, pair.remaining_dst);
      if (pair.remaining_src < r) {
        raise(*shard, pair.lane_src, r);
      } else if (pair.remaining_dst < r) {
        raise(*shards_[pair.dst_shard], pair.lane_dst, r);
      }
    }
  }
  // A raised shard whose raises all missed its minima keeps them (a raise
  // only delays its lane); one that raised an attaining lane rescans. Both
  // schedule the same event at the same sequence number.
  for (const auto& shard : shards_) {
    if (!shard->raised) continue;
    if (shard->minima) {
      shard->sim->reschedule_completion(*shard->minima);
    } else {
      shard->sim->reschedule_completion();
    }
    shard->raised = false;
  }
}

// --- Faults ---

void ShardedFlowSimulator::set_node_enabled(NodeId id, bool enabled) {
  validation::require(id < graph_.num_nodes(), kName,
                      "node id out of range");
  const int pod = partition_.pod_of_node[id];
  if (pod == PodPartition::kCore) {
    core_enabled_[id] = enabled;
    for (const Adjacency& adj : graph_.neighbors(id)) {
      refresh_agg_of_boundary_link(adj.link);
    }
    return;
  }
  Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  shard.sim->set_node_enabled(shard.topo.local_of_global[id], enabled);
}

void ShardedFlowSimulator::set_link_enabled(LinkId id, bool enabled) {
  validation::require(id < graph_.num_links(), kName,
                      "link id out of range");
  const auto boundary = gateway_of_boundary_.find(id);
  if (boundary != gateway_of_boundary_.end()) {
    boundary_state_[id].enabled = enabled;
    refresh_gateway_link(boundary->second.first, boundary->second.second);
    return;
  }
  const int pod = partition_.pod_of_node[graph_.link(id).a];
  Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  shard.sim->set_link_enabled(shard.topo.local_link_of_global[id], enabled);
}

void ShardedFlowSimulator::set_link_capacity_factor(LinkId id, double factor) {
  validation::require(id < graph_.num_links(), kName,
                      "link id out of range");
  validation::require(std::isfinite(factor) && factor > 0.0 && factor <= 1.0,
                      kName, "capacity factor must be in (0, 1]");
  const auto boundary = gateway_of_boundary_.find(id);
  if (boundary != gateway_of_boundary_.end()) {
    boundary_state_[id].factor = factor;
    refresh_gateway_link(boundary->second.first, boundary->second.second);
    return;
  }
  const int pod = partition_.pod_of_node[graph_.link(id).a];
  Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  shard.sim->set_link_capacity_factor(shard.topo.local_link_of_global[id],
                                      factor);
}

bool ShardedFlowSimulator::node_enabled(NodeId id) const {
  validation::require(id < graph_.num_nodes(), kName, "node id out of range");
  const int pod = partition_.pod_of_node[id];
  if (pod == PodPartition::kCore) {
    const auto it = core_enabled_.find(id);
    return it == core_enabled_.end() || it->second;
  }
  const Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  return shard.sim->router().node_enabled(shard.topo.local_of_global[id]);
}

bool ShardedFlowSimulator::link_enabled(LinkId id) const {
  validation::require(id < graph_.num_links(), kName, "link id out of range");
  const auto boundary = boundary_state_.find(id);
  if (boundary != boundary_state_.end()) return boundary->second.enabled;
  if (gateway_of_boundary_.count(id) != 0) return true;  // untouched boundary
  const int pod = partition_.pod_of_node[graph_.link(id).a];
  const Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  return shard.sim->router().link_enabled(shard.topo.local_link_of_global[id]);
}

double ShardedFlowSimulator::link_capacity_factor(LinkId id) const {
  validation::require(id < graph_.num_links(), kName, "link id out of range");
  const auto boundary = boundary_state_.find(id);
  if (boundary != boundary_state_.end()) return boundary->second.factor;
  if (gateway_of_boundary_.count(id) != 0) return 1.0;  // untouched boundary
  const int pod = partition_.pod_of_node[graph_.link(id).a];
  const Shard& shard = *shards_[static_cast<std::size_t>(shard_of_pod_[pod])];
  return shard.sim->link_capacity_factor(shard.topo.local_link_of_global[id]);
}

void ShardedFlowSimulator::refresh_agg_of_boundary_link(LinkId global_link) {
  const auto it = gateway_of_boundary_.find(global_link);
  if (it == gateway_of_boundary_.end()) return;
  refresh_gateway_link(it->second.first, it->second.second);
}

void ShardedFlowSimulator::refresh_gateway_link(std::size_t shard,
                                                std::size_t gl_index) {
  Shard& s = *shards_[shard];
  const ShardTopology::GatewayLink& gl = s.topo.gateway_links[gl_index];
  double effective = 0.0;
  for (const LinkId l : gl.global_links) {
    const Link& link = graph_.link(l);
    const NodeId core = partition_.is_core(link.a) ? link.a : link.b;
    const auto ce = core_enabled_.find(core);
    if (ce != core_enabled_.end() && !ce->second) continue;
    const auto bs = boundary_state_.find(l);
    if (bs != boundary_state_.end()) {
      if (!bs->second.enabled) continue;
      effective += link.capacity.bits_per_second() * bs->second.factor;
    } else {
      effective += link.capacity.bits_per_second();
    }
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(shard) << 32) | gl_index;
  const bool was_disabled = gateway_link_disabled_.count(key) != 0;
  if (effective <= 0.0) {
    if (!was_disabled) {
      s.sim->set_link_enabled(gl.local_link, false);
      gateway_link_disabled_.emplace(key, true);
    }
    return;
  }
  const double factor = effective / gl.total_capacity_bps;
  s.sim->set_link_capacity_factor(gl.local_link, factor);
  if (was_disabled) {
    s.sim->set_link_enabled(gl.local_link, true);
    gateway_link_disabled_.erase(key);
  }
}

// --- Results ---

std::size_t ShardedFlowSimulator::active_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->sim->active_flows();
  return total;
}

std::size_t ShardedFlowSimulator::stranded_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->sim->stranded_flows();
  return total;
}

std::size_t ShardedFlowSimulator::unroutable_flows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->sim->unroutable_flows();
  return total;
}

FlowSimulator::ReallocStats ShardedFlowSimulator::realloc_stats() const {
  FlowSimulator::ReallocStats total;
  for (const auto& shard : shards_) {
    const FlowSimulator::ReallocStats& s = shard->sim->realloc_stats();
    total.full_solves += s.full_solves;
    total.fast_arrivals += s.fast_arrivals;
    total.fast_departures += s.fast_departures;
    total.binding_solves += s.binding_solves;
    total.binding_subset_flows += s.binding_subset_flows;
    total.topology_changes += s.topology_changes;
    total.reroutes += s.reroutes;
    total.stranded += s.stranded;
    total.resumed += s.resumed;
    total.route_cache.hits += s.route_cache.hits;
    total.route_cache.misses += s.route_cache.misses;
    total.route_cache.epoch_flushes += s.route_cache.epoch_flushes;
    total.route_cache.entries += s.route_cache.entries;
    total.route_cache.pool_bytes += s.route_cache.pool_bytes;
  }
  return total;
}

double ShardedFlowSimulator::stranded_bit_seconds(Seconds now) const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard->sim->stranded_bit_seconds(now);
  }
  return total;
}

std::vector<double> ShardedFlowSimulator::strand_durations() const {
  std::vector<double> all;
  for (const auto& shard : shards_) {
    const std::vector<double>& d = shard->sim->strand_durations();
    all.insert(all.end(), d.begin(), d.end());
  }
  return all;
}

double ShardedFlowSimulator::current_mean_utilization() const {
  FlowSimulator::UtilizationTotals total;
  for (const auto& shard : shards_) {
    const FlowSimulator::UtilizationTotals t =
        shard->sim->utilization_totals();
    total.carried_bps += t.carried_bps;
    total.capacity_bps += t.capacity_bps;
  }
  return total.capacity_bps > 0.0 ? total.carried_bps / total.capacity_bps
                                  : 0.0;
}

double ShardedFlowSimulator::next_event_time() {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    next = std::min(next, shard->engine->next_event_time());
  }
  return next;
}

std::vector<telemetry::MetricSample> ShardedFlowSimulator::merged_metrics()
    const {
  std::vector<telemetry::MetricSample> merged;
  std::unordered_map<std::string, std::size_t> index;
  for (const auto& shard : shards_) {
    shard->sim->flush_metrics();
    for (telemetry::MetricSample& sample :
         shard->telemetry->metrics().snapshot()) {
      const auto it = index.find(sample.name);
      if (it == index.end()) {
        index.emplace(sample.name, merged.size());
        merged.push_back(std::move(sample));
        continue;
      }
      telemetry::MetricSample& into = merged[it->second];
      validation::require(into.kind == sample.kind, kName,
                          "merged metric kinds must agree across shards");
      into.value += sample.value;
      into.count += sample.count;
      if (sample.count > 0) {
        if (into.count == sample.count || sample.min < into.min)
          into.min = sample.min;
        if (into.count == sample.count || sample.max > into.max)
          into.max = sample.max;
      }
      if (!sample.buckets.empty()) {
        validation::require(into.bounds == sample.bounds, kName,
                            "merged histogram bounds must agree across shards");
        for (std::size_t b = 0; b < sample.buckets.size(); ++b)
          into.buckets[b] += sample.buckets[b];
      }
    }
  }
  // Counters accumulate exactly in the integer `count`; the double `value`
  // must mirror it rather than a shard-order-dependent double sum. Name
  // order (not shard-0 registration order) keeps the export byte-stable
  // across shard counts.
  for (telemetry::MetricSample& sample : merged) {
    if (sample.kind == telemetry::MetricKind::kCounter) {
      sample.value = static_cast<double>(sample.count);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const telemetry::MetricSample& a,
               const telemetry::MetricSample& b) { return a.name < b.name; });
  return merged;
}

// --- Snapshot / restore ---

template <class Self, class Io>
void ShardedFlowSimulator::transfer(Self& self, Io& io) {
  const Config& config = self.config_;
  io.open_section("sharded");
  // Config echo: restore targets must be built identically.
  io.echo(config.num_shards, kName, "restored num_shards must match");
  io.echo(config.barrier_interval, kName,
          "restored barrier_interval must match");
  io.echo(config.shard.max_ecmp_paths, kName,
          "restored max_ecmp_paths must match");
  io.echo(config.shard.flow_rate_cap.value(), kName,
          "restored flow_rate_cap must match");
  io.echo(config.shard.use_route_cache, kName,
          "restored use_route_cache must match");
  io.echo(config.shard.incremental_reallocation, kName,
          "restored incremental_reallocation must match");
  io.echo(config.shard.strand_unroutable, kName,
          "restored strand_unroutable must match");

  io.field(self.now_);
  io.field(self.grid_cursor_);
  io.field(self.next_id_);
  io.field(self.fct_);

  io.seq(self.flows_, 33 + kFlowSpecBytes, [&io](auto& e) {
    transfer_spec(io, e.spec);
    io.field(e.id);
    io.field(e.src_shard);
    io.field(e.dst_shard);
    io.field(e.finished_src);
    io.field(e.finished_dst);
    io.field(e.completed);
  });
  if constexpr (Io::kReading) {
    // The cross-pair table is derived: one entry per cross flow, in order.
    self.pairs_.clear();
    for (FlowEntry& e : self.flows_) {
      if (!e.cross()) continue;
      e.pair = static_cast<std::uint32_t>(self.pairs_.size());
      self.pairs_.push_back(CrossPair{.dst_shard = e.dst_shard});
    }
  }
  // Records rebuild their specs from the flow table: driver ids are
  // assigned sequentially from 1, so id - 1 indexes flows_.
  io.seq(self.completed_, 16, [&self, &io](auto& rec) {
    io.field(rec.id);
    io.check(rec.id >= 1 && rec.id <= self.flows_.size(), kName,
             "restored completion references an unknown flow");
    if constexpr (Io::kReading) rec.spec = self.flows_[rec.id - 1].spec;
    io.field(rec.finished);
  });

  // Fault state, sorted by id for a canonical image.
  const auto fault_map = [&io](auto& map, std::size_t entry_bytes,
                               auto&& entry) {
    using Map = std::remove_cvref_t<decltype(map)>;
    std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
        entries;
    if constexpr (!Io::kReading) {
      entries.assign(map.begin(), map.end());
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    io.seq(entries, entry_bytes, entry);
    if constexpr (Io::kReading) map = Map(entries.begin(), entries.end());
  };
  fault_map(self.boundary_state_, 13, [&io](auto& e) {
    io.field(e.first);
    io.field(e.second.enabled);
    io.field(e.second.factor);
  });
  fault_map(self.core_enabled_, 5, [&io](auto& e) {
    io.field(e.first);
    io.field(e.second);
  });
  std::vector<std::uint64_t> disabled;
  if constexpr (!Io::kReading) {
    disabled.reserve(self.gateway_link_disabled_.size());
    for (const auto& entry : self.gateway_link_disabled_) {
      disabled.push_back(entry.first);
    }
    std::sort(disabled.begin(), disabled.end());
  }
  io.field(disabled);
  if constexpr (Io::kReading) {
    self.gateway_link_disabled_.clear();
    for (const std::uint64_t key : disabled) {
      self.gateway_link_disabled_.emplace(key, true);
    }
  }

  struct Clock {
    Seconds now;
    std::uint64_t seq = 0;
  };
  std::vector<Clock> clocks(self.shards_.size());
  for (std::size_t s = 0; s < self.shards_.size(); ++s) {
    Shard& shard = *self.shards_[s];
    io.field(shard.completed_cursor);
    io.field(shard.live_cross_halves);
    if constexpr (!Io::kReading) {
      clocks[s] = Clock{shard.engine->now(), shard.engine->next_seq()};
    }
    io.field(clocks[s].now);
    io.field(clocks[s].seq);
  }
  io.close_section();

  if constexpr (Io::kReading) self.barrier_gen_ = 0;
  for (std::size_t s = 0; s < self.shards_.size(); ++s) {
    Shard& shard = *self.shards_[s];
    if constexpr (Io::kReading) {
      shard.engine->restore_clock(clocks[s].now, clocks[s].seq);
    }
    io.field(*shard.sim);
    // Attached shard sims keep their counters (realloc stats, solver
    // stats) in the shard's private registry, which the attached-sim
    // snapshot skips — the orchestrator owns it, so serialize it here.
    if constexpr (!Io::kReading) shard.sim->flush_metrics();
    io.field(shard.telemetry->metrics());
  }
}

void ShardedFlowSimulator::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void ShardedFlowSimulator::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
  check_invariants();
}

void ShardedFlowSimulator::check_invariants() const {
  for (const auto& shard : shards_) shard->sim->check_invariants();
  validation::require(completed_.size() <= flows_.size(), kName,
                      "completed count must not exceed submissions");
  validation::require(fct_.count() == completed_.size(), kName,
                      "fct stats must count exactly the completed flows");
  std::vector<std::size_t> live(shards_.size(), 0);
  std::size_t done = 0;
  std::size_t cross = 0;
  for (const FlowEntry& e : flows_) {
    if (e.completed) ++done;
    if (!e.cross()) continue;
    validation::require(e.pair == cross++ && e.pair < pairs_.size() &&
                            pairs_[e.pair].dst_shard == e.dst_shard,
                        kName,
                        "cross flows own the cross-pair entries in order");
    validation::require(e.completed == (e.finished_src >= 0.0 &&
                                        e.finished_dst >= 0.0),
                        kName,
                        "a cross flow completes exactly when both halves do");
    if (e.finished_src < 0.0) ++live[e.src_shard];
    if (e.finished_dst < 0.0) ++live[e.dst_shard];
  }
  validation::require(done == completed_.size(), kName,
                      "completed flags must agree with the record list");
  validation::require(cross == pairs_.size(), kName,
                      "the cross-pair table holds one entry per cross flow");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    validation::require(live[s] == shards_[s]->live_cross_halves, kName,
                        "live cross-half counters must match the flow table");
    validation::require(
        shards_[s]->completed_cursor == shards_[s]->sim->completed().size(),
        kName, "barrier cursors must be fully drained at a barrier");
  }
}

}  // namespace netpp
