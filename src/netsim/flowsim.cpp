#include "netpp/netsim/flowsim.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

namespace {
constexpr double kEpsBits = 1.0;  // flows within 1 bit of done are done
// A link counts as strictly unsaturated only below this fraction of its
// capacity; the margin absorbs the tiny float drift the incremental
// carried-rate bookkeeping can accumulate between full solves.
constexpr double kUnsaturatedFraction = 1.0 - 1e-9;
}  // namespace

void FlowSimulator::LinkFlowPool::repack() {
  // Rewrite every block front to back with ~50% headroom, dropping the dead
  // space abandoned by earlier relocations. Arena size lands near 1.5x the
  // live membership, so the next repack is at least ~0.5*live pushes away:
  // amortized O(1) per push.
  std::size_t total = 0;
  for (Block& b : blocks_) {
    b.cap = b.count == 0 ? 0 : b.count + (b.count >> 1) + 2;
    total += b.cap;
  }
  soa::AlignedVec<std::uint32_t> new_flow;
  soa::AlignedVec<std::uint32_t> new_slot;
  new_flow.resize(total);  // uninitialized; every live run is copied below
  new_slot.resize(total);
  std::uint32_t at = 0;
  for (Block& b : blocks_) {
    if (b.count != 0) {
      std::memcpy(new_flow.data() + at, flow_of_.data() + b.begin,
                  b.count * sizeof(std::uint32_t));
      std::memcpy(new_slot.data() + at, slot_of_.data() + b.begin,
                  b.count * sizeof(std::uint32_t));
    }
    b.begin = at;
    at += b.cap;
  }
  flow_of_ = std::move(new_flow);
  slot_of_ = std::move(new_slot);
}

void FlowSimulator::LinkFlowPool::grow_block(std::size_t r) {
  if (flow_of_.size() > live_ * 2 + 4096) {
    repack();
    if (blocks_[r].count < blocks_[r].cap) return;
  }
  const std::uint32_t new_cap = blocks_[r].cap == 0 ? 4 : blocks_[r].cap * 2;
  const auto new_begin = static_cast<std::uint32_t>(flow_of_.size());
  // AlignedVec preserves contents across growth, so the old block can be
  // copied from within the (possibly reallocated) arena afterwards.
  flow_of_.resize(flow_of_.size() + new_cap);
  slot_of_.resize(slot_of_.size() + new_cap);
  Block& b = blocks_[r];
  if (b.count != 0) {
    std::memcpy(flow_of_.data() + new_begin, flow_of_.data() + b.begin,
                b.count * sizeof(std::uint32_t));
    std::memcpy(slot_of_.data() + new_begin, slot_of_.data() + b.begin,
                b.count * sizeof(std::uint32_t));
  }
  b.begin = new_begin;
  b.cap = new_cap;
}

FlowSimulator::FlowSimulator(const Graph& graph, Router& router,
                             SimEngine& engine, Config config)
    : graph_(graph),
      router_(router),
      engine_(engine),
      config_(config),
      route_cache_(router, RouteCache::Config{config.max_ecmp_paths, true}) {
  validate_config();
  directed_capacity_bps_.reserve(graph.num_links() * 2);
  directed_rate_bps_.reserve(graph.num_links() * 2);
  for (const auto& link : graph.links()) {
    for (int dir = 0; dir < 2; ++dir) {
      directed_capacity_bps_.push_back(link.capacity.bits_per_second());
      directed_rate_bps_.emplace_back(0.0, engine.now());
    }
  }
  carried_bps_.assign(directed_capacity_bps_.size(), 0.0);
  link_factor_.assign(graph.num_links(), 1.0);
  if (config_.telemetry != nullptr) {
    init_instruments(config_.telemetry->metrics());
    events_ = &config_.telemetry->events();
  } else {
    // Detached: the counters still need slots (realloc_stats() reads them
    // back), so park them in a simulator-private registry.
    local_metrics_ = std::make_unique<telemetry::MetricRegistry>();
    init_instruments(*local_metrics_);
  }
}

FlowSimulator::FlowSimulator(const Graph& graph, Router& router,
                             SimEngine& engine)
    : FlowSimulator(graph, router, engine, Config{}) {}

void FlowSimulator::validate_config() const {
  validation::require(config_.max_ecmp_paths >= 1, "FlowSimulator::Config",
                      "max_ecmp_paths must be at least 1");
  const double cap = config_.flow_rate_cap.value();
  validation::require(std::isfinite(cap) && cap >= 0.0,
                      "FlowSimulator::Config",
                      "flow_rate_cap must be finite and non-negative "
                      "(0 disables the cap)");
  // The Graph constructor rejects non-positive capacities, but a simulator
  // over a zero-capacity link would divide by zero in the share seeding;
  // keep the guard local too.
  for (const auto& link : graph_.links()) {
    validation::require(std::isfinite(link.capacity.value()) &&
                            link.capacity.value() > 0.0,
                        "FlowSimulator::Config",
                        "every link capacity must be finite and positive");
  }
}

FlowSimulator::~FlowSimulator() { flush_metrics(); }

void FlowSimulator::init_instruments(telemetry::MetricRegistry& registry) {
  inst_.full_solves = registry.counter("netsim.realloc.full_solves", "solves",
                                       "reallocations that ran the solver");
  inst_.fast_arrivals =
      registry.counter("netsim.realloc.fast_arrivals", "events",
                       "arrivals admitted at cap without a re-solve");
  inst_.fast_departures =
      registry.counter("netsim.realloc.fast_departures", "events",
                       "departures absorbed without a re-solve");
  inst_.binding_solves =
      registry.counter("netsim.realloc.binding_solves", "solves",
                       "reallocations resolved on the binding subset");
  inst_.binding_subset_flows =
      registry.counter("netsim.realloc.binding_subset_flows", "flows",
                       "total flows handed to the solver by binding solves");
  inst_.topology_changes =
      registry.counter("netsim.realloc.topology_changes", "events",
                       "node/link enable, disable, and degrade events");
  inst_.reroutes = registry.counter("netsim.realloc.reroutes", "flows",
                                    "flows moved to a surviving path");
  inst_.stranded = registry.counter("netsim.realloc.stranded", "flows",
                                    "flows parked with no surviving path");
  inst_.resumed = registry.counter("netsim.realloc.resumed", "flows",
                                   "stranded flows re-admitted");
  inst_.cache_hits =
      registry.counter("netsim.route_cache.hits", "lookups",
                       "route lookups served from the cache");
  inst_.cache_misses = registry.counter("netsim.route_cache.misses", "lookups",
                                        "route lookups that ran the BFS");
  inst_.cache_epoch_flushes =
      registry.counter("netsim.route_cache.epoch_flushes", "flushes",
                       "whole-cache drops on topology epoch change");
  inst_.solver_solves = registry.counter("netsim.solver.solves", "solves",
                                         "max-min solver invocations");
  inst_.solver_flows =
      registry.counter("netsim.solver.flows_solved", "flows",
                       "total flows across solver invocations");
  inst_.active_flows = registry.gauge("netsim.active_flows", "flows",
                                      "flows currently in flight");
  inst_.completed_flows =
      registry.gauge("netsim.completed_flows", "flows", "flows finished");
  inst_.stranded_flows = registry.gauge("netsim.stranded_flows", "flows",
                                        "flows parked without a path");
  inst_.unroutable_flows =
      registry.gauge("netsim.unroutable_flows", "flows",
                     "flows dropped as permanently unroutable");
  inst_.cache_entries = registry.gauge("netsim.route_cache.entries", "paths",
                                       "resident route-cache entries");
  inst_.cache_pool_bytes = registry.gauge("netsim.route_cache.pool_bytes",
                                          "bytes", "resident cache bytes");
  inst_.fct = registry.histogram(
      "netsim.fct_seconds",
      {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0},
      "seconds", "flow completion times");
}

void FlowSimulator::update_flow_gauges() {
  inst_.active_flows.set(static_cast<double>(active_.size()));
  inst_.completed_flows.set(static_cast<double>(completed_.size()));
  inst_.stranded_flows.set(static_cast<double>(stranded_.size()));
}

void FlowSimulator::flush_metrics() {
  const RouteCacheStats cache = route_cache_.stats();
  inst_.cache_hits.set(cache.hits);
  inst_.cache_misses.set(cache.misses);
  inst_.cache_epoch_flushes.set(cache.epoch_flushes);
  inst_.cache_entries.set(static_cast<double>(cache.entries));
  inst_.cache_pool_bytes.set(static_cast<double>(cache.pool_bytes));
  inst_.solver_solves.set(solver_.stats().solves);
  inst_.solver_flows.set(solver_.stats().flows_solved);
  inst_.unroutable_flows.set(static_cast<double>(unroutable_));
  update_flow_gauges();
}

const FlowSimulator::ReallocStats& FlowSimulator::realloc_stats() const {
  realloc_stats_.full_solves = inst_.full_solves.value();
  realloc_stats_.fast_arrivals = inst_.fast_arrivals.value();
  realloc_stats_.fast_departures = inst_.fast_departures.value();
  realloc_stats_.binding_solves = inst_.binding_solves.value();
  realloc_stats_.binding_subset_flows = inst_.binding_subset_flows.value();
  realloc_stats_.topology_changes = inst_.topology_changes.value();
  realloc_stats_.reroutes = inst_.reroutes.value();
  realloc_stats_.stranded = inst_.stranded.value();
  realloc_stats_.resumed = inst_.resumed.value();
  realloc_stats_.route_cache = route_cache_.stats();
  return realloc_stats_;
}

double FlowSimulator::current_mean_utilization() const {
  const UtilizationTotals t = utilization_totals();
  return t.capacity_bps > 0.0 ? t.carried_bps / t.capacity_bps : 0.0;
}

FlowSimulator::UtilizationTotals FlowSimulator::utilization_totals() const {
  UtilizationTotals t;
  for (std::size_t r = 0; r < directed_capacity_bps_.size(); ++r) {
    t.carried_bps += carried_bps_[r];
    t.capacity_bps += directed_capacity_bps_[r];
  }
  return t;
}

void FlowSimulator::check_submit(const FlowSpec& spec) const {
  if (spec.src >= graph_.num_nodes() || spec.dst >= graph_.num_nodes()) {
    throw std::out_of_range("FlowSpec: flow endpoint does not exist");
  }
  validation::require(spec.src != spec.dst, "FlowSpec",
                      "src must differ from dst");
  validation::require(
      std::isfinite(spec.size.value()) && spec.size.value() > 0.0, "FlowSpec",
      "size must be finite and positive");
  validation::require_finite(spec.start.value(), "FlowSpec",
                             "start time must be finite");
  validation::require(spec.start >= engine_.now(), "FlowSpec",
                      "start time must not precede the current time");
}

FlowId FlowSimulator::submit(const FlowSpec& spec) {
  check_submit(spec);
  const FlowId id = next_id_++;
  const std::uint32_t slot = pending_.acquire();
  PendingPool::Entry& p = pending_[slot];
  p.id = id;
  p.spec = spec;
  p.event =
      engine_.schedule_at(spec.start, [this, slot] { admit_pending(slot); });
  return id;
}

std::uint32_t FlowSimulator::PendingPool::acquire() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = static_cast<std::uint32_t>((*this)[slot].event);
    return slot;
  }
  const std::size_t built = chunks_.size();
  if (built == 0 || chunks_.back().size() == kFirstChunk << (built - 1)) {
    chunks_.emplace_back().reserve(std::size_t{kFirstChunk} << built);
  }
  const std::size_t c = chunks_.size() - 1;
  std::vector<Entry>& chunk = chunks_.back();
  const auto slot = static_cast<std::uint32_t>((kFirstChunk << c) -
                                               kFirstChunk + chunk.size());
  chunk.emplace_back();
  return slot;
}

void FlowSimulator::admit_pending(std::uint32_t slot) {
  const PendingPool::Entry& p = pending_[slot];
  const FlowSpec spec = p.spec;
  const FlowId id = p.id;
  pending_.release(slot);
  admit(spec, id);
}

void FlowSimulator::admit(FlowSpec spec, FlowId id) {
  const Seconds now = engine_.now();
  maybe_compact_links();
  if (!route_flow(spec.src, spec.dst, id, route_scratch_)) {
    if (config_.strand_unroutable) {
      inst_.stranded.inc();
      stranded_.push_back(StrandedFlow{id, spec, spec.size.value(), now});
      if (events_) events_->begin_span("stranded", "flow.stranded", now, id);
    } else {
      ++unroutable_;
      if (events_) events_->instant("flows", "flow.unroutable", now);
    }
    update_flow_gauges();
    return;
  }
  if (events_) {
    events_->begin_span("flows", "flow", now, id, "bits", spec.size.value());
  }

  // Settle first (the new flow is not in active_ yet — it has made no
  // progress), then append it and enroll its links. Settling before the
  // append is equivalent to the other way around: the new flow's rate is
  // zero until the reallocation below.
  settle_progress(now);
  push_active(id, spec, spec.size.value(), now);
  const std::size_t index = active_.size() - 1;
  store_flow_links(static_cast<std::uint32_t>(index), route_scratch_);
  if (try_fast_arrival(now, index)) {
    schedule_completion_for_cap_arrival(index);
    update_flow_gauges();
    if (listener_) listener_(now);
  } else {
    // Only the new flow's links gained a flow; seed the binding-subset
    // closure there.
    const auto links = flow_links(index);
    seed_links_.assign(links.begin(), links.end());
    seed_valid_ = true;
    reallocate(now);
  }
}

void FlowSimulator::push_active(FlowId id, const FlowSpec& spec,
                                double remaining_bits, Seconds now) {
  active_.push_back(ActiveFlow{id, spec, now});
  flow_rate_bps_.push_back(0.0);
  flow_remaining_.push_back(remaining_bits);
  flow_lbegin_.push_back(0);
  flow_lcount_.push_back(0);
  filt_begin_.push_back(0);
  filt_count_.push_back(0);
  filt_cap_.push_back(0);
}

void FlowSimulator::swap_remove_active(std::size_t i) {
  const std::size_t last = active_.size() - 1;
  if (i != last) {
    std::swap(active_[i], active_[last]);
    flow_rate_bps_[i] = flow_rate_bps_[last];
    flow_remaining_[i] = flow_remaining_[last];
    flow_lbegin_[i] = flow_lbegin_[last];
    flow_lcount_[i] = flow_lcount_[last];
    filt_begin_[i] = filt_begin_[last];
    filt_count_[i] = filt_count_[last];
    filt_cap_[i] = filt_cap_[last];
    renumber_flow_links(static_cast<std::uint32_t>(i));
  }
  active_.pop_back();
  flow_rate_bps_.pop_back();
  flow_remaining_.pop_back();
  flow_lbegin_.pop_back();
  flow_lcount_.pop_back();
  filt_begin_.pop_back();
  filt_count_.pop_back();
  filt_cap_.pop_back();
}

void FlowSimulator::store_flow_links(std::uint32_t index,
                                     const std::vector<std::uint32_t>& links) {
  if (link_flows_.num_links() < directed_capacity_bps_.size()) {
    link_flows_.ensure_links(directed_capacity_bps_.size());
    touched_pos_.resize(directed_capacity_bps_.size(), 0);
    flag_lt_cap_.resize(directed_capacity_bps_.size(), 0);
  }
  flow_lbegin_[index] = static_cast<std::uint32_t>(flow_links_.size());
  flow_lcount_[index] = static_cast<std::uint32_t>(links.size());
  for (std::uint32_t r : links) {
    const auto slot = static_cast<std::uint32_t>(flow_links_.size());
    flow_links_.push_back(r);
    if (link_flows_.empty(r)) {
      touched_pos_[r] = static_cast<std::uint32_t>(touched_links_.size());
      touched_links_.push_back(r);
    }
    flow_adj_pos_.push_back(link_flows_.push(r, index, slot));
  }
  live_hops_ += links.size();
  // Membership is enrolled, so later flag flips reach this flow; snapshot
  // the current flags into its filtered list.
  filt_build(index);
}

void FlowSimulator::release_flow_links(std::size_t i) {
  const std::size_t end = flow_lbegin_[i] + flow_lcount_[i];
  for (std::size_t s = flow_lbegin_[i]; s < end; ++s) {
    const std::uint32_t r = flow_links_[s];
    const std::uint32_t moved = link_flows_.remove(r, flow_adj_pos_[s]);
    if (moved != LinkFlowPool::kNone) flow_adj_pos_[moved] = flow_adj_pos_[s];
    if (link_flows_.empty(r)) {
      const std::uint32_t last = touched_links_.back();
      touched_links_[touched_pos_[r]] = last;
      touched_pos_[last] = touched_pos_[r];
      touched_links_.pop_back();
    }
  }
  live_hops_ -= flow_lcount_[i];
  // Abandon the filtered block too (space reclaimed by maybe_compact_filt);
  // the flow is out of every member list, so no flip will touch it again.
  filt_live_ -= filt_count_[i];
  filt_count_[i] = 0;
  filt_cap_[i] = 0;
}

void FlowSimulator::renumber_flow_links(std::uint32_t index) {
  const std::size_t end = flow_lbegin_[index] + flow_lcount_[index];
  for (std::size_t s = flow_lbegin_[index]; s < end; ++s) {
    link_flows_.set_flow(flow_links_[s], flow_adj_pos_[s], index);
  }
}

void FlowSimulator::set_share_flag(std::uint32_t r, std::uint8_t v) {
  if (flag_lt_cap_[r] == v) return;
  flag_lt_cap_[r] = v;
  // Flip: splice r into / out of every member flow's filtered list. Member
  // lists are tiny (a flow crosses a handful of links), and flips are rare
  // relative to events (a link's equal share has to cross the cap), so this
  // is far cheaper than re-filtering every closure flow's full link list on
  // every solve.
  if (v != 0) {
    for (std::uint32_t f : link_flows_.flows(r)) filt_append(f, r);
  } else {
    for (std::uint32_t f : link_flows_.flows(r)) filt_remove(f, r);
  }
}

void FlowSimulator::filt_append(std::uint32_t f, std::uint32_t l) {
  if (filt_count_[f] == filt_cap_[f]) {
    const std::uint32_t new_cap = filt_cap_[f] == 0 ? 2 : filt_cap_[f] * 2;
    const auto new_begin = static_cast<std::uint32_t>(filt_arena_.size());
    // AlignedVec preserves contents across growth, so the old block can be
    // copied from within the (possibly reallocated) arena afterwards.
    filt_arena_.resize(filt_arena_.size() + new_cap);
    if (filt_count_[f] != 0) {
      std::memcpy(filt_arena_.data() + new_begin,
                  filt_arena_.data() + filt_begin_[f],
                  filt_count_[f] * sizeof(std::uint32_t));
    }
    filt_begin_[f] = new_begin;
    filt_cap_[f] = new_cap;
  }
  filt_arena_[filt_begin_[f] + filt_count_[f]++] = l;
  ++filt_live_;
}

void FlowSimulator::filt_remove(std::uint32_t f, std::uint32_t l) {
  const std::uint32_t begin = filt_begin_[f];
  const std::uint32_t count = filt_count_[f];
  for (std::uint32_t k = 0; k < count; ++k) {
    if (filt_arena_[begin + k] == l) {
      filt_arena_[begin + k] = filt_arena_[begin + count - 1];
      --filt_count_[f];
      --filt_live_;
      return;
    }
  }
  // Unreachable while the pointwise list == flags invariant holds: a 1->0
  // flip only happens on a link every member's list already contains.
  assert(false && "filtered-list invariant violated");
}

void FlowSimulator::filt_build(std::uint32_t index) {
  const auto links = flow_links(index);
  const auto begin = static_cast<std::uint32_t>(filt_arena_.size());
  // Tight block (cap == filtered count): flips are rare, and the first
  // append just relocates the block with headroom.
  std::uint32_t count = 0;
  for (std::uint32_t l : links) {
    if (flag_lt_cap_[l] != 0) {
      filt_arena_.push_back(l);
      ++count;
    }
  }
  filt_begin_[index] = begin;
  filt_count_[index] = count;
  filt_cap_[index] = count;
  filt_live_ += count;
}

void FlowSimulator::maybe_compact_filt() {
  if (filt_arena_.size() < 1024 || filt_arena_.size() < filt_live_ * 2) {
    return;
  }
  // Rewrite every live block into a fresh arena (keeping tight caps);
  // abandoned blocks from departures and relocations are dropped. Blocks sit
  // at arbitrary offsets (relocations append at the tail in flip order), so
  // an in-place slide could overwrite a block not yet copied — same reason
  // the membership pool's repack builds a new arena. Amortized O(1) per
  // mutation.
  soa::AlignedVec<std::uint32_t> packed;
  packed.resize(filt_live_);  // uninitialized; every live block copied below
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::uint32_t count = filt_count_[i];
    if (count != 0) {
      std::memcpy(packed.data() + at, filt_arena_.data() + filt_begin_[i],
                  count * sizeof(std::uint32_t));
    }
    filt_begin_[i] = at;
    filt_cap_[i] = count;
    at += count;
  }
  filt_arena_ = std::move(packed);
}

void FlowSimulator::maybe_compact_links() {
  maybe_compact_filt();
  // Repack once dead blocks outweigh live data. Offsets (not pointers)
  // reference the arena, so moving blocks means rewriting link_begin and
  // the membership entries' slot back-references.
  if (flow_links_.size() < 1024 || flow_links_.size() < live_hops_ * 2) {
    return;
  }
  flow_links_scratch_.clear();
  flow_links_scratch_.reserve(live_hops_);
  adj_pos_scratch_.clear();
  adj_pos_scratch_.reserve(live_hops_);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const auto begin = static_cast<std::uint32_t>(flow_links_scratch_.size());
    const std::size_t end = flow_lbegin_[i] + flow_lcount_[i];
    for (std::size_t s = flow_lbegin_[i]; s < end; ++s) {
      const std::uint32_t r = flow_links_[s];
      const std::uint32_t pos = flow_adj_pos_[s];
      link_flows_.set_slot(r, pos,
                           static_cast<std::uint32_t>(flow_links_scratch_.size()));
      flow_links_scratch_.push_back(r);
      adj_pos_scratch_.push_back(pos);
    }
    flow_lbegin_[i] = begin;
  }
  flow_links_.swap(flow_links_scratch_);
  flow_adj_pos_.swap(adj_pos_scratch_);
}

void FlowSimulator::settle_progress(Seconds now) {
  const double dt = (now - last_settle_).value();
  if (dt > 0.0) {
    soa::settle(flow_remaining_.data(), flow_rate_bps_.data(), dt,
                active_.size());
  }
  last_settle_ = now;
}

void FlowSimulator::set_directed_rate(Seconds now, std::size_t index,
                                      double value) {
  carried_bps_[index] = value;
  directed_rate_bps_[index].set(now, value);
}

void FlowSimulator::directed_indices_of(const Path& path,
                                        std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(path.links.size());
  NodeId at = path.src;
  for (LinkId lid : path.links) {
    const Link& link = graph_.link(lid);
    const int dir = (at == link.a) ? 0 : 1;
    out.push_back(static_cast<std::uint32_t>(DirectedLink{lid, dir}.index()));
    at = link.other(at);
  }
}

bool FlowSimulator::route_flow(NodeId src, NodeId dst, FlowId id,
                               std::vector<std::uint32_t>& out) {
  if (config_.use_route_cache) {
    const bool record = events_ != nullptr && events_->enabled();
    const std::uint64_t misses_before =
        record ? route_cache_.stats().misses : 0;
    const auto selected = route_cache_.route(src, dst, id);
    if (record && route_cache_.stats().misses != misses_before) {
      events_->instant("route_cache", "miss", engine_.now());
    }
    if (!selected) return false;
    const std::size_t hops = selected->hops();
    out.clear();
    out.reserve(hops);
    NodeId at = src;
    for (std::size_t i = 0; i < hops; ++i) {
      const LinkId lid = selected->link(i);
      const Link& link = graph_.link(lid);
      const int dir = (at == link.a) ? 0 : 1;
      out.push_back(static_cast<std::uint32_t>(DirectedLink{lid, dir}.index()));
      at = link.other(at);
    }
    return true;
  }
  const auto path = router_.ecmp_route(src, dst, id, config_.max_ecmp_paths);
  if (!path) return false;
  directed_indices_of(*path, out);
  return true;
}

bool FlowSimulator::path_alive(std::size_t i) const {
  const NodeId dst = active_[i].spec.dst;
  for (std::uint32_t idx : flow_links(i)) {
    const auto lid = static_cast<LinkId>(idx / 2);
    if (!router_.link_enabled_unchecked(lid)) return false;
    const Link& link = graph_.link(lid);
    // Direction 0 traverses a->b, so the node entered is b (and vice
    // versa); intermediate nodes must be enabled, the destination is exempt.
    const NodeId entered = (idx % 2 == 0) ? link.b : link.a;
    if (entered != dst && !router_.node_enabled_unchecked(entered)) {
      return false;
    }
  }
  return true;
}

void FlowSimulator::set_node_enabled(NodeId id, bool enabled) {
  if (id >= graph_.num_nodes()) {
    throw std::out_of_range("topology change: node does not exist");
  }
  if (router_.node_enabled(id) == enabled) return;
  if (events_) {
    events_->instant("topology", enabled ? "node.up" : "node.down",
                     engine_.now(), "node", static_cast<double>(id));
  }
  router_.set_node_enabled(id, enabled);
  apply_topology_change();
}

void FlowSimulator::set_link_enabled(LinkId id, bool enabled) {
  if (id >= graph_.num_links()) {
    throw std::out_of_range("topology change: link does not exist");
  }
  if (router_.link_enabled(id) == enabled) return;
  if (events_) {
    events_->instant("topology", enabled ? "link.up" : "link.down",
                     engine_.now(), "link", static_cast<double>(id));
  }
  router_.set_link_enabled(id, enabled);
  apply_topology_change();
}

void FlowSimulator::set_link_capacity_factor(LinkId id, double factor) {
  if (id >= graph_.num_links()) {
    throw std::out_of_range("topology change: link does not exist");
  }
  if (!std::isfinite(factor) || factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument(
        "topology change: capacity factor must be in (0, 1]");
  }
  if (link_factor_[id] == factor) return;
  if (events_) {
    events_->instant("topology", "link.capacity_factor", engine_.now(),
                     "factor", factor);
  }
  link_factor_[id] = factor;
  const double base = graph_.link(id).capacity.bits_per_second();
  directed_capacity_bps_[static_cast<std::size_t>(id) * 2] = base * factor;
  directed_capacity_bps_[static_cast<std::size_t>(id) * 2 + 1] =
      base * factor;
  apply_topology_change();
}

void FlowSimulator::apply_topology_change() {
  const Seconds now = engine_.now();
  inst_.topology_changes.inc();
  const std::uint64_t flushes_before = route_cache_.stats().epoch_flushes;
  settle_progress(now);
  if (config_.use_route_cache) {
    // Warm the cache index for the whole reroute burst up front: the grouped
    // per-flow lookups below then land on resident lines instead of
    // serializing one table miss each. Strictly read-only, so the reroute /
    // strand processing order (and with it the solver's tie-breaking) is
    // exactly what it was without the pre-pass.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (!path_alive(i)) {
        route_cache_.prefetch(active_[i].spec.src, active_[i].spec.dst);
      }
    }
  }
  // Re-validate every active flow's path; move broken ones to a surviving
  // ECMP path or park them on the stranded list.
  for (std::size_t i = 0; i < active_.size();) {
    if (path_alive(i)) {
      ++i;
      continue;
    }
    const ActiveFlow& flow = active_[i];
    if (route_flow(flow.spec.src, flow.spec.dst, flow.id, route_scratch_)) {
      release_flow_links(i);
      store_flow_links(static_cast<std::uint32_t>(i), route_scratch_);
      inst_.reroutes.inc();
      if (events_) {
        events_->instant("topology", "flow.reroute", now, "flow",
                         static_cast<double>(flow.id));
      }
      ++i;
    } else {
      release_flow_links(i);
      inst_.stranded.inc();
      if (events_) {
        // Close the in-flight span; a strand span runs until resume.
        events_->end_span("flows", "flow", now, flow.id);
        events_->begin_span("stranded", "flow.stranded", now, flow.id);
      }
      stranded_.push_back(
          StrandedFlow{flow.id, flow.spec, flow_remaining_[i], now});
      swap_remove_active(i);
    }
  }
  // A recovery may have reconnected previously stranded flows.
  retry_stranded(now);
  if (events_ != nullptr &&
      route_cache_.stats().epoch_flushes != flushes_before) {
    events_->instant("route_cache", "flush", now);
  }
  reallocate(now);
}

void FlowSimulator::retry_stranded(Seconds now) {
  if (config_.use_route_cache) {
    // Same batching as apply_topology_change: sweep the whole parked list
    // through the cache index before the routing loop.
    for (const StrandedFlow& parked : stranded_) {
      route_cache_.prefetch(parked.spec.src, parked.spec.dst);
    }
  }
  for (std::size_t i = 0; i < stranded_.size();) {
    StrandedFlow& parked = stranded_[i];
    if (!route_flow(parked.spec.src, parked.spec.dst, parked.id,
                    route_scratch_)) {
      ++i;
      continue;
    }
    push_active(parked.id, parked.spec, parked.remaining_bits, now);
    store_flow_links(static_cast<std::uint32_t>(active_.size() - 1),
                     route_scratch_);
    const double stranded_for = (now - parked.stranded_at).value();
    strand_durations_.push_back(stranded_for);
    stranded_bit_seconds_done_ += stranded_for * parked.remaining_bits;
    inst_.resumed.inc();
    if (events_) {
      events_->end_span("stranded", "flow.stranded", now, parked.id);
      events_->begin_span("flows", "flow", now, parked.id, "bits",
                          parked.remaining_bits);
    }
    if (i + 1 != stranded_.size()) std::swap(stranded_[i], stranded_.back());
    stranded_.pop_back();
  }
}

double FlowSimulator::stranded_bit_seconds(Seconds now) const {
  double total = stranded_bit_seconds_done_;
  for (const auto& parked : stranded_) {
    total += (now - parked.stranded_at).value() * parked.remaining_bits;
  }
  return total;
}

bool FlowSimulator::try_fast_arrival(Seconds now, std::size_t i) {
  if (!config_.incremental_reallocation) return false;
  const double cap_bps = config_.flow_rate_cap.bits_per_second();
  if (cap_bps <= 0.0) return false;
  for (std::uint32_t r : flow_links(i)) {
    if (carried_bps_[r] + cap_bps >
        directed_capacity_bps_[r] * kUnsaturatedFraction) {
      return false;
    }
  }
  // Every link the flow crosses keeps headroom at the cap, so the flow's
  // max-min rate is its cap and nobody else's bottleneck moves. Membership
  // changed here, so refresh the persistent binding flags (the member lists
  // already include this flow).
  flow_rate_bps_[i] = cap_bps;
  for (std::uint32_t r : flow_links(i)) {
    set_directed_rate(now, r, carried_bps_[r] + cap_bps);
    set_share_flag(r, directed_capacity_bps_[r] /
                               static_cast<double>(link_flows_.count(r)) <
                           cap_bps
                       ? 1
                       : 0);
  }
  inst_.fast_arrivals.inc();
  return true;
}

bool FlowSimulator::try_fast_departure(Seconds now, std::size_t i) {
  if (!config_.incremental_reallocation) return false;
  for (std::uint32_t r : flow_links(i)) {
    if (carried_bps_[r] >= directed_capacity_bps_[r] * kUnsaturatedFraction) {
      return false;
    }
  }
  // None of the flow's links was a bottleneck (saturated), so removing it
  // hands no other flow extra bandwidth. Refresh the persistent binding
  // flags with the post-departure counts (the caller releases the flow's
  // membership right after this, so exclude it here).
  const double cap_bps = config_.flow_rate_cap.bits_per_second();
  const double rate = flow_rate_bps_[i];
  for (std::uint32_t r : flow_links(i)) {
    set_directed_rate(now, r, std::max(0.0, carried_bps_[r] - rate));
    if (cap_bps > 0.0) {
      const std::uint32_t n = link_flows_.count(r) - 1;
      set_share_flag(
          r, n != 0 && directed_capacity_bps_[r] / static_cast<double>(n) <
                           cap_bps
                 ? 1
                 : 0);
    }
  }
  inst_.fast_departures.inc();
  return true;
}

void FlowSimulator::reallocate(Seconds now) {
  inst_.full_solves.inc();
  maybe_compact_links();
  const double cap_bps = config_.flow_rate_cap.bits_per_second();
  bool targeted = false;
  if (config_.incremental_reallocation && cap_bps > 0.0) {
    // Uniform cap: progressive filling can only freeze a flow below the cap
    // at a link whose equal share starts below the cap (shares never
    // decrease as filling proceeds, and a link with capacity/count >= cap
    // keeps its share >= cap through every freeze). So the global solution
    // is: flows crossing a binding link get their max-min rate from the
    // subproblem over just those flows (shared non-binding links cannot
    // constrain them either), and every other flow gets exactly the cap —
    // the same doubles the full solve produces, at the cost of the crowded
    // neighborhood instead of the whole fabric.
    targeted = reallocate_binding_subset(cap_bps);
  } else {
    // Flatten every flow's link list into the solver's CSR rows, one row per
    // active flow in index order; the solver reuses its workspace.
    solver_arena_.clear();
    solver_start_.assign(1, 0);
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto links = flow_links(i);
      solver_arena_.insert(solver_arena_.end(), links.begin(), links.end());
      solver_start_.push_back(static_cast<std::uint32_t>(solver_arena_.size()));
    }
    solver_caps_.assign(active_.size(), cap_bps > 0.0 ? cap_bps : 0.0);
    const auto rates = solver_.solve(solver_arena_, solver_start_, solver_caps_,
                                     directed_capacity_bps_);
    if (!active_.empty()) {
      std::memcpy(flow_rate_bps_.data(), rates.data(),
                  active_.size() * sizeof(double));
    }
  }

  if (targeted) {
    // Seeded solve: a carried sum moves only where a member flow's rate
    // changed or the membership itself did, and bind_sub_links_ lists
    // exactly those links — recompute them from the membership lists —
    // plus seed links whose last flow departed, which drop to zero.
    for (std::uint32_t r : bind_sub_links_) {
      double sum = 0.0;
      for (std::uint32_t f : link_flows_.flows(r)) {
        sum += flow_rate_bps_[f];
      }
      if (sum != carried_bps_[r]) set_directed_rate(now, r, sum);
    }
    for (std::uint32_t r : seed_links_) {
      if (link_flows_.empty(r) && carried_bps_[r] != 0.0) {
        set_directed_rate(now, r, 0.0);
      }
    }
  } else {
    carried_scratch_.assign(directed_capacity_bps_.size(), 0.0);
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const double rate = flow_rate_bps_[i];
      for (std::uint32_t r : flow_links(i)) {
        carried_scratch_[r] += rate;
      }
    }
    for (std::size_t r = 0; r < carried_scratch_.size(); ++r) {
      if (carried_scratch_[r] != carried_bps_[r]) {
        set_directed_rate(now, r, carried_scratch_[r]);
      }
    }
  }

  seed_valid_ = false;
  if (events_ != nullptr && events_->enabled()) {
    const bool binding = config_.incremental_reallocation && cap_bps > 0.0;
    events_->instant(
        "solver", targeted ? "solve.seeded" : "solve.full", now, "flows",
        static_cast<double>(binding ? bind_discovered_ : active_.size()));
  }
  schedule_next_completion();
  update_flow_gauges();
  if (listener_) listener_(now);
}

bool FlowSimulator::reallocate_binding_subset(double cap_bps) {
  if (bind_link_seen_.size() < directed_capacity_bps_.size()) {
    bind_link_seen_.resize(directed_capacity_bps_.size(), 0);
    bind_sub_seen_.resize(directed_capacity_bps_.size(), 0);
  }
  if (bind_flow_seen_.size() < active_.size()) {
    bind_flow_seen_.resize(active_.size(), 0);
  }
  if (++bind_gen_ == 0) {
    // Stamp wrapped: invalidate everything once and restart at 1.
    std::fill(bind_link_seen_.begin(), bind_link_seen_.end(), 0);
    std::fill(bind_flow_seen_.begin(), bind_flow_seen_.end(), 0);
    std::fill(bind_sub_seen_.begin(), bind_sub_seen_.end(), 0);
    bind_gen_ = 1;
  }

  // Seed links: the event's own links when seeded, every populated link on
  // a full evaluation (startup, topology changes). A full evaluation is the
  // one place capacities may have changed under the persistent share flags,
  // and seeding from every populated link visits every routed flow, so it
  // is the same walk with the whole fabric as its seed set.
  const std::vector<std::uint32_t>& seeds =
      seed_valid_ ? seed_links_ : touched_links_;
  // The cheap share0 < cap flag suffices. It covers every link that can
  // freeze below the cap in the NEW state (freezing below the cap needs an
  // initial equal share below the cap), and every link that froze flows in
  // the OLD state too: since the last solve, counts changed only on this
  // event's seed links (walked unconditionally) and on links fast-path
  // events touched — and fast-path flows are cap-frozen flows crossing only
  // unsaturated links, never a link that froze anyone, so those refreshes
  // cannot unflag an old freezing link. The persistent flags are refreshed
  // at every membership change, so only the seeds need new divisions here
  // (the same division the solver uses to seed its heap, so the comparison
  // sees the exact doubles the filling starts from). Flips propagate into
  // the filtered lists, so those survive capacity changes without a
  // rebuild.
  bind_flows_.clear();
  std::size_t capped_direct = 0;  // closure flows assigned the cap directly
  bind_sub_links_.clear();
  bind_solver_links_.clear();
  solver_arena_.clear();
  solver_start_.assign(1, 0);
  bind_stack_.clear();
  for (std::uint32_t r : seeds) {
    // Seed links with no remaining flows (e.g. a departed flow's last
    // link) have nothing to walk; the writeback zeroes them directly.
    if (link_flows_.empty(r)) continue;
    set_share_flag(r, directed_capacity_bps_[r] /
                              static_cast<double>(link_flows_.count(r)) <
                          cap_bps
                      ? 1
                      : 0);
    if (bind_link_seen_[r] == bind_gen_) continue;
    bind_link_seen_[r] = bind_gen_;
    // On a seeded solve membership changed here (the event's own flow
    // arrived or departed), so the sum moves even if every member keeps
    // its rate.
    bind_sub_seen_[r] = bind_gen_;
    bind_sub_links_.push_back(r);
    if (flag_lt_cap_[r] != 0) bind_solver_links_.push_back(r);
    bind_stack_.push_back(r);
  }
  // Closure: the event changed flow counts (or, on a full evaluation,
  // capacities) only on the seed links, so only flows reachable from them —
  // across a seed link directly, or transitively through binding links
  // (non-binding links never constrain anyone, so they carry no coupling) —
  // can see a different max-min rate. Everything outside the closure keeps
  // its cached rate: its subproblem inputs are unchanged, so a fresh solve
  // would reproduce the same doubles.
  // The walk doubles as the problem build: each flow is discovered exactly
  // once, so its solver row — the flow's incrementally-maintained filtered
  // link list (see filt_links / set_share_flag), streamed into the solver
  // CSR arena — is laid down on the spot, alongside the deduplicated link
  // lists. Filtering is exact: the flag is "full-population equal share
  // below the cap", and the subproblem share of an unflagged link is at
  // least its full share (fewer flows, same capacity), so its heap key never
  // drops below the cap: the cap branch beats it in every round (ties
  // included via the gate's >= and the exact branch's <=), it never becomes
  // the tight link, and its residual bookkeeping is write-only. Dropping it
  // changes no decision and no computed double — but shrinks the solver's
  // counting, CSR, heap, and freeze work to the contended core. A closure
  // flow with an empty filtered list would freeze at exactly the cap with
  // zero link interaction, so it bypasses the solver and takes the cap
  // directly. Discovery order (and with it solver row order) follows the
  // seed and filtered lists' internal order, which is arbitrary; the
  // solution is row-order independent because every freeze in one filling
  // round subtracts the same value.
  while (!bind_stack_.empty()) {
    const std::uint32_t r = bind_stack_.back();
    bind_stack_.pop_back();
    for (std::uint32_t f : link_flows_.flows(r)) {
      if (bind_flow_seen_[f] == bind_gen_) continue;
      bind_flow_seen_[f] = bind_gen_;
      const auto filtered = filt_links(f);
      if (filtered.empty()) {
        // No binding candidate on the path: the max-min rate is the cap.
        // If that changes the cached rate, the flow's links join the
        // writeback list exactly as a solver-row rate change would.
        ++capped_direct;
        if (flow_rate_bps_[f] != cap_bps) {
          flow_rate_bps_[f] = cap_bps;
          for (std::uint32_t l : flow_links(f)) {
            if (bind_sub_seen_[l] != bind_gen_) {
              bind_sub_seen_[l] = bind_gen_;
              bind_sub_links_.push_back(l);
            }
          }
        }
        continue;
      }
      bind_flows_.push_back(f);
      for (std::uint32_t l : filtered) {
        solver_arena_.push_back(l);
        if (bind_link_seen_[l] != bind_gen_) {
          bind_link_seen_[l] = bind_gen_;
          bind_solver_links_.push_back(l);
          bind_stack_.push_back(l);
        }
      }
      solver_start_.push_back(static_cast<std::uint32_t>(solver_arena_.size()));
    }
  }

  bind_discovered_ = bind_flows_.size() + capped_direct;
  if (!bind_flows_.empty()) {
    // Sparse solve: only the links the subproblem crosses are reset in the
    // solver's resource-indexed workspace, and the solver reads the CSR the
    // walk just laid down in place.
    const auto rates =
        solver_.solve_arena(solver_arena_, solver_start_,
                            directed_capacity_bps_, bind_solver_links_, cap_bps);
    // Collect the links whose carried sums can have moved: a sum changes
    // only when a member flow's rate changed or the membership itself did
    // (the live seed links, listed above). Links that keep both keep their
    // sum bit-for-bit, so skipping them equals the recompute-and-compare
    // the writeback would have done.
    for (std::size_t j = 0; j < bind_flows_.size(); ++j) {
      const std::uint32_t f = bind_flows_[j];
      if (flow_rate_bps_[f] == rates[j]) continue;
      flow_rate_bps_[f] = rates[j];
      for (std::uint32_t r : flow_links(f)) {
        if (bind_sub_seen_[r] != bind_gen_) {
          bind_sub_seen_[r] = bind_gen_;
          bind_sub_links_.push_back(r);
        }
      }
    }
  }
  if (bind_discovered_ != 0) {
    inst_.binding_subset_flows.inc(bind_discovered_);
  }
  inst_.binding_solves.inc();
  return seed_valid_;
}

void FlowSimulator::schedule_next_completion(bool retry) {
  // Every caller has settled the columns to now(), so the fused pass writes
  // nothing: a settle here would split one remaining -= rate * dt step in
  // two and move bits.
  assert(last_settle_ == engine_.now());
  reschedule_completion(settle_and_scan_to_now(), retry);
}

void FlowSimulator::reschedule_completion(const soa::CompletionPass& minima,
                                          bool retry) {
  if (completion_event_) {
    engine_.cancel(*completion_event_);
    completion_event_.reset();
  }
  schedule_completion(minima.min_quotient, minima.min_capped, retry);
}

void FlowSimulator::schedule_completion(double min_quotient,
                                        double min_capped, bool retry) {
  // Most flows run at the uniform cap; for them one division after a
  // min-scan of remaining bits gives exactly min(remaining / cap), because
  // correctly-rounded division by a positive constant is monotone — the
  // same double the per-flow divisions would produce.
  const double cap_bps = config_.flow_rate_cap.bits_per_second();
  double earliest = min_quotient;
  if (std::isfinite(min_capped)) {
    earliest = std::min(earliest, min_capped / cap_bps);
  }
  if (!std::isfinite(earliest)) return;
  const Seconds now = engine_.now();
  Seconds at = now + Seconds{earliest};
  if (retry && at == now && engine_.next_event_time() > now.value()) {
    // Nothing was due, the retry rounds back to now, and no other event
    // can change the state at now: firing at now again would repeat the
    // same no-op forever (large simulated times, where one ulp of time
    // outlasts the last few bits). Move to the next representable time.
    at = Seconds{std::nextafter(now.value(),
                                std::numeric_limits<double>::infinity())};
  }
  completion_event_ = engine_.schedule_at(
      at, [this] { complete_due_flows(engine_.now()); });
}

void FlowSimulator::schedule_completion_for_cap_arrival(std::size_t index) {
  // try_fast_arrival only succeeds with a positive uniform cap, and it just
  // set this flow's rate to exactly that cap — the same division the
  // completion scan's capped-flow path would perform.
  const double cap_bps = config_.flow_rate_cap.bits_per_second();
  const double delay = flow_remaining_[index] / cap_bps;
  if (!std::isfinite(delay)) return;
  if (completion_event_.has_value()) {
    if (engine_.event_time(*completion_event_).value() <=
        engine_.now().value() + delay) {
      // An earlier (or equal) completion is already scheduled; the new
      // flow cannot beat it, and nobody else's estimate moved.
      return;
    }
    engine_.cancel(*completion_event_);
    completion_event_.reset();
  }
  completion_event_ = engine_.schedule_after(
      Seconds{delay}, [this] { complete_due_flows(engine_.now()); });
}

soa::CompletionPass FlowSimulator::settle_and_scan_to_now() {
  const Seconds now = engine_.now();
  const soa::CompletionPass pass = soa::settle_and_scan(
      flow_remaining_.data(), flow_rate_bps_.data(),
      (now - last_settle_).value(), -std::numeric_limits<double>::infinity(),
      config_.flow_rate_cap.bits_per_second(), active_.size());
  last_settle_ = now;
  return pass;
}

void FlowSimulator::complete_due_flows(Seconds now) {
  completion_event_.reset();
  // One pass over the rate/remaining columns settles every flow to now,
  // counts the due flows, and takes the completion minima of the rest.
  const soa::CompletionPass pass = soa::settle_and_scan(
      flow_remaining_.data(), flow_rate_bps_.data(),
      (now - last_settle_).value(), kEpsBits,
      config_.flow_rate_cap.bits_per_second(), active_.size());
  last_settle_ = now;
  seed_links_.clear();
  if (pass.due == 0) {
    // Numerical guard: the event fired before any flow crossed kEpsBits
    // (see schedule_completion_for_cap_arrival); retry.
    schedule_next_completion(/*retry=*/true);
    return;
  }
  bool all_fast = true;
  // Every flow below index i is not due, and a swap-and-pop moves the last
  // flow into slot i, so each search resumes at i: the swapped-in flow is
  // checked first, and the walk stops at the last due flow.
  std::size_t i = pass.first_due;
  for (std::size_t done = 0; done < pass.due; ++done) {
    i = soa::find_due(flow_remaining_.data(), kEpsBits, i, active_.size());
    assert(i < active_.size());
    FlowRecord record;
    record.id = active_[i].id;
    record.spec = active_[i].spec;
    record.finished = now;
    fct_.add(record.fct().value());
    inst_.fct.observe(record.fct().value());
    if (events_) events_->end_span("flows", "flow", now, record.id);
    completed_.push_back(record);
    // Departures free capacity only on their own links; remember them as
    // binding-subset seeds in case this event needs a re-solve.
    const auto links = flow_links(i);
    seed_links_.insert(seed_links_.end(), links.begin(), links.end());
    all_fast = all_fast && try_fast_departure(now, i);
    release_flow_links(i);
    // Swap-and-pop: active-flow order carries no meaning (records and
    // listeners are per-flow), and mid-vector erase is O(n).
    swap_remove_active(i);
    if (completion_listener_) completion_listener_(completed_.back());
  }
  if (all_fast) {
    // Fast departures write no surviving flow's rate or remaining, and the
    // survivors are exactly the lanes the pass found above kEpsBits, so its
    // minima are what a rescan would find.
    schedule_completion(pass.min_quotient, pass.min_capped);
    update_flow_gauges();
    if (listener_) listener_(now);
  } else {
    seed_valid_ = true;
    reallocate(now);
  }
}

Gbps FlowSimulator::directed_link_rate(DirectedLink dl) const {
  return Gbps{directed_rate_bps_.at(dl.index()).current() / 1e9};
}

double FlowSimulator::directed_link_utilization(DirectedLink dl) const {
  const auto idx = dl.index();
  return directed_rate_bps_.at(idx).current() / directed_capacity_bps_.at(idx);
}

double FlowSimulator::node_load(NodeId id) const {
  double carried = 0.0;
  double capacity = 0.0;
  for (const auto& adj : graph_.neighbors(id)) {
    for (int dir = 0; dir < 2; ++dir) {
      const auto idx = DirectedLink{adj.link, dir}.index();
      carried += directed_rate_bps_.at(idx).current();
      capacity += directed_capacity_bps_.at(idx);
    }
  }
  return capacity > 0.0 ? carried / capacity : 0.0;
}

double FlowSimulator::average_link_utilization(DirectedLink dl) const {
  const auto idx = dl.index();
  return directed_rate_bps_.at(idx).average(engine_.now()) /
         directed_capacity_bps_.at(idx);
}

}  // namespace netpp
