// FlowSimulator snapshot/restore and the structural invariant audit.
//
// Split out of flowsim.cpp: the hot-path simulator code and the (cold)
// serialization code evolve independently, but both are member code of
// FlowSimulator so the snapshot can reach every arena verbatim.
//
// Bit-identity contract: everything whose *order* can influence a
// floating-point sum or an event tie-break is serialized exactly as it sits
// in memory — the link->flow membership arenas including dead blocks, the
// per-flow SoA columns, carried-rate sums, the route-cache table, and the
// (time, FIFO seq) pair of every pending event. A restored simulator
// therefore replays the same IEEE operations in the same order as the
// uninterrupted run. The only reset state is the binding-walk generation
// stamps (restarted at zero; behaviorally identical until the 2^32-solve
// wrap, which the walk already handles by refilling the stamp arrays).
#include <cmath>
#include <cstring>

#include <algorithm>

#include "netpp/netsim/flowsim.h"
#include "netpp/validation.h"

namespace netpp {

namespace {

/// Shared tolerance for the carried-sum and feasibility audits: the
/// incremental bookkeeping is designed to stay within ~1e-9 relative of the
/// exact sums (kUnsaturatedFraction margin); 1e-6 relative leaves headroom
/// without masking real corruption.
constexpr double kAuditRelTol = 1e-6;

void put_spec(state::SnapshotWriter& w, const FlowSpec& spec) {
  w.put_u32(spec.src);
  w.put_u32(spec.dst);
  w.put_f64(spec.size.value());
  w.put_f64(spec.start.value());
  w.put_u64(spec.tag);
}

FlowSpec get_spec(state::SnapshotReader& r) {
  FlowSpec spec;
  spec.src = r.get_u32();
  spec.dst = r.get_u32();
  spec.size = Bits{r.get_f64()};
  spec.start = Seconds{r.get_f64()};
  spec.tag = r.get_u64();
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// LinkFlowPool

void FlowSimulator::LinkFlowPool::save_state(state::SnapshotWriter& w) const {
  w.put_u64(blocks_.size());
  for (const Block& b : blocks_) {
    w.put_u32(b.begin);
    w.put_u32(b.count);
    w.put_u32(b.cap);
  }
  // Canonicalize the arenas: only each block's live prefix [begin,
  // begin+count) is ever read, but the AlignedVec growth path leaves heap
  // garbage in the dead slots, which would differ between two otherwise
  // bit-identical simulators. Serialize dead slots as zero so equal
  // simulated states produce equal snapshots.
  std::vector<std::uint32_t> flow_of(flow_of_.size(), 0);
  std::vector<std::uint32_t> slot_of(slot_of_.size(), 0);
  for (const Block& b : blocks_) {
    for (std::uint32_t s = 0; s < b.count; ++s) {
      flow_of[b.begin + s] = flow_of_[b.begin + s];
      slot_of[b.begin + s] = slot_of_[b.begin + s];
    }
  }
  w.put_u32_array(flow_of.data(), flow_of.size());
  w.put_u32_array(slot_of.data(), slot_of.size());
  w.put_u64(flow_of_.size());  // arena size (flow_of_/slot_of_ share it)
  w.put_u64(live_);
}

void FlowSimulator::LinkFlowPool::restore_state(state::SnapshotReader& r) {
  const std::uint64_t num_blocks = r.get_u64();
  std::vector<Block> blocks(static_cast<std::size_t>(num_blocks));
  for (Block& b : blocks) {
    b.begin = r.get_u32();
    b.count = r.get_u32();
    b.cap = r.get_u32();
  }
  // The arena size is written after the columns; peek it by reading the
  // columns into scratch first is avoided by writing the columns with their
  // own length prefixes (put_u32_array) — read them as sized arrays.
  // put_u32_array stores its own count, so a plain vector read works:
  std::vector<std::uint32_t> flow_of = r.get_u32_vec();
  std::vector<std::uint32_t> slot_of = r.get_u32_vec();
  const std::uint64_t arena_size = r.get_u64();
  const std::uint64_t live = r.get_u64();
  if (flow_of.size() != arena_size || slot_of.size() != arena_size) {
    validation::fail("FlowSimulator",
                     "snapshot link-membership arenas have mismatched sizes");
  }
  std::uint64_t counted = 0;
  for (const Block& b : blocks) {
    if (b.count > b.cap ||
        static_cast<std::uint64_t>(b.begin) + b.cap > arena_size) {
      validation::fail("FlowSimulator",
                       "snapshot link-membership block exceeds its arena");
    }
    counted += b.count;
  }
  if (counted != live) {
    validation::fail("FlowSimulator",
                     "snapshot link-membership live count is inconsistent");
  }
  blocks_ = std::move(blocks);
  flow_of_.resize(flow_of.size());
  slot_of_.resize(slot_of.size());
  if (!flow_of.empty()) {
    std::memcpy(flow_of_.data(), flow_of.data(),
                flow_of.size() * sizeof(std::uint32_t));
    std::memcpy(slot_of_.data(), slot_of.data(),
                slot_of.size() * sizeof(std::uint32_t));
  }
  live_ = static_cast<std::size_t>(live);
}

// ---------------------------------------------------------------------------
// FlowSimulator

void FlowSimulator::save_state(state::SnapshotWriter& w) const {
  w.begin_section("flowsim");

  // Config + shape echo: a restore into a differently-configured simulator
  // would silently diverge, so reject it up front.
  w.put_u64(config_.max_ecmp_paths);
  w.put_f64(config_.flow_rate_cap.value());
  w.put_bool(config_.use_route_cache);
  w.put_bool(config_.incremental_reallocation);
  w.put_bool(config_.strand_unroutable);
  w.put_bool(config_.telemetry != nullptr);
  w.put_u64(graph_.num_nodes());
  w.put_u64(graph_.num_links());

  // Active flows + the parallel SoA columns, verbatim.
  const std::size_t n = active_.size();
  w.put_u64(n);
  for (const ActiveFlow& f : active_) {
    w.put_u64(f.id);
    put_spec(w, f.spec);
    w.put_f64(f.admitted.value());
  }
  w.put_f64_array(flow_rate_bps_.data(), n);
  w.put_f64_array(flow_remaining_.data(), n);
  w.put_u32_array(flow_lbegin_.data(), n);
  w.put_u32_array(flow_lcount_.data(), n);
  w.put_u32_array(filt_begin_.data(), n);
  w.put_u32_array(filt_count_.data(), n);
  w.put_u32_array(filt_cap_.data(), n);

  // Arenas — layout preserved exactly (block begins/caps and dead blocks),
  // so post-restore growth, relocation, and compaction fire at the same
  // events as the uninterrupted run (compaction rewrites membership order,
  // which changes summation order, so its timing is part of the
  // deterministic state). Contents are canonicalized: only each flow's live
  // prefix is copied, dead slots serialize as zero — they are never read,
  // and the AlignedVec growth path leaves instance-specific heap garbage in
  // them that would break snapshot-bytes equality between equal states.
  {
    std::vector<std::uint32_t> filt(filt_arena_.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t s = 0; s < filt_count_[i]; ++s) {
        filt[filt_begin_[i] + s] = filt_arena_[filt_begin_[i] + s];
      }
    }
    w.put_u32_array(filt.data(), filt.size());
  }
  w.put_u64(filt_live_);
  w.put_u32_vec(flow_links_);
  w.put_u32_vec(flow_adj_pos_);
  w.put_u64(live_hops_);
  link_flows_.save_state(w);
  w.put_u32_vec(touched_links_);
  w.put_u32_vec(touched_pos_);
  w.put_u8_vec(flag_lt_cap_);

  // Completion / strand history (feeds results and resilience metrics).
  w.put_u64(completed_.size());
  for (const FlowRecord& rec : completed_) {
    w.put_u64(rec.id);
    put_spec(w, rec.spec);
    w.put_f64(rec.finished.value());
  }
  w.put_u64(stranded_.size());
  for (const StrandedFlow& s : stranded_) {
    w.put_u64(s.id);
    put_spec(w, s.spec);
    w.put_f64(s.remaining_bits);
    w.put_f64(s.stranded_at.value());
  }
  w.put_f64_vec(strand_durations_);
  w.put_f64(stranded_bit_seconds_done_);

  // Per-directed-link capacity/rate state.
  w.put_f64_vec(directed_capacity_bps_);
  w.put_f64_vec(link_factor_);
  w.put_f64_vec(carried_bps_);
  w.put_u64(directed_rate_bps_.size());
  for (const TimeWeighted& tw : directed_rate_bps_) tw.save_state(w);

  // Solver + seed state.
  w.put_u64(solver_.stats().solves);
  w.put_u64(solver_.stats().flows_solved);
  w.put_u32_vec(seed_links_);
  w.put_bool(seed_valid_);

  // Scalars.
  fct_.save_state(w);
  w.put_u64(unroutable_);
  w.put_u64(next_id_);
  w.put_f64(last_settle_.value());

  // Pending events, as (time, FIFO seq) pairs the restore re-registers.
  w.put_bool(completion_event_.has_value());
  if (completion_event_.has_value()) {
    w.put_f64(engine_.event_time(*completion_event_).value());
    w.put_u64(engine_.event_seq(*completion_event_));
  }
  // Pending submissions in event order, whichever pool slots they hold.
  std::vector<const PendingPool::Entry*> pending;
  pending_.for_each(
      [&pending](const PendingPool::Entry& p) { pending.push_back(&p); });
  std::sort(pending.begin(), pending.end(), [this](const auto* a, const auto* b) {
    return engine_.event_seq(a->event) < engine_.event_seq(b->event);
  });
  w.put_u64(pending.size());
  for (const PendingPool::Entry* p : pending) {
    w.put_u64(p->id);
    put_spec(w, p->spec);
    w.put_f64(engine_.event_time(p->event).value());
    w.put_u64(engine_.event_seq(p->event));
  }

  // Shared router enablement + epoch (the simulator is its primary mutator).
  w.put_u8_vec(router_.node_mask());
  w.put_u8_vec(router_.link_mask());
  w.put_u64(router_.topology_epoch());

  w.end_section();

  route_cache_.save_state(w);
  // Detached simulators own their counter registry; serialize it inline so
  // realloc_stats() and metric exports match bitwise after restore. Attached
  // simulators share the orchestrator's registry, which the orchestrator
  // snapshots itself.
  if (local_metrics_ != nullptr) local_metrics_->save_state(w);
}

void FlowSimulator::restore_state(state::SnapshotReader& r) {
  r.open_section("flowsim");

  if (r.get_u64() != config_.max_ecmp_paths ||
      std::bit_cast<std::uint64_t>(r.get_f64()) !=
          std::bit_cast<std::uint64_t>(config_.flow_rate_cap.value()) ||
      r.get_bool() != config_.use_route_cache ||
      r.get_bool() != config_.incremental_reallocation ||
      r.get_bool() != config_.strand_unroutable) {
    validation::fail("FlowSimulator",
                     "snapshot config does not match this simulator's config");
  }
  if (r.get_bool() != (config_.telemetry != nullptr)) {
    validation::fail(
        "FlowSimulator",
        "snapshot telemetry attachment does not match this simulator");
  }
  if (r.get_u64() != graph_.num_nodes() || r.get_u64() != graph_.num_links()) {
    validation::fail("FlowSimulator",
                     "snapshot graph shape does not match this simulator");
  }

  const auto n = static_cast<std::size_t>(r.get_u64());
  std::vector<ActiveFlow> active(n);
  for (ActiveFlow& f : active) {
    f.id = r.get_u64();
    f.spec = get_spec(r);
    f.admitted = Seconds{r.get_f64()};
  }
  active_ = std::move(active);
  flow_rate_bps_.resize(n);
  flow_remaining_.resize(n);
  flow_lbegin_.resize(n);
  flow_lcount_.resize(n);
  filt_begin_.resize(n);
  filt_count_.resize(n);
  filt_cap_.resize(n);
  r.get_f64_array(flow_rate_bps_.data(), n);
  r.get_f64_array(flow_remaining_.data(), n);
  r.get_u32_array(flow_lbegin_.data(), n);
  r.get_u32_array(flow_lcount_.data(), n);
  r.get_u32_array(filt_begin_.data(), n);
  r.get_u32_array(filt_count_.data(), n);
  r.get_u32_array(filt_cap_.data(), n);

  {
    std::vector<std::uint32_t> filt = r.get_u32_vec();
    filt_arena_.resize(filt.size());
    if (!filt.empty()) {
      std::memcpy(filt_arena_.data(), filt.data(),
                  filt.size() * sizeof(std::uint32_t));
    }
  }
  filt_live_ = static_cast<std::size_t>(r.get_u64());
  flow_links_ = r.get_u32_vec();
  flow_adj_pos_ = r.get_u32_vec();
  live_hops_ = static_cast<std::size_t>(r.get_u64());
  link_flows_.restore_state(r);
  touched_links_ = r.get_u32_vec();
  touched_pos_ = r.get_u32_vec();
  flag_lt_cap_ = r.get_u8_vec();

  const auto num_completed = static_cast<std::size_t>(r.get_u64());
  completed_.clear();
  completed_.reserve(num_completed);
  for (std::size_t i = 0; i < num_completed; ++i) {
    FlowRecord rec;
    rec.id = r.get_u64();
    rec.spec = get_spec(r);
    rec.finished = Seconds{r.get_f64()};
    completed_.push_back(rec);
  }
  const auto num_stranded = static_cast<std::size_t>(r.get_u64());
  stranded_.clear();
  stranded_.reserve(num_stranded);
  for (std::size_t i = 0; i < num_stranded; ++i) {
    StrandedFlow s;
    s.id = r.get_u64();
    s.spec = get_spec(r);
    s.remaining_bits = r.get_f64();
    s.stranded_at = Seconds{r.get_f64()};
    stranded_.push_back(s);
  }
  strand_durations_ = r.get_f64_vec();
  stranded_bit_seconds_done_ = r.get_f64();

  directed_capacity_bps_ = r.get_f64_vec();
  link_factor_ = r.get_f64_vec();
  carried_bps_ = r.get_f64_vec();
  const std::size_t directed = graph_.num_links() * 2;
  if (directed_capacity_bps_.size() != directed ||
      carried_bps_.size() != directed ||
      link_factor_.size() != graph_.num_links()) {
    validation::fail("FlowSimulator",
                     "snapshot link arrays do not match the graph");
  }
  const auto num_tw = static_cast<std::size_t>(r.get_u64());
  if (num_tw != directed) {
    validation::fail("FlowSimulator",
                     "snapshot rate histories do not match the graph");
  }
  for (TimeWeighted& tw : directed_rate_bps_) tw.restore_state(r);

  MaxMinSolver::SolveStats solver_stats;
  solver_stats.solves = r.get_u64();
  solver_stats.flows_solved = r.get_u64();
  solver_.restore_stats(solver_stats);
  seed_links_ = r.get_u32_vec();
  seed_valid_ = r.get_bool();

  fct_.restore_state(r);
  unroutable_ = static_cast<std::size_t>(r.get_u64());
  next_id_ = r.get_u64();
  last_settle_ = Seconds{r.get_f64()};

  // Re-register the pending events with their original FIFO sequence
  // numbers. The engine clock must already be restored; restore_event_at
  // validates both the time and the sequence bound.
  completion_event_.reset();
  if (r.get_bool()) {
    const Seconds at{r.get_f64()};
    const std::uint64_t seq = r.get_u64();
    completion_event_ = engine_.restore_event_at(
        at, seq, [this] { complete_due_flows(engine_.now()); });
  }
  pending_.clear();
  const auto num_pending = static_cast<std::size_t>(r.get_u64());
  std::vector<FlowId> pending_ids;
  for (std::size_t i = 0; i < num_pending; ++i) {
    const FlowId id = r.get_u64();
    const FlowSpec spec = get_spec(r);
    const Seconds at{r.get_f64()};
    const std::uint64_t seq = r.get_u64();
    if (id == 0 || id >= next_id_) {
      validation::fail("FlowSimulator",
                       "snapshot pending submission is not a submitted flow");
    }
    const std::uint32_t slot = pending_.acquire();
    PendingPool::Entry& p = pending_[slot];
    p.id = id;
    p.spec = spec;
    p.event = engine_.restore_event_at(at, seq,
                                       [this, slot] { admit_pending(slot); });
    pending_ids.push_back(id);
  }
  std::sort(pending_ids.begin(), pending_ids.end());
  if (std::adjacent_find(pending_ids.begin(), pending_ids.end()) !=
      pending_ids.end()) {
    validation::fail("FlowSimulator",
                     "snapshot holds a duplicate pending submission");
  }

  {
    const std::vector<std::uint8_t> nodes = r.get_u8_vec();
    const std::vector<std::uint8_t> links = r.get_u8_vec();
    const std::uint64_t epoch = r.get_u64();
    router_.restore_enablement(nodes, links, epoch);
  }

  r.close_section();

  route_cache_.restore_state(r);
  if (local_metrics_ != nullptr) local_metrics_->restore_state(r);

  // Binding-walk generation stamps restart from scratch (see file comment):
  // clearing makes the lazily-resized stamp arrays re-zero themselves.
  bind_gen_ = 0;
  bind_link_seen_.clear();
  bind_flow_seen_.clear();
  bind_sub_seen_.clear();

  check_invariants();
}

void FlowSimulator::check_invariants() const {
  const std::size_t n = active_.size();
  const std::size_t directed = directed_capacity_bps_.size();
  validation::require(
      flow_rate_bps_.size() == n && flow_remaining_.size() == n &&
          flow_lbegin_.size() == n && flow_lcount_.size() == n &&
          filt_begin_.size() == n && filt_count_.size() == n &&
          filt_cap_.size() == n,
      "FlowSimulator", "SoA columns must stay in lockstep with active flows");
  validation::require(flow_links_.size() == flow_adj_pos_.size(),
                      "FlowSimulator",
                      "adjacency back-pointers must parallel the link arena");

  // Conservation of remaining bits: every active flow still has between
  // zero (one completion epsilon of slack) and its submitted volume left.
  constexpr double kEpsBits = 1.0;  // matches the completion threshold
  for (std::size_t i = 0; i < n; ++i) {
    const double remaining = flow_remaining_[i];
    const double size = active_[i].spec.size.value();
    validation::require(std::isfinite(remaining) && remaining >= -kEpsBits &&
                            remaining <= size + kEpsBits,
                        "FlowSimulator",
                        "remaining bits must stay within [0, size]");
    validation::require(
        std::isfinite(flow_rate_bps_[i]) && flow_rate_bps_[i] >= 0.0,
        "FlowSimulator", "flow rates must be finite and non-negative");
  }

  // Membership / back-pointer agreement, and per-link carried-sum and
  // feasibility audits over the exact membership iteration order.
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = flow_lbegin_[i];
    const std::size_t count = flow_lcount_[i];
    validation::require(begin + count <= flow_links_.size(), "FlowSimulator",
                        "flow link block must lie inside the arena");
    for (std::size_t s = begin; s < begin + count; ++s) {
      const std::uint32_t link = flow_links_[s];
      validation::require(link < directed, "FlowSimulator",
                          "flow link index must name a directed link");
      const std::uint32_t pos = flow_adj_pos_[s];
      validation::require(
          link_flows_.num_links() > link && pos < link_flows_.count(link),
          "FlowSimulator", "membership back-pointer must be in range");
      validation::require(
          link_flows_.flows(link)[pos] == i &&
              link_flows_.slot_at(link, pos) == s,
          "FlowSimulator",
          "membership entry and back-pointer must agree on (flow, slot)");
    }
    hops += count;
  }
  validation::require(hops == live_hops_ && live_hops_ == link_flows_.live(),
                      "FlowSimulator",
                      "live hop totals must agree across the arenas");

  // Rate feasibility per link: the carried sum matches the member rates and
  // never exceeds the (possibly degraded) capacity.
  std::size_t populated = 0;
  for (std::size_t r = 0; r < link_flows_.num_links(); ++r) {
    const std::uint32_t members = link_flows_.count(r);
    if (members == 0) continue;
    ++populated;
    validation::require(
        touched_pos_.size() > r && touched_pos_[r] < touched_links_.size() &&
            touched_links_[touched_pos_[r]] == r,
        "FlowSimulator", "populated links must be on the touched list");
    double sum = 0.0;
    for (const std::uint32_t f : link_flows_.flows(r)) {
      validation::require(f < n, "FlowSimulator",
                          "membership lists must reference active flows");
      sum += flow_rate_bps_[f];
    }
    const double cap = directed_capacity_bps_[r];
    const double tol = kAuditRelTol * std::max(cap, 1.0);
    validation::require(std::abs(sum - carried_bps_[r]) <= tol,
                        "FlowSimulator",
                        "carried rate must equal the sum of member rates");
    validation::require(carried_bps_[r] <= cap + tol, "FlowSimulator",
                        "carried rate must not exceed link capacity");
  }
  validation::require(populated == touched_links_.size(), "FlowSimulator",
                      "touched list must hold exactly the populated links");
  for (std::size_t r = 0; r < directed; ++r) {
    validation::require(
        std::isfinite(carried_bps_[r]) && carried_bps_[r] >= 0.0,
        "FlowSimulator", "carried rates must be finite and non-negative");
    validation::require(
        std::bit_cast<std::uint64_t>(directed_rate_bps_[r].current()) ==
            std::bit_cast<std::uint64_t>(carried_bps_[r]),
        "FlowSimulator",
        "rate history and carried sum must agree bitwise");
  }

  // Filtered lists == {flagged links of each flow's path}, entry by entry.
  std::size_t filt_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    validation::require(filt_count_[i] <= filt_cap_[i] &&
                            filt_begin_[i] + filt_cap_[i] <= filt_arena_.size(),
                        "FlowSimulator",
                        "filtered block must lie inside its arena");
    const std::span<const std::uint32_t> links = flow_links(i);
    std::size_t flagged = 0;
    for (const std::uint32_t l : links) {
      if (l < flag_lt_cap_.size() && flag_lt_cap_[l] != 0) ++flagged;
    }
    validation::require(flagged == filt_count_[i], "FlowSimulator",
                        "filtered list must hold every flagged path link");
    for (std::size_t s = filt_begin_[i]; s < filt_begin_[i] + filt_count_[i];
         ++s) {
      const std::uint32_t l = filt_arena_[s];
      validation::require(
          l < flag_lt_cap_.size() && flag_lt_cap_[l] != 0 &&
              std::find(links.begin(), links.end(), l) != links.end(),
          "FlowSimulator",
          "filtered entries must be flagged links of the flow's path");
    }
    filt_total += filt_count_[i];
  }
  validation::require(filt_total == filt_live_, "FlowSimulator",
                      "filtered live total must match the per-flow counts");

  // Stranded flows carry a positive remaining volume from a past instant.
  for (const StrandedFlow& s : stranded_) {
    validation::require(
        std::isfinite(s.remaining_bits) && s.remaining_bits > 0.0 &&
            s.stranded_at.value() <= engine_.now().value(),
        "FlowSimulator", "stranded flows must hold future work from the past");
  }

  // Cache-vs-router agreement (no-op when the cache is stale or disabled).
  route_cache_.check_agreement();
}

}  // namespace netpp
