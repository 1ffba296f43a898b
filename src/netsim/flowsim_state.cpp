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
#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "netpp/netsim/flowsim.h"
#include "netpp/validation.h"

namespace netpp {

namespace {

/// Shared tolerance for the carried-sum and feasibility audits: the
/// incremental bookkeeping is designed to stay within ~1e-9 relative of the
/// exact sums (kUnsaturatedFraction margin); 1e-6 relative leaves headroom
/// without masking real corruption.
constexpr double kAuditRelTol = 1e-6;

}  // namespace

// ---------------------------------------------------------------------------
// LinkFlowPool

template <class Self, class Io>
void FlowSimulator::LinkFlowPool::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "FlowSimulator";
  constexpr std::string_view kSizes =
      "snapshot link-membership arenas have mismatched sizes";
  io.seq(self.blocks_, 12, [&io](auto& b) {
    io.field(b.begin);
    io.field(b.count);
    io.field(b.cap);
  });
  const auto live = [&self](std::size_t b) {
    return std::pair{self.blocks_[b].begin, self.blocks_[b].count};
  };
  state::arena(io, self.flow_of_, self.blocks_.size(), live);
  state::arena(io, self.slot_of_, self.blocks_.size(), live);
  io.echo(self.flow_of_.size(), kWho, kSizes);  // shared by both columns
  io.check(self.slot_of_.size() == self.flow_of_.size(), kWho, kSizes);
  io.field(self.live_);
  if constexpr (Io::kReading) {
    std::uint64_t counted = 0;
    for (const Block& b : self.blocks_) {
      io.check(b.count <= b.cap && std::uint64_t{b.begin} + b.cap <=
                                       self.flow_of_.size(),
               kWho, "snapshot link-membership block exceeds its arena");
      counted += b.count;
    }
    io.check(counted == self.live_, kWho,
             "snapshot link-membership live count is inconsistent");
  }
}

// ---------------------------------------------------------------------------
// FlowSimulator

template <class Self, class Io>
void FlowSimulator::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "FlowSimulator";
  constexpr std::string_view kConfig =
      "snapshot config does not match this simulator's config";
  constexpr std::string_view kShape =
      "snapshot graph shape does not match this simulator";
  const Config& config = self.config_;
  io.open_section("flowsim");

  // Config + shape echo: a restore into a differently-configured simulator
  // would silently diverge, so reject it up front.
  io.echo(config.max_ecmp_paths, kWho, kConfig);
  io.echo(config.flow_rate_cap.value(), kWho, kConfig);
  io.echo(config.use_route_cache, kWho, kConfig);
  io.echo(config.incremental_reallocation, kWho, kConfig);
  io.echo(config.strand_unroutable, kWho, kConfig);
  io.echo(config.telemetry != nullptr, kWho,
          "snapshot telemetry attachment does not match this simulator");
  io.echo(self.graph_.num_nodes(), kWho, kShape);
  io.echo(self.graph_.num_links(), kWho, kShape);

  // Active flows + the parallel SoA columns, verbatim.
  io.seq(self.active_, 16 + kFlowSpecBytes, [&io](auto& f) {
    io.field(f.id);
    transfer_spec(io, f.spec);
    io.field(f.admitted);
  });
  io.field(self.flow_rate_bps_);
  io.field(self.flow_remaining_);
  io.field(self.flow_lbegin_);
  io.field(self.flow_lcount_);
  io.field(self.filt_begin_);
  io.field(self.filt_count_);
  io.field(self.filt_cap_);

  // Arenas — layout preserved exactly (block begins/caps and dead blocks),
  // so post-restore growth, relocation, and compaction fire at the same
  // events as the uninterrupted run (compaction rewrites membership order,
  // which changes summation order, so its timing is part of the
  // deterministic state).
  state::arena(io, self.filt_arena_, self.active_.size(),
               [&self](std::size_t i) {
                 return std::pair{self.filt_begin_[i], self.filt_count_[i]};
               });
  io.field(self.filt_live_);
  io.field(self.flow_links_);
  io.field(self.flow_adj_pos_);
  io.field(self.live_hops_);
  LinkFlowPool::transfer(self.link_flows_, io);
  io.field(self.touched_links_);
  io.field(self.touched_pos_);
  io.field(self.flag_lt_cap_);

  // Completion / strand history (feeds results and resilience metrics).
  io.seq(self.completed_, 16 + kFlowSpecBytes, [&io](auto& rec) {
    io.field(rec.id);
    transfer_spec(io, rec.spec);
    io.field(rec.finished);
  });
  io.seq(self.stranded_, 24 + kFlowSpecBytes, [&io](auto& s) {
    io.field(s.id);
    transfer_spec(io, s.spec);
    io.field(s.remaining_bits);
    io.field(s.stranded_at);
  });
  io.field(self.strand_durations_);
  io.field(self.stranded_bit_seconds_done_);

  // Per-directed-link capacity/rate state.
  const std::size_t directed = self.graph_.num_links() * 2;
  io.field(self.directed_capacity_bps_);
  io.field(self.link_factor_);
  io.field(self.carried_bps_);
  io.check(self.directed_capacity_bps_.size() == directed &&
               self.carried_bps_.size() == directed &&
               self.link_factor_.size() == self.graph_.num_links(),
           kWho, "snapshot link arrays do not match the graph");
  io.echo(self.directed_rate_bps_.size(), kWho,
          "snapshot rate histories do not match the graph");
  for (auto& tw : self.directed_rate_bps_) io.field(tw);

  // The solver's two counters (its workspaces are rebuilt on demand), and
  // the seed links of the next reallocation.
  MaxMinSolver::SolveStats solver_stats = self.solver_.stats();
  io.field(solver_stats.solves);
  io.field(solver_stats.flows_solved);
  if constexpr (Io::kReading) self.solver_.restore_stats(solver_stats);
  io.field(self.seed_links_);
  io.field(self.seed_valid_);

  io.field(self.fct_);
  io.field(self.unroutable_);
  io.field(self.next_id_);
  io.field(self.last_settle_);

  // Pending events, as (time, FIFO seq) pairs the restore re-registers. The
  // engine clock must already be restored; restore_event_at validates both
  // the time and the sequence bound.
  bool completion = self.completion_event_.has_value();
  io.field(completion);
  if constexpr (Io::kReading) {
    self.completion_event_.reset();
    if (completion) self.completion_event_.emplace();
  }
  if (completion) {
    state::pending_event(io, self.engine_, *self.completion_event_, self,
                         [](auto& sim) {
                           sim.complete_due_flows(sim.engine_.now());
                         });
  }
  // Pending submissions in event order, whichever pool slots they hold.
  using Entry = PendingPool::Entry;
  std::vector<const Entry*> by_seq;
  if constexpr (Io::kReading) {
    self.pending_.clear();
  } else {
    self.pending_.for_each(
        [&by_seq](const Entry& p) { by_seq.push_back(&p); });
    const SimEngine& engine = self.engine_;
    std::sort(by_seq.begin(), by_seq.end(),
              [&engine](const Entry* a, const Entry* b) {
                return engine.event_seq(a->event) < engine.event_seq(b->event);
              });
  }
  const std::size_t num_pending =
      io.count(by_seq.size(), 24 + kFlowSpecBytes);
  std::vector<FlowId> pending_ids;
  for (std::size_t i = 0; i < num_pending; ++i) {
    Entry restored;
    std::conditional_t<Io::kReading, Entry, const Entry>* p = &restored;
    if constexpr (!Io::kReading) p = by_seq[i];
    io.field(p->id);
    transfer_spec(io, p->spec);
    io.check(p->id != 0 && p->id < self.next_id_, kWho,
             "snapshot pending submission is not a submitted flow");
    std::uint32_t slot = 0;
    if constexpr (Io::kReading) {
      slot = self.pending_.acquire();
      self.pending_[slot] = restored;
      p = &self.pending_[slot];
      pending_ids.push_back(p->id);
    }
    state::pending_event(io, self.engine_, p->event, self,
                         [slot](auto& sim) { sim.admit_pending(slot); });
  }
  std::sort(pending_ids.begin(), pending_ids.end());
  io.check(std::adjacent_find(pending_ids.begin(), pending_ids.end()) ==
               pending_ids.end(),
           kWho, "snapshot holds a duplicate pending submission");

  // Shared router enablement + epoch (the simulator is its primary mutator).
  std::vector<std::uint8_t> nodes = self.router_.node_mask();
  std::vector<std::uint8_t> links = self.router_.link_mask();
  std::uint64_t epoch = self.router_.topology_epoch();
  io.field(nodes);
  io.field(links);
  io.field(epoch);
  if constexpr (Io::kReading) {
    self.router_.restore_enablement(nodes, links, epoch);
  }
  io.close_section();

  io.field(self.route_cache_);
  // Detached simulators own their counter registry; serialize it inline so
  // realloc_stats() and metric exports match bitwise after restore. Attached
  // simulators share the orchestrator's registry, which the orchestrator
  // snapshots itself.
  if (self.local_metrics_ != nullptr) io.field(*self.local_metrics_);
}

void FlowSimulator::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void FlowSimulator::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
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
