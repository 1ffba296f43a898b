// Event-driven flow-level network simulator.
//
// Flows (src host, dst host, size) arrive over time, are ECMP-routed over
// the topology, and share link bandwidth max-min fairly. On every arrival or
// completion the allocation is recomputed and the earliest completion is
// (re)scheduled. The simulator tracks per-directed-link utilization over
// time and per-switch load, and notifies a listener after every
// reallocation — the hook the §4 power mechanisms attach to.
//
// This is a fluid model (no packets): standard practice for
// utilization/energy studies at cluster scale.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "netpp/netsim/fairshare.h"
#include "netpp/netsim/soa.h"
#include "netpp/sim/engine.h"
#include "netpp/sim/stats.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/graph.h"
#include "netpp/topo/route_cache.h"
#include "netpp/topo/routing.h"
#include "netpp/units.h"

namespace netpp {

using FlowId = std::uint64_t;

/// A flow to inject.
struct FlowSpec {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bits size{};
  Seconds start{};
  /// Caller tag carried through to the completion record (e.g. iteration
  /// number, job id).
  std::uint64_t tag = 0;
};

/// A FlowSpec's fields in snapshot walks (see state/snapshot.h):
/// kFlowSpecBytes on the wire.
inline constexpr std::size_t kFlowSpecBytes = 32;
template <class Io, class Spec>
void transfer_spec(Io& io, Spec& spec) {
  io.field(spec.src);
  io.field(spec.dst);
  io.field(spec.size);
  io.field(spec.start);
  io.field(spec.tag);
}

/// Completion record.
struct FlowRecord {
  FlowId id = 0;
  FlowSpec spec;
  Seconds finished{};
  /// Flow completion time (finished - spec.start).
  [[nodiscard]] Seconds fct() const { return finished - spec.start; }
};

/// Directed link index: each undirected Link has two directions.
/// Direction 0 carries a->b traffic, 1 carries b->a.
struct DirectedLink {
  LinkId link = kInvalidLink;
  int direction = 0;

  [[nodiscard]] std::size_t index() const {
    return static_cast<std::size_t>(link) * 2 + direction;
  }
};

class FlowSimulator {
 public:
  struct Config {
    /// Per-flow rate cap; 0 disables (flows are then only link-limited).
    Gbps flow_rate_cap{0.0};
    /// Route arrivals, reroutes, and stranded-flow resumes through the
    /// epoch-versioned RouteCache instead of running a fresh BFS per flow.
    /// Path selection is bit-identical either way (same enumeration order,
    /// same flow hash); disable only to cross-check (see
    /// tests/netsim/flowsim_routecache_test.cpp).
    bool use_route_cache = true;
    /// Incremental reallocation: arrivals and departures that provably leave
    /// every other flow's allocation unchanged (all touched links stay
    /// strictly unsaturated) skip the full fair-share re-solve. The
    /// resulting allocation is the same max-min solution; disable only to
    /// cross-check (see tests/netsim/flowsim_incremental_test.cpp).
    bool incremental_reallocation = true;
    /// When a flow finds no route at admission time, park it on the stranded
    /// list (it is retried after every topology recovery) instead of counting
    /// it as permanently unroutable. Fault-injection runs want this on; the
    /// default preserves the historical "drop and count" semantics.
    bool strand_unroutable = false;
    /// Optional telemetry bundle (must outlive the simulator). The
    /// "netsim.*" counters/gauges land in its registry and, when its event
    /// log is enabled, flow/solver/topology events are recorded. Null keeps
    /// the counters in a simulator-private registry (realloc_stats() works
    /// either way). Attach at most one simulator per bundle if per-instance
    /// counter values matter: a shared registry merges same-named series.
    telemetry::Telemetry* telemetry = nullptr;
  };

  /// Observability counters for the reallocation fast paths and the
  /// fault/topology-change machinery.
  struct ReallocStats {
    std::uint64_t full_solves = 0;
    std::uint64_t fast_arrivals = 0;    // admitted at cap, no re-solve
    std::uint64_t fast_departures = 0;  // removed without re-solve
    /// Reallocations (counted in full_solves) resolved on the binding
    /// subset: only flows crossing a link whose equal share sits below the
    /// uniform cap went through the solver; everyone else got the cap.
    std::uint64_t binding_solves = 0;
    /// Total flows the binding walk visited across binding_solves (the
    /// average subset size is binding_subset_flows / binding_solves). A
    /// seeded solve counts the closure of the event's links; a full
    /// evaluation (startup, topology changes) seeds the walk from every
    /// populated link, so it counts every active flow with a non-empty path.
    std::uint64_t binding_subset_flows = 0;
    std::uint64_t topology_changes = 0;  // enable/disable/degrade events
    std::uint64_t reroutes = 0;          // flows moved to a surviving path
    std::uint64_t stranded = 0;          // flows with no surviving path
    std::uint64_t resumed = 0;           // stranded flows re-admitted
    /// Route-cache counters (zeros when Config::use_route_cache is off).
    RouteCacheStats route_cache;
  };

  /// `graph`, `router`, and `engine` must outlive the simulator. The router
  /// is shared so that mechanisms can disable nodes/links and have the
  /// simulator route around them (affects flows admitted afterwards).
  FlowSimulator(const Graph& graph, Router& router, SimEngine& engine,
                Config config);
  /// Default configuration.
  FlowSimulator(const Graph& graph, Router& router, SimEngine& engine);
  /// Flushes the point-in-time metrics into the registry (see
  /// flush_metrics) so exports read final values even after the simulator
  /// is gone.
  ~FlowSimulator();

  /// Submits a flow for injection at `spec.start` (>= now). Returns its id.
  /// Rejects NaN/non-finite sizes and start times, and starts before now(),
  /// with std::invalid_argument, before an id is taken.
  FlowId submit(const FlowSpec& spec);

  // --- Dynamic topology (fault injection / degraded-mode policies) ---
  //
  // These mutate the shared Router *and* immediately repair the running
  // simulation: flows whose path crosses a disabled device are re-routed
  // over surviving ECMP paths (or stranded if disconnected), the max-min
  // allocation is recomputed, and stranded flows are retried after every
  // recovery. `realloc_stats()` counts the outcomes.

  /// Fails (enabled=false) or repairs (enabled=true) a node mid-simulation.
  void set_node_enabled(NodeId id, bool enabled);

  /// Fails or repairs a link mid-simulation.
  void set_link_enabled(LinkId id, bool enabled);

  /// Degrades a link to `factor` (in (0, 1]) of its nominal capacity in both
  /// directions; 1.0 restores it. Use set_link_enabled for a full outage.
  void set_link_capacity_factor(LinkId id, double factor);

  [[nodiscard]] double link_capacity_factor(LinkId id) const {
    return link_factor_.at(id);
  }

  /// Flows currently parked because no enabled path connects their
  /// endpoints. They resume (with their remaining volume) on recovery.
  [[nodiscard]] std::size_t stranded_flows() const { return stranded_.size(); }

  /// Integral of (remaining demand x time spent stranded) in bit-seconds up
  /// to `now`, including flows still stranded — the "stranded
  /// demand-seconds" resilience metric.
  [[nodiscard]] double stranded_bit_seconds(Seconds now) const;

  /// Time each resumed flow spent stranded, in seconds (one entry per
  /// resume; recovery-time percentiles are computed from this).
  [[nodiscard]] const std::vector<double>& strand_durations() const {
    return strand_durations_;
  }

  [[nodiscard]] const Router& router() const { return router_; }

  /// Listener called after every reallocation (arrival or completion).
  using LoadListener = std::function<void(Seconds now)>;
  void set_load_listener(LoadListener listener) {
    listener_ = std::move(listener);
  }

  /// Listener called once per completed flow (before the post-completion
  /// reallocation), e.g. to drive closed-loop workloads.
  using CompletionListener = std::function<void(const FlowRecord&)>;
  void set_completion_listener(CompletionListener listener) {
    completion_listener_ = std::move(listener);
  }

  /// Current rate carried by a directed link (sum over flows), in Gbps.
  [[nodiscard]] Gbps directed_link_rate(DirectedLink dl) const;

  /// Current utilization of a directed link in [0, 1].
  [[nodiscard]] double directed_link_utilization(DirectedLink dl) const;

  /// Current load of a node in [0, 1]: total incident traffic (both
  /// directions of all incident links) over total incident capacity.
  [[nodiscard]] double node_load(NodeId id) const;

  /// Time-weighted average utilization of a directed link up to now.
  [[nodiscard]] double average_link_utilization(DirectedLink dl) const;

  [[nodiscard]] std::size_t active_flows() const { return active_.size(); }
  [[nodiscard]] const std::vector<FlowRecord>& completed() const {
    return completed_;
  }
  /// Flows that could not be routed (disconnected src/dst).
  [[nodiscard]] std::size_t unroutable_flows() const { return unroutable_; }

  /// Summary of flow completion times so far.
  [[nodiscard]] const SummaryStat& fct_stats() const { return fct_; }

  /// How often the solver ran vs. how often the incremental fast paths
  /// absorbed an event (route-cache counters included). A thin view: the
  /// counters live in the telemetry registry (Config::telemetry or the
  /// simulator-private one) and are copied out here, so this and a metrics
  /// export of the same run always agree bit-for-bit.
  [[nodiscard]] const ReallocStats& realloc_stats() const;

  /// Current mean utilization across every directed link:
  /// sum(carried) / sum(capacity). O(num links) — sample, don't poll per
  /// event.
  [[nodiscard]] double current_mean_utilization() const;

  /// The sums behind current_mean_utilization(), so a multi-shard driver
  /// can merge utilization exactly instead of averaging ratios.
  struct UtilizationTotals {
    double carried_bps = 0.0;
    double capacity_bps = 0.0;
  };
  [[nodiscard]] UtilizationTotals utilization_totals() const;

  /// Mirrors the point-in-time values (route-cache and solver totals,
  /// active/completed/stranded/unroutable gauges) into the registry.
  /// Called automatically on destruction; call before exporting mid-run.
  void flush_metrics();

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] SimEngine& engine() { return engine_; }

  // --- Snapshot / restore (see docs/MODELS.md, "Snapshot format") ---
  //
  // save_state() serializes every piece of order-sensitive simulator state
  // verbatim — active flows with their SoA rate/remaining columns, the
  // link->flow membership arenas including dead blocks, carried-rate sums,
  // the route cache, the shared router's enablement masks, pending
  // injections, and the scheduled completion event's (time, FIFO seq) pair —
  // so a restored run replays the exact same floating-point operations in
  // the exact same order as the uninterrupted run. Call only at an event
  // boundary (never from inside a simulator callback).
  //
  // restore_state() overwrites this simulator (which must have been built
  // over the same graph with the same Config) with the snapshot image and
  // re-registers the pending events on the engine with their original FIFO
  // sequence numbers. The engine's clock must already have been restored
  // (SimEngine::restore_clock) by the orchestrator. check_invariants() runs
  // automatically at the end; corrupt snapshots throw
  // std::invalid_argument("FlowSimulator: ..."/"SnapshotReader: ...").
  //
  // Deliberate exclusions (behavior-neutral, documented in docs/MODELS.md):
  // the binding-walk generation stamps restart at zero (identical results
  // until the 2^32-solve wrap, which the walk already handles), and
  // listeners/event-log attachments are reconstructed by the caller.
  void save_state(state::SnapshotWriter& w) const;
  void restore_state(state::SnapshotReader& r);

  /// Structural self-check, callable at any event boundary: per-link rate
  /// feasibility (carried <= capacity, carried == sum of member rates),
  /// conservation of remaining bits (0 <= remaining <= size), arena /
  /// membership / back-pointer agreement, filtered-list-vs-flag agreement,
  /// and cache-vs-router epoch/enablement agreement. Throws
  /// std::invalid_argument("FlowSimulator: constraint") on violation.
  void check_invariants() const;

 private:
  // --- Sharded-driver hooks (see netpp/netsim/sharded.h) ---
  //
  // The sharded driver reconciles the two halves of a cross-shard flow at
  // its bounded-lag barriers. Inside its window, each shard settles to the
  // barrier time, taking the completion minima on the way, and reads its
  // halves off the member lists of its gateway links (every half crosses
  // exactly one); the barrier then raises the faster half of each pair to
  // the slower half's remaining volume (rate = min of the halves at window
  // granularity) and re-derives the completion event. The hooks are
  // allocation-free and leave rates and the carried-sum bookkeeping
  // untouched, so check_invariants() holds across any raise sequence. Only
  // the driver calls them, and only at event boundaries (never from inside
  // a simulator callback).
  friend class ShardedFlowSimulator;

  /// Settles flow progress to the engine's current time and takes the
  /// completion scan's two minima over the settled columns: one
  /// soa::settle_and_scan pass at threshold -inf, so no lane counts as due
  /// and the minima cover every lane. Idempotent: a second call at the same
  /// time writes nothing, so barrier settles compose with the simulator's
  /// own event-driven settles, and schedule_next_completion() takes its
  /// rescan through it.
  soa::CompletionPass settle_and_scan_to_now();

  /// Whether active flow `index` attains one of `minima`
  /// (soa::attains_minimum): the lanes whose raise can move them.
  [[nodiscard]] bool attains_completion_minimum(
      std::size_t index, const soa::CompletionPass& minima) const {
    return soa::attains_minimum(flow_remaining_[index], flow_rate_bps_[index],
                                config_.flow_rate_cap.bits_per_second(),
                                minima);
  }

  /// Calls visit(index, tag, remaining_bits) for every active flow crossing
  /// directed link `dl`, in membership order: the flow's position in the
  /// active-flow columns (valid only until the next event), its spec tag,
  /// and its remaining volume as of the last settle. Visits nothing on a
  /// link no flow has crossed yet.
  template <class Visit>
  void for_each_flow_on(DirectedLink dl, Visit&& visit) const {
    const std::size_t r = dl.index();
    if (r >= link_flows_.num_links()) return;
    for (const std::uint32_t i : link_flows_.flows(r)) {
      visit(i, active_[i].spec.tag, flow_remaining_[i]);
    }
  }

  /// Raises active flow `index`'s remaining volume to `bits`, unvalidated:
  /// the driver raises a half to its partner's remaining volume, which lies
  /// in [current, size] because both halves share the flow's size. Rates
  /// are untouched, so per-link feasibility is preserved; settle first and
  /// reschedule the completion after the batch of raises.
  void raise_remaining_bits(std::size_t index, double bits) {
    assert(index < active_.size() && bits >= flow_remaining_[index]);
    flow_remaining_[index] = bits;
  }

  /// Cancels and re-derives the completion event from the current
  /// remaining/rate columns (the tail of every reallocation), for use after
  /// a batch of raises.
  void reschedule_completion() { schedule_next_completion(); }

  /// The same from minima taken over the columns before the raises. A raise
  /// only delays its lane, so they are the rescan's minima whenever no
  /// raised lane attained one; the event time and sequence number then
  /// match reschedule_completion()'s. `retry` as for schedule_completion.
  void reschedule_completion(const soa::CompletionPass& minima,
                             bool retry = false);

  // Cold per-flow identity. The hot per-event scalars — current rate,
  // remaining volume, and the flow's arena block (begin/count into
  // flow_links_) — live in the parallel structure-of-arrays columns next to
  // active_ below, so the settle and completion scans stream dense double
  // arrays (vectorized soa kernels) and the binding-closure walk never
  // drags these structs through cache.
  struct ActiveFlow {
    FlowId id;
    FlowSpec spec;
    Seconds admitted{};
  };

  /// A flow disconnected by failures, waiting for a path to reappear.
  struct StrandedFlow {
    FlowId id;
    FlowSpec spec;
    double remaining_bits;
    Seconds stranded_at{};
  };

  template <class Self, class Io>
  static void transfer(Self& self, Io& io);
  void admit(FlowSpec spec, FlowId id);
  /// Injection-event body: takes the pending submission out of pool slot
  /// `slot`, frees the slot, then admits the flow. The indirection (instead
  /// of capturing the spec in the scheduled closure) is what lets
  /// save_state() serialize not-yet-admitted flows and restore_state()
  /// re-register their injection events.
  void admit_pending(std::uint32_t slot);
  /// Every check submit() makes before it takes an id or a pool slot: the
  /// endpoints exist and differ, the size is finite and positive, and the
  /// start is finite and not before now(). ShardedFlowSimulator runs it on
  /// each half of a flow before it takes a flow id.
  void check_submit(const FlowSpec& spec) const;
  /// Rejects NaN/negative rate caps, zero path budgets, and non-positive
  /// link capacities up front ("FlowSimulator::Config: constraint").
  void validate_config() const;
  void settle_progress(Seconds now);
  void reallocate(Seconds now);
  /// Binding-subset reallocation (uniform cap only): walks the closure of
  /// the seed links (the event's links, or every populated link on a full
  /// evaluation) through binding links (equal share below the cap), solves
  /// max-min on just the closure flows that cross one, and hands every
  /// other closure flow exactly the cap. Writes rates only; returns true
  /// when it ran as a seeded (incremental) solve, in which case
  /// bind_sub_links_ lists every link whose carried sum may have moved so
  /// reallocate() can confine the writeback. See reallocate() for why this
  /// is the same allocation.
  bool reallocate_binding_subset(double cap_bps);
  /// A full completion scan (settle_and_scan_to_now() over columns its
  /// callers already settled to now, so it writes nothing), then
  /// reschedule_completion from its minima. `retry` marks the nothing-due
  /// guard (see schedule_completion).
  void schedule_next_completion(bool retry = false);
  /// Schedules the completion event at the earliest finish implied by a
  /// completion scan's minima (none when no flow progresses). A `retry` that
  /// rounds back to now, with no other event pending at now, would re-fire
  /// the same no-op forever; it moves to the next representable time.
  void schedule_completion(double min_quotient, double min_capped,
                           bool retry = false);
  /// Completion (re)scheduling after a fast arrival: the new flow is the
  /// only one whose completion estimate changed and it runs exactly at the
  /// uniform cap, so min(current event time, now + remaining / cap)
  /// replaces the full completion scan — O(1) instead of O(active flows).
  /// The ulp-level slack between a kept event time and a freshly scanned
  /// one is absorbed by complete_due_flows' nothing-due reschedule guard.
  void schedule_completion_for_cap_arrival(std::size_t index);
  /// Completion-event body: one soa::settle_and_scan pass settles to now and
  /// counts the due flows; a soa::find_due search jumps from one to the next
  /// (swap-and-pop order), and the pass's minima schedule the next event
  /// when every departure took the fast path.
  void complete_due_flows(Seconds now);
  /// Arrival fast path: if the new flow (already in active_, at index i) can
  /// run at its cap without saturating any link it crosses, no other
  /// allocation moves.
  bool try_fast_arrival(Seconds now, std::size_t i);
  /// Departure fast path: a flow leaving only strictly-unsaturated links
  /// frees no bottleneck, so the remaining allocations stand.
  bool try_fast_departure(Seconds now, std::size_t i);
  void set_directed_rate(Seconds now, std::size_t index, double value);
  /// Overwrites `out` with the directed resource indices of `path` in
  /// traversal order.
  void directed_indices_of(const Path& path,
                           std::vector<std::uint32_t>& out) const;
  /// ECMP-routes (src, dst, flow id) through the cache (or the Router when
  /// the cache is disabled) and overwrites `out` with the path's directed
  /// resource indices. Returns false when disconnected.
  bool route_flow(NodeId src, NodeId dst, FlowId id,
                  std::vector<std::uint32_t>& out);
  /// Whether every link and transit node of flow i's path is enabled.
  [[nodiscard]] bool path_alive(std::size_t i) const;
  /// Flow i's directed resource indices (a view into the arena).
  [[nodiscard]] std::span<const std::uint32_t> flow_links(std::size_t i) const {
    return {flow_links_.data() + flow_lbegin_[i], flow_lcount_[i]};
  }
  /// Flow i's binding-candidate links: flow_links(i) filtered down to the
  /// links whose flag_lt_cap_ flag is set, maintained incrementally (see
  /// set_share_flag). The binding closure walk streams these directly
  /// instead of re-filtering the full link list per solve.
  [[nodiscard]] std::span<const std::uint32_t> filt_links(std::size_t i) const {
    return {filt_arena_.data() + filt_begin_[i], filt_count_[i]};
  }
  /// Writes flag_lt_cap_[r] and, on a flip, splices link r into or out of
  /// every member flow's filtered list — the lists stay exactly
  /// {l in flow_links(f) : flag_lt_cap_[l]} at all times.
  void set_share_flag(std::uint32_t r, std::uint8_t v);
  /// Appends/removes one link in flow f's filtered list.
  void filt_append(std::uint32_t f, std::uint32_t l);
  void filt_remove(std::uint32_t f, std::uint32_t l);
  /// Rebuilds flow `index`'s filtered list from its link list and the
  /// current flags (store_flow_links tail, after membership enrollment).
  void filt_build(std::uint32_t index);
  /// Repacks the filtered arena when dead blocks dominate.
  void maybe_compact_filt();
  /// Appends a flow to active_ and every parallel SoA column (zero rate, no
  /// links yet).
  void push_active(FlowId id, const FlowSpec& spec, double remaining_bits,
                   Seconds now);
  /// Swap-and-pops flow i out of active_ and every parallel SoA column,
  /// renumbering the moved flow's membership entries.
  void swap_remove_active(std::size_t i);
  /// Appends `links` to the arena, points flow `index`'s SoA block column at
  /// the copy, and enrolls the flow in the per-link membership lists.
  void store_flow_links(std::uint32_t index,
                        const std::vector<std::uint32_t>& links);
  /// Marks flow i's arena block dead (space reclaimed by compaction) and
  /// removes the flow from the per-link membership lists.
  void release_flow_links(std::size_t i);
  /// Rewrites the membership entries of the flow now living at `index` in
  /// active_ (call after its SoA columns moved there).
  void renumber_flow_links(std::uint32_t index);
  /// Repacks the arena when dead blocks dominate; amortized O(1) per event.
  void maybe_compact_links();
  /// Re-validates all paths, reroutes/strands, retries stranded flows, and
  /// recomputes the allocation. Called after every topology mutation.
  void apply_topology_change();
  void retry_stranded(Seconds now);

  const Graph& graph_;
  Router& router_;
  SimEngine& engine_;
  Config config_;

  /// Structure-of-arrays link->flows incidence. Each directed link owns a
  /// block in two parallel 64-byte-aligned uint32 arenas: the member flow
  /// index (into active_) and that member's flow_links_ arena slot (the
  /// back-pointer pair with flow_adj_pos_). Blocks grow by doubling
  /// relocation at the arena tail; abandoned blocks are reclaimed by a
  /// whole-arena repack once dead space dominates the live membership, so
  /// growth stays amortized O(1) per hop. The binding-subset closure walk
  /// and the per-link rate writeback stream flows(r) — contiguous uint32
  /// runs — instead of chasing one heap-allocated vector per link.
  class LinkFlowPool {
   public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    void ensure_links(std::size_t n) {
      if (blocks_.size() < n) blocks_.resize(n);
    }
    [[nodiscard]] std::size_t num_links() const { return blocks_.size(); }
    [[nodiscard]] std::uint32_t count(std::size_t r) const {
      return blocks_[r].count;
    }
    [[nodiscard]] bool empty(std::size_t r) const {
      return blocks_[r].count == 0;
    }
    /// The flows on link r, in membership order (arbitrary but stable
    /// between mutations).
    [[nodiscard]] std::span<const std::uint32_t> flows(std::size_t r) const {
      const Block& b = blocks_[r];
      return {flow_of_.data() + b.begin, b.count};
    }
    /// Appends member (flow, arena slot) to link r; returns its position in
    /// the member list.
    std::uint32_t push(std::size_t r, std::uint32_t flow, std::uint32_t slot) {
      if (blocks_[r].count == blocks_[r].cap) grow_block(r);
      Block& b = blocks_[r];
      flow_of_[b.begin + b.count] = flow;
      slot_of_[b.begin + b.count] = slot;
      ++live_;
      return b.count++;
    }
    /// Swap-removes position pos from link r; returns the arena slot of the
    /// member that moved into pos (kNone when pos was the last member), so
    /// the caller can fix its back-pointer.
    std::uint32_t remove(std::size_t r, std::uint32_t pos) {
      Block& b = blocks_[r];
      --b.count;
      --live_;
      if (pos == b.count) return kNone;
      flow_of_[b.begin + pos] = flow_of_[b.begin + b.count];
      slot_of_[b.begin + pos] = slot_of_[b.begin + b.count];
      return slot_of_[b.begin + pos];
    }
    void set_flow(std::size_t r, std::uint32_t pos, std::uint32_t flow) {
      flow_of_[blocks_[r].begin + pos] = flow;
    }
    void set_slot(std::size_t r, std::uint32_t pos, std::uint32_t slot) {
      slot_of_[blocks_[r].begin + pos] = slot;
    }
    [[nodiscard]] std::size_t live() const { return live_; }
    /// Back-pointer read used by the invariant checks.
    [[nodiscard]] std::uint32_t slot_at(std::size_t r, std::uint32_t pos) const {
      return slot_of_[blocks_[r].begin + pos];
    }

    /// The snapshot walk: the block table verbatim (begin/count/cap, dead
    /// space included) and the full flow/slot columns, so post-restore
    /// membership iteration order and relocation timing match the
    /// uninterrupted run exactly.
    template <class Self, class Io>
    static void transfer(Self& self, Io& io);

   private:
    struct Block {
      std::uint32_t begin = 0;
      std::uint32_t count = 0;
      std::uint32_t cap = 0;
    };
    void grow_block(std::size_t r);
    void repack();

    std::vector<Block> blocks_;
    soa::AlignedVec<std::uint32_t> flow_of_;
    soa::AlignedVec<std::uint32_t> slot_of_;
    std::size_t live_ = 0;
  };

  std::vector<ActiveFlow> active_;
  // Hot per-flow scalars, parallel to active_ (structure-of-arrays; see the
  // ActiveFlow comment). Maintained in lockstep at every push and
  // swap-and-pop: rate and remaining feed the soa kernels as dense
  // 64-byte-aligned double streams — one fused soa::settle_and_scan pass
  // plus soa::find_due searches per completion event, soa::settle at
  // admissions and topology changes, and the same fused pass, reading only,
  // after every reallocation; begin/count are flow i's block in the
  // flow_links_ arena.
  soa::AlignedVec<double> flow_rate_bps_;
  soa::AlignedVec<double> flow_remaining_;
  soa::AlignedVec<std::uint32_t> flow_lbegin_;
  soa::AlignedVec<std::uint32_t> flow_lcount_;
  // Per-flow filtered link lists (the flagged subset of each flow's links),
  // as blocks in their own arena: begin/count/cap columns parallel to
  // active_. Appends on a 0->1 flag flip relocate a full block to the arena
  // tail with doubled headroom; dead space is reclaimed by
  // maybe_compact_filt. filt_live_ tracks the live total.
  soa::AlignedVec<std::uint32_t> filt_begin_;
  soa::AlignedVec<std::uint32_t> filt_count_;
  soa::AlignedVec<std::uint32_t> filt_cap_;
  soa::AlignedVec<std::uint32_t> filt_arena_;
  std::size_t filt_live_ = 0;
  // Flat arena of every active flow's directed link indices (blocks
  // addressed by the flow_lbegin_/flow_lcount_ columns), 32-bit like the
  // solver's native index width. Departures and reroutes leave dead blocks
  // behind; maybe_compact_links() repacks when they dominate. live_hops_
  // tracks the live total.
  std::vector<std::uint32_t> flow_links_;
  std::vector<std::uint32_t> flow_links_scratch_;
  std::size_t live_hops_ = 0;
  // Persistent link->flows incidence, maintained by store/release/renumber
  // in O(hops) per event instead of rebuilt O(total hops) per solve.
  // flow_adj_pos_ (parallel to flow_links_) is the back-pointer: the hop's
  // position inside its link's member list, making removal and renumbering
  // O(1) per hop.
  LinkFlowPool link_flows_;
  std::vector<std::uint32_t> flow_adj_pos_;
  std::vector<std::uint32_t> adj_pos_scratch_;
  // Links with at least one member, with positions for O(1) removal.
  std::vector<std::uint32_t> touched_links_;
  std::vector<std::uint32_t> touched_pos_;
  // Persistent per-directed-link binding flag: capacity / member count
  // below the uniform cap (the exact division the solver's heap seeding
  // performs). Kept current at every membership or capacity change: the
  // fast paths and the seeded walk refresh the links they touch, full
  // evaluations refresh every populated link.
  std::vector<std::uint8_t> flag_lt_cap_;
  std::vector<std::uint32_t> route_scratch_;  // route_flow output buffer
  std::vector<FlowRecord> completed_;
  std::vector<StrandedFlow> stranded_;
  std::vector<double> strand_durations_;        // seconds, one per resume
  double stranded_bit_seconds_done_ = 0.0;      // resumed flows' integral
  std::vector<double> directed_capacity_bps_;   // 2 per link, degraded
  std::vector<double> link_factor_;              // capacity factor per link
  std::vector<TimeWeighted> directed_rate_bps_;  // time-weighted history
  std::vector<double> carried_bps_;              // current carried rate

  // Persistent solver workspace, reused across events: the solver reads its
  // CSR rows (solver_arena_ / solver_start_, one offset per row plus the end
  // sentinel) in place and keeps its own buffers warm. The binding walk lays
  // down its discovered flows' filtered link lists there; the dense path
  // flattens every active flow's link list (with solver_caps_, one cap per
  // row).
  MaxMinSolver solver_;
  std::vector<std::uint32_t> solver_arena_;
  std::vector<std::uint32_t> solver_start_;
  std::vector<double> solver_caps_;
  std::vector<double> carried_scratch_;
  // Binding-subset workspace: the active indices of the flows handed to the
  // solver (one per solver row), generation-stamped visit marks for the
  // closure walk (no O(num links) clears per event), and the walk's stack.
  std::vector<std::uint32_t> bind_flows_;
  // Generation-stamped visit marks: deliberately std::vector (zero-init on
  // resize is load-bearing — a fresh stamp slot must never equal bind_gen_).
  std::vector<std::uint32_t> bind_link_seen_;
  std::vector<std::uint32_t> bind_flow_seen_;
  std::vector<std::uint32_t> bind_stack_;
  // Links whose carried sums can have moved this event — the links of
  // closure flows whose solved rate actually changed, plus the live seed
  // links (membership changed there) — each once: the seeded writeback's
  // work list.
  std::vector<std::uint32_t> bind_sub_seen_;
  std::vector<std::uint32_t> bind_sub_links_;
  // The deduplicated flagged links the solver rows cross: the sparse
  // solve's reset set.
  std::vector<std::uint32_t> bind_solver_links_;
  // Flows the walk discovered this event, solver rows plus direct-capped;
  // feeds the telemetry counter.
  std::size_t bind_discovered_ = 0;
  std::uint32_t bind_gen_ = 0;
  // Seed links for the next reallocation: the directed links of the flows
  // that arrived/departed since the last solve. When valid, only the flows
  // reachable from these links through binding links are re-solved; every
  // other flow's rate is provably unchanged and kept as cached. Consumed
  // (reset to full) by reallocate().
  std::vector<std::uint32_t> seed_links_;
  bool seed_valid_ = false;
  RouteCache route_cache_;
  // Telemetry instruments. The counters behind ReallocStats live here: each
  // increment site bumps a registry slot (Config::telemetry's registry, or
  // local_metrics_ when detached) and realloc_stats() reads them back.
  struct Instruments {
    telemetry::Counter full_solves;
    telemetry::Counter fast_arrivals;
    telemetry::Counter fast_departures;
    telemetry::Counter binding_solves;
    telemetry::Counter binding_subset_flows;
    telemetry::Counter topology_changes;
    telemetry::Counter reroutes;
    telemetry::Counter stranded;
    telemetry::Counter resumed;
    telemetry::Counter cache_hits;
    telemetry::Counter cache_misses;
    telemetry::Counter cache_epoch_flushes;
    telemetry::Counter solver_solves;
    telemetry::Counter solver_flows;
    telemetry::Gauge active_flows;
    telemetry::Gauge completed_flows;
    telemetry::Gauge stranded_flows;
    telemetry::Gauge unroutable_flows;
    telemetry::Gauge cache_entries;
    telemetry::Gauge cache_pool_bytes;
    telemetry::Histogram fct;
  };
  void init_instruments(telemetry::MetricRegistry& registry);
  void update_flow_gauges();
  std::unique_ptr<telemetry::MetricRegistry> local_metrics_;
  Instruments inst_;
  telemetry::EventLog* events_ = nullptr;
  // Mutable so realloc_stats() can refresh the view from the registry
  // counters without a separate accessor on every call site.
  mutable ReallocStats realloc_stats_;
  SummaryStat fct_;
  std::size_t unroutable_ = 0;
  FlowId next_id_ = 1;
  Seconds last_settle_{};
  std::optional<SimEngine::EventId> completion_event_;
  /// Submitted flows whose injection event has not fired yet, tracked so
  /// snapshots can serialize them and restores re-register the injection
  /// events with their original FIFO sequence numbers. A slot pool: each
  /// submission takes a slot, whose index its injection closure captures,
  /// and the admission frees it for reuse (the last freed is the first
  /// reused). Slots sit in chunks that double from a small first one and
  /// never move, so once the pool has grown to the largest pending
  /// population, a submission or an admission allocates and frees nothing.
  class PendingPool {
   public:
    struct Entry {
      /// 0 marks a free slot: flow ids start at 1.
      FlowId id = 0;
      FlowSpec spec;
      /// The injection event; on a free slot, the next free slot's index.
      SimEngine::EventId event = 0;
    };

    /// A free slot (the last one freed, else a fresh one); the caller
    /// fills its entry.
    std::uint32_t acquire();
    void release(std::uint32_t slot) {
      Entry& e = (*this)[slot];
      e.id = 0;
      e.event = free_head_;
      free_head_ = slot;
    }
    Entry& operator[](std::uint32_t slot) {
      const std::uint32_t j = slot + kFirstChunk;
      const int c = static_cast<int>(std::bit_width(j)) - 1 - kFirstChunkLog2;
      return chunks_[static_cast<std::size_t>(c)][j - (kFirstChunk << c)];
    }
    /// Calls visit(entry) for every pending submission, in slot order.
    template <class Visit>
    void for_each(Visit&& visit) const {
      for (const std::vector<Entry>& chunk : chunks_) {
        for (const Entry& e : chunk) {
          if (e.id != 0) visit(e);
        }
      }
    }
    /// Frees every chunk (snapshot restore).
    void clear() { *this = PendingPool{}; }

   private:
    static constexpr int kFirstChunkLog2 = 4;
    static constexpr std::uint32_t kFirstChunk = 1u << kFirstChunkLog2;
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    // Chunk c holds slots [kFirstChunk * (2^c - 1), kFirstChunk * (2^(c+1)
    // - 1)); its capacity is reserved up front and its entries are built on
    // first use, so a slot never moves and untouched capacity costs no
    // pages.
    std::vector<std::vector<Entry>> chunks_;
    std::uint32_t free_head_ = kNoSlot;
  };
  PendingPool pending_;
  LoadListener listener_;
  CompletionListener completion_listener_;
};

}  // namespace netpp
