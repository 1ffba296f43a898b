// Pod-sharded flow simulation for multi-pod datacenter scale.
//
// ShardedFlowSimulator partitions a layered fabric by pod (topo/pods.h) and
// runs one complete FlowSimulator per shard — its own shard-local graph,
// Router, RouteCache, SimEngine, solver arenas, and telemetry registry — so
// the per-event costs that dominate at scale (completion scans, solver
// closures, route BFS) touch one pod group's state instead of the whole
// fabric. Shards advance in bounded-lag windows under one global clock:
// workers run each shard's event loop to the next barrier and collect the
// shard's live cross-shard halves, then a serial barrier phase drains
// completions and reconciles the collected halves pairwise.
//
// Cross-shard flows are split at the shard boundary into an ingress half
// (src -> gateway in the source shard) and an egress half (gateway -> dst in
// the destination shard); the gateway is a single node standing in for the
// collapsed core layer, reachable over per-agg links carrying the aggregate
// capacity of that agg's core uplinks. At every barrier the two halves are
// reconciled by min-progress: the half that ran ahead is pulled back to the
// slower half's remaining volume, which is exactly "the flow's end-to-end
// rate is the min of its halves" at window granularity. The flow completes
// when both halves have; its completion time is the later of the two. Every
// live half crosses exactly one agg <-> gateway link of its shard, so a
// shard finds its halves on those links' member lists, never by a walk over
// all of its active flows.
//
// Determinism: workers only ever run disjoint shards inside a window. A
// window task writes its own shard, its own collection buffer, and its own
// halves' slots of the cross-pair table (src fields in the source shard,
// dst fields in the destination shard: distinct members, so no two tasks
// write the same memory). Everything that acts across shards — completion
// draining, raising the faster half of each pair, fault routing — happens
// in the serial barrier phase in fixed shard / submission order.
// Results are therefore bit-identical regardless of the worker-thread count
// (the SweepRunner discipline). With one shard the local topology is a
// verbatim copy of the global graph and no flow is ever split, so the
// single-shard configuration is bit-identical to a plain FlowSimulator
// driven over the same submissions (pinned by
// tests/netsim/flowsim_sharded_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netpp/netsim/flowsim.h"
#include "netpp/sim/engine.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/graph.h"
#include "netpp/topo/pods.h"
#include "netpp/topo/routing.h"

namespace netpp {

class ShardedFlowSimulator {
 public:
  struct Config {
    /// Shards to partition the fabric into. Pods are assigned contiguously
    /// (assign_pods_contiguous); must be in [1, num_pods]. One shard runs
    /// any graph the plain FlowSimulator does, core endpoints included.
    std::size_t num_shards = 1;
    /// Worker-thread ceiling for the window phase; 0 draws everything the
    /// shared thread budget (netpp/sim/thread_budget.h) allows. A window
    /// goes to the worker pool only when more than one shard has an event
    /// at or before its barrier; with at most one busy shard there is
    /// nothing to overlap, and the window runs on the calling thread.
    /// Never affects results, only wall-clock.
    std::size_t num_threads = 0;
    /// Bounded-lag window: barriers sit on the multiples of this interval
    /// (plus every run_until() boundary). Smaller windows track cross-shard
    /// rate coupling more tightly; larger windows amortize barrier cost.
    Seconds barrier_interval{0.01};
    /// Per-shard simulator configuration. `telemetry` must stay null: each
    /// shard owns a private registry (merged_metrics() merges them); a
    /// shared bundle would race under worker threads.
    FlowSimulator::Config shard;
  };

  /// `graph` must outlive the simulator. Throws std::invalid_argument for
  /// an unpartitionable graph or an out-of-range shard count.
  ShardedFlowSimulator(const Graph& graph, Config config);

  /// Submits a flow between global host ids for injection at `spec.start`
  /// (>= now(); legal between run_until calls, not from callbacks). Returns
  /// the driver-level flow id. spec.tag is the caller's tag, carried into
  /// the completion record.
  FlowId submit(const FlowSpec& spec);

  /// Advances every shard to `until` in bounded-lag windows.
  void run_until(Seconds until);

  /// Drains every pending event. Multi-shard fabrics advance one grid
  /// window at a time so no barrier ever lands on a data-dependent event
  /// time; a lone shard runs its engine dry and lands now() on the final
  /// event, matching the plain FlowSimulator.
  void run();

  /// The global clock (the last barrier time).
  [[nodiscard]] Seconds now() const { return now_; }

  // --- Dynamic topology (global ids; legal between run_until calls) ---
  //
  // Pod-local devices route to the owning shard's simulator. Core switches
  // and boundary links have no per-shard counterpart once the core is
  // collapsed; their failures rescale the owning agg's gateway-link
  // capacity to the surviving fraction of its core uplinks (a full outage
  // disables the gateway link).

  void set_node_enabled(NodeId id, bool enabled);
  void set_link_enabled(LinkId id, bool enabled);
  void set_link_capacity_factor(LinkId id, double factor);

  /// Global-id fault-state queries, the read side of the setters above.
  /// Core switches and boundary links answer from the driver's own fault
  /// state once the core is collapsed; pod-local devices answer from the
  /// owning shard's router/simulator.
  [[nodiscard]] bool node_enabled(NodeId id) const;
  [[nodiscard]] bool link_enabled(LinkId id) const;
  [[nodiscard]] double link_capacity_factor(LinkId id) const;

  // --- Results ---

  /// Completed user flows, in barrier-drain order (deterministic). Records
  /// carry the original global spec and driver flow ids; a cross-shard
  /// flow's finish time is the later of its halves'.
  [[nodiscard]] const std::vector<FlowRecord>& completed() const {
    return completed_;
  }
  [[nodiscard]] const SummaryStat& fct_stats() const { return fct_; }
  /// Shard-resident active flows, summed (a cross-shard flow counts once
  /// per live half).
  [[nodiscard]] std::size_t active_flows() const;
  /// User flows submitted but not yet completed (pending, active, or
  /// stranded).
  [[nodiscard]] std::size_t flows_in_flight() const {
    return flows_.size() - completed_.size();
  }
  [[nodiscard]] std::size_t stranded_flows() const;
  [[nodiscard]] std::size_t unroutable_flows() const;
  /// Reallocation / fault counters summed across shards.
  [[nodiscard]] FlowSimulator::ReallocStats realloc_stats() const;
  /// Stranded demand integral (bit-seconds) summed across shards.
  [[nodiscard]] double stranded_bit_seconds(Seconds now) const;
  /// Every shard's resume durations concatenated in shard order.
  [[nodiscard]] std::vector<double> strand_durations() const;
  /// Mean utilization across every shard-local directed link, merged from
  /// the per-shard carried/capacity sums (not an average of ratios). With
  /// one shard this is exactly the plain simulator's value.
  [[nodiscard]] double current_mean_utilization() const;
  /// Absolute time of the earliest pending event across every shard engine,
  /// +infinity when all are drained. Meaningful between run_until calls.
  [[nodiscard]] double next_event_time();

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] const FlowSimulator& shard(std::size_t s) const {
    return *shards_[s]->sim;
  }
  /// Mutable per-shard simulator access for wiring per-shard observers
  /// (load-trace recorders). An observer attached here fires inside the
  /// window phase, on a pool helper or on the calling thread, and must
  /// touch only its own shard.
  [[nodiscard]] FlowSimulator& shard_mutable(std::size_t s) {
    return *shards_[s]->sim;
  }
  [[nodiscard]] const ShardTopology& shard_topology(std::size_t s) const {
    return shards_[s]->topo;
  }
  /// The pod partition shards are cut along. With one shard it is the
  /// trivial partition: every node, core included, in pod 0.
  [[nodiscard]] const PodPartition& partition() const { return partition_; }

  /// Every shard's metric registry merged into one sample list: counters,
  /// gauges, and histogram buckets sum per metric name. Counter values are
  /// re-derived from the exact-integer merged counts (no double-sum drift)
  /// and the result is sorted by metric name, so the export is byte-stable
  /// across shard counts. The per-shard registries stay intact; this is the
  /// export view.
  [[nodiscard]] std::vector<telemetry::MetricSample> merged_metrics() const;

  /// Listener called after every barrier (completions drained, cross flows
  /// reconciled) with the barrier time — the sharded analogue of
  /// FlowSimulator's load listener, at window granularity.
  using BarrierListener = std::function<void(Seconds)>;
  void set_barrier_listener(BarrierListener listener) {
    barrier_listener_ = std::move(listener);
  }

  // --- Snapshot / restore ---
  //
  // Same discipline as FlowSimulator::save_state: call only at a barrier
  // (which is the only time the caller holds the clock anyway). The image
  // is one driver section — global clock and barrier cursor, the user-flow
  // table with cross-half bookkeeping, fault state — followed by each
  // shard's engine clock and full FlowSimulator image in shard order.
  // restore_state overwrites an identically configured simulator over the
  // same graph; a resumed run is bit-identical to the uninterrupted one
  // (checked by tools/chaos_replay).
  void save_state(state::SnapshotWriter& w) const;
  void restore_state(state::SnapshotReader& r);

  /// Runs every shard's structural audit plus the driver's own cross-flow
  /// bookkeeping checks. Throws std::invalid_argument on violation.
  void check_invariants() const;

 private:
  /// One user-visible flow. Cross-shard flows track both halves; intra
  /// flows complete directly off the owning shard's record.
  struct FlowEntry {
    FlowSpec spec;  // global ids, caller tag
    FlowId id = 0;  // driver-level flow id
    std::uint32_t src_shard = 0;
    std::uint32_t dst_shard = 0;  // == src_shard for intra flows
    /// Half finish times, < 0 while pending (cross flows only).
    double finished_src = -1.0;
    double finished_dst = -1.0;
    bool completed = false;
    /// Cross flows: the flow's entry in pairs_.
    std::uint32_t pair = 0;

    [[nodiscard]] bool cross() const { return src_shard != dst_shard; }
  };

  /// One cross flow's collection slots: the compact table the barrier's
  /// raises read, one entry per cross flow in submission order. The src
  /// fields are written only by the source shard's window task, the dst
  /// fields only by the destination shard's. Rebuilt from the flow table on
  /// restore, never serialized.
  struct CrossPair {
    /// Remaining volume of each half at its shard's collection.
    double remaining_src = 0.0;
    double remaining_dst = 0.0;
    /// Active-flow lane of each half, with kAttainsMinimum set when the lane
    /// attained one of its shard's completion minima at collection.
    std::uint32_t lane_src = 0;
    std::uint32_t lane_dst = 0;
    /// barrier_gen_ of the window that collected the destination half (the
    /// source half is in its shard's src_halves exactly when collected).
    std::uint32_t seen_dst = 0;
    std::uint32_t dst_shard = 0;
  };
  static constexpr std::uint32_t kAttainsMinimum = 1u << 31;

  struct Shard {
    ShardTopology topo;
    std::unique_ptr<Router> router;
    std::unique_ptr<SimEngine> engine;
    std::unique_ptr<telemetry::Telemetry> telemetry;
    std::unique_ptr<FlowSimulator> sim;
    /// completed() entries already drained by a barrier.
    std::size_t completed_cursor = 0;
    /// Live (submitted, not yet drained-complete) cross halves resident in
    /// this shard. The window task settles and collects only when some
    /// remain after the coming barrier's drain.
    std::size_t live_cross_halves = 0;
    /// pairs_ entries of the source halves the last window collected, in
    /// gateway-link membership order; the barrier pairs each with its
    /// destination half. Derived per window, never serialized.
    std::vector<std::uint32_t> src_halves;
    /// Set by a raise, cleared by the barrier's one reschedule.
    bool raised = false;
    /// Completion minima the last collection took, dropped when a raised
    /// lane attained one: the barrier reschedules from them instead of
    /// rescanning. Derived per window, never serialized.
    std::optional<soa::CompletionPass> minima;
  };

  /// Per-boundary-link fault state (global boundary links only).
  struct BoundaryState {
    bool enabled = true;
    double factor = 1.0;
  };

  [[nodiscard]] std::uint32_t shard_of_node(NodeId global) const;
  void advance_shards(Seconds target);
  /// Window-task tail: settles shard `s`, taking its completion minima, and
  /// writes its live cross halves' (lane, remaining) into their cross-pair
  /// slots.
  void collect_cross_halves(std::size_t s);
  void barrier_sync();
  void drain_completions();
  void reconcile_cross_flows();
  void complete_entry(FlowEntry& entry, double finished);
  /// Recomputes and applies one gateway link's effective capacity from the
  /// boundary/core fault state.
  void refresh_gateway_link(std::size_t shard, std::size_t gl_index);
  void refresh_agg_of_boundary_link(LinkId global_link);
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  const Graph& graph_;
  Config config_;
  PodPartition partition_;
  std::vector<int> shard_of_pod_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Boundary-link and core-switch fault state (S > 1 only; one shard's
  /// partition puts every node in pod 0, so its faults all take the
  /// pod-local path to the verbatim-copy simulator).
  std::unordered_map<LinkId, BoundaryState> boundary_state_;
  std::unordered_map<NodeId, bool> core_enabled_;
  /// Boundary link -> (shard, gateway-link index) of the owning agg.
  std::unordered_map<LinkId, std::pair<std::uint32_t, std::uint32_t>>
      gateway_of_boundary_;
  /// Gateway links currently disabled because their effective capacity hit
  /// zero (keyed by (shard << 32) | gl_index).
  std::unordered_map<std::uint64_t, bool> gateway_link_disabled_;

  std::vector<FlowEntry> flows_;
  std::vector<CrossPair> pairs_;
  std::vector<FlowRecord> completed_;
  SummaryStat fct_;
  FlowId next_id_ = 1;
  Seconds now_{};
  /// Completed barrier count on the barrier_interval grid (the next grid
  /// barrier sits at (grid_cursor_ + 1) * barrier_interval).
  std::uint64_t grid_cursor_ = 0;
  std::uint32_t barrier_gen_ = 0;
  BarrierListener barrier_listener_;
};

}  // namespace netpp
