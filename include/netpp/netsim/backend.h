// Simulator-backend seam for the experiment drivers.
//
// The §4 mechanism compositions (mech/composite.h) and the fault experiments
// (faults/experiment.h) used to be welded to the single-engine FlowSimulator.
// SimulatorBackend is the thin interface that lets the same drivers run on
// either the plain simulator or the pod-sharded ShardedFlowSimulator:
// advance the clock, submit flows, inject topology/fault events, schedule
// control-plane callbacks, query results, record loads, snapshot/restore.
//
// The control plane is the part that earns the seam. Experiment logic
// (fault apply/repair, degraded-mode wake completions) is scheduled as
// (time, FIFO seq) events. On the single backend those are events on the
// simulator's own SimEngine — the exact pre-seam behavior, so results stay
// bit-identical. On the sharded backend they live in a driver-side control
// engine: the fabric advances to the next control time in bounded-lag
// windows, then due callbacks fire in seq order at the barrier, where
// cross-shard topology mutation is legal by construction.
//
// Load observation follows the same split: per-shard observers (one
// NodeLoadRecorder per shard, attached via shard_sim()) see every
// reallocation of their own shard, while the backend-level load listener
// fires per reallocation on the single backend and per barrier on the
// sharded one (the windowed view of the same signal).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netpp/netsim/flowsim.h"
#include "netpp/netsim/sharded.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/metrics.h"
#include "netpp/topo/graph.h"
#include "netpp/topo/pods.h"

namespace netpp {

enum class BackendKind : std::uint8_t { kSingle, kSharded };

/// "single" / "sharded".
[[nodiscard]] const char* to_string(BackendKind kind);

/// How an experiment driver instantiates its simulator.
struct BackendConfig {
  BackendKind kind = BackendKind::kSingle;
  /// Sharded only: shards to partition the fabric into (>= 1). The single
  /// backend requires 1.
  std::size_t num_shards = 1;
  /// Sharded only: worker-thread ceiling (0 = the shared thread budget).
  /// Never affects results.
  std::size_t num_threads = 0;
  /// Sharded only: bounded-lag barrier interval.
  Seconds barrier_interval{0.01};
};

/// Backend-agnostic simulator handle (see the file comment). One experiment
/// run per instance; not thread-safe.
class SimulatorBackend {
 public:
  using ControlFn = std::function<void()>;
  /// Opaque control-event handle, valid until the event fires or is
  /// cancelled (same lifetime discipline as SimEngine::EventId).
  using ControlId = std::uint64_t;
  using LoadListener = std::function<void(Seconds now)>;

  virtual ~SimulatorBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] virtual const Graph& graph() const = 0;

  // --- Time ---

  [[nodiscard]] virtual Seconds now() const = 0;
  /// Advances fabric and control plane to `until` (inclusive).
  virtual void run_until(Seconds until) = 0;
  /// Drains every pending fabric and control event.
  virtual void run() = 0;

  // --- Control plane (experiment logic as (time, seq) events) ---

  virtual ControlId schedule_control_at(Seconds at, ControlFn fn) = 0;
  virtual ControlId schedule_control_after(Seconds delay, ControlFn fn) = 0;
  virtual bool cancel_control(ControlId id) = 0;
  /// (time, seq) of a pending control event, for snapshotting (named as on
  /// SimEngine, so state::pending_event serves both). Throws
  /// std::logic_error on a stale handle.
  [[nodiscard]] virtual Seconds event_time(ControlId id) const = 0;
  [[nodiscard]] virtual std::uint64_t event_seq(ControlId id) const = 0;
  /// Next control FIFO sequence number (monotone event counter).
  [[nodiscard]] virtual std::uint64_t control_next_seq() const = 0;
  /// Snapshot restore: re-registers a control event with its original
  /// (time, seq) so restored events fire in the uninterrupted run's order.
  virtual ControlId restore_event_at(Seconds at, std::uint64_t seq,
                                     ControlFn fn) = 0;

  // --- Flows ---

  virtual FlowId submit(const FlowSpec& spec) = 0;

  // --- Topology / fault state (global ids) ---

  virtual void set_node_enabled(NodeId id, bool enabled) = 0;
  virtual void set_link_enabled(LinkId id, bool enabled) = 0;
  virtual void set_link_capacity_factor(LinkId id, double factor) = 0;
  [[nodiscard]] virtual bool node_enabled(NodeId id) const = 0;
  [[nodiscard]] virtual bool link_enabled(LinkId id) const = 0;
  [[nodiscard]] virtual double link_capacity_factor(LinkId id) const = 0;

  // --- Results / telemetry ---

  [[nodiscard]] virtual const std::vector<FlowRecord>& completed() const = 0;
  [[nodiscard]] virtual const SummaryStat& fct_stats() const = 0;
  [[nodiscard]] virtual std::size_t active_flows() const = 0;
  [[nodiscard]] virtual std::size_t stranded_flows() const = 0;
  [[nodiscard]] virtual std::size_t unroutable_flows() const = 0;
  [[nodiscard]] virtual FlowSimulator::ReallocStats realloc_stats() const = 0;
  [[nodiscard]] virtual double stranded_bit_seconds(Seconds now) const = 0;
  /// Resume durations (sharded: concatenated in shard order).
  [[nodiscard]] virtual std::vector<double> strand_durations() const = 0;
  [[nodiscard]] virtual double current_mean_utilization() const = 0;
  virtual void flush_metrics() = 0;
  /// The fabric's own metric samples when they are not visible in the
  /// caller's registry: empty on the single backend (whose simulator writes
  /// straight into Config::telemetry), the merged per-shard registries on
  /// the sharded one.
  [[nodiscard]] virtual std::vector<telemetry::MetricSample> sim_metrics()
      const = 0;

  /// Backend-level load signal: per reallocation (single) or per barrier
  /// (sharded). Use shard_sim() observers for exact per-event sampling.
  virtual void set_load_listener(LoadListener listener) = 0;

  // --- Per-shard observation (load-trace recording) ---

  /// Number of shard simulators behind this backend (1 for single).
  [[nodiscard]] virtual std::size_t shard_count() const = 0;
  /// Mutable shard simulator, for attaching per-shard observers. Observers
  /// fire inside sharded windows, on a pool helper or the calling thread,
  /// and must touch only their own shard.
  [[nodiscard]] virtual FlowSimulator& shard_sim(std::size_t s) = 0;
  /// Shard-local topology (id maps + gateway), or nullptr when the shard
  /// runs on the global graph verbatim (single backend).
  [[nodiscard]] virtual const ShardTopology* shard_topology(
      std::size_t s) const = 0;
  /// Whether the core layer is collapsed into per-shard gateways (true on
  /// the sharded backend with more than one shard). When collapsed, core
  /// switches have no per-switch load trace — only the aggregate gateway
  /// signal — so core power policies must work from aggregate load.
  [[nodiscard]] virtual bool core_collapsed() const = 0;

  // --- Snapshot / restore ---

  /// Serializes the fabric (FlowSimulator / ShardedFlowSimulator image).
  /// Control events are the *owners'* responsibility: components record
  /// their pending (time, seq) pairs and re-register via
  /// restore_event_at(), exactly the SimEngine snapshot discipline.
  virtual void save_sim(state::SnapshotWriter& w) const = 0;
  virtual void restore_sim(state::SnapshotReader& r) = 0;
  /// Drops pending control events and resets the control FIFO counter (and,
  /// on the single backend, the shared engine clock). Call before
  /// restore_sim().
  virtual void restore_clock(Seconds now, std::uint64_t control_next_seq) = 0;
  virtual void check_invariants() const = 0;
};

/// Builds the configured backend over `graph` (which must outlive it).
/// `sim_config` is the per-simulator configuration; on the sharded backend
/// its telemetry handle must be null (each shard owns a private registry —
/// read sim_metrics() instead). Throws std::invalid_argument on an invalid
/// combination (single with num_shards != 1, unpartitionable graph, ...).
[[nodiscard]] std::unique_ptr<SimulatorBackend> make_backend(
    const Graph& graph, const BackendConfig& config,
    const FlowSimulator::Config& sim_config);

}  // namespace netpp
