#include "netpp/netsim/backend.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "netpp/validation.h"

namespace netpp {

namespace {

constexpr const char* kName = "SimulatorBackend";

/// The pre-seam wiring: one SimEngine shared by the fabric and the control
/// plane, so control events interleave with flow events in exactly the
/// order the drivers produced before the seam existed (bit-identity pinned
/// by tests/integration/backend_equivalence_test.cpp).
class SingleSimBackend final : public SimulatorBackend {
 public:
  SingleSimBackend(const Graph& graph, const FlowSimulator::Config& config)
      : router_(graph), sim_(graph, router_, engine_, config) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kSingle;
  }
  [[nodiscard]] const Graph& graph() const override { return sim_.graph(); }

  [[nodiscard]] Seconds now() const override { return engine_.now(); }
  void run_until(Seconds until) override { engine_.run_until(until); }
  void run() override { engine_.run(); }

  ControlId schedule_control_at(Seconds at, ControlFn fn) override {
    return engine_.schedule_at(at, std::move(fn));
  }
  ControlId schedule_control_after(Seconds delay, ControlFn fn) override {
    return engine_.schedule_after(delay, std::move(fn));
  }
  [[nodiscard]] Seconds event_time(ControlId id) const override {
    return engine_.event_time(id);
  }
  [[nodiscard]] std::uint64_t event_seq(ControlId id) const override {
    return engine_.event_seq(id);
  }
  [[nodiscard]] std::uint64_t control_next_seq() const override {
    return engine_.next_seq();
  }
  ControlId restore_event_at(Seconds at, std::uint64_t seq,
                             ControlFn fn) override {
    return engine_.restore_event_at(at, seq, std::move(fn));
  }

  FlowId submit(const FlowSpec& spec) override { return sim_.submit(spec); }

  void set_node_enabled(NodeId id, bool enabled) override {
    sim_.set_node_enabled(id, enabled);
  }
  void set_link_enabled(LinkId id, bool enabled) override {
    sim_.set_link_enabled(id, enabled);
  }
  void set_link_capacity_factor(LinkId id, double factor) override {
    sim_.set_link_capacity_factor(id, factor);
  }
  [[nodiscard]] bool node_enabled(NodeId id) const override {
    return sim_.router().node_enabled(id);
  }
  [[nodiscard]] bool link_enabled(LinkId id) const override {
    return sim_.router().link_enabled(id);
  }
  [[nodiscard]] double link_capacity_factor(LinkId id) const override {
    return sim_.link_capacity_factor(id);
  }

  [[nodiscard]] const std::vector<FlowRecord>& completed() const override {
    return sim_.completed();
  }
  [[nodiscard]] const SummaryStat& fct_stats() const override {
    return sim_.fct_stats();
  }
  [[nodiscard]] std::size_t stranded_flows() const override {
    return sim_.stranded_flows();
  }
  [[nodiscard]] FlowSimulator::ReallocStats realloc_stats() const override {
    return sim_.realloc_stats();
  }
  [[nodiscard]] double stranded_bit_seconds(Seconds now) const override {
    return sim_.stranded_bit_seconds(now);
  }
  [[nodiscard]] std::vector<double> strand_durations() const override {
    return sim_.strand_durations();
  }
  [[nodiscard]] double current_mean_utilization() const override {
    return sim_.current_mean_utilization();
  }
  void flush_metrics() override { sim_.flush_metrics(); }

  void set_load_listener(LoadListener listener) override {
    sim_.set_load_listener(std::move(listener));
  }

  [[nodiscard]] std::size_t shard_count() const override { return 1; }
  [[nodiscard]] FlowSimulator& shard_sim(std::size_t s) override {
    validation::require(s == 0, kName, "single backend has one shard");
    return sim_;
  }
  [[nodiscard]] const ShardTopology* shard_topology(
      std::size_t s) const override {
    validation::require(s == 0, kName, "single backend has one shard");
    return nullptr;
  }
  [[nodiscard]] bool core_collapsed() const override { return false; }

  void save_sim(state::SnapshotWriter& w) const override {
    sim_.save_state(w);
  }
  void restore_sim(state::SnapshotReader& r) override { sim_.restore_state(r); }
  void restore_clock(Seconds now, std::uint64_t control_next_seq) override {
    engine_.restore_clock(now, control_next_seq);
  }
  void check_invariants() const override { sim_.check_invariants(); }

 private:
  SimEngine engine_;
  Router router_;
  FlowSimulator sim_;
};

/// ShardedFlowSimulator plus a driver-side control engine. The fabric
/// advances to each control time in bounded-lag windows; due control
/// callbacks then fire in (time, seq) order at the barrier, where topology
/// mutation and submission are legal. The control engine's clock shadows
/// the sharded clock, so schedule_control_after() and validation behave
/// exactly like the single backend's shared engine.
class ShardedSimBackend final : public SimulatorBackend {
 public:
  ShardedSimBackend(const Graph& graph, const BackendConfig& config,
                    const FlowSimulator::Config& sim_config)
      : graph_(graph) {
    validation::require(sim_config.telemetry == nullptr, kName,
                        "sharded backend requires a null telemetry handle "
                        "(each shard owns a private registry)");
    ShardedFlowSimulator::Config scfg;
    scfg.num_shards = config.num_shards;
    scfg.num_threads = config.num_threads;
    scfg.barrier_interval = config.barrier_interval;
    scfg.shard = sim_config;
    sharded_ = std::make_unique<ShardedFlowSimulator>(graph, scfg);
  }

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kSharded;
  }
  [[nodiscard]] const Graph& graph() const override { return graph_; }

  [[nodiscard]] Seconds now() const override { return sharded_->now(); }

  void run_until(Seconds until) override {
    for (;;) {
      const double next_ctrl = control_.next_event_time();
      if (next_ctrl > until.value()) break;
      if (next_ctrl > sharded_->now().value()) {
        sharded_->run_until(Seconds{next_ctrl});
      }
      // Fires every control due at the barrier, in (time, seq) order;
      // callbacks may enqueue same-time follow-ups, which fire in the same
      // batch.
      control_.run_until(sharded_->now());
    }
    if (until.value() > sharded_->now().value()) sharded_->run_until(until);
    control_.run_until(until);
  }

  void run() override {
    // Advance only to control times, then let the fabric drain on its own
    // barrier grid. Targeting fabric event times here would insert barriers
    // an interrupted run (run_until to the cut, then resume) never sees,
    // making the straight-line and resumed trajectories diverge.
    for (;;) {
      const double next_ctrl = control_.next_event_time();
      if (std::isfinite(next_ctrl)) {
        run_until(Seconds{next_ctrl});
        continue;
      }
      if (!std::isfinite(sharded_->next_event_time())) break;
      sharded_->run();
    }
  }

  ControlId schedule_control_at(Seconds at, ControlFn fn) override {
    return control_.schedule_at(at, std::move(fn));
  }
  ControlId schedule_control_after(Seconds delay, ControlFn fn) override {
    return control_.schedule_after(delay, std::move(fn));
  }
  [[nodiscard]] Seconds event_time(ControlId id) const override {
    return control_.event_time(id);
  }
  [[nodiscard]] std::uint64_t event_seq(ControlId id) const override {
    return control_.event_seq(id);
  }
  [[nodiscard]] std::uint64_t control_next_seq() const override {
    return control_.next_seq();
  }
  ControlId restore_event_at(Seconds at, std::uint64_t seq,
                             ControlFn fn) override {
    return control_.restore_event_at(at, seq, std::move(fn));
  }

  FlowId submit(const FlowSpec& spec) override { return sharded_->submit(spec); }

  void set_node_enabled(NodeId id, bool enabled) override {
    sharded_->set_node_enabled(id, enabled);
  }
  void set_link_enabled(LinkId id, bool enabled) override {
    sharded_->set_link_enabled(id, enabled);
  }
  void set_link_capacity_factor(LinkId id, double factor) override {
    sharded_->set_link_capacity_factor(id, factor);
  }
  [[nodiscard]] bool node_enabled(NodeId id) const override {
    return sharded_->node_enabled(id);
  }
  [[nodiscard]] bool link_enabled(LinkId id) const override {
    return sharded_->link_enabled(id);
  }
  [[nodiscard]] double link_capacity_factor(LinkId id) const override {
    return sharded_->link_capacity_factor(id);
  }

  [[nodiscard]] const std::vector<FlowRecord>& completed() const override {
    return sharded_->completed();
  }
  [[nodiscard]] const SummaryStat& fct_stats() const override {
    return sharded_->fct_stats();
  }
  [[nodiscard]] std::size_t stranded_flows() const override {
    return sharded_->stranded_flows();
  }
  [[nodiscard]] FlowSimulator::ReallocStats realloc_stats() const override {
    return sharded_->realloc_stats();
  }
  [[nodiscard]] double stranded_bit_seconds(Seconds now) const override {
    return sharded_->stranded_bit_seconds(now);
  }
  [[nodiscard]] std::vector<double> strand_durations() const override {
    return sharded_->strand_durations();
  }
  [[nodiscard]] double current_mean_utilization() const override {
    return sharded_->current_mean_utilization();
  }
  void flush_metrics() override {
    for (std::size_t s = 0; s < sharded_->num_shards(); ++s) {
      sharded_->shard_mutable(s).flush_metrics();
    }
  }

  void set_load_listener(LoadListener listener) override {
    sharded_->set_barrier_listener(std::move(listener));
  }

  [[nodiscard]] std::size_t shard_count() const override {
    return sharded_->num_shards();
  }
  [[nodiscard]] FlowSimulator& shard_sim(std::size_t s) override {
    return sharded_->shard_mutable(s);
  }
  [[nodiscard]] const ShardTopology* shard_topology(
      std::size_t s) const override {
    return &sharded_->shard_topology(s);
  }
  [[nodiscard]] bool core_collapsed() const override {
    return sharded_->num_shards() > 1;
  }

  void save_sim(state::SnapshotWriter& w) const override {
    sharded_->save_state(w);
  }
  void restore_sim(state::SnapshotReader& r) override {
    sharded_->restore_state(r);
  }
  void restore_clock(Seconds now, std::uint64_t control_next_seq) override {
    control_.restore_clock(now, control_next_seq);
  }
  void check_invariants() const override { sharded_->check_invariants(); }

 private:
  const Graph& graph_;
  std::unique_ptr<ShardedFlowSimulator> sharded_;
  SimEngine control_;
};

}  // namespace

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSingle:
      return "single";
    case BackendKind::kSharded:
      return "sharded";
  }
  return "?";
}

std::unique_ptr<SimulatorBackend> make_backend(
    const Graph& graph, const BackendConfig& config,
    const FlowSimulator::Config& sim_config) {
  switch (config.kind) {
    case BackendKind::kSingle:
      validation::require(config.num_shards == 1, kName,
                          "single backend requires num_shards == 1");
      return std::make_unique<SingleSimBackend>(graph, sim_config);
    case BackendKind::kSharded:
      return std::make_unique<ShardedSimBackend>(graph, config, sim_config);
  }
  throw std::invalid_argument("SimulatorBackend: unknown backend kind");
}

}  // namespace netpp
