// Records per-switch load traces from a running FlowSimulator and exports
// them as the LoadTrace every §4 MechanismPolicy consumes through
// run_mechanism: one channel for the whole-switch aggregate (pipeline
// parking, link down-rating), or one channel per pipeline (rate
// adaptation), with the switch's ports assigned to pipelines round-robin —
// the fixed port->pipeline mapping of a conventional ASIC (§4.4).
#pragma once

#include <map>
#include <vector>

#include "netpp/mech/load_trace.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/graph.h"

namespace netpp {

class NodeLoadRecorder {
 public:
  /// Records loads of `nodes` (typically switches). Attach `on_load_change`
  /// as the simulator's load listener (or call sample() manually).
  NodeLoadRecorder(const FlowSimulator& sim, std::vector<NodeId> nodes);

  /// Samples the current per-incident-directed-link utilization of every
  /// tracked node. Consecutive samples at the same time overwrite.
  void sample(Seconds now);

  /// Convenience adapter for FlowSimulator::set_load_listener.
  [[nodiscard]] FlowSimulator::LoadListener listener();

  /// The node's recorded samples as a `num_channels`-wide LoadTrace. One
  /// channel is the whole-node aggregate: carried bits over incident
  /// capacity, in [0, 1]. With n channels the node's incident directed
  /// links are assigned to channels round-robin (the port->pipeline
  /// mapping), and a channel's load is its links' carried rate over their
  /// capacity. Each sample opens a segment; consecutive identical segments
  /// are collapsed. The final segment runs from the last (distinct) sample
  /// to `end`, which must not precede the last recorded sample (a sample
  /// exactly at `end` has no width and is dropped) — there is no silent
  /// truncation or extrapolation. Throws std::logic_error when no samples
  /// were recorded.
  [[nodiscard]] LoadTrace load_trace(NodeId node, int num_channels,
                                     Seconds end) const;

  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t num_samples() const { return times_.size(); }

 private:
  struct NodeInfo {
    /// Directed-link indices incident to the node (both directions).
    std::vector<std::size_t> directed_indices;
    std::vector<double> capacities_bps;
  };

  const FlowSimulator& sim_;
  std::vector<NodeId> nodes_;
  std::map<NodeId, NodeInfo> info_;
  std::vector<Seconds> times_;
  /// samples_[node][sample_index][link_position] = carried bps.
  std::map<NodeId, std::vector<std::vector<double>>> samples_;
};

}  // namespace netpp
