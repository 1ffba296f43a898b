#include "netpp/mech/trace_recorder.h"

#include <algorithm>
#include <stdexcept>

namespace netpp {

NodeLoadRecorder::NodeLoadRecorder(const FlowSimulator& sim,
                                   std::vector<NodeId> nodes)
    : sim_(sim), nodes_(std::move(nodes)) {
  if (nodes_.empty()) {
    throw std::invalid_argument("recorder needs at least one node");
  }
  const Graph& g = sim_.graph();
  for (NodeId node : nodes_) {
    NodeInfo info;
    for (const auto& adj : g.neighbors(node)) {
      for (int dir = 0; dir < 2; ++dir) {
        info.directed_indices.push_back(DirectedLink{adj.link, dir}.index());
        info.capacities_bps.push_back(
            g.link(adj.link).capacity.bits_per_second());
      }
    }
    info_[node] = std::move(info);
    samples_[node] = {};
  }
}

void NodeLoadRecorder::sample(Seconds now) {
  const bool overwrite = !times_.empty() && times_.back() == now;
  if (!overwrite && !times_.empty() && now < times_.back()) {
    throw std::invalid_argument("samples must be taken in time order");
  }
  if (!overwrite) times_.push_back(now);

  for (NodeId node : nodes_) {
    const auto& info = info_.at(node);
    std::vector<double> carried(info.directed_indices.size());
    for (std::size_t i = 0; i < info.directed_indices.size(); ++i) {
      const auto idx = info.directed_indices[i];
      const DirectedLink dl{static_cast<LinkId>(idx / 2),
                            static_cast<int>(idx % 2)};
      carried[i] = sim_.directed_link_rate(dl).bits_per_second();
    }
    auto& series = samples_.at(node);
    if (overwrite) {
      series.back() = std::move(carried);
    } else {
      series.push_back(std::move(carried));
    }
  }
}

FlowSimulator::LoadListener NodeLoadRecorder::listener() {
  return [this](Seconds now) { sample(now); };
}

LoadTrace NodeLoadRecorder::load_trace(NodeId node, int num_channels,
                                       Seconds end) const {
  if (num_channels < 1) {
    throw std::invalid_argument("NodeLoadRecorder: need at least one channel");
  }
  const auto it = samples_.find(node);
  if (it == samples_.end()) {
    throw std::out_of_range("node is not tracked by this recorder");
  }
  if (times_.empty()) {
    throw std::logic_error("no samples recorded");
  }
  if (end < times_.back()) {
    throw std::invalid_argument(
        "NodeLoadRecorder: end must not precede the last sample");
  }
  // A recording that ends exactly on the last sample's boundary drops that
  // sample instead of emitting a zero-width final segment (which the trace
  // validation rejects as a non-increasing segment start).
  std::size_t usable = times_.size();
  if (end == times_.back()) {
    --usable;
    if (usable == 0) {
      throw std::invalid_argument(
          "NodeLoadRecorder: end must be after the first sample");
    }
  }
  const auto& info = info_.at(node);

  // Round-robin assignment of directed links to channels (1 channel ==
  // every link, i.e. the whole-node aggregate).
  const auto channels = static_cast<std::size_t>(num_channels);
  std::vector<double> channel_capacity(channels, 0.0);
  for (std::size_t i = 0; i < info.capacities_bps.size(); ++i) {
    channel_capacity[i % channels] += info.capacities_bps[i];
  }

  LoadTrace trace;
  trace.end = end;
  for (std::size_t s = 0; s < usable; ++s) {
    std::vector<double> loads(channels, 0.0);
    for (std::size_t i = 0; i < it->second[s].size(); ++i) {
      loads[i % channels] += it->second[s][i];
    }
    for (std::size_t c = 0; c < channels; ++c) {
      loads[c] = channel_capacity[c] > 0.0
                     ? std::min(1.0, loads[c] / channel_capacity[c])
                     : 0.0;
    }
    // Collapse repeated values to keep the trace compact.
    if (!trace.loads.empty() && trace.loads.back() == loads) continue;
    trace.times.push_back(times_[s]);
    trace.loads.push_back(std::move(loads));
  }
  return trace;
}

}  // namespace netpp
