// Fixed barrier-reconcile scenarios for flowsim_sharded_test.cpp, whose
// hexfloat expectations backend_golden_record prints. Each one drives
// cross-shard flows whose halves run at different rates, so the barrier
// raises the faster half:
//   - kRaisedHalfHoldsMinimum: a raised half holds its shard's earliest
//     completion at every barrier (capped at 25 Gbps, and uncapped so
//     every lane is a share);
//   - kSporadicRaises: short cross flows spaced wider than a window, so a
//     shard's first raise comes after barriers without one, with and
//     without a shorter flow holding its earliest completion.
// Everything is a pure function of its inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netpp/netsim/sharded.h"
#include "netpp/state/snapshot.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/pods.h"

namespace netpp::golden {

enum class ReconcileScenario {
  kRaisedHalfHoldsMinimum,
  kRaisedHalfHoldsMinimumUncapped,
  kSporadicRaises,
};

/// What a reconcile run leaves behind.
struct ReconcileOutcome {
  std::vector<FlowRecord> completed;
  SummaryStat fct;
  /// Events scheduled on each shard engine (its next sequence number).
  std::vector<std::uint64_t> events;
  std::vector<std::uint8_t> image;  // final save_state bytes
};

/// The hosts of pod `pod` of a k=4 fat tree, in node order.
inline std::vector<NodeId> pod_hosts(const BuiltTopology& topo,
                                     const PodPartition& pods,
                                     std::size_t pod) {
  std::vector<NodeId> hosts;
  for (const NodeId n : pods.pod_nodes[pod]) {
    if (topo.graph.node(n).kind == NodeKind::kHost) hosts.push_back(n);
  }
  return hosts;
}

/// The link joining host `h` to its edge switch.
inline LinkId access_link(const Graph& graph, NodeId h) {
  for (const Link& l : graph.links()) {
    if (l.a == h || l.b == h) return l.id;
  }
  return kInvalidLink;
}

/// Runs `scenario` on a k=4 fat tree at 100G with `threads` workers. With
/// `cut_barrier` > 0 the run is saved at that grid barrier and finished by
/// a fresh simulator restored from the image.
inline ReconcileOutcome run_reconcile(const BuiltTopology& topo,
                                      ReconcileScenario scenario,
                                      std::size_t threads,
                                      std::size_t cut_barrier = 0) {
  const bool sporadic = scenario == ReconcileScenario::kSporadicRaises;
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = sporadic ? 4 : 2;
  scfg.num_threads = threads;
  if (scenario != ReconcileScenario::kRaisedHalfHoldsMinimumUncapped) {
    scfg.shard.flow_rate_cap = Gbps{25.0};
  }
  auto sim = std::make_unique<ShardedFlowSimulator>(topo.graph, scfg);
  const PodPartition& pods = sim->partition();
  const auto host = [&](std::size_t pod, std::size_t i) {
    return pod_hosts(topo, pods, pod)[i];
  };
  const auto gb = [](double g) { return Bits::from_gigabits(g); };
  double horizon = 0.0;
  if (!sporadic) {
    // Shard 0 holds pods 0-1, shard 1 pods 2-3. Two hosts of pod 3 sit
    // behind 5 Gbps access links: the flow into one is bottlenecked on its
    // egress half, the flow out of the other on its ingress half, so the
    // barrier raises their shard-0 halves at every barrier. Those halves
    // hold shard 0's earliest completion: its intra flows are far larger.
    sim->set_link_capacity_factor(access_link(topo.graph, host(3, 0)), 0.05);
    sim->set_link_capacity_factor(access_link(topo.graph, host(3, 1)), 0.05);
    sim->submit({host(0, 0), host(3, 0), gb(3.0), Seconds{0.0}, 1});
    sim->submit({host(3, 1), host(1, 0), gb(2.0), Seconds{0.013}, 2});
    sim->submit({host(0, 1), host(1, 1), gb(20.0), Seconds{0.0}, 3});
    sim->submit({host(0, 2), host(0, 3), gb(15.0), Seconds{0.002}, 4});
    sim->submit({host(2, 0), host(2, 1), gb(10.0), Seconds{0.0}, 5});
    horizon = 2.0;
  } else {
    // One pod per shard; host 3 of every pod sits behind a 10 Gbps access
    // link. Short cross flows, 40 ms apart, alternate between that host as
    // destination (egress-bound: the ingress half is raised) and as source
    // (ingress-bound: the egress half is raised). Each is raised for a few
    // windows and gone two barriers before the next one starts, so every
    // first raise lands on a shard with no raise at the barrier before.
    // Next to one long intra flow per pod, two in three of them get a short
    // intra flow in the raised shard that holds its earliest completion
    // across that first raise; the third time the raised half holds it.
    for (std::size_t p = 0; p < 4; ++p) {
      sim->set_link_capacity_factor(access_link(topo.graph, host(p, 3)), 0.1);
      sim->submit({host(p, 0), host(p, 1), gb(40.0), Seconds{0.0}, 100 + p});
    }
    for (std::size_t i = 0; i < 12; ++i) {
      const std::size_t a = i % 4;
      const std::size_t b = (a + 1 + i / 4) % 4;  // i / 4 < 3, so b != a
      const double t = 0.005 + 0.04 * static_cast<double>(i);
      const Bits size = gb(0.3 + 0.0073 * static_cast<double>(i));
      const std::size_t raised = i % 2 == 0 ? a : b;
      if (i % 2 == 0) {
        sim->submit({host(a, 2), host(b, 3), size, Seconds{t}, i});
      } else {
        sim->submit({host(a, 3), host(b, 2), size, Seconds{t}, i});
      }
      if (i % 3 != 2) {
        sim->submit({host(raised, 0), host(raised, 1), gb(0.1),
                     Seconds{t + 0.003}, 200 + i});
      }
    }
    horizon = 2.5;
  }

  if (cut_barrier > 0) {
    sim->run_until(Seconds{static_cast<double>(cut_barrier) *
                           scfg.barrier_interval.value()});
    state::SnapshotWriter writer;
    sim->save_state(writer);
    sim = std::make_unique<ShardedFlowSimulator>(topo.graph, scfg);
    state::SnapshotReader reader{writer.buffer()};
    sim->restore_state(reader);
  }
  sim->run_until(Seconds{horizon});
  sim->check_invariants();

  ReconcileOutcome out;
  out.completed = sim->completed();
  out.fct = sim->fct_stats();
  for (std::size_t s = 0; s < sim->num_shards(); ++s) {
    out.events.push_back(sim->shard_mutable(s).engine().next_seq());
  }
  state::SnapshotWriter writer;
  sim->save_state(writer);
  out.image = writer.buffer();
  return out;
}

}  // namespace netpp::golden
