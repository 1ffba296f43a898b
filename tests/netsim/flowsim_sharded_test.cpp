// Sharded flow simulation equivalence suite.
//
// The contracts under test (see netpp/netsim/sharded.h):
//   1. One shard is bit-identical to a plain FlowSimulator over the same
//      submissions — same ids, same completion times, same stats.
//   2. For a fixed shard count, results are bit-identical regardless of the
//      worker-thread count (1, 2, and 4 workers here; the TSan job runs
//      this file to prove the window phase is race-free).
//   3. Cross-shard flows obey the min-progress coupling: the end-to-end
//      completion time tracks the bottleneck half.
//   4. Mid-run faults (core kill, pod-local agg kill, recovery) keep every
//      shard's invariants intact and strand/resume flows correctly; a
//      gateway fault storm over live cross halves stays bit-identical
//      across worker counts and across a snapshot cut.
//   5. A run resumed from save_state/restore_state is bit-identical to the
//      uninterrupted run.
//   6. A one-shard run() lands the barrier grid where stepping one barrier
//      at a time would, in constant time however long the makespan.
//   7. The barrier's reschedule reuses a shard's collected completion
//      minima only when they still hold: a raised half that held its
//      shard's earliest completion forces a rescan, at every barrier and
//      at a shard's first raise after quiet barriers. Records, FCT stats,
//      event counts and final save_state bytes match hexfloat goldens
//      recorded before the shortcut existed, at 1/2/4 workers and across a
//      snapshot cut.
//   8. The merged metric export is byte-stable across shard and worker
//      counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "netpp/netsim/flowsim.h"
#include "netpp/netsim/sharded.h"
#include "netpp/telemetry/export.h"
#include "netpp/sim/thread_budget.h"
#include "netpp/state/snapshot.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/pods.h"
#include "netpp/traffic/generators.h"
#include "sharded_reconcile_inputs.h"

namespace netpp {
namespace {

using namespace netpp::literals;

std::vector<FlowSpec> poisson_workload(const BuiltTopology& topo,
                                       double rate, double duration,
                                       std::uint64_t seed) {
  PoissonTrafficConfig tcfg;
  tcfg.arrivals_per_second = rate;
  tcfg.duration = Seconds{duration};
  tcfg.min_size = Bits::from_gigabits(0.2);
  tcfg.max_size = Bits::from_gigabits(4.0);
  tcfg.seed = seed;
  return make_poisson_traffic(topo.hosts, tcfg);
}

/// Bitwise comparison of two completion sequences.
void expect_identical_results(const ShardedFlowSimulator& a,
                              const std::vector<FlowRecord>& b_completed,
                              const SummaryStat& b_fct) {
  ASSERT_EQ(a.completed().size(), b_completed.size());
  for (std::size_t i = 0; i < b_completed.size(); ++i) {
    const FlowRecord& ra = a.completed()[i];
    const FlowRecord& rb = b_completed[i];
    ASSERT_EQ(ra.id, rb.id) << "record " << i;
    EXPECT_EQ(ra.finished.value(), rb.finished.value()) << "record " << i;
    EXPECT_EQ(ra.spec.src, rb.spec.src);
    EXPECT_EQ(ra.spec.dst, rb.spec.dst);
    EXPECT_EQ(ra.spec.tag, rb.spec.tag);
  }
  EXPECT_EQ(a.fct_stats().count(), b_fct.count());
  EXPECT_EQ(a.fct_stats().mean(), b_fct.mean());
  EXPECT_EQ(a.fct_stats().m2(), b_fct.m2());
  EXPECT_EQ(a.fct_stats().sum(), b_fct.sum());
}

// --- Pod partition / shard topology unit checks ---

TEST(PodPartition, FatTreeStructure) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const PodPartition p = make_pod_partition(topo.graph);
  EXPECT_EQ(p.num_pods, 4u);
  // k=4: each pod holds 2 edge + 2 agg switches and 4 hosts.
  for (const auto& pod : p.pod_nodes) EXPECT_EQ(pod.size(), 8u);
  // Every agg has k/2 = 2 core uplinks; 8 aggs -> 16 boundary links.
  EXPECT_EQ(p.boundary_links.size(), 16u);
  std::size_t cores = 0;
  for (NodeId n = 0; n < topo.graph.num_nodes(); ++n) {
    if (p.is_core(n)) {
      ++cores;
      EXPECT_GE(topo.graph.node(n).tier, 3);
    }
  }
  EXPECT_EQ(cores, 4u);
}

TEST(PodPartition, ContiguousAssignment) {
  const auto assign = assign_pods_contiguous(8, 4);
  EXPECT_EQ(assign, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
  const auto uneven = assign_pods_contiguous(5, 2);
  EXPECT_EQ(uneven, (std::vector<int>{0, 0, 0, 1, 1}));
  EXPECT_THROW(assign_pods_contiguous(4, 0), std::invalid_argument);
  EXPECT_THROW(assign_pods_contiguous(4, 5), std::invalid_argument);
}

TEST(ShardTopology, GatewayCollapse) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const PodPartition p = make_pod_partition(topo.graph);
  const auto assign = assign_pods_contiguous(p.num_pods, 2);
  const ShardTopology st = build_shard_topology(topo.graph, p, assign, 0);
  ASSERT_FALSE(st.verbatim());
  // Two pods of 8 nodes plus the gateway.
  EXPECT_EQ(st.graph.num_nodes(), 17u);
  // Four aggs in the shard, one gateway link each, at 2 x 100G aggregate.
  ASSERT_EQ(st.gateway_links.size(), 4u);
  for (const auto& gl : st.gateway_links) {
    EXPECT_EQ(gl.global_links.size(), 2u);
    EXPECT_DOUBLE_EQ(gl.total_capacity_bps, 200e9);
    EXPECT_DOUBLE_EQ(st.graph.link(gl.local_link).capacity.bits_per_second(),
                     200e9);
  }
  // Mappings are mutually inverse over the shard's nodes.
  for (NodeId local = 0; local < st.graph.num_nodes(); ++local) {
    const NodeId global = st.global_of_local[local];
    if (global == kInvalidNode) {
      EXPECT_EQ(local, st.gateway);
      continue;
    }
    EXPECT_EQ(st.local_of_global[global], local);
  }
}

// --- Contract 1: one shard == plain FlowSimulator, bitwise ---

TEST(ShardedFlowSim, SingleShardBitIdenticalToFlowSimulator) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 300.0, 2.0, 42);
  const Seconds horizon{3.5};

  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = 25_Gbps;
  FlowSimulator plain{topo.graph, router, engine, cfg};
  for (const auto& f : flows) plain.submit(f);
  engine.run_until(horizon);

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 1;
  scfg.shard.flow_rate_cap = 25_Gbps;
  ShardedFlowSimulator sharded{topo.graph, scfg};
  for (const auto& f : flows) sharded.submit(f);
  sharded.run_until(horizon);

  expect_identical_results(sharded, plain.completed(), plain.fct_stats());
  EXPECT_EQ(sharded.active_flows(), plain.active_flows());
  sharded.check_invariants();
}

TEST(ShardedFlowSim, SingleShardBitIdenticalUnderFaults) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 250.0, 2.0, 7);

  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator::Config cfg;
  cfg.flow_rate_cap = 25_Gbps;
  cfg.strand_unroutable = true;
  FlowSimulator plain{topo.graph, router, engine, cfg};
  for (const auto& f : flows) plain.submit(f);

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 1;
  scfg.shard.flow_rate_cap = 25_Gbps;
  scfg.shard.strand_unroutable = true;
  ShardedFlowSimulator sharded{topo.graph, scfg};
  for (const auto& f : flows) sharded.submit(f);

  // Kill an aggregation switch and a core mid-run, then recover both.
  const NodeId agg = topo.graph.nodes_at_tier(2).front();
  const NodeId core = topo.graph.nodes_at_tier(3).front();
  engine.run_until(Seconds{0.5});
  sharded.run_until(Seconds{0.5});
  plain.set_node_enabled(agg, false);
  plain.set_node_enabled(core, false);
  sharded.set_node_enabled(agg, false);
  sharded.set_node_enabled(core, false);
  engine.run_until(Seconds{1.2});
  sharded.run_until(Seconds{1.2});
  plain.set_node_enabled(agg, true);
  plain.set_node_enabled(core, true);
  sharded.set_node_enabled(agg, true);
  sharded.set_node_enabled(core, true);
  engine.run_until(Seconds{3.5});
  sharded.run_until(Seconds{3.5});

  expect_identical_results(sharded, plain.completed(), plain.fct_stats());
  EXPECT_EQ(sharded.stranded_flows(), plain.stranded_flows());
  EXPECT_EQ(sharded.realloc_stats().reroutes, plain.realloc_stats().reroutes);
  sharded.check_invariants();
}

// --- Contract 2: fixed shards, bit-identical across worker counts ---

TEST(ShardedFlowSim, BitIdenticalAcrossWorkerThreadCounts) {
  // Raise the process thread budget so the requested worker counts are
  // actually granted (the suite also runs on single-core CI hosts).
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 400.0, 2.0, 123);
  const Seconds horizon{3.0};

  std::vector<FlowRecord> reference;
  SummaryStat reference_fct;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ShardedFlowSimulator::Config scfg;
    scfg.num_shards = 2;
    scfg.num_threads = threads;
    scfg.shard.flow_rate_cap = 25_Gbps;
    ShardedFlowSimulator sim{topo.graph, scfg};
    for (const auto& f : flows) sim.submit(f);
    sim.run_until(horizon);
    sim.check_invariants();
    if (threads == 1) {
      reference = sim.completed();
      reference_fct = sim.fct_stats();
      EXPECT_GT(reference.size(), 0u);
      continue;
    }
    expect_identical_results(sim, reference, reference_fct);
  }
}

TEST(ShardedFlowSim, WindowErrorFromLowestShardAtAnyWorkerCount) {
  // Observers in shards 1 and 2 both throw inside the first window. Every
  // worker count surfaces shard 1's exception, whichever shard ran first.
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ShardedFlowSimulator::Config scfg;
    scfg.num_shards = 4;  // one pod per shard
    scfg.num_threads = threads;
    ShardedFlowSimulator sim{topo.graph, scfg};
    for (const std::size_t s : {1u, 2u}) {
      std::vector<NodeId> hosts;
      for (const NodeId n : sim.partition().pod_nodes[s]) {
        if (topo.graph.node(n).kind == NodeKind::kHost) hosts.push_back(n);
      }
      ASSERT_GE(hosts.size(), 2u);
      sim.submit({hosts[0], hosts[1], Bits::from_gigabits(1.0),
                  Seconds{0.001}, 0});
      sim.shard_mutable(s).set_load_listener([s](Seconds) {
        throw std::runtime_error("shard " + std::to_string(s));
      });
    }
    try {
      sim.run_until(Seconds{1.0});
      ADD_FAILURE() << threads << " workers: expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1") << threads << " workers";
    }
  }
}

TEST(ShardedFlowSim, LoneBusyShardWindowsRunOnTheCallingThread) {
  // Flows stay inside one pod, so every window has at most one shard with
  // events before the barrier: it runs on the caller even when four
  // workers are allowed, with results identical to one worker.
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);
  constexpr std::size_t kBusy = 2;

  std::vector<FlowRecord> reference;
  SummaryStat reference_fct;
  for (const std::size_t threads : {1u, 4u}) {
    ShardedFlowSimulator::Config scfg;
    scfg.num_shards = 4;  // one pod per shard
    scfg.num_threads = threads;
    scfg.shard.flow_rate_cap = 25_Gbps;
    ShardedFlowSimulator sim{topo.graph, scfg};
    std::vector<NodeId> hosts;
    for (const NodeId n : sim.partition().pod_nodes[kBusy]) {
      if (topo.graph.node(n).kind == NodeKind::kHost) hosts.push_back(n);
    }
    PoissonTrafficConfig tcfg;
    tcfg.arrivals_per_second = 200.0;
    tcfg.duration = Seconds{1.0};
    tcfg.min_size = Bits::from_gigabits(0.2);
    tcfg.max_size = Bits::from_gigabits(4.0);
    tcfg.seed = 77;
    for (const auto& f : make_poisson_traffic(hosts, tcfg)) sim.submit(f);

    std::vector<std::thread::id> ran_on;
    sim.shard_mutable(kBusy).set_load_listener(
        [&](Seconds) { ran_on.push_back(std::this_thread::get_id()); });
    sim.run_until(Seconds{2.0});
    sim.check_invariants();

    ASSERT_FALSE(ran_on.empty());
    for (const std::thread::id id : ran_on) {
      ASSERT_EQ(id, std::this_thread::get_id()) << threads << " workers";
    }
    if (threads == 1) {
      reference = sim.completed();
      reference_fct = sim.fct_stats();
      EXPECT_GT(reference.size(), 0u);
      continue;
    }
    expect_identical_results(sim, reference, reference_fct);
  }
}

// --- Contract 3: min-progress coupling across the gateway ---

TEST(ShardedFlowSim, CrossShardFlowTracksBottleneckHalf) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const NodeId src = topo.hosts.front();  // pod 0 -> shard 0
  const NodeId dst = topo.hosts.back();   // pod 3 -> shard 1

  // Degrade the destination host's access link to 5%: the egress half is
  // the 5 Gbps bottleneck while the ingress half could run at line rate.
  LinkId access = kInvalidLink;
  for (const Link& l : topo.graph.links()) {
    if (l.a == dst || l.b == dst) access = l.id;
  }
  ASSERT_NE(access, kInvalidLink);

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 2;
  ShardedFlowSimulator sim{topo.graph, scfg};
  sim.set_link_capacity_factor(access, 0.05);
  sim.submit({src, dst, Bits::from_gigabits(3.0), Seconds{0.0}, 99});

  // Alone at line rate the ingress half would finish by 0.03 s; every
  // barrier pulls it back to the egress half's progress, so both halves
  // are still live at 0.3 s.
  sim.run_until(Seconds{0.3});
  EXPECT_EQ(sim.shard(0).active_flows(), 1u);
  EXPECT_EQ(sim.shard(1).active_flows(), 1u);
  sim.run_until(Seconds{1.0});

  // Plain-simulator ground truth: 3 Gb over a 5 Gbps bottleneck = 0.6 s.
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_NEAR(sim.completed().front().finished.value(), 0.6, 1e-9);
  EXPECT_EQ(sim.completed().front().spec.tag, 99u);
  EXPECT_EQ(sim.flows_in_flight(), 0u);
  sim.check_invariants();
}

TEST(ShardedFlowSim, CrossShardConservationManyShards) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 400.0, 1.5, 5);

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 4;  // one pod per shard: every inter-pod flow splits
  scfg.shard.flow_rate_cap = 25_Gbps;
  ShardedFlowSimulator sim{topo.graph, scfg};
  for (const auto& f : flows) sim.submit(f);
  sim.run_until(Seconds{20.0});

  // The workload is light and the horizon generous: everything finishes.
  EXPECT_EQ(sim.completed().size(), flows.size());
  EXPECT_EQ(sim.flows_in_flight(), 0u);
  EXPECT_EQ(sim.active_flows(), 0u);
  EXPECT_EQ(sim.fct_stats().count(), flows.size());
  sim.check_invariants();

  // The merged metric view agrees with the summed stats view.
  const auto metrics = sim.merged_metrics();
  double fast_arrivals = -1.0;
  for (const auto& m : metrics) {
    if (m.name == "netsim.realloc.fast_arrivals") fast_arrivals = m.value;
  }
  EXPECT_DOUBLE_EQ(fast_arrivals,
                   static_cast<double>(sim.realloc_stats().fast_arrivals));
}

// --- Contract 4: faults against the collapsed core ---

TEST(ShardedFlowSim, SpineKillStrandsAndRecovers) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const NodeId src = topo.hosts.front();
  const NodeId dst = topo.hosts.back();

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 2;
  scfg.shard.strand_unroutable = true;
  ShardedFlowSimulator sim{topo.graph, scfg};
  sim.submit({src, dst, Bits::from_gigabits(400.0), Seconds{0.0}, 1});
  sim.run_until(Seconds{0.1});
  EXPECT_EQ(sim.stranded_flows(), 0u);

  // Kill the entire core: every gateway link loses all its capacity, both
  // halves strand, and the shard invariants must hold throughout.
  for (const NodeId core : topo.graph.nodes_at_tier(3)) {
    sim.set_node_enabled(core, false);
  }
  sim.run_until(Seconds{0.2});
  EXPECT_EQ(sim.stranded_flows(), 2u);  // both halves parked
  EXPECT_EQ(sim.completed().size(), 0u);
  sim.check_invariants();

  // Recovery resumes both halves with their remaining volume.
  for (const NodeId core : topo.graph.nodes_at_tier(3)) {
    sim.set_node_enabled(core, true);
  }
  sim.run_until(Seconds{10.0});
  EXPECT_EQ(sim.stranded_flows(), 0u);
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_GE(sim.realloc_stats().resumed, 2u);
  sim.check_invariants();
}

TEST(ShardedFlowSim, PartialCoreDegradationRescalesGateway) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 2;
  ShardedFlowSimulator sim{topo.graph, scfg};

  // Degrading one of an agg's two core uplinks to 50% leaves the gateway
  // link at 75% of its 200G aggregate.
  const PodPartition& p = sim.partition();
  const LinkId boundary = p.boundary_links.front();
  sim.set_link_capacity_factor(boundary, 0.5);

  const ShardTopology& st = sim.shard_topology(0);
  bool found = false;
  for (const auto& gl : st.gateway_links) {
    for (const LinkId l : gl.global_links) {
      if (l != boundary) continue;
      found = true;
      EXPECT_DOUBLE_EQ(sim.shard(0).link_capacity_factor(gl.local_link),
                       0.75);
    }
  }
  EXPECT_TRUE(found);
  // Full restoration returns the gateway link to exactly 1.0.
  sim.set_link_capacity_factor(boundary, 1.0);
  for (const auto& gl : st.gateway_links) {
    for (const LinkId l : gl.global_links) {
      if (l != boundary) continue;
      EXPECT_DOUBLE_EQ(sim.shard(0).link_capacity_factor(gl.local_link), 1.0);
    }
  }
  sim.check_invariants();
}

/// What a gateway-storm run leaves behind, compared bitwise across runs.
struct StormOutcome {
  std::vector<FlowRecord> completed;
  SummaryStat fct;
  std::vector<std::uint8_t> image;  // final save_state bytes
};

/// k=4, one pod per shard, Poisson traffic (three in four flows inter-pod,
/// so split into live halves), and a storm against the collapsed core
/// between run_until calls: kill a core switch, degrade a boundary link,
/// take down every core uplink of one agg (its gateway link goes down and
/// its halves reroute), kill the whole core (halves strand), then recover
/// everything. With `cut` > 0 the run is saved at that time and finished by
/// a fresh simulator restored from the image.
StormOutcome run_gateway_storm(const BuiltTopology& topo,
                               const std::vector<FlowSpec>& flows,
                               std::size_t threads, double cut) {
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 4;
  scfg.num_threads = threads;
  scfg.shard.flow_rate_cap = 25_Gbps;
  scfg.shard.strand_unroutable = true;
  auto sim = std::make_unique<ShardedFlowSimulator>(topo.graph, scfg);
  for (const auto& f : flows) sim->submit(f);

  const std::vector<NodeId> cores = topo.graph.nodes_at_tier(3);
  const std::vector<LinkId> agg_uplinks =
      sim->shard_topology(0).gateway_links.front().global_links;
  const LinkId degraded =
      sim->shard_topology(2).gateway_links.front().global_links.front();

  const auto run_to = [&](double t) {
    if (cut > 0.0 && sim->now().value() < cut && cut <= t) {
      sim->run_until(Seconds{cut});
      state::SnapshotWriter writer;
      sim->save_state(writer);
      sim = std::make_unique<ShardedFlowSimulator>(topo.graph, scfg);
      state::SnapshotReader reader{writer.buffer()};
      sim->restore_state(reader);
    }
    sim->run_until(Seconds{t});
    EXPECT_GT(sim->flows_in_flight(), 0u) << "at " << t;
  };
  run_to(0.3);
  sim->set_node_enabled(cores[0], false);
  run_to(0.6);
  sim->set_link_capacity_factor(degraded, 0.5);
  run_to(0.9);
  const auto reroutes = sim->realloc_stats().reroutes;
  for (const LinkId l : agg_uplinks) sim->set_link_enabled(l, false);
  EXPECT_GT(sim->realloc_stats().reroutes, reroutes);
  sim->check_invariants();
  run_to(1.2);
  for (const NodeId c : cores) sim->set_node_enabled(c, false);
  EXPECT_GT(sim->stranded_flows(), 0u);
  sim->check_invariants();
  run_to(1.5);
  for (const NodeId c : cores) sim->set_node_enabled(c, true);
  for (const LinkId l : agg_uplinks) sim->set_link_enabled(l, true);
  sim->set_link_capacity_factor(degraded, 1.0);
  EXPECT_EQ(sim->stranded_flows(), 0u);
  sim->run_until(Seconds{12.0});
  EXPECT_EQ(sim->flows_in_flight(), 0u);
  sim->check_invariants();

  StormOutcome out;
  out.completed = sim->completed();
  out.fct = sim->fct_stats();
  state::SnapshotWriter writer;
  sim->save_state(writer);
  out.image = writer.buffer();
  return out;
}

TEST(ShardedFlowSim, GatewayStormOverLiveHalvesBitIdentical) {
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 400.0, 2.0, 2024);

  const StormOutcome reference = run_gateway_storm(topo, flows, 1, 0.0);
  EXPECT_EQ(reference.completed.size(), flows.size());
  const auto expect_same = [&](const StormOutcome& run) {
    ASSERT_EQ(run.completed.size(), reference.completed.size());
    for (std::size_t i = 0; i < run.completed.size(); ++i) {
      ASSERT_EQ(run.completed[i].id, reference.completed[i].id) << i;
      EXPECT_EQ(run.completed[i].finished.value(),
                reference.completed[i].finished.value())
          << i;
    }
    EXPECT_EQ(run.fct.count(), reference.fct.count());
    EXPECT_EQ(run.fct.mean(), reference.fct.mean());
    EXPECT_EQ(run.fct.m2(), reference.fct.m2());
    EXPECT_EQ(run.fct.sum(), reference.fct.sum());
    EXPECT_EQ(run.image, reference.image);
  };
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    expect_same(run_gateway_storm(topo, flows, threads, 0.0));
  }
  // Cut mid-storm: the agg's gateway link is down and a core switch is
  // dead; the whole-core kill and the recovery happen after the restore.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " workers, resumed");
    expect_same(run_gateway_storm(topo, flows, threads, 1.05));
  }
}

// --- Contract 5: snapshot / resume bit-identity ---

TEST(ShardedFlowSim, SnapshotResumeBitIdentical) {
  const auto topo = build_fat_tree(4, 100_Gbps);
  const auto flows = poisson_workload(topo, 300.0, 2.0, 31);
  const Seconds pause{1.0};
  const Seconds horizon{3.0};

  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 2;
  scfg.shard.flow_rate_cap = 25_Gbps;

  // Uninterrupted run.
  ShardedFlowSimulator straight{topo.graph, scfg};
  for (const auto& f : flows) straight.submit(f);
  straight.run_until(horizon);

  // Interrupted twin: pause, snapshot, restore into a fresh simulator,
  // continue.
  ShardedFlowSimulator first{topo.graph, scfg};
  for (const auto& f : flows) first.submit(f);
  first.run_until(pause);
  state::SnapshotWriter writer;
  first.save_state(writer);

  ShardedFlowSimulator resumed{topo.graph, scfg};
  state::SnapshotReader reader{writer.buffer()};
  resumed.restore_state(reader);
  EXPECT_EQ(resumed.now().value(), pause.value());
  resumed.run_until(horizon);

  expect_identical_results(resumed, straight.completed(),
                           straight.fct_stats());
  EXPECT_EQ(resumed.active_flows(), straight.active_flows());
  resumed.check_invariants();
}

TEST(ShardedFlowSim, RejectedSubmitsLeaveNoGapInIds) {
  // ShardedFlowSimulator's ids index its flow table on restore (record
  // id - 1), so every rejected submit must leave the id counter where it
  // was.
  const auto topo = build_fat_tree(4, 100_Gbps);
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 2;
  ShardedFlowSimulator sim{topo.graph, scfg};
  const PodPartition& pods = sim.partition();
  const std::vector<NodeId> pod0 = golden::pod_hosts(topo, pods, 0);
  const std::vector<NodeId> pod3 = golden::pod_hosts(topo, pods, 3);
  NodeId core = kInvalidNode;
  for (NodeId n = 0; n < topo.graph.num_nodes() && core == kInvalidNode; ++n) {
    if (pods.is_core(n)) core = n;
  }
  ASSERT_NE(core, kInvalidNode);
  const auto gb = [](double g) { return Bits::from_gigabits(g); };

  EXPECT_EQ(sim.submit(FlowSpec{pod0[0], pod3[0], gb(1.0), 0.0_s, 10}), 1u);
  EXPECT_THROW(sim.submit(FlowSpec{core, pod0[1], gb(50.0), 0.0_s, 11}),
               std::invalid_argument);
  EXPECT_THROW(sim.submit(FlowSpec{pod0[1], pod0[1], gb(2.0), 0.0_s, 12}),
               std::invalid_argument);
  EXPECT_THROW(sim.submit(FlowSpec{pod0[1], pod3[1], Bits{0.0}, 0.0_s, 13}),
               std::invalid_argument);
  EXPECT_EQ(sim.submit(FlowSpec{pod0[1], pod0[0], gb(2.0), 0.0_s, 14}), 2u);
  EXPECT_EQ(sim.submit(FlowSpec{pod3[1], pod0[1], gb(3.0), 0.0_s, 15}), 3u);
  sim.run_until(0.5_s);
  EXPECT_THROW(sim.submit(FlowSpec{pod0[0], pod0[1], gb(1.0), 0.25_s, 16}),
               std::invalid_argument);
  EXPECT_EQ(sim.submit(FlowSpec{pod3[0], pod3[1], gb(4.0), 0.5_s, 17}), 4u);
  sim.run_until(2.0_s);
  ASSERT_EQ(sim.completed().size(), 4u);
  EXPECT_EQ(sim.flows_in_flight(), 0u);

  // The restored records carry the submitted specs.
  state::SnapshotWriter writer;
  sim.save_state(writer);
  ShardedFlowSimulator resumed{topo.graph, scfg};
  state::SnapshotReader reader{writer.buffer()};
  resumed.restore_state(reader);
  ASSERT_EQ(resumed.completed().size(), sim.completed().size());
  for (std::size_t i = 0; i < sim.completed().size(); ++i) {
    const FlowRecord& a = resumed.completed()[i];
    const FlowRecord& b = sim.completed()[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.spec.src, b.spec.src) << i;
    EXPECT_EQ(a.spec.dst, b.spec.dst) << i;
    EXPECT_EQ(a.spec.size.value(), b.spec.size.value()) << i;
    EXPECT_EQ(a.spec.tag, b.spec.tag) << i;
    EXPECT_EQ(a.finished.value(), b.finished.value()) << i;
  }
  expect_identical_results(resumed, sim.completed(), sim.fct_stats());
  resumed.check_invariants();
}

// --- Contract 6: the one-shard barrier grid after run() ---

/// The grid cursor stepping one barrier at a time from zero reaches.
std::uint64_t stepped_cursor(double now, double interval) {
  std::uint64_t c = 0;
  while (static_cast<double>(c + 1) * interval <= now) ++c;
  return c;
}

TEST(ShardedFlowSim, OneShardRunLandsTheGridLikeSteppingWould) {
  // An unroutable flow (its source's access link is down) is dropped at
  // admission, so the makespan is exactly its start time: run() lands on
  // and around values whose grid multiples round either way.
  const auto topo = build_fat_tree(4, 100_Gbps);
  const NodeId src = topo.hosts.front();
  const NodeId dst = topo.hosts.back();
  LinkId access = kInvalidLink;
  for (const Link& l : topo.graph.links()) {
    if (l.a == src || l.b == src) access = l.id;
  }
  ASSERT_NE(access, kInvalidLink);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double interval : {0.01, 0.1}) {
    for (const double grid : {0.3, 0.7, 1e6 + 0.01}) {
      for (const double makespan : {std::nextafter(grid, 0.0), grid,
                                    std::nextafter(grid, inf)}) {
        SCOPED_TRACE(testing::Message() << "interval=" << interval
                                        << " makespan=" << makespan);
        ShardedFlowSimulator::Config scfg;
        scfg.num_shards = 1;
        scfg.barrier_interval = Seconds{interval};
        ShardedFlowSimulator sim{topo.graph, scfg};
        sim.set_link_enabled(access, false);
        sim.submit({src, dst, Bits::from_gigabits(1.0), Seconds{makespan}, 0});
        sim.run();
        ASSERT_EQ(sim.now().value(), makespan);
        EXPECT_EQ(sim.unroutable_flows(), 1u);

        std::vector<double> barriers;
        sim.set_barrier_listener(
            [&](Seconds t) { barriers.push_back(t.value()); });
        sim.run_until(Seconds{makespan + 2.5 * interval});
        ASSERT_FALSE(barriers.empty());
        EXPECT_EQ(barriers.front(),
                  static_cast<double>(stepped_cursor(makespan, interval) + 1) *
                      interval);
      }
    }
  }
}

TEST(ShardedFlowSim, OneShardRunReturnsAtHugeMakespans) {
  // Stepping one barrier at a time would walk 1e14 grid windows here.
  const auto topo = build_fat_tree(4, 100_Gbps);
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = 1;
  ShardedFlowSimulator sim{topo.graph, scfg};
  const double start = 1e12;
  sim.submit({topo.hosts.front(), topo.hosts.back(), Bits::from_gigabits(1.0),
              Seconds{start}, 0});
  sim.run();
  ASSERT_EQ(sim.completed().size(), 1u);
  EXPECT_GT(sim.now().value(), start);

  std::vector<double> barriers;
  sim.set_barrier_listener([&](Seconds t) { barriers.push_back(t.value()); });
  sim.run_until(Seconds{sim.now().value() + 1.0});
  ASSERT_FALSE(barriers.empty());
  EXPECT_GT(barriers.front(), sim.completed().front().finished.value());
  EXPECT_LT(barriers.front() - sim.completed().front().finished.value(),
            2 * scfg.barrier_interval.value());
}

// --- Contract 7: reschedules from collected minima ---

/// backend_golden_record's expectations for one reconcile scenario.
struct ReconcileGolden {
  std::size_t completed = 0;
  double fct_mean_s = 0.0;
  double fct_m2 = 0.0;
  double fct_sum_s = 0.0;
  double last_finished_s = 0.0;
  std::vector<std::uint64_t> events;
  std::size_t image_bytes = 0;
  std::uint32_t image_crc = 0;
};

ReconcileGolden reconcile_golden(golden::ReconcileScenario scenario) {
  ReconcileGolden e;
  switch (scenario) {
    case golden::ReconcileScenario::kRaisedHalfHoldsMinimum:
      e.completed = 5;
      e.fct_mean_s = 0x1.1eb851eb851edp-1;  // 0.56000000000000016
      e.fct_m2 = 0x1.cac083126e98p-4;  // 0.1120000000000001
      e.fct_sum_s = 0x1.6666666666668p+1;  // 2.8000000000000007
      e.last_finished_s = 0x1.999999999999cp-1;  // 0.80000000000000027
      e.events = {64, 8};
      e.image_bytes = 37908;
      e.image_crc = 0x39d1f0b4;
      break;
    case golden::ReconcileScenario::kRaisedHalfHoldsMinimumUncapped:
      e.completed = 5;
      e.fct_mean_s = 0x1.51eb851eb851fp-2;  // 0.33000000000000002
      e.fct_m2 = 0x1.5810624dd2f1cp-3;  // 0.16800000000000004
      e.fct_sum_s = 0x1.a666666666667p+0;  // 1.6500000000000001
      e.last_finished_s = 0x1.3333333333334p-1;  // 0.60000000000000009
      e.events = {51, 8};
      e.image_bytes = 37880;
      e.image_crc = 0xbfdcfe2d;
      break;
    case golden::ReconcileScenario::kSporadicRaises:
      e.completed = 24;
      e.fct_mean_s = 0x1.23d9018e75793p-2;  // 0.28500750000000002
      e.fct_m2 = 0x1.09bf2ad0f37eep+3;  // 8.3045858460499993
      e.fct_sum_s = 0x1.b5c58255b035cp+2;  // 6.8401800000000001
      e.last_finished_s = 0x1.999999999999ap+0;  // 1.6000000000000001
      e.events = {41, 25, 39, 22};
      e.image_bytes = 72878;
      e.image_crc = 0x2751b790;
      break;
  }
  return e;
}

/// Runs `scenario` at 1/2/4 workers and once resumed from a cut at grid
/// barrier `cut_barrier`: every run bit-identical to the recorded goldens
/// and to each other.
void expect_reconcile_matches_recorded(golden::ReconcileScenario scenario,
                                       std::size_t cut_barrier) {
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);
  const ReconcileGolden e = reconcile_golden(scenario);
  const golden::ReconcileOutcome reference =
      golden::run_reconcile(topo, scenario, 1);
  // EXPECT_EQ on doubles is deliberate: the contract is bitwise identity.
  ASSERT_EQ(reference.completed.size(), e.completed);
  EXPECT_EQ(reference.fct.count(), e.completed);
  EXPECT_EQ(reference.fct.mean(), e.fct_mean_s);
  EXPECT_EQ(reference.fct.m2(), e.fct_m2);
  EXPECT_EQ(reference.fct.sum(), e.fct_sum_s);
  EXPECT_EQ(reference.completed.back().finished.value(), e.last_finished_s);
  EXPECT_EQ(reference.events, e.events);
  EXPECT_EQ(reference.image.size(), e.image_bytes);
  EXPECT_EQ(state::crc32(reference.image.data(), reference.image.size()),
            e.image_crc);

  const auto expect_same = [&](const golden::ReconcileOutcome& run) {
    ASSERT_EQ(run.completed.size(), reference.completed.size());
    for (std::size_t i = 0; i < run.completed.size(); ++i) {
      ASSERT_EQ(run.completed[i].id, reference.completed[i].id) << i;
      EXPECT_EQ(run.completed[i].finished.value(),
                reference.completed[i].finished.value())
          << i;
    }
    EXPECT_EQ(run.fct.mean(), reference.fct.mean());
    EXPECT_EQ(run.fct.m2(), reference.fct.m2());
    EXPECT_EQ(run.fct.sum(), reference.fct.sum());
    EXPECT_EQ(run.events, reference.events);
    EXPECT_EQ(run.image, reference.image);
  };
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " workers");
    expect_same(golden::run_reconcile(topo, scenario, threads));
  }
  SCOPED_TRACE(testing::Message() << "resumed at barrier " << cut_barrier);
  expect_same(golden::run_reconcile(topo, scenario, 4, cut_barrier));
}

TEST(ShardedFlowSim, RaisedHalfHoldingTheEarliestCompletionRescans) {
  {
    SCOPED_TRACE("capped");
    expect_reconcile_matches_recorded(
        golden::ReconcileScenario::kRaisedHalfHoldsMinimum, 30);
  }
  SCOPED_TRACE("uncapped");
  expect_reconcile_matches_recorded(
      golden::ReconcileScenario::kRaisedHalfHoldsMinimumUncapped, 30);
}

TEST(ShardedFlowSim, SporadicRaisesReuseMinimaOrRescan) {
  expect_reconcile_matches_recorded(golden::ReconcileScenario::kSporadicRaises,
                                    21);
}

// --- Contract 8: merged-metrics export stability ---

std::vector<telemetry::MetricSample> run_and_merge(const BuiltTopology& topo,
                                                   std::size_t shards,
                                                   std::size_t threads) {
  const auto flows = poisson_workload(topo, 300.0, 1.5, 19);
  ShardedFlowSimulator::Config scfg;
  scfg.num_shards = shards;
  scfg.num_threads = threads;
  scfg.shard.flow_rate_cap = 25_Gbps;
  ShardedFlowSimulator sim{topo.graph, scfg};
  for (const auto& f : flows) sim.submit(f);
  sim.run_until(Seconds{6.0});
  return sim.merged_metrics();
}

TEST(ShardedFlowSim, MergedMetricsExportByteStable) {
  thread_budget::set_pool_size(4);
  const auto topo = build_fat_tree(4, 100_Gbps);

  // Counters survive the merge as exact integers: the double `value`
  // mirrors the integer `count` (never a shard-order-dependent double
  // sum), and the export serializes the integer field.
  const auto merged4 = run_and_merge(topo, 4, 1);
  ASSERT_FALSE(merged4.empty());
  for (const auto& m : merged4) {
    if (m.kind != telemetry::MetricKind::kCounter) continue;
    EXPECT_EQ(m.value, static_cast<double>(m.count)) << m.name;
  }

  // Metric order is name-sorted — the same schema regardless of how many
  // shards (each with its own registration order) fed the merge.
  const auto names_of = [](const std::vector<telemetry::MetricSample>& v) {
    std::vector<std::string> names;
    names.reserve(v.size());
    for (const auto& m : v) names.push_back(m.name);
    return names;
  };
  const auto names4 = names_of(merged4);
  EXPECT_TRUE(std::is_sorted(names4.begin(), names4.end()));
  EXPECT_EQ(names_of(run_and_merge(topo, 1, 1)), names4);
  EXPECT_EQ(names_of(run_and_merge(topo, 2, 1)), names4);

  // For a fixed shard count the run is bit-identical across worker counts,
  // so the serialized export must be byte-identical too.
  const std::string bytes1 = telemetry::to_metrics_json(merged4);
  EXPECT_EQ(telemetry::to_metrics_json(run_and_merge(topo, 4, 2)), bytes1);
  EXPECT_EQ(telemetry::to_metrics_json(run_and_merge(topo, 4, 4)), bytes1);
}

}  // namespace
}  // namespace netpp
