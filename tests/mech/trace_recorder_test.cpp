#include "netpp/mech/trace_recorder.h"

#include <gtest/gtest.h>

#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

struct Rig {
  BuiltTopology topo = build_leaf_spine(1, 1, 2, 100_Gbps, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
  NodeId leaf = topo.graph.nodes_at_tier(1).at(0);
};

TEST(NodeLoadRecorder, RecordsLoadChanges) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  rig.sim.set_load_listener(recorder.listener());
  recorder.sample(0.0_s);

  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 1.0_s, 0});
  rig.engine.run();
  EXPECT_GE(recorder.num_samples(), 2u);

  const LoadTrace trace = recorder.load_trace(rig.leaf, 1, 3.0_s);
  trace.validate();
  // Leaf has 3 links = 6 directed at 100 G; the flow crosses 2 at 100 G for
  // one second: load 1/3 during [1, 2).
  ASSERT_GE(trace.loads.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.loads.front()[0], 0.0);
  double peak = 0.0;
  for (const auto& loads : trace.loads) peak = std::max(peak, loads[0]);
  EXPECT_NEAR(peak, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(trace.loads.back()[0], 0.0);
}

TEST(NodeLoadRecorder, AggregateTraceIntegratesCorrectly) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  rig.sim.set_load_listener(recorder.listener());
  recorder.sample(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 1.0_s, 0});
  rig.engine.run();

  const LoadTrace trace = recorder.load_trace(rig.leaf, 1, 3.0_s);
  // Time-weighted mean load over [0, 3): (1/3 for 1 s) / 3 = 1/9.
  double integral = 0.0;
  for (std::size_t i = 0; i < trace.num_segments(); ++i) {
    integral += trace.loads[i][0] *
                (trace.segment_end(i) - trace.times[i]).value();
  }
  EXPECT_NEAR(integral / 3.0, 1.0 / 9.0, 1e-9);
}

TEST(NodeLoadRecorder, PipelineTraceSplitsLinks) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  rig.sim.set_load_listener(recorder.listener());
  recorder.sample(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 0.0_s, 0});
  rig.engine.run();

  const LoadTrace trace = recorder.load_trace(rig.leaf, 2, 2.0_s);
  trace.validate();
  EXPECT_EQ(trace.channels(), 2);
  // At some sample, at least one pipeline carried load; none exceeded 1.
  double peak = 0.0;
  for (const auto& loads : trace.loads) {
    for (double l : loads) {
      peak = std::max(peak, l);
      EXPECT_LE(l, 1.0);
    }
  }
  EXPECT_GT(peak, 0.0);
}

TEST(NodeLoadRecorder, UntrackedNodeThrows) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  recorder.sample(0.0_s);
  EXPECT_THROW((void)recorder.load_trace(rig.topo.hosts[0], 1, 1.0_s),
               std::out_of_range);
  EXPECT_THROW((void)recorder.load_trace(rig.topo.hosts[0], 2, 1.0_s),
               std::out_of_range);
}

TEST(NodeLoadRecorder, NoSamplesThrows) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  EXPECT_THROW((void)recorder.load_trace(rig.leaf, 2, 1.0_s),
               std::logic_error);
}

TEST(NodeLoadRecorder, EmptyNodeListThrows) {
  Rig rig;
  EXPECT_THROW((NodeLoadRecorder{rig.sim, {}}), std::invalid_argument);
}

TEST(NodeLoadRecorder, InvalidPipelineCountThrows) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  recorder.sample(0.0_s);
  EXPECT_THROW((void)recorder.load_trace(rig.leaf, 0, 1.0_s),
               std::invalid_argument);
}

// --- Edge cases of the trace export ----------------------------------------

TEST(NodeLoadRecorder, LoadTraceOnEmptyRecorderThrows) {
  Rig rig;
  const NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  EXPECT_THROW((void)recorder.load_trace(rig.leaf, 1, 1.0_s),
               std::logic_error);
}

TEST(NodeLoadRecorder, SingleSampleYieldsOneSegment) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  recorder.sample(0.0_s);

  const LoadTrace trace = recorder.load_trace(rig.leaf, 1, 2.5_s);
  EXPECT_NO_THROW(trace.validate());
  ASSERT_EQ(trace.num_segments(), 1u);
  EXPECT_DOUBLE_EQ(trace.times.front().value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.end.value(), 2.5);
  EXPECT_DOUBLE_EQ(trace.loads[0][0], 0.0);
}

TEST(NodeLoadRecorder, EndMustNotPrecedeTheLastSample) {
  // The open final segment needs an explicit end — truncating before the
  // last sample would silently drop recorded load.
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  recorder.sample(0.0_s);
  recorder.sample(1.0_s);
  EXPECT_THROW((void)recorder.load_trace(rig.leaf, 1, 0.5_s),
               std::invalid_argument);
  EXPECT_NO_THROW((void)recorder.load_trace(rig.leaf, 1, 1.5_s));
  EXPECT_THROW((void)recorder.load_trace(rig.leaf, 0, 1.5_s),
               std::invalid_argument);
}

TEST(NodeLoadRecorder, EndOnSegmentBoundaryDropsTheZeroWidthSegment) {
  // Regression: a recording that ends exactly at its last sample time used
  // to throw; it must instead drop the zero-width final segment — the last
  // sample carries no duration, and emitting it would fail the trace's
  // strictly-increasing segment validation.
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  recorder.sample(0.0_s);
  recorder.sample(1.0_s);
  recorder.sample(2.0_s);

  const LoadTrace trace = recorder.load_trace(rig.leaf, 1, 2.0_s);
  EXPECT_NO_THROW(trace.validate());
  ASSERT_EQ(trace.num_segments(), 1u);  // equal idle loads collapse to one
  EXPECT_DOUBLE_EQ(trace.times.front().value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.end.value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.segment_end(0).value(), 2.0);
  EXPECT_NO_THROW(recorder.load_trace(rig.leaf, 2, 2.0_s).validate());

  // A single sample that lands exactly on the end has no width at all.
  NodeLoadRecorder lone{rig.sim, {rig.leaf}};
  lone.sample(1.0_s);
  EXPECT_THROW((void)lone.load_trace(rig.leaf, 1, 1.0_s),
               std::invalid_argument);
}

TEST(NodeLoadRecorder, SingleChannelMatchesAggregateTrace) {
  Rig rig;
  NodeLoadRecorder recorder{rig.sim, {rig.leaf}};
  rig.sim.set_load_listener(recorder.listener());
  recorder.sample(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 1.0_s, 0});
  rig.engine.run();

  // With equal-capacity links the whole-node channel is the mean of the
  // per-pipeline channels at every instant.
  const LoadTrace whole = recorder.load_trace(rig.leaf, 1, 3.0_s);
  const LoadTrace split = recorder.load_trace(rig.leaf, 2, 3.0_s);
  EXPECT_EQ(whole.end.value(), split.end.value());
  ASSERT_EQ(split.channels(), 2);
  for (const LoadTrace* trace : {&whole, &split}) {
    for (const Seconds t : trace->times) {
      const double mean = (split.load_at(t, 0) + split.load_at(t, 1)) / 2.0;
      EXPECT_NEAR(whole.load_at(t, 0), mean, 1e-12);
    }
  }
}

}  // namespace
}  // namespace netpp
