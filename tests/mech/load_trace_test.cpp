// Tests for LoadTrace, the one trace type every mechanism consumes:
// validation (the "TypeName: constraint" error style), lookups, and
// resampling.
#include "netpp/mech/load_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "netpp/units.h"

namespace netpp {
namespace {

using namespace netpp::literals;

LoadTrace make_trace() {
  LoadTrace trace;
  trace.times = {0.0_s, 1.0_s, 3.0_s};
  trace.loads = {{0.2, 0.4}, {0.8, 0.6}, {0.1, 0.3}};
  trace.end = 4.0_s;
  return trace;
}

std::string thrown_message(const auto& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(LoadTrace, ValidAcceptsAndReportsShape) {
  const LoadTrace trace = make_trace();
  EXPECT_NO_THROW(trace.validate());
  EXPECT_EQ(trace.num_segments(), 3u);
  EXPECT_EQ(trace.channels(), 2);
  EXPECT_DOUBLE_EQ(trace.duration().value(), 4.0);
  EXPECT_DOUBLE_EQ(trace.segment_end(0).value(), 1.0);
  EXPECT_DOUBLE_EQ(trace.segment_end(2).value(), 4.0);
}

TEST(LoadTrace, ValidationErrorsNameTheType) {
  LoadTrace trace = make_trace();
  trace.times.pop_back();
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: needs matching, non-empty times and loads");

  trace = make_trace();
  trace.times[1] = trace.times[0];
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: times must be strictly increasing");

  trace = make_trace();
  trace.times[1] = Seconds{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: times must be finite");

  trace = make_trace();
  trace.end = 3.0_s;
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: end must be finite and after the last segment");

  trace = make_trace();
  trace.loads[1] = {0.5};
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: every segment needs the same channel count");

  trace = make_trace();
  trace.loads[0][1] = 1.5;
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: loads must be finite and in [0, 1]");

  trace = make_trace();
  trace.loads[2][0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: loads must be finite and in [0, 1]");

  trace = make_trace();
  trace.loads = {{}, {}, {}};
  EXPECT_EQ(thrown_message([&] { trace.validate(); }),
            "LoadTrace: needs at least one channel");
}

TEST(LoadTrace, LoadAtAndAggregateAt) {
  const LoadTrace trace = make_trace();
  EXPECT_DOUBLE_EQ(trace.load_at(0.0_s, 0), 0.2);
  EXPECT_DOUBLE_EQ(trace.load_at(0.5_s, 1), 0.4);
  // Segment boundaries belong to the later segment.
  EXPECT_DOUBLE_EQ(trace.load_at(1.0_s, 0), 0.8);
  EXPECT_DOUBLE_EQ(trace.load_at(3.5_s, 1), 0.3);
  // Past-the-end queries clamp to the final segment.
  EXPECT_DOUBLE_EQ(trace.load_at(99.0_s, 0), 0.1);

  EXPECT_DOUBLE_EQ(trace.aggregate_at(0.0_s), (0.2 + 0.4) / 2.0);
  EXPECT_DOUBLE_EQ(trace.aggregate_at(2.0_s), (0.8 + 0.6) / 2.0);
}

TEST(LoadTrace, ResampledHitsFixedBoundaries) {
  const LoadTrace trace = make_trace();
  const LoadTrace fine = trace.resampled(0.5_s);
  ASSERT_EQ(fine.num_segments(), 8u);
  EXPECT_DOUBLE_EQ(fine.times.front().value(), 0.0);
  EXPECT_DOUBLE_EQ(fine.times.back().value(), 3.5);
  EXPECT_DOUBLE_EQ(fine.end.value(), 4.0);
  // Each resampled segment carries the load active at its start.
  EXPECT_DOUBLE_EQ(fine.loads[1][0], 0.2);  // [0.5, 1.0) still segment 0
  EXPECT_DOUBLE_EQ(fine.loads[2][0], 0.8);  // [1.0, 1.5) is segment 1
  EXPECT_DOUBLE_EQ(fine.loads[7][1], 0.3);  // [3.5, 4.0) is segment 2
  EXPECT_NO_THROW(fine.validate());
}

TEST(LoadTrace, ResampledKeepsPartialFinalSegment) {
  LoadTrace trace = make_trace();
  trace.end = 3.75_s;
  const LoadTrace fine = trace.resampled(1.5_s);
  // Boundaries at 0, 1.5, 3.0 — the [3.0, 3.75) remainder is explicit, not
  // silently truncated.
  ASSERT_EQ(fine.num_segments(), 3u);
  EXPECT_DOUBLE_EQ(fine.times.back().value(), 3.0);
  EXPECT_DOUBLE_EQ(fine.end.value(), 3.75);
  EXPECT_DOUBLE_EQ(fine.loads.back()[0], 0.1);
}

TEST(LoadTrace, ResampledRejectsBadStep) {
  const LoadTrace trace = make_trace();
  EXPECT_THROW((void)trace.resampled(0.0_s), std::invalid_argument);
  EXPECT_THROW((void)trace.resampled(Seconds{-1.0}), std::invalid_argument);
  EXPECT_THROW(
      (void)trace.resampled(Seconds{std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(LoadTrace, AggregateFromMultiChannelAverages) {
  // The whole-device view of a per-pipeline trace is the channel mean,
  // segment by segment.
  const LoadTrace trace = make_trace();
  EXPECT_DOUBLE_EQ(trace.aggregate_at(trace.times[0]), (0.2 + 0.4) / 2.0);
  EXPECT_DOUBLE_EQ(trace.aggregate_at(trace.times[1]), (0.8 + 0.6) / 2.0);
  EXPECT_DOUBLE_EQ(trace.aggregate_at(trace.times[2]), (0.1 + 0.3) / 2.0);
}

}  // namespace
}  // namespace netpp
