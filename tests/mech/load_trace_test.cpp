// Tests for LoadTrace, the one trace type every mechanism consumes:
// validation (the "TypeName: constraint" error style) and lookups.
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

TEST(LoadTrace, LoadAtPicksTheSegment) {
  const LoadTrace trace = make_trace();
  EXPECT_DOUBLE_EQ(trace.load_at(0.0_s, 0), 0.2);
  EXPECT_DOUBLE_EQ(trace.load_at(0.5_s, 1), 0.4);
  // Segment boundaries belong to the later segment.
  EXPECT_DOUBLE_EQ(trace.load_at(1.0_s, 0), 0.8);
  EXPECT_DOUBLE_EQ(trace.load_at(3.5_s, 1), 0.3);
  // Past-the-end queries clamp to the final segment.
  EXPECT_DOUBLE_EQ(trace.load_at(99.0_s, 0), 0.1);
}

}  // namespace
}  // namespace netpp
