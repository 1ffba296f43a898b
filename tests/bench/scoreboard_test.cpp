// The perf scoreboard's reader and scorer (bench/scoreboard.h): what a
// reference file reads as, and how rows score against it.
#include "scoreboard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace netpp::bench {
namespace {

class ScoreboardReference : public ::testing::Test {
 protected:
  /// Writes `text` to a file of this test's own under the gtest temp dir
  /// and returns its path; TearDown removes it.
  std::string write(const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "/scoreboard_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(paths_.size()) + ".json";
    std::ofstream{path, std::ios::binary} << text;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

 private:
  std::vector<std::string> paths_;
};

ScoreRow ratio_row(const std::string& key, double measured) {
  ScoreRow row;
  row.name = key;
  row.reference_key = key;
  row.measured = measured;
  return row;
}

ScoreRow pct_row(const std::string& key, double measured, double limit) {
  ScoreRow row = ratio_row(key, measured);
  row.kind = RowKind::kAbsolutePct;
  row.limit = limit;
  return row;
}

TEST_F(ScoreboardReference, TimeUnitsConvertToMilliseconds) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "benchmarks": [
      {"name": "in_ns", "cpu_time": 2500000, "time_unit": "ns"},
      {"name": "in_us", "cpu_time": 2500, "time_unit": "us"},
      {"name": "in_ms", "cpu_time": 2.5, "time_unit": "ms"},
      {"name": "in_s", "cpu_time": 0.0025, "time_unit": "s"},
      {"name": "no_unit", "cpu_time": 2.5}
    ]
  })"));
  ASSERT_TRUE(ref.loaded);
  for (const char* name : {"in_ns", "in_us", "in_ms", "in_s", "no_unit"}) {
    EXPECT_DOUBLE_EQ(ref.benchmark_ms(name), 2.5) << name;
  }
  EXPECT_LT(ref.benchmark_ms("absent"), 0.0);
}

TEST_F(ScoreboardReference, FirstNonAggregateEntryPerNameWins) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "benchmarks": [
      {"name": "rep", "run_type": "aggregate", "aggregate_name": "mean",
       "cpu_time": 9.0, "time_unit": "ms"},
      {"name": "rep", "run_type": "iteration", "cpu_time": 1.0,
       "time_unit": "ms"},
      {"name": "rep", "run_type": "iteration", "cpu_time": 3.0,
       "time_unit": "ms"},
      {"name": "only_aggregate", "run_type": "aggregate", "cpu_time": 4.0,
       "time_unit": "ms"}
    ]
  })"));
  ASSERT_TRUE(ref.loaded);
  EXPECT_DOUBLE_EQ(ref.benchmark_ms("rep"), 1.0);
  EXPECT_LT(ref.benchmark_ms("only_aggregate"), 0.0);
  EXPECT_EQ(ref.benchmark_cpu_ms.size(), 1u);
}

TEST_F(ScoreboardReference, KeepsFlatContextValuesAndIgnoresNested) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "context": {
      "netpp_build_type": "release",
      "recorded_ms": "12.5",
      "overhead_pct": -2.25,
      "count": 4,
      "caches": [{"type": "Data", "level": 1}],
      "nested": {"inner": 1}
    },
    "benchmarks": [{"name": "b", "cpu_time": 1.0, "time_unit": "ms"}]
  })"));
  ASSERT_TRUE(ref.loaded);
  EXPECT_EQ(ref.context.at("netpp_build_type"), "release");
  EXPECT_TRUE(ref.release_reference());
  EXPECT_DOUBLE_EQ(ref.context_number("recorded_ms"), 12.5);
  EXPECT_DOUBLE_EQ(ref.context_number("overhead_pct"), -2.25);
  EXPECT_DOUBLE_EQ(ref.context_number("count"), 4.0);
  EXPECT_LT(ref.context_number("netpp_build_type"), 0.0);  // not a number
  EXPECT_LT(ref.context_number("absent"), 0.0);
  EXPECT_EQ(ref.context.count("caches"), 0u);
  EXPECT_EQ(ref.context.count("nested"), 0u);
  EXPECT_EQ(ref.context.count("inner"), 0u);
}

TEST_F(ScoreboardReference, MissingOrMalformedFileIsNotLoaded) {
  const std::string missing = ::testing::TempDir() + "/scoreboard_absent.json";
  const ReferenceScores absent = load_reference_scores(missing);
  EXPECT_FALSE(absent.loaded);
  EXPECT_EQ(absent.path, missing);

  EXPECT_FALSE(load_reference_scores(::testing::TempDir()).loaded);
  for (const char* text : {
           "",
           "not json",
           R"({"benchmarks": [{"name": "b", "cpu_time": 1.0})",
           R"({"benchmarks": [{"name": "b" "cpu_time": 1.0}]})",
           R"([{"name": "b", "cpu_time": 1.0}])",
           // Well-formed, but nothing to score against.
           R"({"context": {"netpp_build_type": "release"}})",
       }) {
    EXPECT_FALSE(load_reference_scores(write(text)).loaded) << text;
  }
}

TEST_F(ScoreboardReference, DebugReferenceLeavesRatioRowsUnscored) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "context": {"netpp_build_type": "debug", "idle_pct": "0.5"},
    "benchmarks": [{"name": "row_ms", "cpu_time": 1.0, "time_unit": "ms"}]
  })"));
  ASSERT_TRUE(ref.loaded);
  EXPECT_FALSE(ref.release_reference());
  const ScoreboardReport report =
      score_rows({ratio_row("row_ms", 5.0), pct_row("idle_pct", 1.0, 2.0)},
                 ref);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_FALSE(report.rows[0].scored());
  EXPECT_FALSE(report.rows[0].failed());  // 5x slower, but not gated
  EXPECT_LT(report.rows[0].ratio(), 0.0);
  EXPECT_TRUE(report.rows[1].scored());
  EXPECT_DOUBLE_EQ(report.rows[1].reference, 0.5);
  EXPECT_EQ(report.scored, 1);
  EXPECT_EQ(report.unscored, 1);
  EXPECT_EQ(report.failures, 0);
  EXPECT_NE(report.table.find("unscored"), std::string::npos);
}

TEST_F(ScoreboardReference, RatioRowsReadBenchmarksThenContext) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "context": {"netpp_build_type": "release", "ctx_ms": "4.0"},
    "benchmarks": [{"name": "bench_ms", "cpu_time": 2.0, "time_unit": "ms"}]
  })"));
  ASSERT_TRUE(ref.loaded);
  const ScoreboardReport report =
      score_rows({ratio_row("bench_ms", 2.1), ratio_row("ctx_ms", 5.0),
                  ratio_row("absent_ms", 1.0)},
                 ref);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(report.rows[0].reference, 2.0);
  EXPECT_DOUBLE_EQ(report.rows[0].ratio(), 1.05);
  EXPECT_FALSE(report.rows[0].failed());
  EXPECT_DOUBLE_EQ(report.rows[1].reference, 4.0);
  EXPECT_TRUE(report.rows[1].failed());  // 1.25 > 1.10
  EXPECT_FALSE(report.rows[2].scored());
  EXPECT_EQ(report.scored, 2);
  EXPECT_EQ(report.unscored, 1);
  EXPECT_EQ(report.failures, 1);
  EXPECT_NE(report.table.find("FAIL"), std::string::npos);
}

TEST_F(ScoreboardReference, AbsoluteRowsScoredFromContext) {
  const ReferenceScores ref = load_reference_scores(write(R"({
    "context": {"netpp_build_type": "release", "overhead_pct": 40.5},
    "benchmarks": [{"name": "b", "cpu_time": 1.0, "time_unit": "ms"}]
  })"));
  ASSERT_TRUE(ref.loaded);
  const ScoreboardReport report = score_rows(
      {pct_row("overhead_pct", 120.0, 150.0),
       pct_row("overhead_pct", 150.0, 150.0), pct_row("absent_pct", 1.0, 2.0)},
      ref);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_DOUBLE_EQ(report.rows[0].reference, 40.5);
  EXPECT_FALSE(report.rows[0].failed());
  EXPECT_TRUE(report.rows[1].failed());  // the limit is exclusive
  // The reference is display-only: an absent one still gates.
  EXPECT_TRUE(report.rows[2].scored());
  EXPECT_LT(report.rows[2].reference, 0.0);
  EXPECT_EQ(report.scored, 3);
  EXPECT_EQ(report.failures, 1);
}

TEST(ScoreboardCheckedInReference, LoadsAsReleaseReference) {
  const ReferenceScores ref = load_reference_scores(NETPP_BENCH_FLOWSIM_JSON);
  ASSERT_TRUE(ref.loaded);
  EXPECT_TRUE(ref.release_reference());
  // The checked-in file holds 20 benchmark entries and 23 context members,
  // of which "caches" and "load_avg" are nested (update the counts when
  // tools/record_bench.sh re-records it).
  EXPECT_EQ(ref.benchmark_cpu_ms.size(), 20u);
  EXPECT_EQ(ref.context.size(), 21u);
  EXPECT_EQ(ref.context.count("caches"), 0u);
  EXPECT_EQ(ref.context.count("load_avg"), 0u);
  EXPECT_GT(ref.benchmark_ms("BM_FlowSimPoisson/10000"), 0.0);

  // A ratio row the file carries scores; one it lacks stays unscored.
  const ScoreboardReport report =
      score_rows({ratio_row("scoreboard_poisson_e2e_10k_ms", 1.0),
                  ratio_row("scoreboard_absent_ms", 1.0)},
                 ref);
  EXPECT_DOUBLE_EQ(report.rows[0].reference,
                   ref.context_number("scoreboard_poisson_e2e_10k_ms"));
  EXPECT_TRUE(report.rows[0].scored());
  EXPECT_FALSE(report.rows[1].scored());
}

}  // namespace
}  // namespace netpp::bench
