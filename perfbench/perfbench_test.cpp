// Self-tests of the benchmark: the percentile rule, the seeded query
// stream, digest stability, and the metric sheets against BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "netpp/serve/json.h"
#include "netpp/serve/query.h"
#include "perfbench.h"

namespace {

using namespace perfbench;

bool same_flows(const std::vector<netpp::FlowSpec>& a,
                const std::vector<netpp::FlowSpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const netpp::FlowSpec& x, const netpp::FlowSpec& y) {
                      return x.src == y.src && x.dst == y.dst &&
                             x.size.value() == y.size.value() &&
                             x.start.value() == y.start.value() &&
                             x.tag == y.tag;
                    });
}

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, NearestRankOnKnownSamples) {
  const std::vector<double> v = one_to(1000);
  EXPECT_EQ(percentile_sorted(v, 50.0), 500.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 990.0);
  EXPECT_EQ(percentile_sorted(v, 100.0), 1000.0);
  EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
}

TEST(Percentiles, TailIsHighestWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond it.
  Summary s = summarize(one_to(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  // 100 samples: p99 leaves 1, p95 leaves 5, p90 leaves 10.
  s = summarize(one_to(100));
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
  // 15 samples: even p75 leaves only 3 beyond.
  s = summarize(one_to(15));
  EXPECT_EQ(s.tail_pct, 0.0);
  EXPECT_EQ(s.median, 8.0);
  // Order of the input does not matter.
  std::vector<double> shuffled = one_to(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(summarize(shuffled).p99, 990.0);
}

TEST(QueryStream, SameSeedSameBytes) {
  const auto a = make_query_stream(7);
  const auto b = make_query_stream(7);
  ASSERT_EQ(a.size(), kStreamQueries);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, make_query_stream(8));
}

TEST(QueryStream, EveryQueryParsesAndTheMixHolds) {
  const auto stream = make_query_stream(1);
  std::size_t analytic = 0;
  std::size_t sharded = 0;
  for (const std::string& text : stream) {
    const netpp::serve::Query q =
        netpp::serve::parse_query(netpp::serve::parse_json(text));
    if (q.kind == netpp::serve::QueryKind::kCluster ||
        q.kind == netpp::serve::QueryKind::kSavings) {
      ++analytic;
    }
    if (q.opt.backend.kind == netpp::BackendKind::kSharded) ++sharded;
  }
  const auto n = static_cast<double>(stream.size());
  EXPECT_NEAR(static_cast<double>(analytic) / n, kAnalyticShare, 0.05);
  EXPECT_NEAR(static_cast<double>(sharded) / n,
              (1.0 - kAnalyticShare) * kShardedShare, 0.04);
}

TEST(Digest, PodPoissonStableAcrossRunsAndSlicings) {
  const auto flows = make_pod_poisson_flows(2000, 11);
  EXPECT_TRUE(same_flows(flows, make_pod_poisson_flows(2000, 11)));
  const SimDigest reference = run_pod_poisson_digest(flows);
  EXPECT_EQ(reference.completed, flows.size());
  // Plain repetitions slice the run on a 10 ms grid, traced ones step it
  // event by event: both must reproduce the single run() call, twice.
  for (int i = 0; i < 2; ++i) {
    const SimDigest plain = pod_poisson_rep_digest(2000, 11, false);
    EXPECT_EQ(plain, reference) << plain.str() << " vs " << reference.str();
    EXPECT_EQ(pod_poisson_rep_digest(2000, 11, true), reference);
  }
}

TEST(Digest, MultipodIdenticalAcrossWorkerCountsAndSlicings) {
  const auto flows = make_multipod_flows(20'000, 600, 5);
  EXPECT_TRUE(same_flows(flows, make_multipod_flows(20'000, 600, 5)));
  EXPECT_FALSE(same_flows(flows, make_multipod_flows(20'000, 600, 6)));
  const SimDigest reference = run_multipod_digest(flows, 1);
  EXPECT_GT(reference.completed, 0u);
  EXPECT_EQ(reference, run_multipod_digest(flows, 2));
  for (const std::size_t workers : {1u, 2u}) {
    const SimDigest plain = multipod_rep_digest(20'000, 600, 5, workers, false);
    EXPECT_EQ(plain, reference) << plain.str() << " vs " << reference.str();
    EXPECT_EQ(multipod_rep_digest(20'000, 600, 5, workers, true), reference);
  }
}

// The full-size runs of the recorded seeds reproduce the recorded digests,
// the sims as plain and as traced repetitions.
TEST(Digest, RecordedSeedsReproduce) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const RecordedDigests* recorded = recorded_digests(seed);
    ASSERT_NE(recorded, nullptr) << "seed " << seed;
    for (const bool traced : {false, true}) {
      EXPECT_EQ(pod_poisson_rep_digest(kPodFlows, seed, traced).str(),
                recorded->pod_poisson)
          << "seed " << seed << " traced " << traced;
      EXPECT_EQ(multipod_rep_digest(kMultipodFlows, kMultipodCompleting, seed,
                                    default_workers(), traced)
                    .str(),
                recorded->multipod_sharded)
          << "seed " << seed << " traced " << traced;
    }
    EXPECT_EQ(whatif_answers_digest(seed), recorded->whatif_serve)
        << "seed " << seed;
  }
  EXPECT_EQ(recorded_digests(3), nullptr);
}

TEST(Sheets, MatchBenchmarkJson) {
  std::ifstream in{PERFBENCH_BENCHMARK_JSON};
  if (!in) GTEST_SKIP() << "no BENCHMARK.json next to the sources";
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = netpp::serve::parse_json(text.str());
  std::vector<std::string> e2e;
  for (const auto& m : doc.find("end_to_end")->as_array()) {
    e2e.push_back(m.find("name")->as_string());
  }
  EXPECT_EQ(e2e, kEndToEnd);
  std::vector<std::pair<std::string, std::string>> layers;
  for (const auto& m : doc.find("per_layer")->as_array()) {
    layers.emplace_back(m.find("name")->as_string(),
                        m.find("unit")->as_string());
  }
  EXPECT_EQ(layers, kPerLayer);
}

}  // namespace
