#include "netpp/sim/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "netpp/sim/thread_budget.h"

namespace netpp {
namespace {

TEST(SweepRunner, ResultsLandInIndexOrder) {
  SweepRunner runner{{4, 123}};
  const auto results = runner.map<std::size_t>(
      32, [](std::size_t index, Rng&) { return index * index; });
  ASSERT_EQ(results.size(), 32u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults) {
  // The per-scenario RNG must make results a pure function of (seed, index).
  const auto sample = [](std::size_t, Rng& rng) {
    double sum = 0.0;
    for (int i = 0; i < 100; ++i) sum += rng.uniform();
    return sum;
  };
  SweepRunner serial{{1, 42}};
  SweepRunner pooled{{8, 42}};
  const auto a = serial.map<double>(50, sample);
  const auto b = pooled.map<double>(50, sample);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "scenario " << i;
  }
}

TEST(SweepRunner, RepeatedRunsAreIdentical) {
  SweepRunner runner{{0, 7}};
  const auto draw = [](std::size_t, Rng& rng) { return rng.next_u64(); };
  const auto first = runner.map<std::uint64_t>(20, draw);
  const auto second = runner.map<std::uint64_t>(20, draw);
  EXPECT_EQ(first, second);
}

TEST(SweepRunner, ScenarioSeedsAreStableAndDistinct) {
  SweepRunner runner{{2, 99}};
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto seed = runner.scenario_seed(i);
    EXPECT_EQ(seed, runner.scenario_seed(i));
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // A different base seed derives a different schedule.
  SweepRunner other{{2, 100}};
  EXPECT_NE(runner.scenario_seed(0), other.scenario_seed(0));
}

TEST(SweepRunner, EveryIndexRunsExactlyOnce) {
  SweepRunner runner{{8, 5}};
  std::vector<std::atomic<int>> hits(257);
  runner.run_indexed(hits.size(),
                     [&](std::size_t index) { hits[index]++; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunner, EmptySweepIsANoop) {
  SweepRunner runner{{4, 1}};
  const auto results =
      runner.map<int>(0, [](std::size_t, Rng&) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(SweepRunner, FirstFailingIndexPropagates) {
  SweepRunner runner{{4, 1}};
  try {
    runner.run_indexed(64, [](std::size_t index) {
      if (index % 7 == 3) {  // smallest failing index is 3
        throw std::runtime_error("scenario " + std::to_string(index));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "scenario 3");
  }
}

TEST(SweepRunner, ProgressCallbackSeesEveryCompletion) {
  SweepRunner runner{{8, 5}};
  std::vector<std::size_t> seen;
  runner.set_progress_callback([&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 100u);
    seen.push_back(done);  // unsynchronized on purpose: callback serializes
  });
  std::atomic<int> ran{0};
  runner.run_indexed(100, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 100);
  ASSERT_EQ(seen.size(), 100u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i + 1);  // completion-ordered: 1, 2, ..., total
  }
}

TEST(SweepRunner, ProgressCallbackCountsFailedScenarios) {
  SweepRunner runner{{4, 1}};
  std::size_t last = 0;
  runner.set_progress_callback(
      [&](std::size_t done, std::size_t) { last = done; });
  EXPECT_THROW(runner.run_indexed(32,
                                  [](std::size_t index) {
                                    if (index == 5) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
  EXPECT_EQ(last, 32u);  // a failed scenario still counts as done
}

TEST(SweepRunner, ReturnsLeasedWorkersToTheBudget) {
  const std::size_t before = thread_budget::in_use();
  SweepRunner runner{{4, 1}};
  runner.run_indexed(16, [&](std::size_t) {
    EXPECT_GT(thread_budget::in_use(), before);  // the sweep holds a lease
  });
  EXPECT_EQ(thread_budget::in_use(), before);
  EXPECT_THROW(runner.run_indexed(16,
                                  [](std::size_t index) {
                                    if (index == 9) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
  EXPECT_EQ(thread_budget::in_use(), before);
}

TEST(SweepRunner, DefaultThreadCountIsPositive) {
  SweepRunner runner{};
  EXPECT_GE(runner.num_threads(), 1u);
}

}  // namespace
}  // namespace netpp
