// The worker budget and its fork-join loop (netpp/sim/thread_budget.h):
// strict NETPP_THREAD_BUDGET parsing, persistent pool helpers, nested
// calls, first-error propagation and lease accounting.
#include "netpp/sim/thread_budget.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace netpp {
namespace {

using namespace std::chrono_literals;

class ThreadBudget : public ::testing::Test {
 protected:
  void TearDown() override { thread_budget::set_pool_size(0); }
};

/// A latch whose wait gives up after a timeout, so a task that waits for
/// its siblings cannot hang the suite when too few threads show up.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t parties) : remaining_(parties) {}

  /// Arrives, then waits for every party. Returns whether all arrived.
  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--remaining_ == 0) {
      all_.notify_all();
      return true;
    }
    return all_.wait_for(lock, 10s, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_;
  std::size_t remaining_;
};

TEST_F(ThreadBudget, ParseBudgetAcceptsOnlyWholeDecimals) {
  using thread_budget::detail::parse_budget;
  EXPECT_EQ(parse_budget("4"), 4u);
  EXPECT_EQ(parse_budget("16"), 16u);
  EXPECT_EQ(parse_budget("4x"), 0u);
  EXPECT_EQ(parse_budget("1e3"), 0u);
  EXPECT_EQ(parse_budget(""), 0u);
  EXPECT_EQ(parse_budget("-2"), 0u);
  EXPECT_EQ(parse_budget("0"), 0u);
  EXPECT_EQ(parse_budget(" 4"), 0u);
  EXPECT_EQ(parse_budget(nullptr), 0u);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const std::string max = std::to_string(kMax);
  EXPECT_EQ(parse_budget(max.c_str()), kMax);
  const std::string past_max = max + "0";
  EXPECT_EQ(parse_budget(past_max.c_str()), 0u);
  std::string one_past = max;
  ++one_past.back();  // SIZE_MAX ends in 5 on 32- and 64-bit hosts alike
  EXPECT_EQ(parse_budget(one_past.c_str()), 0u);
}

// Calls served so far by this thread, and the last call it served.
thread_local std::size_t t_calls_served = 0;
thread_local std::size_t t_last_call =
    std::numeric_limits<std::size_t>::max();

TEST_F(ThreadBudget, HelpersPersistAcrossCalls) {
  thread_budget::set_pool_size(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::size_t most_calls_by_a_helper = 0;
  std::size_t calls_all_met = 0;
  for (std::size_t call = 0; call < 200; ++call) {
    Rendezvous meet{4};
    std::atomic<std::size_t> met{0};
    thread_budget::parallel_for(4, 4, [&](std::size_t) {
      // Each task holds its thread until all four arrive, so four distinct
      // threads run the four tasks.
      if (meet.arrive_and_wait()) met++;
      if (t_last_call != call) {
        t_last_call = call;
        ++t_calls_served;
      }
      if (std::this_thread::get_id() == caller) return;
      const std::lock_guard<std::mutex> lock(mutex);
      most_calls_by_a_helper =
          std::max(most_calls_by_a_helper, t_calls_served);
    });
    if (met.load() == 4) ++calls_all_met;
  }
  EXPECT_EQ(calls_all_met, 200u);
  // Fresh threads per call would each serve exactly one.
  EXPECT_GT(most_calls_by_a_helper, 1u);
}

TEST_F(ThreadBudget, NestedCallsRunEveryInnerIndexOnce) {
  for (const std::size_t budget : {1u, 4u}) {
    thread_budget::set_pool_size(budget);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 32;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    thread_budget::parallel_for(kOuter, 2, [&](std::size_t outer) {
      thread_budget::parallel_for(kInner, 0, [&](std::size_t inner) {
        hits[outer * kInner + inner]++;
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "budget " << budget << " index " << i;
    }
  }
}

TEST_F(ThreadBudget, EveryTaskRunsAndTheLowestFailingIndexWins) {
  thread_budget::set_pool_size(4);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> ran(64);
    try {
      thread_budget::parallel_for(ran.size(), workers, [&](std::size_t i) {
        ran[i]++;
        if (i == 41 || i == 7 || i == 12 || i == 63) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << workers << " workers: expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 7") << workers << " workers";
    }
    for (std::size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << workers << " workers, task " << i;
    }
  }
}

TEST_F(ThreadBudget, LeaseReturnsToTheBudgetAfterEveryCall) {
  thread_budget::set_pool_size(4);
  const std::size_t before = thread_budget::in_use();
  thread_budget::parallel_for(16, 4, [&](std::size_t) {
    EXPECT_GT(thread_budget::in_use(), before);  // the call holds a lease
  });
  EXPECT_EQ(thread_budget::in_use(), before);
  EXPECT_THROW(thread_budget::parallel_for(16, 4,
                                           [](std::size_t i) {
                                             if (i == 9) {
                                               throw std::runtime_error("x");
                                             }
                                           }),
               std::runtime_error);
  EXPECT_EQ(thread_budget::in_use(), before);
}

TEST_F(ThreadBudget, RaisingTheBudgetGrowsTheLivePool) {
  const auto distinct_threads = [](std::size_t n) {
    Rendezvous meet{n};
    std::mutex mutex;
    std::set<std::thread::id> ids;
    thread_budget::parallel_for(n, 0, [&](std::size_t) {
      meet.arrive_and_wait();
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
    return ids.size();
  };
  thread_budget::set_pool_size(2);
  EXPECT_EQ(distinct_threads(2), 2u);  // the pool now exists
  thread_budget::set_pool_size(4);
  EXPECT_EQ(distinct_threads(4), 4u);
}

}  // namespace
}  // namespace netpp
