#include "netpp/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace netpp {
namespace {

using namespace netpp::literals;

TEST(SimEngine, StartsAtZeroAndEmpty) {
  SimEngine engine;
  EXPECT_DOUBLE_EQ(engine.now().value(), 0.0);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(SimEngine, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0_s, [&] { order.push_back(3); });
  engine.schedule_at(1.0_s, [&] { order.push_back(1); });
  engine.schedule_at(2.0_s, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now().value(), 3.0);
}

TEST(SimEngine, TiesBreakFifo) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(1.0_s, [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, ScheduleAfterIsRelative) {
  SimEngine engine;
  double fired_at = -1.0;
  engine.schedule_at(2.0_s, [&] {
    engine.schedule_after(1.5_s, [&] { fired_at = engine.now().value(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(SimEngine, EventsCanScheduleMoreEvents) {
  SimEngine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) engine.schedule_after(1.0_s, tick);
  };
  engine.schedule_at(0.0_s, tick);
  EXPECT_EQ(engine.run(), 10u);
  EXPECT_DOUBLE_EQ(engine.now().value(), 9.0);
}

TEST(SimEngine, CancelPreventsExecution) {
  SimEngine engine;
  bool ran = false;
  const auto id = engine.schedule_at(1.0_s, [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_FALSE(ran);
}

TEST(SimEngine, CancelTwiceFails) {
  SimEngine engine;
  const auto id = engine.schedule_at(1.0_s, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
}

TEST(SimEngine, CancelAfterFiringFails) {
  SimEngine engine;
  const auto id = engine.schedule_at(1.0_s, [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(SimEngine, RunUntilStopsAtDeadlineAndAdvancesClock) {
  SimEngine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(Seconds{t}, [&fired, &engine] {
      fired.push_back(engine.now().value());
    });
  }
  EXPECT_EQ(engine.run_until(2.5_s), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now().value(), 2.5);
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimEngine, RunUntilInclusiveOfDeadline) {
  SimEngine engine;
  bool ran = false;
  engine.schedule_at(2.0_s, [&] { ran = true; });
  engine.run_until(2.0_s);
  EXPECT_TRUE(ran);
}

TEST(SimEngine, RunUntilWithDrainedQueueAdvancesClock) {
  SimEngine engine;
  engine.run_until(5.0_s);
  EXPECT_DOUBLE_EQ(engine.now().value(), 5.0);
}

TEST(SimEngine, StepExecutesOne) {
  SimEngine engine;
  int count = 0;
  engine.schedule_at(1.0_s, [&] { ++count; });
  engine.schedule_at(2.0_s, [&] { ++count; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(SimEngine, InvalidSchedulesThrow) {
  SimEngine engine;
  engine.schedule_at(5.0_s, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0_s, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(Seconds{-1.0}, [] {}),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_at(10.0_s, nullptr), std::invalid_argument);
  EXPECT_THROW(engine.run_until(1.0_s), std::invalid_argument);
}

// --- Execution order against a brute-force model ---
//
// Events at now() run from a FIFO lane beside the heap; restored events
// keep their older seqs. Whatever mix of calls put them there, every event
// must fire as the least pending (time, seq), with the clock at its time.

/// Drives one engine with seeded random calls and checks each firing
/// against a plain list of every pending event, scanned for its minimum.
class OrderOracle {
 public:
  explicit OrderOracle(std::uint64_t seed) : rng_(seed) {}

  SimEngine& engine() { return engine_; }
  std::mt19937_64& rng() { return rng_; }

  /// schedule_at (at now() one time in three) or schedule_after(0).
  void schedule() {
    const int label = next_label_++;
    const double now = engine_.now().value();
    double at = now;
    SimEngine::EventId id = 0;
    if (rng_() % 5 == 0) {
      id = engine_.schedule_after(Seconds{0.0}, callback(label));
    } else {
      // A coarse grid, so ties between heap and lane entries are common.
      switch (rng_() % 3) {
        case 0: break;
        case 1: at = now + 0.25 * static_cast<double>(1 + rng_() % 3); break;
        default: at = std::floor(now) + 1.0; break;
      }
      id = engine_.schedule_at(Seconds{at}, callback(label));
    }
    EXPECT_EQ(engine_.event_seq(id), next_seq_);
    EXPECT_EQ(engine_.event_time(id).value(), at);
    pending_.push_back(Pending{at, next_seq_++, label, id});
  }

  void cancel() {
    if (pending_.empty()) return;
    const auto k = static_cast<std::ptrdiff_t>(rng_() % pending_.size());
    EXPECT_TRUE(engine_.cancel(pending_[static_cast<std::size_t>(k)].id));
    pending_.erase(pending_.begin() + k);
  }

  /// A snapshot restore: a reset clock, then every pending event
  /// re-registered with its older seq (some at now()), in shuffled order.
  void restore() {
    engine_.restore_clock(engine_.now(), next_seq_);
    std::shuffle(pending_.begin(), pending_.end(), rng_);
    for (Pending& p : pending_) {
      p.id = engine_.restore_event_at(Seconds{p.at}, p.seq, callback(p.label));
    }
  }

  void run_until() {
    const double until =
        engine_.now().value() + 0.25 * static_cast<double>(rng_() % 4);
    engine_.run_until(Seconds{until});
    EXPECT_EQ(engine_.now().value(), until);
    EXPECT_GT(least_time(), until);
  }

  void step() { EXPECT_EQ(engine_.step(), !pending_.empty()); }

  void check_front() {
    EXPECT_EQ(engine_.next_event_time(), least_time());
    EXPECT_EQ(engine_.pending_events(), pending_.size());
    EXPECT_EQ(engine_.next_seq(), next_seq_);
  }

  [[nodiscard]] bool drained() const { return pending_.empty(); }

  /// (time, seq) of every event in execution order.
  [[nodiscard]] const std::vector<std::pair<double, std::uint64_t>>& fired()
      const {
    return fired_;
  }

 private:
  struct Pending {
    double at;
    std::uint64_t seq;
    int label;
    SimEngine::EventId id;
  };

  SimEngine::Callback callback(int label) {
    return [this, label] { fire(label); };
  }

  void fire(int label) {
    const auto least = std::min_element(
        pending_.begin(), pending_.end(), [](const Pending& a, const Pending& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    ASSERT_NE(least, pending_.end());
    EXPECT_EQ(least->label, label);
    const auto self = std::find_if(pending_.begin(), pending_.end(),
                                   [&](const Pending& p) { return p.label == label; });
    ASSERT_NE(self, pending_.end());
    EXPECT_EQ(engine_.now().value(), self->at);
    fired_.emplace_back(self->at, self->seq);
    pending_.erase(self);
    // Nested calls: a new event (at now() a third of the time), a cancel,
    // or nothing, so the population shrinks on average.
    switch (rng_() % 4) {
      case 0:
      case 1: schedule(); break;
      case 2: cancel(); break;
      default: break;
    }
  }

  [[nodiscard]] double least_time() const {
    double t = std::numeric_limits<double>::infinity();
    for (const Pending& p : pending_) t = std::min(t, p.at);
    return t;
  }

  SimEngine engine_;
  std::mt19937_64 rng_;
  std::vector<Pending> pending_;
  std::vector<std::pair<double, std::uint64_t>> fired_;
  std::uint64_t next_seq_ = 0;
  int next_label_ = 0;
};

TEST(SimEngine, ExecutionOrderMatchesSortByTimeThenSeq) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    OrderOracle o{seed};
    for (int op = 0; op < 300; ++op) {
      switch (o.rng()() % 10) {
        case 0:
        case 1:
        case 2: o.schedule(); break;
        case 3: o.cancel(); break;
        case 4: o.restore(); break;
        case 5:
        case 6: o.step(); break;
        case 7: o.run_until(); break;
        default: o.check_front(); break;
      }
      if (HasFailure()) return;
    }
    o.engine().run();
    EXPECT_TRUE(o.drained());
    o.check_front();
    // The whole execution order is the (time, seq) sort of what ran.
    const auto& fired = o.fired();
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(std::adjacent_find(fired.begin(), fired.end()), fired.end());
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace netpp
