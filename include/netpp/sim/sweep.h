// Parallel scenario sweeps.
//
// Every bench/what-if binary is a sweep: run N independent scenario
// configurations, collect one result per scenario, print them in order.
// SweepRunner fans those scenarios out through thread_budget::parallel_for
// while keeping runs bit-reproducible: each scenario gets its own Rng
// seeded as a pure function of (base_seed, scenario index), and results
// land in a pre-sized vector slot per scenario, so neither thread count
// nor scheduling order can change any output.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netpp/sim/random.h"

namespace netpp {

struct SweepConfig {
  /// Worker-thread ceiling; 0 means the shared thread budget
  /// (netpp/sim/thread_budget.h — NETPP_THREAD_BUDGET, else hardware
  /// concurrency). Each run additionally leases its workers from that
  /// budget, so nested pools degrade gracefully instead of oversubscribing.
  std::size_t num_threads = 0;
  /// Base seed all per-scenario seeds derive from.
  std::uint64_t base_seed = 0x9e3779b97f4a7c15ULL;
};

class SweepRunner {
 public:
  /// Called after each scenario finishes, as (scenarios done so far, total).
  /// Invocations are serialized (one at a time, in completion order — not
  /// index order) and run on whichever thread finished the scenario: a
  /// pool helper or the thread that called run_indexed. Keep it cheap:
  /// progress lines to stderr, a counter bump. Results are unaffected.
  using ProgressCallback =
      std::function<void(std::size_t done, std::size_t total)>;

  explicit SweepRunner(SweepConfig config = {});

  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// The seed scenario `index` runs with: SplitMix64 over (base_seed,
  /// index), independent of thread count and execution order.
  [[nodiscard]] std::uint64_t scenario_seed(std::size_t index) const;

  /// Runs `task(index)` for every index in [0, n) across the pool. Blocks
  /// until all scenarios finish. If tasks throw, the exception from the
  /// smallest failing index is rethrown after the pool drains.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& task);

  /// Runs `task(index, rng)` for every index in [0, n) and returns the
  /// results in index order. `rng` is deterministically seeded per scenario.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t, Rng&)>& task) {
    std::vector<R> results(n);
    run_indexed(n, [&](std::size_t index) {
      Rng rng{scenario_seed(index)};
      results[index] = task(index, rng);
    });
    return results;
  }

  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }

 private:
  std::size_t num_threads_;
  std::uint64_t base_seed_;
  ProgressCallback progress_;
};

}  // namespace netpp
