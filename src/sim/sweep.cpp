#include "netpp/sim/sweep.h"

#include <mutex>

#include "netpp/sim/thread_budget.h"

namespace netpp {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

SweepRunner::SweepRunner(SweepConfig config)
    : num_threads_(config.num_threads != 0 ? config.num_threads
                                           : thread_budget::pool_size()),
      base_seed_(config.base_seed) {}

std::uint64_t SweepRunner::scenario_seed(std::size_t index) const {
  // Two SplitMix64 rounds decorrelate consecutive indices; the constant
  // offsets base_seed so that index 0 does not reproduce the raw seed.
  return splitmix64(splitmix64(base_seed_) +
                    static_cast<std::uint64_t>(index));
}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t)>& task) {
  std::mutex progress_mutex;
  std::size_t done = 0;
  const auto count_done = [&] {
    if (!progress_) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    progress_(++done, n);
  };
  // Workers come from the shared budget, so a sweep whose scenarios run
  // their own sharded simulations does not oversubscribe the machine. The
  // grant only sizes the pool; per-scenario seeding and pre-sized result
  // slots keep results independent of it.
  thread_budget::parallel_for(n, num_threads_, [&](std::size_t index) {
    try {
      task(index);
    } catch (...) {
      // Failed scenarios count as done too: the callback tracks sweep
      // progress, not success.
      count_done();
      throw;
    }
    count_done();
  });
}

}  // namespace netpp
