// Process-wide worker-thread budget and the one fork-join loop built on it.
//
// Two components fan work out to workers: SweepRunner runs scenarios,
// ShardedFlowSimulator runs shard windows. When they nest — a sweep whose
// scenarios each run a sharded simulation — independently sized pools
// oversubscribe the machine (threads^2). This header is the single knob
// both draw from: a budget of concurrent workers (default: hardware
// concurrency, overridable programmatically or via NETPP_THREAD_BUDGET),
// an RAII lease that carves a share out of it, and parallel_for, which
// both components call.
//
// Leases only size pools; they never change results. Both callers are
// bit-deterministic in their worker count by construction, so a smaller
// grant under contention affects wall-clock only.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <thread>

namespace netpp::thread_budget {

namespace detail {

inline std::atomic<std::size_t>& configured() {
  static std::atomic<std::size_t> value{0};  // 0 = unset, use the default
  return value;
}

inline std::atomic<std::size_t>& leased() {
  static std::atomic<std::size_t> value{0};
  return value;
}

inline std::size_t default_pool_size() {
  static const std::size_t value = [] {
    if (const char* env = std::getenv("NETPP_THREAD_BUDGET")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 0 ? hw : 1);
  }();
  return value;
}

}  // namespace detail

/// Sets the process-wide budget of concurrent workers. 0 restores the
/// default (NETPP_THREAD_BUDGET, else hardware concurrency).
inline void set_pool_size(std::size_t n) {
  detail::configured().store(n, std::memory_order_relaxed);
}

/// The configured budget.
[[nodiscard]] inline std::size_t pool_size() {
  const std::size_t configured =
      detail::configured().load(std::memory_order_relaxed);
  return configured != 0 ? configured : detail::default_pool_size();
}

/// Workers currently leased across the process.
[[nodiscard]] inline std::size_t in_use() {
  return detail::leased().load(std::memory_order_relaxed);
}

/// RAII share of the budget. Requests `requested` workers (0 = everything
/// available) and is granted min(requested, budget - in_use), floored at 1
/// so a fully-leased budget degrades nested components to inline execution
/// instead of deadlocking them.
class ThreadLease {
 public:
  explicit ThreadLease(std::size_t requested) {
    auto& leased = detail::leased();
    const std::size_t budget = pool_size();
    std::size_t current = leased.load(std::memory_order_relaxed);
    for (;;) {
      const std::size_t available =
          budget > current ? budget - current : 0;
      std::size_t want = requested == 0 ? available
                                        : (requested < available ? requested
                                                                 : available);
      if (want == 0) want = 1;  // degrade to inline, never to zero workers
      if (leased.compare_exchange_weak(current, current + want,
                                       std::memory_order_relaxed)) {
        granted_ = want;
        return;
      }
    }
  }
  ~ThreadLease() {
    detail::leased().fetch_sub(granted_, std::memory_order_relaxed);
  }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  [[nodiscard]] std::size_t granted() const { return granted_; }

 private:
  std::size_t granted_ = 0;
};

/// Runs `task(i)` for every i in [0, n) on a lease of min(max_workers, n)
/// workers (max_workers 0 = the whole budget). One granted worker runs the
/// tasks inline in index order; more run them on spawned threads that claim
/// indices from a shared counter, so tasks must not share unsynchronized
/// state. Every task runs even when some throw; once all have finished,
/// the exception from the smallest failing index is rethrown.
void parallel_for(std::size_t n, std::size_t max_workers,
                  const std::function<void(std::size_t)>& task);

}  // namespace netpp::thread_budget
