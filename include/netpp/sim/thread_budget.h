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
// parallel_for runs on one process-wide pool of persistent helper threads
// that park on a condition variable between calls, so a call costs a
// wake-up, not a thread spawn and join. The pool grows lazily to the most
// helpers the leases have needed at once and never shrinks; the lease
// still decides how many threads (the caller included) may work on one
// call.
//
// Leases only size the worker set; they never change results. Both callers
// are bit-deterministic in their worker count by construction, so a smaller
// grant under contention affects wall-clock only.
#pragma once

#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <system_error>
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

/// Parses a NETPP_THREAD_BUDGET value: a whole decimal >= 1, every
/// character a digit and the value within size_t. Returns 0 for anything
/// else ("", "0", "-2", "4x", "1e3", overflow), which means "use the
/// default".
inline std::size_t parse_budget(const char* text) {
  if (text == nullptr) return 0;
  const char* const end = text + std::strlen(text);
  std::size_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  return error == std::errc{} && stop == end ? value : 0;
}

inline std::size_t default_pool_size() {
  static const std::size_t value = [] {
    const std::size_t parsed =
        parse_budget(std::getenv("NETPP_THREAD_BUDGET"));
    if (parsed > 0) return parsed;
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
/// tasks inline in index order. With more, the calling thread publishes the
/// call to the persistent pool and claims indices from a shared counter
/// alongside whichever parked helpers join, at most granted - 1 of them; so
/// any task may run on the caller or on a helper, and tasks must not share
/// unsynchronized state. The caller waits only for helpers that joined, so
/// a task may itself call parallel_for (nested calls cannot deadlock), and
/// a helper that cannot be started only leaves the caller more work. Every
/// task runs even when some throw; once all have finished, the exception
/// from the smallest failing index is rethrown.
void parallel_for(std::size_t n, std::size_t max_workers,
                  const std::function<void(std::size_t)>& task);

}  // namespace netpp::thread_budget
