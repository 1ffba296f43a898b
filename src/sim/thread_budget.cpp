#include "netpp/sim/thread_budget.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <vector>

namespace netpp::thread_budget {

void parallel_for(std::size_t n, std::size_t max_workers,
                  const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  const std::size_t requested = max_workers != 0 ? max_workers : pool_size();
  const ThreadLease lease{std::min(requested, n)};
  const std::size_t workers = std::min(lease.granted(), n);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
  const auto worker = [&] {
    for (;;) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= n) return;
      try {
        task(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (index < first_error_index) {
          first_error_index = index;
          first_error = std::current_exception();
        }
      }
    }
  };

  if (workers == 1) {
    // Degenerate pool: run inline (keeps single-core hosts and one-worker
    // configurations free of thread overhead).
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
      for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    } catch (...) {
      // Another thread could not be started: this one claims what is
      // left, so every task still runs and the started threads are joined.
      worker();
    }
    for (auto& thread : pool) thread.join();
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace netpp::thread_budget
