#include "netpp/sim/thread_budget.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <vector>

namespace netpp::thread_budget {

namespace {

/// One parallel_for call: the index claim counter, the first-error slot,
/// and the seats helpers take. `open`, `running` and `done` belong to the
/// pool mutex; the job lives on the caller's stack until `running` is 0.
struct Job {
  Job(std::size_t count, const std::function<void(std::size_t)>& fn)
      : n(count), task(fn) {}

  /// Claims and runs indices until none are left.
  void work() {
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
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& task;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  std::size_t open = 0;     // seats helpers may still take
  std::size_t running = 0;  // helpers that took a seat and are not done
  std::condition_variable done;
};

/// The process-wide helper threads. Parked helpers wait on `wake_`; a
/// caller publishes its job with a number of seats, each parked helper
/// that wakes takes one seat, and the caller claims indices alongside
/// them. The pool grows lazily — whenever the open seats plus the seats
/// already taken outnumber the helpers — and never shrinks, so it holds at
/// most as many helpers as the leases ever needed at once (budget - 1).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  /// Runs `job` on the calling thread plus at most `seats` helpers, and
  /// returns once every helper that joined has left the job.
  void run(Job& job, std::size_t seats) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(&job);
      job.open = seats;
      open_ += seats;
      grow();
    }
    for (std::size_t s = 0; s < seats; ++s) wake_.notify_one();

    job.work();

    // Every index is claimed: retract the seats nobody took, then wait only
    // for the helpers that did take one.
    std::unique_lock<std::mutex> lock(mutex_);
    open_ -= job.open;
    job.open = 0;
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    job.done.wait(lock, [&] { return job.running == 0; });
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  Pool() = default;

  /// Starts helpers until every open or taken seat has one. A helper that
  /// cannot be started only leaves its callers more of their own work.
  void grow() {
    while (helpers_.size() < open_ + taken_) {
      try {
        helpers_.emplace_back([this] { serve(); });
      } catch (...) {
        return;
      }
    }
  }

  void serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return stopping_ || open_ > 0; });
      if (stopping_) return;
      const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                                   [](const Job* j) { return j->open > 0; });
      Job& job = **it;
      --job.open;
      --open_;
      ++job.running;
      ++taken_;
      lock.unlock();
      job.work();
      lock.lock();
      --taken_;
      --job.running;
      // Notified under the lock: the caller cannot wake, return and
      // destroy the job until this thread lets go of the mutex.
      if (job.running == 0) job.done.notify_one();
    }
  }

  std::mutex mutex_;  // guards every member below
  std::condition_variable wake_;
  std::vector<Job*> jobs_;   // published jobs, oldest first
  std::size_t open_ = 0;     // sum of the published jobs' open seats
  std::size_t taken_ = 0;    // helpers currently inside a job
  bool stopping_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace

void parallel_for(std::size_t n, std::size_t max_workers,
                  const std::function<void(std::size_t)>& task) {
  if (n == 0) return;
  const std::size_t requested = max_workers != 0 ? max_workers : pool_size();
  const ThreadLease lease{std::min(requested, n)};
  const std::size_t workers = std::min(lease.granted(), n);

  Job job{n, task};
  if (workers == 1) {
    // One worker runs inline: single-core hosts and one-worker
    // configurations never touch the pool.
    job.work();
  } else {
    Pool::instance().run(job, workers - 1);
  }

  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace netpp::thread_budget
