// Measurement plumbing shared by the perfbench workloads: wall clocks,
// the percentile rule, peak-RSS reads, an in-memory span tracer with a
// Chrome-trace writer, and the metric sheet every run prints.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentile rule: every timing reports its median and the highest
// percentile that still has at least ten samples beyond it, plus the count.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `pct` percent of the samples at or below it. 0 when empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

/// Samples strictly beyond the nearest-rank `pct` percentile position.
[[nodiscard]] std::size_t samples_beyond(std::size_t count, double pct);

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double p99 = 0.0;
  /// Highest of 99.9/99/95/90/75 with >= 10 samples beyond it; 0 when the
  /// sample is too small for any of them.
  double tail_pct = 0.0;
  double tail = 0.0;
  double mean = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

/// "median 1.23 | p99 4.56 | n=1000" in the sample's own unit.
[[nodiscard]] std::string describe(const Summary& s, std::string_view unit);

[[nodiscard]] double median_of(std::vector<double> samples);

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 reads this
/// process. Returns 0 when /proc is unreadable.
[[nodiscard]] double peak_rss_mib(int pid = 0);

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, request id — kept in memory, written out
// once at the end as Chrome-trace JSON (Perfetto opens it).
// ---------------------------------------------------------------------------

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  /// Spans beyond `capacity` are counted but not kept, so a long traced run
  /// cannot grow without bound.
  explicit Tracer(std::size_t capacity = 250'000);

  /// Records a finished span; returns its index (kNoParent when dropped).
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent = kNoParent,
                       std::uint64_t request = 0);

  /// Opens a span whose end is filled in by close(); for parents whose
  /// children are recorded before they end.
  std::uint32_t open(const char* name, Clock::time_point start,
                     std::uint32_t parent = kNoParent,
                     std::uint64_t request = 0);
  void close(std::uint32_t span, Clock::time_point end);

  [[nodiscard]] std::size_t kept() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span;
  /// parent and request ids go into each event's args. Returns false when
  /// the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  Clock::time_point origin_;
};

// ---------------------------------------------------------------------------
// Metric sheet: the human-readable lines and the final JSON result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< percentile detail, ratio base, or "idle"
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form report lines printed before the metrics (digests, counts).
  std::vector<std::string> report;

  void add(std::string name, double value, std::string unit,
           std::string note = {});
  /// Adds `<prefix>.p50` and `<prefix>.p99` from a summary.
  void add_percentiles(const std::string& prefix, const Summary& s,
                       const std::string& unit);
  /// Adds latency_p50_ms and latency_p99_ms from per-repetition samples in
  /// ms. When every repetition alone leaves >= 10 samples beyond its p99,
  /// each figure is the median over repetitions of that repetition's own
  /// percentile (one disturbed repetition cannot move it); otherwise the
  /// samples are pooled.
  void add_latency(const std::vector<std::vector<double>>& reps,
                   const std::string& sample_name);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  void fail(const std::string& why);
};

/// Prints the report, one line per metric, then error_rate, then the single
/// JSON object {"correct","attempted","failed","metrics"} as the last line.
/// Only the metrics named in `keep` go into the JSON object, in that order.
void print_result(const std::string& workload, std::uint64_t seed,
                  const RunResult& result,
                  const std::vector<std::string>& keep);

}  // namespace perfbench
