// Online statistics for simulations: scalar summaries, time-weighted means
// (for utilization/power traces), and fixed-bin histograms with quantile
// queries (for latency distributions).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "netpp/units.h"

namespace netpp {

namespace state {
class SnapshotReader;
class SnapshotWriter;
}  // namespace state

/// Scalar summary: count / mean / variance (Welford) / min / max.
class SummaryStat {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Raw Welford accumulator (not derivable bitwise from variance()).
  [[nodiscard]] double m2() const { return m2_; }

  /// Serializes every accumulator verbatim — count, mean, m2, sum, then the
  /// raw extrema including the +/-inf empty-state sentinels — so a restored
  /// stat continues bit-identically.
  void save_state(state::SnapshotWriter& w) const;
  /// Overwrites every accumulator from a save_state() image.
  void restore_state(state::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Piecewise-constant signal integrated over time: record value changes and
/// query the time-weighted average (e.g. link utilization, power draw).
class TimeWeighted {
 public:
  /// Starts the signal at `initial` at time `start`.
  explicit TimeWeighted(double initial = 0.0, Seconds start = Seconds{0.0});

  /// Records that the signal changed to `value` at time `at` (monotone
  /// non-decreasing across calls).
  void set(Seconds at, double value);

  [[nodiscard]] double current() const { return value_; }

  /// Integral of the signal from start to `until` (must be >= last change).
  [[nodiscard]] double integral(Seconds until) const;

  /// Time-weighted mean over [start, until].
  [[nodiscard]] double average(Seconds until) const;

  [[nodiscard]] Seconds last_change() const { return last_; }
  [[nodiscard]] Seconds start() const { return start_; }

  /// Serializes the signal state verbatim: start, last change, current
  /// value, and the integral accumulated through the last change.
  void save_state(state::SnapshotWriter& w) const;
  /// Overwrites the signal state from a save_state() image.
  void restore_state(state::SnapshotReader& r);

 private:
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  Seconds start_;
  Seconds last_;
  double value_;
  double integral_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi) with overflow/underflow buckets and
/// linear-interpolated quantiles.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const {
    return bins_.at(i);
  }
  [[nodiscard]] std::size_t num_bins() const { return bins_.size(); }

  /// q in [0, 1]; linear interpolation inside the containing bin. Values in
  /// the under/overflow buckets clamp to lo/hi.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace netpp
