// Typed metric registry: named Counter/Gauge/Histogram instruments.
//
// The registry owns the storage (slots with stable addresses); instruments
// are cheap value-type handles that bump the slot directly — one pointer
// indirection per update, no hashing, no heap work, no locks. A
// default-constructed handle is detached (the "null sink"): every update is
// a tested-branch no-op, so instrumented code runs unchanged whether or not
// telemetry is attached.
//
// Registration is idempotent per (name, kind): asking for an existing
// instrument returns a handle to the same slot, so several components (or
// several simulator instances in one experiment) can share one series.
// Asking for an existing name with a different kind throws.
//
// Not thread-safe: one registry belongs to one experiment thread, matching
// SimEngine. Parallel sweeps give each scenario its own registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "netpp/state/snapshot.h"

namespace netpp::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Returns "counter" / "gauge" / "histogram".
[[nodiscard]] const char* to_string(MetricKind kind);

namespace detail {

struct CounterSlot {
  std::uint64_t value = 0;
};

struct GaugeSlot {
  double value = 0.0;
};

struct HistogramSlot {
  /// Upper bounds of the buckets, strictly increasing; an implicit final
  /// bucket catches everything above bounds.back().
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid only when count > 0
  double max = 0.0;  // valid only when count > 0
};

}  // namespace detail

/// Monotonically increasing counter handle.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
    if (slot_ != nullptr) slot_->value += n;
  }
  /// Overwrites the value — for mirroring an externally maintained counter
  /// (e.g. RouteCacheStats) into the registry. The series stays monotone as
  /// long as the source is.
  void set(std::uint64_t value) {
    if (slot_ != nullptr) slot_->value = value;
  }
  [[nodiscard]] std::uint64_t value() const {
    return slot_ != nullptr ? slot_->value : 0;
  }
  [[nodiscard]] bool attached() const { return slot_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit Counter(detail::CounterSlot* slot) : slot_(slot) {}
  detail::CounterSlot* slot_ = nullptr;
};

/// Point-in-time value handle.
class Gauge {
 public:
  Gauge() = default;

  void set(double value) {
    if (slot_ != nullptr) slot_->value = value;
  }
  void add(double delta) {
    if (slot_ != nullptr) slot_->value += delta;
  }
  [[nodiscard]] double value() const {
    return slot_ != nullptr ? slot_->value : 0.0;
  }
  [[nodiscard]] bool attached() const { return slot_ != nullptr; }

 private:
  friend class MetricRegistry;
  friend class TimeSeriesSampler;
  explicit Gauge(detail::GaugeSlot* slot) : slot_(slot) {}
  detail::GaugeSlot* slot_ = nullptr;
};

/// Fixed-bucket histogram handle (count/sum/min/max plus bucket counts).
class Histogram {
 public:
  Histogram() = default;

  void observe(double value) {
    if (slot_ == nullptr) return;
    if (slot_->count == 0 || value < slot_->min) slot_->min = value;
    if (slot_->count == 0 || value > slot_->max) slot_->max = value;
    ++slot_->count;
    slot_->sum += value;
    std::size_t b = 0;
    while (b < slot_->bounds.size() && value > slot_->bounds[b]) ++b;
    ++slot_->buckets[b];
  }
  [[nodiscard]] std::uint64_t count() const {
    return slot_ != nullptr ? slot_->count : 0;
  }
  [[nodiscard]] double sum() const {
    return slot_ != nullptr ? slot_->sum : 0.0;
  }
  [[nodiscard]] bool attached() const { return slot_ != nullptr; }

 private:
  friend class MetricRegistry;
  explicit Histogram(detail::HistogramSlot* slot) : slot_(slot) {}
  detail::HistogramSlot* slot_ = nullptr;
};

/// A metric's full state, as read by snapshot() and the exporters.
struct MetricSample {
  std::string name;
  std::string unit;  // free-form: "flows", "joules", "seconds", ...
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  /// Counter value (as double) or gauge value; for histograms, the sum.
  double value = 0.0;
  /// Histogram detail (empty bounds/buckets for scalar kinds).
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or finds) a counter named `name`. Unit/help are recorded on
  /// first registration and kept thereafter.
  Counter counter(const std::string& name, const std::string& unit = "",
                  const std::string& help = "");
  Gauge gauge(const std::string& name, const std::string& unit = "",
              const std::string& help = "");
  /// Registers a histogram with the given strictly-increasing bucket upper
  /// bounds (an overflow bucket is added automatically). On re-registration
  /// the existing bounds win; passing different bounds throws.
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      const std::string& unit = "",
                      const std::string& help = "");

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Reads every registered metric, in registration order.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Convenience lookups for tests and views; throw std::out_of_range when
  /// the name is absent or of a different kind.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;

  /// Serializes every metric (identity + values) in registration order.
  void save_state(state::SnapshotWriter& w) const;
  /// Restores a save_state() image: finds-or-creates each metric in saved
  /// order and overwrites its value(s). Instruments already registered keep
  /// their slots (handles stay valid); kind or histogram-bound mismatches
  /// throw the usual "MetricRegistry: ..." errors.
  void restore_state(state::SnapshotReader& r);

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    MetricKind kind;
    detail::CounterSlot counter;
    detail::GaugeSlot gauge;
    detail::HistogramSlot histogram;
  };

  Entry& find_or_create(const std::string& name, MetricKind kind,
                        const std::string& unit, const std::string& help);
  [[nodiscard]] const Entry& find(const std::string& name,
                                  MetricKind kind) const;
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  // deque: slot addresses must survive registration of later metrics.
  std::deque<Entry> entries_;
  std::unordered_map<std::string, Entry*> index_;
};

}  // namespace netpp::telemetry
