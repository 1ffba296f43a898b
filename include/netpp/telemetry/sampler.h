// Time-series sampler: snapshots a chosen set of registry gauges at a
// sim-time cadence, producing aligned (time, value...) rows for the CSV and
// Chrome counter-track exporters.
//
// Two ways to drive it:
//  - Event-driven (preferred inside experiments): call maybe_sample(now)
//    from an existing simulation hook (e.g. FlowSimulator's load listener).
//    A row is taken at most once per period; the simulation's event horizon
//    is never extended, so attaching the sampler cannot change any
//    simulated result.
//  - Self-arming (standalone demos): arm(engine, until) schedules its own
//    sampling events every period up to `until`.
//
// The sampler reads gauge slots owned by the MetricRegistry, which must
// outlive it (the Telemetry bundle guarantees this).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netpp/sim/engine.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/metrics.h"
#include "netpp/units.h"

namespace netpp::telemetry {

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(MetricRegistry& registry) : registry_(registry) {}
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Sampling period; <= 0 disables the sampler (maybe_sample becomes a
  /// no-op). Must be set before the first sample.
  void set_period(Seconds period);
  [[nodiscard]] Seconds period() const { return period_; }
  [[nodiscard]] bool enabled() const { return period_.value() > 0.0; }

  /// Adds the named registry gauge (registering it if needed) to the
  /// sampled set. Tracking the same name twice is a no-op.
  void track(const std::string& gauge_name, const std::string& unit = "",
             const std::string& help = "");

  /// Whether maybe_sample(now) would take a row — lets callers compute
  /// expensive gauge inputs (per-link scans) only when a row is due.
  [[nodiscard]] bool due(Seconds now) const {
    return period_.value() > 0.0 &&
           (times_.empty() || now.value() >= next_due_);
  }

  /// Takes a row if at least one period elapsed since the last row (always
  /// samples the first call). Cheap when not due: two compares.
  void maybe_sample(Seconds now) {
    if (due(now)) sample(now);
  }

  /// Unconditionally takes a row at `now`.
  void sample(Seconds now);

  /// Schedules self-rearming sampling events on `engine` every period until
  /// `until` (inclusive of the start, exclusive of times past `until`).
  /// The engine must outlive the run. Requires a positive period.
  void arm(SimEngine& engine, Seconds until);

  [[nodiscard]] const std::vector<Seconds>& times() const { return times_; }
  [[nodiscard]] std::size_t num_series() const { return series_.size(); }
  [[nodiscard]] const std::string& series_name(std::size_t i) const {
    return series_[i].name;
  }
  /// Sampled values of series `i`, aligned with times().
  [[nodiscard]] const std::vector<double>& series_values(std::size_t i) const {
    return series_[i].values;
  }

  /// Serializes period, cadence state, and every series' rows. Only the
  /// event-driven mode round-trips; an armed sampler's self-rearming events
  /// are not snapshotted.
  void save_state(state::SnapshotWriter& w) const;
  /// Restores a save_state() image; re-tracks each series by name against
  /// this sampler's registry.
  void restore_state(state::SnapshotReader& r);

 private:
  struct Series {
    std::string name;
    Gauge gauge;
    std::vector<double> values;
  };
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  MetricRegistry& registry_;
  Seconds period_{0.0};
  double next_due_ = 0.0;
  std::vector<Seconds> times_;
  std::vector<Series> series_;
};

}  // namespace netpp::telemetry
