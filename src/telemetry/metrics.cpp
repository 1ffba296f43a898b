#include "netpp/telemetry/metrics.h"

#include <cmath>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricRegistry::Entry& MetricRegistry::find_or_create(const std::string& name,
                                                      MetricKind kind,
                                                      const std::string& unit,
                                                      const std::string& help) {
  validation::require(!name.empty(), "MetricRegistry",
                      "metric name must be non-empty");
  auto it = index_.find(name);
  if (it != index_.end()) {
    validation::require(it->second->kind == kind, "MetricRegistry",
                        "metric '" + name + "' already registered as " +
                            to_string(it->second->kind));
    return *it->second;
  }
  Entry& entry = entries_.emplace_back();
  entry.name = name;
  entry.unit = unit;
  entry.help = help;
  entry.kind = kind;
  index_.emplace(name, &entry);
  return entry;
}

const MetricRegistry::Entry& MetricRegistry::find(const std::string& name,
                                                  MetricKind kind) const {
  auto it = index_.find(name);
  if (it == index_.end() || it->second->kind != kind) {
    throw std::out_of_range("MetricRegistry: no " +
                            std::string(to_string(kind)) + " named '" + name +
                            "'");
  }
  return *it->second;
}

Counter MetricRegistry::counter(const std::string& name,
                                const std::string& unit,
                                const std::string& help) {
  return Counter{&find_or_create(name, MetricKind::kCounter, unit, help)
                      .counter};
}

Gauge MetricRegistry::gauge(const std::string& name, const std::string& unit,
                            const std::string& help) {
  return Gauge{&find_or_create(name, MetricKind::kGauge, unit, help).gauge};
}

Histogram MetricRegistry::histogram(const std::string& name,
                                    std::vector<double> bounds,
                                    const std::string& unit,
                                    const std::string& help) {
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    validation::require(std::isfinite(bounds[i]) &&
                            (i == 0 || bounds[i] > bounds[i - 1]),
                        "MetricRegistry",
                        "histogram bounds must be finite and strictly "
                        "increasing");
  }
  Entry& entry = find_or_create(name, MetricKind::kHistogram, unit, help);
  if (entry.histogram.buckets.empty()) {
    entry.histogram.bounds = std::move(bounds);
    entry.histogram.buckets.assign(entry.histogram.bounds.size() + 1, 0);
  } else {
    validation::require(entry.histogram.bounds == bounds, "MetricRegistry",
                        "histogram '" + name +
                            "' re-registered with different bounds");
  }
  return Histogram{&entry.histogram};
}

std::vector<MetricSample> MetricRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSample sample;
    sample.name = entry.name;
    sample.unit = entry.unit;
    sample.help = entry.help;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(entry.counter.value);
        sample.count = entry.counter.value;  // exact integer for exporters
        break;
      case MetricKind::kGauge:
        sample.value = entry.gauge.value;
        break;
      case MetricKind::kHistogram:
        sample.value = entry.histogram.sum;
        sample.count = entry.histogram.count;
        sample.min = entry.histogram.min;
        sample.max = entry.histogram.max;
        sample.bounds = entry.histogram.bounds;
        sample.buckets = entry.histogram.buckets;
        break;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

template <class Self, class Io>
void MetricRegistry::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "MetricRegistry";
  using EntryT = std::conditional_t<Io::kReading, Entry, const Entry>;
  io.open_section("metrics");
  // Per metric: three strings (u64 length each) and the kind byte at least.
  const std::size_t n = io.count(self.entries_.size(), 25);
  for (std::size_t i = 0; i < n; ++i) {
    Entry saved{};
    EntryT* e = &saved;
    if constexpr (!Io::kReading) e = &self.entries_[i];
    io.field(e->name);
    io.field(e->unit);
    io.field(e->help);
    io.enum_u8(e->kind, MetricKind::kHistogram, kWho,
               "snapshot holds an invalid metric kind");
    if (e->kind == MetricKind::kHistogram) io.field(e->histogram.bounds);
    if constexpr (Io::kReading) {
      // Find-or-create by name, so instruments registered before the
      // restore keep their slots. histogram() validates the bounds and
      // rejects a re-registration with different ones.
      if (e->kind == MetricKind::kHistogram) {
        (void)self.histogram(e->name, e->histogram.bounds, e->unit, e->help);
      }
      e = &self.find_or_create(e->name, e->kind, e->unit, e->help);
    }
    switch (e->kind) {
      case MetricKind::kCounter:
        io.field(e->counter.value);
        break;
      case MetricKind::kGauge:
        io.field(e->gauge.value);
        break;
      case MetricKind::kHistogram: {
        const std::size_t buckets = e->histogram.buckets.size();
        io.field(e->histogram.buckets);
        io.check(e->histogram.buckets.size() == buckets, kWho,
                 "snapshot histogram bucket count mismatch");
        io.field(e->histogram.count);
        io.field(e->histogram.sum);
        io.field(e->histogram.min);
        io.field(e->histogram.max);
        break;
      }
    }
  }
  io.close_section();
}

void MetricRegistry::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void MetricRegistry::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
}

std::uint64_t MetricRegistry::counter_value(const std::string& name) const {
  return find(name, MetricKind::kCounter).counter.value;
}

double MetricRegistry::gauge_value(const std::string& name) const {
  return find(name, MetricKind::kGauge).gauge.value;
}

}  // namespace netpp::telemetry
