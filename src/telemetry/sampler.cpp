#include "netpp/telemetry/sampler.h"

#include <cmath>

#include "netpp/validation.h"

namespace netpp::telemetry {

void TimeSeriesSampler::set_period(Seconds period) {
  validation::require(
      std::isfinite(period.value()) && period.value() >= 0.0,
      "TimeSeriesSampler", "period must be finite and non-negative");
  validation::require(times_.empty(), "TimeSeriesSampler",
                      "period cannot change after sampling started");
  period_ = period;
}

void TimeSeriesSampler::track(const std::string& gauge_name,
                              const std::string& unit,
                              const std::string& help) {
  for (const Series& s : series_) {
    if (s.name == gauge_name) return;
  }
  validation::require(times_.empty(), "TimeSeriesSampler",
                      "cannot add series after sampling started");
  Series series;
  series.name = gauge_name;
  series.gauge = registry_.gauge(gauge_name, unit, help);
  series_.push_back(std::move(series));
}

void TimeSeriesSampler::sample(Seconds now) {
  times_.push_back(now);
  for (Series& s : series_) {
    s.values.push_back(s.gauge.value());
  }
  next_due_ = now.value() + period_.value();
}

template <class Self, class Io>
void TimeSeriesSampler::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "TimeSeriesSampler";
  io.open_section("sampler");
  io.field(self.period_);
  io.check(std::isfinite(self.period_.value()) && self.period_.value() >= 0.0,
           kWho, "snapshot period must be finite and non-negative");
  io.field(self.next_due_);
  io.field(self.times_);
  // Per series: its name and its values (a u64 length each) at least.
  io.seq(self.series_, 16, [&self, &io, kWho](auto& s) {
    io.field(s.name);
    // Re-track the series by name against the registry.
    if constexpr (Io::kReading) s.gauge = self.registry_.gauge(s.name);
    io.field(s.values);
    io.check(s.values.size() == self.times_.size(), kWho,
             "snapshot series rows must align with the time axis");
  });
  io.close_section();
}

void TimeSeriesSampler::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void TimeSeriesSampler::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
}

}  // namespace netpp::telemetry
