#include "netpp/sim/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netpp/state/snapshot.h"

namespace netpp {

void SummaryStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double SummaryStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double SummaryStat::stddev() const { return std::sqrt(variance()); }

template <class Self, class Io>
void SummaryStat::transfer(Self& self, Io& io) {
  io.field(self.n_);
  io.field(self.mean_);
  io.field(self.m2_);
  io.field(self.sum_);
  io.field(self.min_);
  io.field(self.max_);
}

void SummaryStat::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void SummaryStat::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
}

TimeWeighted::TimeWeighted(double initial, Seconds start)
    : start_(start), last_(start), value_(initial) {}

void TimeWeighted::set(Seconds at, double value) {
  if (at < last_) {
    throw std::invalid_argument("TimeWeighted: time went backwards");
  }
  integral_ += value_ * (at - last_).value();
  last_ = at;
  value_ = value;
}

double TimeWeighted::integral(Seconds until) const {
  if (until < last_) {
    throw std::invalid_argument("TimeWeighted: query before last change");
  }
  return integral_ + value_ * (until - last_).value();
}

double TimeWeighted::average(Seconds until) const {
  const double span = (until - start_).value();
  return span > 0.0 ? integral(until) / span : value_;
}

template <class Self, class Io>
void TimeWeighted::transfer(Self& self, Io& io) {
  io.field(self.start_);
  io.field(self.last_);
  io.field(self.value_);
  io.field(self.integral_);
}

void TimeWeighted::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void TimeWeighted::restore_state(state::SnapshotReader& r) {
  transfer(*this, r);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      bins_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= bins_.size()) idx = bins_.size() - 1;  // fp edge case
    ++bins_[idx];
  }
}

double Histogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("Histogram: quantile q not in [0,1]");
  }
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) return lo_;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cumulative + static_cast<double>(bins_[i]);
    if (target <= next && bins_[i] > 0) {
      const double frac = (target - cumulative) / static_cast<double>(bins_[i]);
      return lo_ + (static_cast<double>(i) + frac) * width_;
    }
    cumulative = next;
  }
  return hi_;
}

}  // namespace netpp
