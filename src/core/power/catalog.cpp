#include "netpp/power/catalog.h"

#include <cmath>
#include <stdexcept>

namespace netpp {

PowerTable::PowerTable(std::map<double, double> gbps_to_watts)
    : points_(std::move(gbps_to_watts)) {
  if (points_.empty()) {
    throw std::invalid_argument("PowerTable requires at least one point");
  }
  for (const auto& [speed, watts] : points_) {
    if (speed <= 0.0) {
      throw std::invalid_argument("PowerTable speeds must be positive");
    }
    if (watts < 0.0) {
      throw std::invalid_argument("PowerTable powers must be non-negative");
    }
  }
}

Watts PowerTable::at(Gbps speed) const {
  const double s = speed.value();
  if (s <= 0.0) throw std::invalid_argument("speed must be positive");

  auto it = points_.lower_bound(s);
  if (it != points_.end() && it->first == s) return Watts{it->second};

  // Geometric interpolation / continuation: power is modelled as
  // p(s) = a * s^b on each segment, i.e. linear in (log s, log p). For
  // queries outside the table the nearest segment's exponent is reused; a
  // single-entry table degenerates to proportional scaling (b = 1).
  auto segment = [&](std::map<double, double>::const_iterator lo,
                     std::map<double, double>::const_iterator hi) -> Watts {
    const double s0 = lo->first, p0 = lo->second;
    const double s1 = hi->first, p1 = hi->second;
    if (p0 <= 0.0 || p1 <= 0.0) {
      // Degenerate zero-power entries: fall back to linear interpolation.
      const double t = (s - s0) / (s1 - s0);
      return Watts{p0 + (p1 - p0) * t};
    }
    const double b = std::log(p1 / p0) / std::log(s1 / s0);
    return Watts{p0 * std::pow(s / s0, b)};
  };

  if (points_.size() == 1) {
    const auto& [s0, p0] = *points_.begin();
    return Watts{p0 * (s / s0)};
  }
  if (it == points_.end()) {
    // Above the table: continue the last segment.
    auto hi = std::prev(points_.end());
    auto lo = std::prev(hi);
    return segment(lo, hi);
  }
  if (it == points_.begin()) {
    // Below the table: continue the first segment.
    auto lo = points_.begin();
    auto hi = std::next(lo);
    return segment(lo, hi);
  }
  return segment(std::prev(it), it);
}

std::optional<Watts> PowerTable::exact(Gbps speed) const {
  auto it = points_.find(speed.value());
  if (it == points_.end()) return std::nullopt;
  return Watts{it->second};
}

DeviceCatalog::DeviceCatalog(Config config)
    : config_(std::move(config)),
      nics_(config_.nic_watts),
      transceivers_(config_.transceiver_watts) {
  if (config_.gpus_per_server <= 0) {
    throw std::invalid_argument("gpus_per_server must be positive");
  }
  gpu_max_ = config_.gpu_max +
             config_.server_overhead / double(config_.gpus_per_server);
  gpu_envelope_ = PowerEnvelope::from_proportionality(
      gpu_max_, config_.compute_proportionality);
}

const DeviceCatalog& DeviceCatalog::paper_baseline() {
  static const DeviceCatalog catalog{Config{}};
  return catalog;
}

int DeviceCatalog::switch_radix(Gbps port_speed) const {
  if (port_speed.value() <= 0.0) {
    throw std::invalid_argument("port speed must be positive");
  }
  const double radix = config_.switch_capacity / port_speed;
  if (!(std::fabs(radix) < 2147483648.0)) {
    throw std::invalid_argument("switch radix out of int range");
  }
  return static_cast<int>(radix);
}

}  // namespace netpp
