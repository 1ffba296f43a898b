#include "netpp/mech/load_trace.h"

#include <cmath>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp {

void LoadTrace::validate() const {
  validation::require(!times.empty() && times.size() == loads.size(),
                      "LoadTrace", "needs matching, non-empty times and loads");
  for (std::size_t i = 0; i < times.size(); ++i) {
    validation::require_finite(times[i].value(), "LoadTrace",
                               "times must be finite");
    validation::require(i == 0 || times[i] > times[i - 1], "LoadTrace",
                        "times must be strictly increasing");
  }
  validation::require(std::isfinite(end.value()) && end > times.back(),
                      "LoadTrace",
                      "end must be finite and after the last segment");
  const std::size_t arity = loads.front().size();
  validation::require(arity > 0, "LoadTrace", "needs at least one channel");
  for (const auto& segment : loads) {
    validation::require(segment.size() == arity, "LoadTrace",
                        "every segment needs the same channel count");
    for (double load : segment) {
      validation::require_fraction(load, "LoadTrace",
                                   "loads must be finite and in [0, 1]");
    }
  }
}

LoadTrace LoadTrace::resampled(Seconds step) const {
  validate();
  if (!std::isfinite(step.value()) || step.value() <= 0.0) {
    throw std::invalid_argument(
        "LoadTrace: resampling step must be finite and positive");
  }
  LoadTrace out;
  out.end = end;
  const double start = times.front().value();
  std::size_t seg = 0;
  for (double t = start; t < end.value(); t += step.value()) {
    while (seg + 1 < times.size() && times[seg + 1].value() <= t) ++seg;
    out.times.push_back(Seconds{t});
    out.loads.push_back(loads[seg]);
  }
  return out;
}

double LoadTrace::load_at(Seconds t, int channel) const {
  std::size_t seg = 0;
  while (seg + 1 < times.size() && times[seg + 1] <= t) ++seg;
  return loads[seg][static_cast<std::size_t>(channel)];
}

double LoadTrace::aggregate_at(Seconds t) const {
  std::size_t seg = 0;
  while (seg + 1 < times.size() && times[seg + 1] <= t) ++seg;
  double sum = 0.0;
  for (double load : loads[seg]) sum += load;
  return sum / static_cast<double>(loads[seg].size());
}

}  // namespace netpp
