#include "netpp/mech/load_trace.h"

#include <cmath>

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

double LoadTrace::load_at(Seconds t, int channel) const {
  std::size_t seg = 0;
  while (seg + 1 < times.size() && times[seg + 1] <= t) ++seg;
  return loads[seg][static_cast<std::size_t>(channel)];
}

}  // namespace netpp
