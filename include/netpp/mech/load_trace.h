// Piecewise-constant load traces for the §4 mechanism layer.
//
// Every mechanism consumes the same timing convention: `times[i]` starts
// segment i, which holds its loads until `times[i+1]` (or `end` for the
// final segment); `times[0]` is the trace start. One `LoadTrace` type
// carries N channels (1 channel == whole-device aggregate, one channel per
// pipeline == an ASIC's pipelines), so any FlowSimulator-derived load can
// feed any mechanism.
#pragma once

#include <vector>

#include "netpp/units.h"

namespace netpp {

/// Piecewise-constant multi-channel load trace: `loads[i][c]` is channel
/// c's offered load (fraction of its nominal capacity, in [0, 1]) during
/// segment i. One channel models a whole device; one channel per pipeline
/// models an ASIC's pipelines.
struct LoadTrace {
  std::vector<Seconds> times;
  std::vector<std::vector<double>> loads;
  Seconds end{};

  [[nodiscard]] std::size_t num_segments() const { return times.size(); }
  [[nodiscard]] int channels() const {
    return loads.empty() ? 0 : static_cast<int>(loads.front().size());
  }
  [[nodiscard]] Seconds duration() const { return end - times.front(); }
  /// End of segment i: the next segment's start, or `end` for the last.
  [[nodiscard]] Seconds segment_end(std::size_t i) const {
    return i + 1 < times.size() ? times[i + 1] : end;
  }

  /// Timing checks ("LoadTrace: constraint" errors): non-empty times
  /// matching the segments, finite and strictly increasing, a finite end
  /// after the last segment start; plus per-channel arity and load range.
  void validate() const;

  /// Load of `channel` at time `t` (clamped into [start, end)).
  [[nodiscard]] double load_at(Seconds t, int channel) const;
};

}  // namespace netpp
