// §4.3 link down-rating for backbone/ISP links.
//
// "Another possibility is to configure an interface to a lower speed, e.g.,
// set a 100G-capable interface at 10G, which may save power by enabling
// turning off some of the interface's SerDes lines. This has been observed
// [15], but down-rating is not widely supported, and savings are limited —
// supposedly because few components are powered off."
//
// This module evaluates down-rating a single link over a utilization trace
// (e.g. an ISP diurnal cycle, §3.4): a policy steps the link speed among a
// configured ladder with headroom and hysteresis; each transition costs a
// brief outage during renegotiation; running below the offered load counts
// as a capacity violation. Power per step comes from a speed->power table
// (transceiver + SerDes share), with a knob for how *well* down-rating
// gates components — modelling the paper's "savings are limited" complaint
// as a gating-effectiveness factor.
#pragma once

#include <string_view>
#include <vector>

#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/power/catalog.h"
#include "netpp/units.h"

namespace netpp {

struct DownrateConfig {
  /// The link's nominal speed (trace loads are fractions of this).
  Gbps nominal{400.0};
  /// Allowed speed steps in Gbps, ascending; must include the nominal.
  std::vector<double> ladder = {100.0, 200.0, 400.0};
  /// Per-end power at each ladder speed (both ends charged). Defaults to
  /// the paper's transceiver table.
  PowerTable end_power{std::map<double, double>{
      {100.0, 4.0}, {200.0, 6.5}, {400.0, 10.0}}};
  /// Fraction of the ideal power delta actually realized when stepping
  /// down (1.0 = perfect gating, 0.0 = the paper's complaint: nothing
  /// really turns off).
  double gating_effectiveness = 1.0;
  /// Choose the smallest step >= load * (1 + headroom).
  double headroom = 0.25;
  /// Step down only if the target has been sufficient for this long.
  Seconds down_dwell{60.0};
  /// Renegotiation outage per speed change.
  Seconds transition_outage{Seconds::from_milliseconds(50.0)};
};

/// Link down-rating as a MechanismPolicy: one component whose level is the
/// configured speed in Gbps, stepped along the ladder through the
/// timeline's min-dwell rule (downward steps only after the lower step has
/// been sufficient for `down_dwell`; upward steps immediate). The trace is
/// single-channel: the link's utilization as a fraction of `nominal`. The
/// report's level_transitions counts speed changes, mean_level is the
/// time-weighted mean speed in Gbps, and baseline_energy is the nominal
/// draw; violation and outage time are read off the policy.
class DownratePolicy : public MechanismPolicy {
 public:
  explicit DownratePolicy(DownrateConfig config);

  [[nodiscard]] std::string_view name() const override { return "downrate"; }
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  void observe(const LoadSegment& seg, PowerStateTimeline& timeline) override;
  void on_interval(Seconds t0, Seconds t1, const LoadSegment& seg,
                   const PowerStateTimeline& timeline) override;
  void finish(const LoadTrace& trace, const PowerStateTimeline& timeline,
              MechanismReport& report) override;

  [[nodiscard]] const DownrateConfig& config() const { return config_; }
  /// Both-end power draw at the nominal speed (the do-nothing baseline).
  [[nodiscard]] double nominal_power_w() const { return nominal_power_w_; }
  /// Total time the configured speed was below the offered load (traffic
  /// would have been queued/dropped) — headroom/dwell tuning errors.
  [[nodiscard]] Seconds violation_time() const {
    return Seconds{violation_time_};
  }
  /// Total renegotiation outage time.
  [[nodiscard]] Seconds outage_time() const { return Seconds{outage_time_}; }

 private:
  DownrateConfig config_;
  double nominal_power_w_ = 0.0;
  double violation_time_ = 0.0;
  double outage_time_ = 0.0;
};

}  // namespace netpp
