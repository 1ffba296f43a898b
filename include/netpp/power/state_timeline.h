// Unified power-state timeline: the one time-stepping substrate every §4
// mechanism model integrates on.
//
// A PowerStateTimeline tracks a set of *components* (pipelines, links,
// ports — whatever a mechanism gates) as piecewise-constant state tracks:
// each component is in one PowerState and carries a continuous `level`
// (clock frequency, lane fraction, configured speed) and a bookkeeping
// `load`. Mechanism policies request transitions; the timeline owns the
// transition semantics the mechanisms used to hand-roll separately:
//
//   - wake latency: kOff/kSleep -> kOn passes through kWaking for
//     `TransitionRules::wake_latency` (pending wakes are cancelable);
//   - min-dwell: downward level moves are honored only after the current
//     level has been sufficient for `min_dwell` (down-rating's dwell);
//   - hysteresis: downward level moves inside `level_hysteresis` are
//     ignored; upward moves always apply (load must be served).
//
// One integrator serves every mechanism: `advance_to` accumulates actual
// and baseline energy (via pluggable power functions evaluated over the
// tracks), per-state residency (component-seconds), and the mean-level
// integral, then completes wakes that came due. Keeping a single
// accumulation path is what makes mechanism results composable — and
// comparable bit-for-bit with the pre-refactor simulators (see
// tests/mech/golden_equivalence_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netpp/state/snapshot.h"
#include "netpp/units.h"

namespace netpp {

enum class PowerState : std::uint8_t {
  kOff = 0,    ///< powered off entirely (leakage gone)
  kSleep = 1,  ///< low-power idle (EEE LPI): fast wake, residual draw
  kWaking = 2, ///< transitioning to kOn; draws idle power, serves nothing
  kOn = 3,     ///< powered and serving
};
inline constexpr int kNumPowerStates = 4;

/// One component's piecewise-constant power state.
struct ComponentTrack {
  PowerState state = PowerState::kOn;
  /// Continuous knob: clock frequency / lane fraction / configured speed.
  /// Unit is mechanism-defined; only the timeline's dwell/hysteresis rules
  /// and the mean-level integral interpret it.
  double level = 1.0;
  /// Offered load bookkeeping for the power functions; not interpreted by
  /// the timeline itself.
  double load = 0.0;
};

/// Transition semantics shared by every mechanism on this timeline.
struct TransitionRules {
  Seconds wake_latency{0.0};
  Seconds min_dwell{0.0};
  double level_hysteresis = 0.0;
};

class PowerStateTimeline {
 public:
  /// Evaluates instantaneous power over the current tracks. The actual
  /// power function prices the states as the mechanism configured them; the
  /// optional baseline function prices the do-nothing fabric for savings.
  using PowerFn = std::function<Watts(std::span<const ComponentTrack>)>;

  PowerStateTimeline(int num_components, TransitionRules rules,
                     Seconds start = Seconds{0.0});

  /// Installs the energy integrands. Either may be empty (no integration).
  void set_power_model(PowerFn actual, PowerFn baseline = {});

  /// Observer for applied state changes, called as (component, from, to,
  /// at). Fires on wake requests (to kWaking or directly to kOn), wake
  /// completions (kWaking -> kOn), parks, and wake cancellations; level
  /// moves are not state changes. Purely observational: it must not call
  /// back into the timeline. Telemetry event logs attach here — the
  /// timeline stays independent of the telemetry layer.
  using TransitionListener =
      std::function<void(int, PowerState, PowerState, Seconds)>;
  void set_transition_listener(TransitionListener listener) {
    transition_listener_ = std::move(listener);
  }

  [[nodiscard]] int num_components() const {
    return static_cast<int>(tracks_.size());
  }
  [[nodiscard]] const ComponentTrack& track(int component) const {
    return tracks_[static_cast<std::size_t>(component)];
  }
  [[nodiscard]] std::span<const ComponentTrack> tracks() const {
    return tracks_;
  }
  [[nodiscard]] const TransitionRules& rules() const { return rules_; }
  [[nodiscard]] Seconds now() const { return Seconds{now_}; }

  /// Number of components currently in `state` (kWaking components are
  /// counted in kWaking, not kOn).
  [[nodiscard]] int count(PowerState state) const;
  /// count(kOn) + count(kWaking): capacity that is on or committed.
  [[nodiscard]] int provisioned() const;

  /// Updates a component's load bookkeeping (no transition, no counters).
  void set_load(int component, double load);
  /// Initializes a component's level directly (no counters, no dwell/
  /// hysteresis); use before integration starts, e.g. for a nominal speed.
  void set_level(int component, double level);

  // --- Transitions -------------------------------------------------------
  //
  // `request_on`/`wake_one` count a wake; `request_off`/`park_one` count a
  // park; `request_level` counts a level transition when applied. Pending
  // wakes complete inside `advance_to` (completion does not re-count).

  /// Powers `component` on. From kOff/kSleep with a non-zero wake latency
  /// the component enters kWaking and completes at now + wake_latency;
  /// with zero latency it is kOn immediately.
  void request_on(int component);
  /// Wakes the lowest-index kOff component; returns it, or -1 if none.
  int wake_one();
  /// Sends `component` to kOff (or kSleep). Immediate.
  void request_off(int component, PowerState target = PowerState::kOff);
  /// Parks the highest-index kOn component; returns it, or -1 if none.
  int park_one();
  /// Cancels the most recently requested, not-yet-complete wake (the
  /// component returns to kOff) and un-counts it. Returns whether one was
  /// pending.
  bool cancel_last_wake();

  /// Requests a level change under the dwell/hysteresis rules:
  /// upward always applies; equal refreshes the dwell anchor; downward
  /// applies only when the move exceeds `level_hysteresis` AND the current
  /// level has been more than sufficient for `min_dwell`. Returns whether
  /// the level changed (a counted level transition).
  bool request_level(int component, double level);

  /// Earliest pending wake completion, or +infinity when none is pending.
  [[nodiscard]] double next_event() const;

  // --- Integration -------------------------------------------------------

  /// Integrates energy, residency, and the level integral over
  /// [now, t), then completes wakes due at `t` (deadline <= t + 1e-15) and
  /// advances the clock. `t` must be >= now.
  void advance_to(Seconds t);

  [[nodiscard]] Joules energy() const { return Joules{energy_j_}; }
  [[nodiscard]] Joules baseline_energy() const {
    return Joules{baseline_j_};
  }
  /// Component-seconds spent in `state`.
  [[nodiscard]] Seconds residency(PowerState state) const {
    return Seconds{residency_[static_cast<std::size_t>(state)]};
  }
  /// Integral of the across-component mean level over time.
  [[nodiscard]] double mean_level_time() const { return level_time_; }

  [[nodiscard]] std::size_t wake_transitions() const { return wakes_; }
  [[nodiscard]] std::size_t park_transitions() const { return parks_; }
  [[nodiscard]] std::size_t level_transitions() const {
    return level_changes_;
  }
  [[nodiscard]] std::size_t transitions() const {
    return wakes_ + parks_ + level_changes_;
  }

  /// Trace start time (integration origin; snapshot/invariant support).
  [[nodiscard]] Seconds start() const { return Seconds{start_}; }

  // --- Snapshot / audit --------------------------------------------------

  /// Serializes tracks, pending wakes, integrators, and counters. The power
  /// functions and transition listener are not serialized — the owner
  /// re-installs them after restore.
  void save_state(state::SnapshotWriter& w) const;
  /// Restores a save_state() image into a timeline constructed with the
  /// same component count and transition rules; audits invariants before
  /// accepting. Throws std::invalid_argument("PowerStateTimeline: ...") on
  /// mismatch or corruption.
  void restore_state(state::SnapshotReader& r);
  /// Audits internal consistency (valid states, finite integrators,
  /// residency sums covering [start, now], pending wakes referencing waking
  /// components). Throws std::invalid_argument("PowerStateTimeline: ...")
  /// on violation. Called automatically by restore_state().
  void check_invariants() const;

 private:
  struct PendingWake {
    int component;
    double deadline;
  };
  template <class Self, class Io>
  static void transfer(Self& self, Io& io);

  TransitionRules rules_;
  std::vector<ComponentTrack> tracks_;
  std::vector<double> dwell_anchor_;  ///< per-component dwell reference time
  std::vector<PendingWake> pending_;  ///< in request order
  PowerFn power_fn_;
  PowerFn baseline_fn_;
  TransitionListener transition_listener_;

  double start_ = 0.0;
  double now_ = 0.0;
  double energy_j_ = 0.0;
  double baseline_j_ = 0.0;
  std::array<double, kNumPowerStates> residency_{};
  double level_time_ = 0.0;
  std::size_t wakes_ = 0;
  std::size_t parks_ = 0;
  std::size_t level_changes_ = 0;
};

}  // namespace netpp
