// Snapshot images pinned by snapshot_golden_test.cpp. Together they hold
// every section kind the program writes: fault_experiment, flowsim,
// route_cache, metrics (counters, gauges and the fct histogram),
// fault_injector, degraded_mode, sampler, sharded and power_timeline. Each
// image is a pure function of fixed inputs (canned scenarios, fixed seeds),
// and snapshot_golden_record prints the (length, CRC-32) pairs the test
// expects.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/power/state_timeline.h"
#include "netpp/serve/scenarios.h"
#include "netpp/state/snapshot.h"

namespace netpp::snapshot_golden {

/// The canned faults run as `netpp_cli faults --save-state` writes it:
/// saved at half the fault horizon.
inline std::vector<std::uint8_t> faults_midrun(
    const serve::ScenarioOptions& opt, bool telemetered) {
  const auto tel = telemetered ? serve::make_scenario_telemetry(
                                     serve::QueryKind::kFaults, opt)
                               : nullptr;
  const serve::CannedFaultScenario s =
      serve::make_canned_fault_scenario(opt, tel.get());
  FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
  run.run_until(Seconds{s.fault_horizon.value() / 2.0});
  state::SnapshotWriter w;
  run.save_state(w);
  return w.buffer();
}

/// Single backend with telemetry and its sampler attached.
inline std::vector<std::uint8_t> faults_single_telemetered() {
  return faults_midrun(serve::ScenarioOptions{}, /*telemetered=*/true);
}

/// Two shards, `--mtbf 2 --seed 3`: more faults in flight, so the sharded
/// section's boundary and core maps are populated.
inline std::vector<std::uint8_t> faults_sharded2() {
  serve::ScenarioOptions opt;
  opt.backend.kind = BackendKind::kSharded;
  opt.backend.num_shards = 2;
  opt.mtbf_s = 2.0;
  opt.fault_seed = 3;
  return faults_midrun(opt, /*telemetered=*/false);
}

/// The default `netpp_serve` warm baseline: a fresh run at t = 0.
inline std::vector<std::uint8_t> serve_baseline() {
  const serve::ScenarioOptions opt;
  const serve::CannedFaultScenario s =
      serve::make_canned_fault_scenario(opt, nullptr);
  const FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
  state::SnapshotWriter w;
  run.save_state(w);
  return w.buffer();
}

/// The canned mech run's metric registry, as `netpp_cli mech --iters 2
/// --save-state` writes it.
inline std::vector<std::uint8_t> mech_registry() {
  serve::ScenarioOptions opt;
  opt.mech_iterations = 2;
  serve::CannedMechScenario s = serve::make_canned_mech_scenario(opt);
  const auto tel = serve::make_scenario_telemetry(serve::QueryKind::kMech, opt);
  s.config.telemetry = tel.get();
  (void)run_composite(s.topo, s.workload, s.demands, s.horizon, s.config);
  state::SnapshotWriter w;
  tel->metrics().save_state(w);
  return w.buffer();
}

/// A timeline driven through parks, level moves and wakes, saved with one
/// wake still pending.
inline std::vector<std::uint8_t> power_timeline() {
  TransitionRules rules;
  rules.wake_latency = Seconds{0.02};
  rules.min_dwell = Seconds{0.05};
  rules.level_hysteresis = 0.1;
  PowerStateTimeline tl{6, rules};
  tl.set_power_model(
      [](std::span<const ComponentTrack> tracks) {
        double watts = 0.0;
        for (const ComponentTrack& t : tracks) {
          if (t.state == PowerState::kOn) watts += 50.0 + 250.0 * t.level;
          if (t.state == PowerState::kWaking) watts += 50.0;
        }
        return Watts{watts};
      },
      [](std::span<const ComponentTrack> tracks) {
        return Watts{300.0 * static_cast<double>(tracks.size())};
      });
  for (int i = 0; i < 3; ++i) (void)tl.park_one();
  tl.set_load(0, 0.4);
  tl.advance_to(Seconds{0.01});
  (void)tl.wake_one();
  tl.advance_to(Seconds{0.04});
  (void)tl.request_level(1, 0.5);
  tl.advance_to(Seconds{0.13});
  (void)tl.request_level(1, 0.3);
  (void)tl.request_level(2, 1.0);
  (void)tl.wake_one();
  tl.advance_to(Seconds{0.14});
  state::SnapshotWriter w;
  tl.save_state(w);
  return w.buffer();
}

struct GoldenImage {
  const char* name;
  std::vector<std::uint8_t> (*build)();
};

inline constexpr GoldenImage kImages[] = {
    {"faults_single_telemetered", faults_single_telemetered},
    {"faults_sharded2", faults_sharded2},
    {"serve_baseline", serve_baseline},
    {"mech_registry", mech_registry},
    {"power_timeline", power_timeline},
};

}  // namespace netpp::snapshot_golden
