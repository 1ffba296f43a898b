// The snapshot/restore acceptance bar: a fault experiment resumed from a
// mid-run snapshot is indistinguishable — to the last bit — from the
// uninterrupted run. Sixteen seeded scenarios sweep topology sizes, Poisson
// workloads, fault storms (switch kills, link cuts, degradations),
// degraded-mode policies, tailoring, and telemetry attachment; each is cut
// at a seed-dependent time, serialized, restored into a fresh
// process-equivalent world, and run to completion. Final flow rates, energy
// integrals, metric snapshots, and the full end-of-run snapshot bytes must
// be bitwise equal. Also covers the mid-fault restore contract (parked
// switches stay parked through a post-restore repair) and typed rejection
// of corrupted/mismatched snapshots.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "netpp/faults/experiment.h"
#include "netpp/state/snapshot.h"
#include "netpp/telemetry/export.h"
#include "netpp/telemetry/telemetry.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace netpp {
namespace {

using namespace netpp::literals;

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

std::vector<TrafficDemand> ring_demands(const BuiltTopology& topo, Gbps rate) {
  std::vector<TrafficDemand> demands;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    demands.push_back(TrafficDemand{
        topo.hosts[i], topo.hosts[(i + 1) % topo.hosts.size()], rate});
  }
  return demands;
}

struct Scenario {
  BuiltTopology topo;
  std::vector<FlowSpec> workload;
  FaultSchedule schedule;
  FaultExperimentConfig config;  // telemetry wired per-run by the caller
  Seconds cut{};
  bool telemetry = false;
  bool sampler = false;
};

Scenario make_scenario(unsigned seed) {
  Scenario s;
  const std::size_t leaves = 2 + seed % 3;
  s.topo = build_leaf_spine(leaves, 2, 2, 100_Gbps, 100_Gbps);

  PoissonTrafficConfig traffic;
  traffic.arrivals_per_second = 50.0 + 10.0 * static_cast<double>(seed % 4);
  traffic.max_size = Bits::from_gigabits(2.0);
  traffic.duration = Seconds{1.0};
  traffic.seed = 1000 + seed;
  s.workload = make_poisson_traffic(s.topo.hosts, traffic);

  const auto& switches = s.topo.switches;
  FaultSpec down;
  down.kind = FaultKind::kSwitchDown;
  down.node = switches[seed % switches.size()];
  down.at = Seconds{0.3};
  down.recover_at = Seconds{0.8};
  s.schedule.faults.push_back(down);
  if (seed % 2 == 1) {
    FaultSpec cut_link;
    cut_link.kind = FaultKind::kLinkDown;
    cut_link.link = static_cast<LinkId>((seed * 7) % s.topo.graph.num_links());
    cut_link.at = Seconds{0.45};
    cut_link.recover_at = Seconds{0.9};
    s.schedule.faults.push_back(cut_link);
  }
  if (seed % 4 == 2) {
    FaultSpec degrade;
    degrade.kind = FaultKind::kLinkDegraded;
    degrade.link =
        static_cast<LinkId>((seed * 13) % s.topo.graph.num_links());
    degrade.capacity_factor = 0.5;
    degrade.at = Seconds{0.35};
    degrade.recover_at = Seconds{0.75};
    s.schedule.faults.push_back(degrade);
  }

  s.config.tailor = seed % 2 == 0;
  switch (seed % 3) {
    case 0:
      s.config.degraded.policy = DegradedPolicy::kNone;
      break;
    case 1:
      s.config.degraded.policy = DegradedPolicy::kEmergencyWakeAll;
      break;
    default:
      s.config.degraded.policy = DegradedPolicy::kRetailor;
      break;
  }
  s.config.degraded.wake_latency = Seconds::from_milliseconds(30.0);
  s.config.degraded.min_headroom = seed % 2 == 0 ? 0.0 : 0.1;
  s.config.demands = ring_demands(s.topo, 15_Gbps);
  s.cut = Seconds{0.2 + 0.05 * static_cast<double>(seed % 10)};
  s.telemetry = seed % 2 == 0;
  s.sampler = seed % 4 == 0;
  return s;
}

telemetry::TelemetryConfig tel_config(const Scenario& s) {
  telemetry::TelemetryConfig config;
  config.sample_period = s.sampler ? Seconds{0.05} : Seconds{0.0};
  return config;
}

/// Runs `seed`'s scenario straight through and via save/restore-at-cut,
/// returning (straight-line final snapshot, mid-run snapshot) so callers
/// can reuse the bytes. All observable outputs are compared bitwise.
void run_scenario(unsigned seed) {
  const Scenario s = make_scenario(seed);

  // Straight line.
  telemetry::Telemetry tel_a{tel_config(s)};
  FaultExperimentConfig cfg_a = s.config;
  if (s.telemetry) cfg_a.telemetry = &tel_a;
  FaultExperimentRun a{s.topo, s.workload, s.schedule, cfg_a};
  a.run();
  FaultExperimentResult ra = a.finish();
  state::SnapshotWriter end_a;
  a.save_state(end_a);

  // Interrupted at the cut: audit, snapshot, abandon.
  telemetry::Telemetry tel_b{tel_config(s)};
  FaultExperimentConfig cfg_b = s.config;
  if (s.telemetry) cfg_b.telemetry = &tel_b;
  FaultExperimentRun b{s.topo, s.workload, s.schedule, cfg_b};
  b.run_until(s.cut);
  b.check_invariants();
  state::SnapshotWriter mid;
  b.save_state(mid);

  // Restored into a fresh process-equivalent world; run to completion.
  telemetry::Telemetry tel_c{tel_config(s)};
  FaultExperimentConfig cfg_c = s.config;
  if (s.telemetry) cfg_c.telemetry = &tel_c;
  state::SnapshotReader r{mid.buffer()};
  FaultExperimentRun c{s.topo, s.workload, s.schedule, cfg_c, r};
  EXPECT_TRUE(r.at_end()) << "restore must consume the whole snapshot";
  c.run();
  FaultExperimentResult rc = c.finish();
  state::SnapshotWriter end_c;
  c.save_state(end_c);

  // Observable outputs, bitwise.
  EXPECT_EQ(ra.fct.count(), rc.fct.count());
  expect_bits(ra.fct.mean(), rc.fct.mean(), "fct mean");
  expect_bits(ra.fct.m2(), rc.fct.m2(), "fct m2");
  expect_bits(ra.fct.sum(), rc.fct.sum(), "fct sum");
  expect_bits(ra.fct.max(), rc.fct.max(), "fct max");
  expect_bits(ra.report.energy.value(), rc.report.energy.value(), "energy");
  expect_bits(ra.report.availability, rc.report.availability, "availability");
  expect_bits(ra.report.stranded_demand_gbit_seconds,
              rc.report.stranded_demand_gbit_seconds, "stranded demand");
  EXPECT_EQ(ra.realloc.reroutes, rc.realloc.reroutes);
  EXPECT_EQ(ra.realloc.stranded, rc.realloc.stranded);
  EXPECT_EQ(ra.emergency_wakes, rc.emergency_wakes);
  EXPECT_EQ(ra.retailor_passes, rc.retailor_passes);
  EXPECT_EQ(ra.powered_at_end, rc.powered_at_end);
  expect_bits(ra.end.value(), rc.end.value(), "end time");
  ASSERT_EQ(a.sim().completed().size(), c.sim().completed().size());
  for (std::size_t i = 0; i < a.sim().completed().size(); ++i) {
    EXPECT_EQ(a.sim().completed()[i].id, c.sim().completed()[i].id);
    expect_bits(a.sim().completed()[i].finished.value(),
                c.sim().completed()[i].finished.value(), "completion time");
  }
  const std::vector<double> sa = a.sim().strand_durations();
  const std::vector<double> sc = c.sim().strand_durations();
  ASSERT_EQ(sa.size(), sc.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    expect_bits(sa[i], sc[i], "strand duration");
  }
  if (s.telemetry) {
    EXPECT_EQ(telemetry::to_metrics_json(tel_a.metrics()),
              telemetry::to_metrics_json(tel_c.metrics()));
  }

  // The total-state check: the end-of-run snapshots must be byte-identical.
  EXPECT_EQ(end_a.buffer(), end_c.buffer())
      << "resumed end state diverged from the straight-line end state";
}

TEST(SnapshotResume, BitIdenticalAcrossSixteenSeededScenarios) {
  for (unsigned seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_scenario(seed);
  }
}

TEST(SnapshotResume, ForkedRestoresAgreeWithEachOther) {
  // A snapshot is a value: two restores from the same bytes must evolve
  // identically (the chaos harness's fork primitive).
  const Scenario s = make_scenario(3);
  FaultExperimentRun b{s.topo, s.workload, s.schedule, s.config};
  b.run_until(s.cut);
  state::SnapshotWriter mid;
  b.save_state(mid);

  state::SnapshotReader r1{mid.buffer()};
  FaultExperimentRun fork1{s.topo, s.workload, s.schedule, s.config, r1};
  fork1.run();
  state::SnapshotWriter end1;
  fork1.save_state(end1);

  state::SnapshotReader r2{mid.buffer()};
  FaultExperimentRun fork2{s.topo, s.workload, s.schedule, s.config, r2};
  fork2.run();
  state::SnapshotWriter end2;
  fork2.save_state(end2);

  EXPECT_EQ(end1.buffer(), end2.buffer());
}

TEST(SnapshotResume, ParkedSwitchStaysParkedThroughPostRestoreRepair) {
  // The mid-fault contract: a fault applied before the snapshot must repair
  // correctly after the restore — in particular, a switch that was parked
  // (tailored off) when it failed must return to *parked*, not powered,
  // because the injector's pre-fault enablement map traveled through the
  // snapshot.
  const auto topo = build_leaf_spine(2, 2, 2, 100_Gbps, 100_Gbps);
  FaultExperimentConfig config;
  config.tailor = true;
  config.degraded.policy = DegradedPolicy::kNone;
  config.demands = ring_demands(topo, 20_Gbps);

  // Probe run: construction tailors immediately, exposing the parked set.
  FaultExperimentRun probe{topo, {}, FaultSchedule{}, config};
  ASSERT_TRUE(probe.tailoring().feasible);
  ASSERT_FALSE(probe.tailoring().powered_off.empty());
  const NodeId victim = probe.tailoring().powered_off.front();

  FaultSchedule schedule;
  FaultSpec fault;
  fault.kind = FaultKind::kSwitchDown;
  fault.node = victim;
  fault.at = Seconds{0.3};
  fault.recover_at = Seconds{0.8};
  schedule.faults.push_back(fault);

  MlTrafficConfig traffic;
  traffic.compute_time = Seconds{0.2};
  traffic.comm_allowance = Seconds{0.3};
  traffic.volume_per_host = Bits::from_gigabits(4.0);
  traffic.iterations = 3;
  const auto workload = make_ml_training_traffic(topo.hosts, traffic).flows;

  // Straight line for reference.
  FaultExperimentRun a{topo, workload, schedule, config};
  a.run();
  state::SnapshotWriter end_a;
  a.save_state(end_a);
  ASSERT_FALSE(a.sim().router().node_enabled(victim))
      << "straight line: the parked victim must stay parked after repair";

  // Cut strictly inside the fault window (applied, not yet repaired).
  FaultExperimentRun b{topo, workload, schedule, config};
  b.run_until(Seconds{0.5});
  EXPECT_EQ(b.injector().faults_applied(), 1u);
  state::SnapshotWriter mid;
  b.save_state(mid);

  state::SnapshotReader r{mid.buffer()};
  FaultExperimentRun c{topo, workload, schedule, config, r};
  EXPECT_FALSE(c.sim().router().node_enabled(victim))
      << "restored mid-fault: the victim must still be down";
  c.run();
  EXPECT_FALSE(c.sim().router().node_enabled(victim))
      << "the repair after restore must re-apply the pre-fault (parked) "
         "enablement";
  state::SnapshotWriter end_c;
  c.save_state(end_c);
  EXPECT_EQ(end_a.buffer(), end_c.buffer());
}

TEST(SnapshotResume, AuditorWatchesTheWholeExperiment) {
  const Scenario s = make_scenario(5);
  FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
  // The run's audit covers the controller and the backend, whose simulator
  // is run.sim(). Audit at several event boundaries, including mid-fault.
  for (double t : {0.1, 0.35, 0.6, 2.0}) {
    run.run_until(Seconds{t});
    EXPECT_NO_THROW(run.check_invariants()) << "at t = " << t;
  }
  run.run();
  EXPECT_NO_THROW(run.check_invariants()) << "after the run";
}

TEST(SnapshotResume, MismatchedRestoreConfigsRejected) {
  const Scenario s = make_scenario(1);
  FaultExperimentRun b{s.topo, s.workload, s.schedule, s.config};
  b.run_until(s.cut);
  state::SnapshotWriter mid;
  b.save_state(mid);

  {
    // Different workload size.
    auto short_workload = s.workload;
    short_workload.pop_back();
    state::SnapshotReader r{mid.buffer()};
    EXPECT_THROW(
        (FaultExperimentRun{s.topo, short_workload, s.schedule, s.config, r}),
        std::invalid_argument);
  }
  {
    // Different tailoring mode.
    FaultExperimentConfig other = s.config;
    other.tailor = !other.tailor;
    state::SnapshotReader r{mid.buffer()};
    EXPECT_THROW(
        (FaultExperimentRun{s.topo, s.workload, s.schedule, other, r}),
        std::invalid_argument);
  }
  {
    // Telemetry attached now but not at save time.
    telemetry::Telemetry tel;
    FaultExperimentConfig other = s.config;
    other.telemetry = &tel;
    state::SnapshotReader r{mid.buffer()};
    EXPECT_THROW(
        (FaultExperimentRun{s.topo, s.workload, s.schedule, other, r}),
        std::invalid_argument);
  }
  {
    // Different fault schedule length.
    FaultSchedule other = s.schedule;
    other.faults.push_back(other.faults.front());
    state::SnapshotReader r{mid.buffer()};
    EXPECT_THROW(
        (FaultExperimentRun{s.topo, s.workload, other, s.config, r}),
        std::invalid_argument);
  }
}

TEST(SnapshotResume, CorruptedExperimentSnapshotsRejectedNotUB) {
  const Scenario s = make_scenario(2);
  FaultExperimentRun b{s.topo, s.workload, s.schedule, s.config};
  b.run_until(s.cut);
  state::SnapshotWriter mid;
  b.save_state(mid);
  const std::vector<std::uint8_t>& bytes = mid.buffer();

  // Flip one byte at a stride of positions across the whole buffer; every
  // attempt must surface as a typed error, never UB or a silent accept of
  // altered state.
  std::size_t rejected = 0;
  std::size_t attempts = 0;
  for (std::size_t pos = 12; pos < bytes.size(); pos += 211) {
    ++attempts;
    auto corrupt = bytes;
    corrupt[pos] ^= 0x20;
    try {
      state::SnapshotReader r{std::move(corrupt)};
      FaultExperimentRun c{s.topo, s.workload, s.schedule, s.config, r};
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, attempts);

  // Truncations at section granularity and mid-payload.
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{12},
                           bytes.size() / 3, bytes.size() - 1}) {
    auto cut = std::vector<std::uint8_t>(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    const auto restore_truncated = [&] {
      state::SnapshotReader r{std::move(cut)};
      FaultExperimentRun c{s.topo, s.workload, s.schedule, s.config, r};
    };
    EXPECT_THROW(restore_truncated(), std::invalid_argument)
        << "kept " << keep << " bytes";
  }
}

}  // namespace
}  // namespace netpp
