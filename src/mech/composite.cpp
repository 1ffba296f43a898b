#include "netpp/mech/composite.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "netpp/mech/backend_recorder.h"
#include "netpp/topo/pods.h"

namespace netpp {

StackedSwitchPolicy::StackedSwitchPolicy(ParkingConfig parking,
                                         RateAdaptConfig rate, Stages stages)
    : parking_(std::move(parking)),
      rate_(std::move(rate)),
      stages_(stages),
      pipes_(parking_.model.config().num_pipelines),
      ports_(static_cast<std::size_t>(parking_.model.config().num_ports),
             PortState{}),
      channel_loads_(static_cast<std::size_t>(pipes_), 0.0) {
  if (stages_.park) {
    detail::validate_parking("StackedSwitchPolicy", parking_.hi_threshold,
                             parking_.lo_threshold, parking_.min_active,
                             pipes_, parking_.wake_latency);
  }
  if (stages_.rate_adapt) {
    detail::validate_rate_adapt("StackedSwitchPolicy", rate_);
  }
  if (rate_.model.config().num_pipelines != pipes_) {
    throw std::invalid_argument(
        "StackedSwitchPolicy: parking and rate models must agree on the "
        "pipeline count");
  }
}

std::string_view StackedSwitchPolicy::name() const {
  if (stages_.park && stages_.rate_adapt) return "park+rate-adapt";
  if (stages_.park) return "park";
  if (stages_.rate_adapt) return "rate-adapt";
  return "all-on";
}

PowerStateTimeline StackedSwitchPolicy::make_timeline(const LoadTrace& trace) {
  if (trace.channels() != pipes_ && trace.channels() != 1) {
    throw std::invalid_argument(
        "StackedSwitchPolicy: trace needs one channel per pipeline (or a "
        "single aggregate channel)");
  }
  PowerStateTimeline timeline{
      pipes_,
      TransitionRules{stages_.park ? parking_.wake_latency : Seconds{0.0},
                      Seconds{0.0},
                      stages_.rate_adapt ? rate_.hysteresis : 0.0},
      trace.times.front()};
  timeline.set_power_model(
      // Powered pipelines at their (possibly adapted) clock and
      // (possibly concentrated) load; waking pipelines draw idle power;
      // parked pipelines draw nothing. The circuit switch only exists — and
      // only draws — when parking is stacked.
      [this](std::span<const ComponentTrack> tracks) {
        std::vector<PipelineState> states;
        states.reserve(static_cast<std::size_t>(pipes_));
        for (const auto& track : tracks) {
          if (track.state == PowerState::kOn) {
            states.push_back(PipelineState{true, track.level, track.load});
          } else if (track.state == PowerState::kWaking) {
            states.push_back(PipelineState{true, 1.0, 0.0});
          } else {
            states.push_back(PipelineState{false, 1.0, 0.0});
          }
        }
        Watts power = parking_.model.total_power(states, ports_);
        if (stages_.park) power = power + parking_.circuit_switch_power;
        return power;
      },
      // Baseline: every pipeline on at nominal clock and full lanes,
      // carrying its raw channel load.
      [this](std::span<const ComponentTrack> /*tracks*/) {
        std::vector<PipelineState> states;
        states.reserve(static_cast<std::size_t>(pipes_));
        for (int p = 0; p < pipes_; ++p) {
          states.push_back(PipelineState{
              true, 1.0, channel_loads_[static_cast<std::size_t>(p)]});
        }
        return parking_.model.total_power(states, ports_);
      });
  return timeline;
}

void StackedSwitchPolicy::observe(const LoadSegment& seg,
                                  PowerStateTimeline& timeline) {
  const bool per_pipe = static_cast<int>(seg.loads.size()) == pipes_;
  double sum = 0.0;
  for (double load : seg.loads) sum += load;
  offered_ = sum / static_cast<double>(seg.loads.size());
  for (int p = 0; p < pipes_; ++p) {
    channel_loads_[static_cast<std::size_t>(p)] =
        per_pipe ? seg.loads[static_cast<std::size_t>(p)] : offered_;
  }

  // Stage 1 — parking decides the powered set from the aggregate load
  // (same reactive fixed-point as ReactiveParkingPolicy).
  if (stages_.park) {
    detail::settle_parking(
        timeline, pipes_, parking_.min_active, [this](int provisioned) {
          return detail::reactive_parking_target(
              parking_.hi_threshold, parking_.lo_threshold, pipes_, offered_,
              provisioned);
        });
  }

  // Stage 2 — load placement and rate adaptation on the powered set. With
  // parking, the circuit switch concentrates the whole offered load onto
  // the active pipelines; without it, every pipeline carries its own
  // channel.
  if (stages_.park) {
    const int active = timeline.count(PowerState::kOn);
    const double capacity_frac = static_cast<double>(active) / pipes_;
    const double served = std::min(offered_, capacity_frac);
    const double concentrated =
        active > 0 ? std::min(1.0, served * pipes_ / active) : 0.0;
    for (int p = 0; p < pipes_; ++p) {
      if (timeline.track(p).state == PowerState::kOn) {
        timeline.set_load(p, concentrated);
        if (stages_.rate_adapt) {
          timeline.request_level(
              p, detail::target_frequency(rate_, concentrated));
        }
      } else {
        timeline.set_load(p, 0.0);
      }
    }
  } else {
    for (int p = 0; p < pipes_; ++p) {
      const double load = channel_loads_[static_cast<std::size_t>(p)];
      timeline.set_load(p, load);
      if (stages_.rate_adapt) {
        timeline.request_level(p, detail::target_frequency(rate_, load));
      }
    }
  }
}

double StackedSwitchPolicy::capacity_fraction(
    const PowerStateTimeline& timeline) const {
  return static_cast<double>(timeline.count(PowerState::kOn)) / pipes_;
}

// Named (not anonymous) so CompositeCache::Impl can hold these types without
// tripping GCC's subobject-linkage warning.
namespace composite_impl {

/// One backend run of the workload with `disabled` switches off; records
/// every pod switch's per-pipeline load trace (and, when the backend
/// collapses the core, the aggregate gateway signal). The construction
/// order — recorder built, switches disabled, listeners attached, flows
/// submitted, run drained — is exactly the pre-seam FabricRun sequence, so
/// the single backend's traces are bit-identical to it.
struct BackendRun {
  std::unique_ptr<SimulatorBackend> backend;
  BackendLoadRecorder recorder;

  BackendRun(const BuiltTopology& topo, const std::vector<FlowSpec>& workload,
             const std::vector<NodeId>& disabled, const BackendConfig& config)
      : backend(make_backend(topo.graph, config, FlowSimulator::Config{})),
        recorder(*backend, topo.switches) {
    for (NodeId off : disabled) backend->set_node_enabled(off, false);
    recorder.attach();
    for (const auto& flow : workload) backend->submit(flow);
    backend->run();
  }

  [[nodiscard]] double makespan() const { return backend->now().value(); }
};

struct StageTotals {
  double energy_j = 0.0;
  double baseline_j = 0.0;
  std::size_t wakes = 0;
  std::size_t parks = 0;
  std::size_t levels = 0;
  double dropped_bits = 0.0;
  /// Per-switch shares of energy_j/baseline_j, for domain attribution.
  std::map<NodeId, double> switch_energy_j;
  std::map<NodeId, double> switch_baseline_j;
};

StageTotals run_stage(const std::map<NodeId, LoadTrace>& traces,
                      const std::vector<NodeId>& powered,
                      const CompositeConfig& config, bool park, bool rate,
                      telemetry::Telemetry* telemetry = nullptr) {
  StageTotals totals;
  for (NodeId sw : powered) {
    StackedSwitchPolicy policy{config.parking, config.rate,
                               StackedSwitchPolicy::Stages{park, rate}};
    const MechanismReport report =
        run_mechanism(traces.at(sw), policy, telemetry);
    totals.energy_j += report.energy.value();
    totals.baseline_j += report.baseline_energy.value();
    totals.wakes += report.wake_transitions;
    totals.parks += report.park_transitions;
    totals.levels += report.level_transitions;
    totals.dropped_bits += report.dropped.value();
    totals.switch_energy_j.emplace(sw, report.energy.value());
    totals.switch_baseline_j.emplace(sw, report.baseline_energy.value());
  }
  return totals;
}

/// Fingerprint of the scenario axes the cache memoizes over. Two calls with
/// equal fingerprints that nonetheless differ (hash-collision style) would
/// need identical topology sizes, workload volume, demand matrices, and
/// mechanism knobs — outside what the serve engine (or any sane caller) can
/// construct by accident; the fingerprint is a guard rail, not a key.
std::string scenario_fingerprint(const BuiltTopology& topology,
                                 const std::vector<FlowSpec>& workload,
                                 const std::vector<TrafficDemand>& demands,
                                 const CompositeConfig& config) {
  double flow_bits = 0.0;
  for (const FlowSpec& flow : workload) flow_bits += flow.size.value();
  double demand_bps = 0.0;
  for (const TrafficDemand& demand : demands) {
    demand_bps += demand.rate.bits_per_second();
  }
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "nodes=%zu|switches=%zu|hosts=%zu|flows=%zu|bits=%.17g|demands=%zu"
      "|dbps=%.17g|backend=%d|shards=%zu|pipes=%d|cap=%.17g|hi=%.17g"
      "|lo=%.17g|minf=%.17g|rhead=%.17g|tailor_util=%.17g",
      topology.graph.num_nodes(), topology.switches.size(),
      topology.hosts.size(), workload.size(), flow_bits, demands.size(),
      demand_bps, static_cast<int>(config.backend.kind),
      config.backend.num_shards, config.parking.model.config().num_pipelines,
      config.parking.switch_capacity.bits_per_second(),
      config.parking.hi_threshold, config.parking.lo_threshold,
      config.rate.min_frequency, config.rate.headroom,
      config.tailor_config.satisfaction);
  return std::string{buf};
}

}  // namespace composite_impl

using composite_impl::BackendRun;
using composite_impl::StageTotals;
using composite_impl::run_stage;
using composite_impl::scenario_fingerprint;

struct CompositeCache::Impl {
  std::mutex mutex;
  std::string fingerprint;  ///< empty until the first run stamps it
  bool has_tailoring = false;
  TailorResult tailoring;
  /// Backend runs keyed by the disabled-switch set ({} = full fabric).
  std::map<std::vector<NodeId>, std::unique_ptr<BackendRun>> runs;
  /// Extracted pod-switch traces keyed by (disabled set, energy window).
  std::map<std::pair<std::vector<NodeId>, double>, std::map<NodeId, LoadTrace>>
      traces;
  /// Stage totals keyed by (traces' disabled set, window, powered set,
  /// park, rate).
  std::map<std::tuple<std::vector<NodeId>, double, std::vector<NodeId>, bool,
                      bool>,
           StageTotals>
      stages;
  std::size_t sim_reuses = 0;
  std::size_t stage_reuses = 0;
};

CompositeCache::CompositeCache() : impl_(std::make_unique<Impl>()) {}
CompositeCache::~CompositeCache() = default;

std::size_t CompositeCache::sim_reuses() const {
  const std::lock_guard<std::mutex> lock{impl_->mutex};
  return impl_->sim_reuses;
}

std::size_t CompositeCache::stage_reuses() const {
  const std::lock_guard<std::mutex> lock{impl_->mutex};
  return impl_->stage_reuses;
}

CompositeReport run_composite(const BuiltTopology& topology,
                              const std::vector<FlowSpec>& workload,
                              const std::vector<TrafficDemand>& demands,
                              Seconds horizon, const CompositeConfig& config) {
  if (horizon.value() <= 0.0) {
    throw std::invalid_argument("run_composite: horizon must be positive");
  }
  if (topology.switches.empty()) {
    throw std::invalid_argument("run_composite: topology has no switches");
  }
  const int pipes = config.parking.model.config().num_pipelines;

  CompositeReport report;
  report.switches_total = topology.switches.size();

  // Warm-state cache (a call-local one when the caller brings none):
  // stamped to one scenario on first use, serializing concurrent callers
  // for the duration of the call. Everything consulted below is a
  // deterministic pure function of the scenario, so hits are bit-identical
  // to recomputation.
  CompositeCache local_cache;
  CompositeCache::Impl* cache =
      (config.cache != nullptr ? config.cache : &local_cache)->impl_.get();
  const std::lock_guard<std::mutex> cache_lock{cache->mutex};
  {
    std::string fingerprint =
        scenario_fingerprint(topology, workload, demands, config);
    if (cache->fingerprint.empty()) {
      cache->fingerprint = std::move(fingerprint);
    } else if (cache->fingerprint != fingerprint) {
      throw std::invalid_argument(
          "CompositeCache: cache reused across different scenarios (expected "
          "one cache per topology/workload/backend combination)");
    }
  }

  // Static stage first: tailoring decides which switches are powered, and
  // therefore which fabric the dynamic stages observe.
  std::vector<NodeId> powered = topology.switches;
  if (config.tailor) {
    if (!cache->has_tailoring) {
      cache->tailoring =
          tailor_topology(topology, demands, config.tailor_config);
      cache->has_tailoring = true;
    }
    report.tailoring = cache->tailoring;
    if (!report.tailoring.powered_off.empty()) {
      powered = report.tailoring.powered_on;
    }
  }
  const bool tailored = config.tailor && !report.tailoring.powered_off.empty();

  // Simulate the workload on the full fabric (baseline + dynamic-only
  // stages) and, when tailoring bites, on the tailored fabric (survivors
  // carry the rerouted traffic). Both runs share one energy window.
  const auto obtain_run =
      [&](const std::vector<NodeId>& disabled) -> const BackendRun& {
    const auto it = cache->runs.find(disabled);
    if (it != cache->runs.end()) {
      ++cache->sim_reuses;
      return *it->second;
    }
    auto run = std::make_unique<BackendRun>(topology, workload, disabled,
                                            config.backend);
    return *cache->runs.emplace(disabled, std::move(run)).first->second;
  };
  const BackendRun& full_run = obtain_run({});
  const BackendRun* tailored_run =
      tailored ? &obtain_run(report.tailoring.powered_off) : nullptr;
  double end_s = std::max(horizon.value(), full_run.makespan() + 1e-9);
  if (tailored_run) {
    end_s = std::max(end_s, tailored_run->makespan() + 1e-9);
  }
  const Seconds end{end_s};
  report.horizon = end;

  // A collapsed core (multi-shard backend) has no per-core-switch traces:
  // the pod tier keeps the per-switch stacked analysis, the core tier moves
  // to the aggregate-load accounting below.
  const bool collapsed = full_run.backend->core_collapsed();
  std::vector<NodeId> pod_switches;
  std::vector<NodeId> core_switches;
  for (NodeId sw : topology.switches) {
    if (!collapsed || full_run.recorder.has_node(sw)) {
      pod_switches.push_back(sw);
    } else {
      core_switches.push_back(sw);
    }
  }
  std::vector<NodeId> powered_pod;
  std::size_t core_surviving = 0;
  for (NodeId sw : powered) {
    if (!collapsed || full_run.recorder.has_node(sw)) {
      powered_pod.push_back(sw);
    } else {
      ++core_surviving;
    }
  }

  const std::vector<NodeId> no_disabled;
  const auto obtain_traces =
      [&](const BackendRun& run, const std::vector<NodeId>& disabled)
      -> const std::map<NodeId, LoadTrace>& {
    const auto key = std::make_pair(disabled, end.value());
    const auto it = cache->traces.find(key);
    if (it != cache->traces.end()) return it->second;
    std::map<NodeId, LoadTrace> traces;
    for (NodeId sw : pod_switches) {
      traces.emplace(sw, run.recorder.node_trace(sw, pipes, end));
    }
    return cache->traces.emplace(key, std::move(traces)).first->second;
  };
  const auto& full_traces = obtain_traces(full_run, no_disabled);
  const std::map<NodeId, LoadTrace> no_traces;
  const auto& tailored_traces =
      tailored_run ? obtain_traces(*tailored_run, report.tailoring.powered_off)
                   : no_traces;
  const auto& stack_traces = tailored ? tailored_traces : full_traces;

  // Per-stage mechanism totals, memoized for un-telemetered stages; a
  // telemetered stage always re-runs so its events/metrics are emitted
  // every call (the recomputed totals are identical by determinism).
  const auto obtain_stage =
      [&](const std::vector<NodeId>& traces_disabled,
          const std::map<NodeId, LoadTrace>& traces,
          const std::vector<NodeId>& stage_powered, bool park, bool rate,
          telemetry::Telemetry* telemetry) -> const StageTotals& {
    auto key = std::make_tuple(traces_disabled, end.value(), stage_powered,
                               park, rate);
    if (telemetry == nullptr) {
      const auto it = cache->stages.find(key);
      if (it != cache->stages.end()) {
        ++cache->stage_reuses;
        return it->second;
      }
    }
    StageTotals totals =
        run_stage(traces, stage_powered, config, park, rate, telemetry);
    return cache->stages.insert_or_assign(std::move(key), std::move(totals))
        .first->second;
  };

  // All-on baseline over the full fabric.
  const StageTotals& baseline = obtain_stage(no_disabled, full_traces,
                                             pod_switches, false, false,
                                             nullptr);

  // Core-layer accounting when the core is collapsed: flat per-switch draw
  // (§2: load-independent terms dominate), parked against the aggregate
  // cross-pod gateway load when parking is enabled. All four terms stay 0.0
  // on a verbatim-core backend, leaving the composition bit-identical.
  double core_all_j = 0.0;            // every core switch on, whole window
  double core_tailored_flat_j = 0.0;  // tailoring survivors on, no parking
  double core_park_alone_j = 0.0;     // parking alone over the full fabric
  double core_stack_j = 0.0;          // the combined stack's core share
  std::size_t core_wakes = 0;
  std::size_t core_parks = 0;
  if (collapsed && !core_switches.empty()) {
    const double per_switch_j =
        config.domains.core.switch_power.value() * end.value();
    const int n_core = static_cast<int>(core_switches.size());
    core_all_j = per_switch_j * n_core;
    core_tailored_flat_j = per_switch_j * static_cast<double>(core_surviving);
    if (config.park) {
      CoreParkingPolicy alone{config.domains.core, n_core};
      core_park_alone_j =
          run_mechanism(full_run.recorder.core_trace(end), alone).energy.value();
    }
    if (config.park && core_surviving > 0) {
      // The stack parks the tailoring survivors; the gateway trace is in
      // total-core-capacity fractions, so rescale to the surviving base.
      const double scale =
          static_cast<double>(n_core) / static_cast<double>(core_surviving);
      CoreParkingPolicy policy{config.domains.core,
                               static_cast<int>(core_surviving), scale};
      const MechanismReport core_report = run_mechanism(
          tailored_run ? tailored_run->recorder.core_trace(end)
                       : full_run.recorder.core_trace(end),
          policy, config.telemetry);
      core_stack_j = core_report.energy.value();
      core_wakes = core_report.wake_transitions;
      core_parks = core_report.park_transitions;
    } else {
      core_stack_j = core_tailored_flat_j;
    }
  }

  const double baseline_total_j = baseline.energy_j + core_all_j;
  report.baseline_energy = Joules{baseline_total_j};

  const double ocs_energy_j =
      tailored ? config.ocs.config().ocs_power.value() * config.num_ocs_devices *
                     end.value()
               : 0.0;

  const auto add_single = [&](std::string name, double energy_j) {
    CompositeStageResult single;
    single.name = std::move(name);
    single.energy = Joules{energy_j};
    single.savings = baseline_total_j > 0.0
                         ? 1.0 - energy_j / baseline_total_j
                         : 0.0;
    report.best_single_savings =
        std::max(report.best_single_savings, single.savings);
    report.singles.push_back(std::move(single));
  };

  // Each enabled mechanism alone, against the same baseline.
  if (config.tailor) {
    const StageTotals& alone =
        tailored ? obtain_stage(report.tailoring.powered_off, tailored_traces,
                                powered_pod, false, false, nullptr)
                 : baseline;
    add_single("tailoring",
               alone.energy_j + core_tailored_flat_j + ocs_energy_j);
  }
  if (config.park) {
    const StageTotals& alone =
        obtain_stage(no_disabled, full_traces, pod_switches, true, false,
                     nullptr);
    add_single("parking", alone.energy_j + core_park_alone_j);
  }
  if (config.rate_adapt) {
    const StageTotals& alone =
        obtain_stage(no_disabled, full_traces, pod_switches, false, true,
                     nullptr);
    add_single("rate-adaptation", alone.energy_j + core_all_j);
  }

  // The full enabled stack (the only telemetered stage: its per-switch
  // transitions and breakpoints are the events worth tracing).
  const StageTotals& stacked =
      obtain_stage(tailored ? report.tailoring.powered_off : no_disabled,
                   stack_traces, powered_pod, config.park, config.rate_adapt,
                   config.telemetry);
  const double combined_j = stacked.energy_j + core_stack_j + ocs_energy_j;
  report.energy = Joules{combined_j};
  report.combined_savings = baseline_total_j > 0.0
                                ? 1.0 - combined_j / baseline_total_j
                                : 0.0;
  report.wake_transitions = stacked.wakes + core_wakes;
  report.park_transitions = stacked.parks + core_parks;
  report.level_transitions = stacked.levels;
  report.dropped = Bits{stacked.dropped_bits};
  report.average_power = Watts{combined_j / end.value()};
  report.baseline_average_power = Watts{baseline_total_j / end.value()};

  // Per-pod + core power-domain attribution of the combined stack. The
  // partition is structural (topo/pods.h); topologies without one (no core
  // tier, or a flat graph) report no domains.
  bool have_partition = true;
  PodPartition partition;
  try {
    partition = make_pod_partition(topology.graph);
  } catch (const std::invalid_argument&) {
    have_partition = false;
  }
  if (have_partition) {
    const auto switch_sum = [](const std::map<NodeId, double>& per_switch,
                               const std::vector<NodeId>& members) {
      // Switches absent from the stage map (tailored off) cost nothing.
      double sum = 0.0;
      for (NodeId sw : members) {
        const auto it = per_switch.find(sw);
        if (it != per_switch.end()) sum += it->second;
      }
      return sum;
    };
    const auto make_domain = [&](std::string name, std::size_t count,
                                 double energy_j, double baseline_j,
                                 Watts budget) {
      DomainReport domain;
      domain.name = std::move(name);
      domain.switches = count;
      domain.energy = Joules{energy_j};
      domain.baseline_energy = Joules{baseline_j};
      domain.savings =
          baseline_j > 0.0 ? 1.0 - energy_j / baseline_j : 0.0;
      domain.average_power = Watts{energy_j / end.value()};
      domain.budget = budget;
      domain.within_budget = budget.value() <= 0.0 ||
                             domain.average_power.value() <= budget.value();
      return domain;
    };

    std::vector<std::vector<NodeId>> pod_members(partition.num_pods);
    std::vector<NodeId> core_members;
    for (NodeId sw : topology.switches) {
      const int pod = partition.pod_of_node.at(sw);
      if (pod == PodPartition::kCore) {
        core_members.push_back(sw);
      } else {
        pod_members[static_cast<std::size_t>(pod)].push_back(sw);
      }
    }
    for (std::size_t p = 0; p < partition.num_pods; ++p) {
      report.domains.push_back(make_domain(
          "pod" + std::to_string(p), pod_members[p].size(),
          switch_sum(stacked.switch_energy_j, pod_members[p]),
          switch_sum(baseline.switch_baseline_j, pod_members[p]),
          config.domains.pod_budget));
    }
    // The core domain also carries the OCS draw: tailoring's stitching
    // hardware lives in the core layer.
    const double core_energy_j =
        (collapsed ? core_stack_j
                   : switch_sum(stacked.switch_energy_j, core_members)) +
        ocs_energy_j;
    const double core_baseline_j =
        collapsed ? core_all_j
                  : switch_sum(baseline.switch_baseline_j, core_members);
    report.domains.push_back(make_domain("core", core_members.size(),
                                         core_energy_j, core_baseline_j,
                                         config.domains.core_budget));
  }

  if (config.telemetry != nullptr) {
    telemetry::MetricRegistry& m = config.telemetry->metrics();
    m.counter("composite.wakes").set(report.wake_transitions);
    m.counter("composite.parks").set(report.park_transitions);
    m.counter("composite.level_changes").set(report.level_transitions);
    m.gauge("composite.energy_joules", "joules").set(combined_j);
    m.gauge("composite.baseline_joules", "joules").set(baseline_total_j);
    m.gauge("composite.combined_savings").set(report.combined_savings);
    m.gauge("composite.best_single_savings")
        .set(report.best_single_savings);
    m.gauge("composite.dropped_bits", "bits").set(stacked.dropped_bits);
    m.gauge("composite.horizon_seconds", "seconds").set(end.value());
    for (const DomainReport& domain : report.domains) {
      const std::string prefix = "composite.domain." + domain.name;
      m.gauge(prefix + ".energy_joules", "joules").set(domain.energy.value());
      m.gauge(prefix + ".savings").set(domain.savings);
      m.gauge(prefix + ".within_budget")
          .set(domain.within_budget ? 1.0 : 0.0);
    }
  }
  return report;
}

}  // namespace netpp
