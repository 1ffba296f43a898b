#include "netpp/faults/experiment.h"

#include <cstdint>

#include "netpp/sim/engine.h"
#include "netpp/topo/routing.h"
#include "netpp/validation.h"

namespace netpp {

namespace {

FlowSimulator::Config effective_sim_config(
    const FaultExperimentConfig& config) {
  FlowSimulator::Config sim_config = config.sim;
  sim_config.strand_unroutable = true;
  // The sharded backend's per-shard simulators keep private registries (the
  // backend merges them in sim_metrics()); only the single backend writes
  // its netsim.* metrics straight into the experiment bundle.
  sim_config.telemetry =
      config.backend.kind == BackendKind::kSingle ? config.telemetry : nullptr;
  return sim_config;
}

}  // namespace

FaultExperimentRun::FaultExperimentRun(const BuiltTopology& topology,
                                       const std::vector<FlowSpec>& workload,
                                       const FaultSchedule& schedule,
                                       const FaultExperimentConfig& config,
                                       bool fresh)
    : topology_(topology),
      config_(config),
      flows_submitted_(workload.size()),
      backend_(make_backend(topology.graph, config.backend,
                            effective_sim_config(config))),
      controller_(*backend_, topology, config.demands, config.degraded),
      injector_(*backend_, schedule) {
  injector_.set_listener(controller_.listener());
  wire_telemetry();
  if (fresh) {
    if (config_.tailor) tailoring_ = controller_.tailor_initial();
    injector_.arm();
    for (const FlowSpec& spec : workload) backend_->submit(spec);
  }
}

FaultExperimentRun::FaultExperimentRun(const BuiltTopology& topology,
                                       const std::vector<FlowSpec>& workload,
                                       const FaultSchedule& schedule,
                                       const FaultExperimentConfig& config)
    : FaultExperimentRun(topology, workload, schedule, config,
                         /*fresh=*/true) {}

FaultExperimentRun::FaultExperimentRun(const BuiltTopology& topology,
                                       const std::vector<FlowSpec>& workload,
                                       const FaultSchedule& schedule,
                                       const FaultExperimentConfig& config,
                                       state::SnapshotReader& r)
    : FaultExperimentRun(topology, workload, schedule, config,
                         /*fresh=*/false) {
  transfer(*this, r);
  check_invariants();
}

template <class Self, class Io>
void FaultExperimentRun::transfer(Self& self, Io& io) {
  constexpr std::string_view kWho = "FaultExperimentRun";
  constexpr std::string_view kBackend =
      "snapshot backend does not match the config";
  const FaultExperimentConfig& config = self.config_;
  const bool has_sampler =
      config.telemetry != nullptr && config.telemetry->sampler().enabled();
  io.open_section("fault_experiment");
  io.echo(config.tailor, kWho,
          "snapshot tailoring mode does not match the config");
  io.echo(static_cast<std::uint8_t>(config.backend.kind), kWho, kBackend);
  io.echo(config.backend.num_shards, kWho, kBackend);
  io.echo(self.flows_submitted_, kWho,
          "snapshot workload size does not match");
  io.echo(config.telemetry != nullptr, kWho,
          "snapshot telemetry attachment does not match");
  io.echo(has_sampler, kWho, "snapshot sampler attachment does not match");
  Seconds now = self.backend_->now();
  std::uint64_t next_seq = self.backend_->control_next_seq();
  io.field(now);
  io.field(next_seq);
  io.field(self.tailoring_.feasible);
  io.field(self.tailoring_.switches_off_fraction);
  io.field(self.tailoring_.powered_on);
  io.field(self.tailoring_.powered_off);
  io.close_section();
  if constexpr (Io::kReading) {
    // Clock first: every component re-registers its pending control events
    // against the restored (now, next_seq) bounds.
    self.backend_->restore_clock(now, next_seq);
    self.backend_->restore_sim(io);
  } else {
    self.backend_->save_sim(io);
  }
  io.field(self.injector_);
  io.field(self.controller_);
  if (config.telemetry != nullptr) {
    io.field(config.telemetry->metrics());
    if (has_sampler) io.field(config.telemetry->sampler());
  }
}

void FaultExperimentRun::save_state(state::SnapshotWriter& w) const {
  transfer(*this, w);
}

void FaultExperimentRun::check_invariants() const {
  backend_->check_invariants();
  controller_.check_invariants();
}

void FaultExperimentRun::wire_telemetry() {
  telemetry::Telemetry* tel = config_.telemetry;
  if (tel == nullptr) return;
  injector_.set_event_log(&tel->events());
  controller_.set_event_log(&tel->events());
  controller_.set_powered_gauge(
      tel->metrics().gauge("faults.powered_switches"));
  if (tel->sampler().enabled()) {
    telemetry::TimeSeriesSampler& sampler = tel->sampler();
    sampler.track("netsim.active_flows");
    sampler.track("netsim.stranded_flows");
    sampler.track("netsim.mean_link_utilization");
    sampler.track("faults.powered_switches");
    sampler.track("faults.fabric_watts");
    // The expensive gauges (O(links) utilization scan) are refreshed only
    // when a row is actually due, then the row is taken. Sampling rides on
    // reallocation events, so it never extends the event horizon.
    backend_->set_load_listener(
        [this, tel, switch_power = config_.switch_power](Seconds now) {
          telemetry::TimeSeriesSampler& s = tel->sampler();
          if (!s.due(now)) return;
          telemetry::MetricRegistry& m = tel->metrics();
          m.gauge("netsim.mean_link_utilization")
              .set(backend_->current_mean_utilization());
          const double powered =
              static_cast<double>(controller_.powered_switches());
          m.gauge("faults.powered_switches").set(powered);
          m.gauge("faults.fabric_watts").set(powered * switch_power.value());
          s.sample(now);
        });
  }
}

FaultExperimentResult FaultExperimentRun::finish() {
  const Seconds end = backend_->now();
  FaultExperimentResult result;
  result.tailoring = tailoring_;
  result.realloc = backend_->realloc_stats();
  result.emergency_wakes = controller_.emergency_wakes();
  result.retailor_passes = controller_.retailor_passes();
  result.powered_at_end = controller_.powered_switches();
  result.end = end;
  result.fct = backend_->fct_stats();

  ResilienceInput input;
  input.flows_submitted = flows_submitted_;
  input.flows_completed = backend_->completed().size();
  input.flows_stranded_at_end = backend_->stranded_flows();
  input.faults_injected = injector_.faults_applied();
  input.flows_rerouted = backend_->realloc_stats().reroutes;
  input.strand_events = backend_->realloc_stats().stranded;
  input.stranded_bit_seconds = backend_->stranded_bit_seconds(end);
  for (const FlowRecord& record : backend_->completed()) {
    input.flow_seconds += record.fct().value();
  }
  input.strand_durations = backend_->strand_durations();
  input.powered_switch_seconds = controller_.powered_switch_seconds(end);
  input.all_on_switch_seconds =
      static_cast<double>(topology_.switches.size()) * end.value();
  input.switch_power = config_.switch_power;
  input.duration = end;
  result.report = build_resilience_report(input);

  telemetry::Telemetry* tel = config_.telemetry;
  if (tel != nullptr) {
    backend_->flush_metrics();
    telemetry::MetricRegistry& m = tel->metrics();
    m.counter("faults.injected").set(injector_.faults_applied());
    m.counter("faults.emergency_wakes").set(result.emergency_wakes);
    m.counter("faults.retailor_passes").set(result.retailor_passes);
    m.gauge("faults.powered_switches")
        .set(static_cast<double>(result.powered_at_end));
    m.gauge("faults.fabric_watts")
        .set(static_cast<double>(result.powered_at_end) *
             config_.switch_power.value());
    m.gauge("faults.powered_switch_seconds")
        .set(input.powered_switch_seconds);
    m.gauge("faults.all_on_switch_seconds").set(input.all_on_switch_seconds);
    m.gauge("faults.energy_vs_baseline")
        .set(input.all_on_switch_seconds > 0.0
                 ? input.powered_switch_seconds / input.all_on_switch_seconds
                 : 1.0);
    m.gauge("faults.stranded_bit_seconds").set(input.stranded_bit_seconds);
  }
  return result;
}

FaultExperimentResult run_fault_experiment(
    const BuiltTopology& topology, const std::vector<FlowSpec>& workload,
    const FaultSchedule& schedule, const FaultExperimentConfig& config) {
  FaultExperimentRun run{topology, workload, schedule, config};
  run.run();
  return run.finish();
}

}  // namespace netpp
