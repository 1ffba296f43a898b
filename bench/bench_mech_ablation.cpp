// Ablation across the paper's §4 mechanism proposals, on one common
// workload: phase-structured ML training traffic over a k=4 fat tree
// (simulated flow-level), evaluated at one edge switch.
//
// The paper proposes these mechanisms but does not evaluate them; this bench
// quantifies them under the paper's own power model, answering the ordering
// questions §4 raises: knobs < rate adaptation < pipeline parking in savings
// depth, global vs per-pipeline clocking, reactive vs predictive parking,
// and what EEE (the historical baseline) still delivers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "netpp/analysis/report.h"
#include "netpp/mech/eee.h"
#include "netpp/mech/knobs.h"
#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/mech/trace_recorder.h"
#include "netpp/sim/sweep.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

namespace {

using namespace netpp;
using namespace netpp::literals;

struct Workbench {
  BuiltTopology topo = build_fat_tree(4, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
  MlTraffic traffic;
  Seconds horizon{8.0};
  NodeId edge;
  LoadTrace agg;    ///< whole-switch load (1 channel)
  LoadTrace pipes;  ///< per-pipeline load (4 channels)

  Workbench() {
    MlTrafficConfig cfg;
    cfg.compute_time = 0.9_s;
    cfg.comm_allowance = 0.1_s;
    cfg.iterations = 8;
    cfg.volume_per_host = Bits::from_gigabits(2.0);
    traffic = make_ml_training_traffic(topo.hosts, cfg);

    edge = topo.graph.nodes_at_tier(1).front();
    NodeLoadRecorder recorder{sim, {edge}};
    sim.set_load_listener(recorder.listener());
    recorder.sample(0.0_s);
    for (const auto& flow : traffic.flows) sim.submit(flow);
    engine.run();
    engine.run_until(horizon);
    agg = recorder.load_trace(edge, 1, horizon);
    pipes = recorder.load_trace(edge, 4, horizon);
  }
};

void print_ablation() {
  netpp::bench::print_banner(
      "Sec. 4 mechanism ablation - ML training traffic, one edge switch");

  const Workbench wb;
  const SwitchPowerModel model;

  // One shared flow-level simulation (the expensive part) feeds every
  // mechanism row; the rows themselves are independent reads of the const
  // Workbench, so they fan out across SweepRunner workers and the table is
  // assembled in row order afterwards.
  RateAdaptConfig ra;
  ra.model = model;
  ParkingConfig pk;
  pk.model = model;
  pk.switch_capacity = Gbps{400.0};  // 4 ports x 100 G at this edge switch
  pk.wake_latency = Seconds::from_milliseconds(1.0);

  const auto rate_adapt = [&](const RateAdaptConfig& config,
                              RateAdaptMode mode) {
    RateAdaptPolicy policy{config, mode};
    return run_mechanism(wb.pipes, policy);
  };

  using Row = std::vector<std::string>;
  const std::vector<std::function<Row()>> row_evals = {
      // Today: everything on, no adaptation.
      [&] {
        const auto none = rate_adapt(ra, RateAdaptMode::kNone);
        return Row{"none (today)", fmt(none.average_power.value(), 1), "0.0%",
                   "none", "10% proportional envelope"};
      },
      // §4.1 knobs: the deployment only needs L2+L3 without deep buffers or
      // telemetry; static gating applies on top of nothing else.
      [&] {
        const auto knobs = RouterComponentModel::reference_router();
        const Watts gated = knobs.power_in_cstate(SwitchCState::kC1LeanRouter,
                                                  GatingQuality::kFixed);
        return Row{
            "power knobs (4.1)", fmt(gated.value(), 1),
            fmt_percent(1.0 - gated.value() / knobs.total_power().value()),
            "none", "static, vs 750 W fully-featured router"};
      },
      // §4.3 rate adaptation.
      [&] {
        const auto global = rate_adapt(ra, RateAdaptMode::kGlobalAsic);
        return Row{"rate adapt, global clock (4.3)",
                   fmt(global.average_power.value(), 1),
                   fmt_percent(global.savings), "none",
                   std::to_string(global.level_transitions) +
                       " clock changes"};
      },
      [&] {
        const auto per_pipe = rate_adapt(ra, RateAdaptMode::kPerPipeline);
        return Row{"rate adapt, per-pipeline (4.3)",
                   fmt(per_pipe.average_power.value(), 1),
                   fmt_percent(per_pipe.savings), "none",
                   "independent clock trees"};
      },
      [&] {
        RateAdaptConfig ra_lanes = ra;
        ra_lanes.lane_steps = {0.25, 0.5, 1.0};
        const auto lanes = rate_adapt(ra_lanes, RateAdaptMode::kPerPipeline);
        return Row{"  + SerDes down-rating (4.3)",
                   fmt(lanes.average_power.value(), 1),
                   fmt_percent(lanes.savings), "none",
                   "lane steps 1/4, 1/2, 1"};
      },
      // §4.4 parking.
      [&] {
        ReactiveParkingPolicy policy{pk};
        const auto reactive = run_mechanism(wb.agg, policy);
        return Row{"pipeline parking, reactive (4.4)",
                   fmt(reactive.average_power.value(), 1),
                   fmt_percent(reactive.savings),
                   to_string(reactive.max_added_delay) + " buf",
                   fmt(reactive.mean_on_components, 2) + " pipelines avg"};
      },
      [&] {
        std::vector<LoadForecast> forecast;
        for (const auto& w : wb.traffic.schedule) {
          forecast.push_back(LoadForecast{w.compute_begin, 0.0});
          forecast.push_back(LoadForecast{w.comm_begin, 1.0});
        }
        PredictiveParkingPolicy policy{pk, std::move(forecast)};
        const auto predictive = run_mechanism(wb.agg, policy);
        return Row{"pipeline parking, predictive (4.4)",
                   fmt(predictive.average_power.value(), 1),
                   fmt_percent(predictive.savings),
                   to_string(predictive.max_added_delay) + " buf",
                   "pre-woken from the job schedule"};
      },
  };

  SweepRunner runner;
  runner.set_progress_callback([](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "\rablation rows: %zu/%zu%s", done, total,
                 done == total ? "\n" : "");
  });
  const auto rows = runner.map<Row>(
      row_evals.size(),
      [&](std::size_t index, Rng&) { return row_evals[index](); });

  Table table{{"Mechanism (Sec.)", "Avg power (W)", "Savings vs today",
               "Latency cost", "Notes"}};
  for (const auto& row : rows) table.add_row(row);
  std::printf("%s", table.to_ascii().c_str());

  // EEE on one transceiver-grade link, for the historical perspective.
  netpp::bench::print_banner(
      "Historical baseline: 802.3az EEE on one 100G link (same ML trace)");
  std::vector<EeeFrame> frames;
  for (const auto& flow : wb.traffic.flows) {
    if (flow.src == wb.topo.hosts[0]) {
      frames.push_back(EeeFrame{flow.start, flow.size});
    }
  }
  EeeConfig eee;
  eee.link_rate = 100_Gbps;
  eee.active_power = 4.0_W;
  const auto eee_result = simulate_eee_link(eee, frames, wb.horizon);
  std::printf(
      "Energy savings: %s | LPI time: %s | mean added delay: %s | wakes: %zu\n\n",
      fmt_percent(eee_result.energy_savings_fraction).c_str(),
      fmt_percent(eee_result.lpi_time_fraction).c_str(),
      to_string(eee_result.mean_added_delay).c_str(),
      eee_result.wake_transitions);
}

void BM_AblationPipeline(benchmark::State& state) {
  const Workbench wb;
  const SwitchPowerModel model;
  RateAdaptConfig ra;
  ra.model = model;
  for (auto _ : state) {
    RateAdaptPolicy policy{ra, RateAdaptMode::kPerPipeline};
    auto r = run_mechanism(wb.pipes, policy);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AblationPipeline);

void BM_FlowSimMlIteration(benchmark::State& state) {
  for (auto _ : state) {
    Workbench wb;
    benchmark::DoNotOptimize(wb.sim.completed().size());
  }
}
BENCHMARK(BM_FlowSimMlIteration);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  return netpp::bench::run_benchmarks(argc, argv);
}
