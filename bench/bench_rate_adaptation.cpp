// §4.3 design-space sweep: rate adaptation savings as a function of load
// level and load skew, contrasting today's global ASIC clock against the
// paper's per-pipeline clocking, with and without SerDes down-rating.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "netpp/analysis/report.h"
#include "netpp/mech/downrate.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/sim/sweep.h"

namespace {

using namespace netpp;

LoadTrace skewed_trace(double mean_load, double skew, int pipes) {
  // Pipeline 0 carries mean*(1+3*skew); others share the rest evenly; a
  // skew of 0 is uniform, 1 concentrates everything on pipeline 0.
  LoadTrace trace;
  trace.times = {Seconds{0.0}};
  std::vector<double> loads(pipes, 0.0);
  const double hot = std::min(1.0, mean_load * (1.0 + 3.0 * skew));
  loads[0] = hot;
  const double rest = (mean_load * pipes - hot) / (pipes - 1);
  for (int p = 1; p < pipes; ++p) loads[p] = std::max(0.0, rest);
  trace.loads = {loads};
  trace.end = Seconds{10.0};
  return trace;
}

MechanismReport run_rate_adapt(const LoadTrace& trace,
                               const RateAdaptConfig& cfg,
                               RateAdaptMode mode) {
  RateAdaptPolicy policy{cfg, mode};
  return run_mechanism(trace, policy);
}

void print_sweep() {
  netpp::bench::print_banner(
      "Sec. 4.3: rate adaptation - global vs per-pipeline clocking");

  const SwitchPowerModel model;
  RateAdaptConfig cfg;
  cfg.model = model;
  RateAdaptConfig cfg_lanes = cfg;
  cfg_lanes.lane_steps = {0.25, 0.5, 1.0};

  // Flatten the load x skew grid into a scenario list and fan it out;
  // each cell evaluates all three clocking modes on one worker.
  struct GridPoint {
    double load, skew;
  };
  std::vector<GridPoint> grid;
  for (double load : {0.05, 0.10, 0.25, 0.50}) {
    for (double skew : {0.0, 0.5, 1.0}) {
      grid.push_back({load, skew});
    }
  }
  struct GridResult {
    MechanismReport global, per_pipe, lanes;
  };
  SweepRunner runner;
  const auto cells = runner.map<GridResult>(
      grid.size(), [&](std::size_t index, Rng&) {
        const auto trace = skewed_trace(grid[index].load, grid[index].skew,
                                        model.config().num_pipelines);
        return GridResult{
            run_rate_adapt(trace, cfg, RateAdaptMode::kGlobalAsic),
            run_rate_adapt(trace, cfg, RateAdaptMode::kPerPipeline),
            run_rate_adapt(trace, cfg_lanes, RateAdaptMode::kPerPipeline)};
      });

  Table table{{"Mean load", "Skew", "Global clock", "Per-pipeline",
               "Per-pipeline + lanes"}};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({fmt_percent(grid[i].load, 0), fmt(grid[i].skew, 1),
                   fmt_percent(cells[i].global.savings),
                   fmt_percent(cells[i].per_pipe.savings),
                   fmt_percent(cells[i].lanes.savings)});
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "Reading: with skewed load, one hot pipeline pins the global clock\n"
      "high, so per-pipeline clocking (the paper's proposal) wins; SerDes\n"
      "down-rating adds the port-side share on top (Sec. 4.3).\n\n");
}

void print_downrating() {
  netpp::bench::print_banner(
      "Sec. 4.3 on ISP links: down-rating a 400G backbone link over a day");

  // Compressed diurnal utilization of one link: samples every "10 minutes",
  // sinusoid between 8% (night) and 55% (evening peak).
  LoadTrace trace;
  const double day = 86400.0;
  for (double t = 0.0; t < day; t += 600.0) {
    const double hour = t / 3600.0;
    const double load =
        0.315 + 0.235 * std::cos((hour - 20.0) / 24.0 * 2.0 * 3.14159265);
    trace.times.push_back(Seconds{t});
    trace.loads.push_back({load});
  }
  trace.end = Seconds{day};

  const std::vector<double> effs = {1.0, 0.5, 0.2, 0.0};
  struct DownrateRun {
    MechanismReport report;
    Seconds violation_time;
  };
  SweepRunner runner;
  const auto results = runner.map<DownrateRun>(
      effs.size(), [&](std::size_t index, Rng&) {
        DownrateConfig cfg;
        cfg.gating_effectiveness = effs[index];
        cfg.down_dwell = Seconds{1800.0};
        DownratePolicy policy{cfg};
        MechanismReport report = run_mechanism(trace, policy);
        return DownrateRun{std::move(report), policy.violation_time()};
      });

  Table table{{"Gating effectiveness", "Savings", "Mean speed",
               "Transitions", "Violations"}};
  for (std::size_t i = 0; i < effs.size(); ++i) {
    const auto& report = results[i].report;
    table.add_row({fmt_percent(effs[i], 0), fmt_percent(report.savings),
                   fmt(report.mean_level, 0) + "G",
                   std::to_string(report.level_transitions),
                   fmt(results[i].violation_time.value(), 1) + " s"});
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "Down-rating follows the diurnal trough; how much it saves depends\n"
      "entirely on how much hardware the lower speed actually powers off -\n"
      "the paper's \"savings are limited\" observation as a knob.\n\n");
}

void BM_GlobalAdaptation(benchmark::State& state) {
  const SwitchPowerModel model;
  RateAdaptConfig cfg;
  cfg.model = model;
  const auto trace = skewed_trace(0.25, 0.5, model.config().num_pipelines);
  for (auto _ : state) {
    auto r = run_rate_adapt(trace, cfg, RateAdaptMode::kGlobalAsic);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GlobalAdaptation);

void BM_PerPipelineAdaptation(benchmark::State& state) {
  const SwitchPowerModel model;
  RateAdaptConfig cfg;
  cfg.model = model;
  const auto trace = skewed_trace(0.25, 0.5, model.config().num_pipelines);
  for (auto _ : state) {
    auto r = run_rate_adapt(trace, cfg, RateAdaptMode::kPerPipeline);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PerPipelineAdaptation);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  print_downrating();
  return netpp::bench::run_benchmarks(argc, argv);
}
