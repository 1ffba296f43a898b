// §4.4 design-space sweep: pipeline parking savings vs the latency/loss
// cost, across wake latencies and policies (reactive thresholds vs
// schedule-driven predictive). Answers the paper's "which pipeline to turn
// off, and when?" question quantitatively under its own power model.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "netpp/analysis/report.h"
#include "netpp/mech/parking.h"
#include "netpp/sim/sweep.h"

namespace {

using namespace netpp;
using namespace netpp::literals;

/// ML-phase trace: mostly idle with a communication burst each iteration.
/// Burst intensity cycles through 0.3 / 0.6 / 0.9 so threshold choices
/// actually matter (real collectives vary in size across iterations).
LoadTrace ml_trace(int iterations) {
  LoadTrace trace;
  const double bursts[] = {0.3, 0.6, 0.9};
  for (int k = 0; k < iterations; ++k) {
    trace.times.push_back(Seconds{k * 1.0});
    trace.loads.push_back({0.0});
    trace.times.push_back(Seconds{k * 1.0 + 0.9});
    trace.loads.push_back({bursts[k % 3]});
  }
  trace.end = Seconds{static_cast<double>(iterations)};
  return trace;
}

std::vector<LoadForecast> ml_forecast(int iterations) {
  std::vector<LoadForecast> forecast;
  const double bursts[] = {0.3, 0.6, 0.9};
  for (int k = 0; k < iterations; ++k) {
    forecast.push_back(LoadForecast{Seconds{k * 1.0}, 0.0});
    forecast.push_back(LoadForecast{Seconds{k * 1.0 + 0.9}, bursts[k % 3]});
  }
  return forecast;
}

MechanismReport run_reactive(const LoadTrace& trace,
                             const ParkingConfig& cfg) {
  ReactiveParkingPolicy policy{cfg};
  return run_mechanism(trace, policy);
}

MechanismReport run_predictive(const LoadTrace& trace,
                               const std::vector<LoadForecast>& forecast,
                               const ParkingConfig& cfg) {
  PredictiveParkingPolicy policy{cfg, forecast};
  return run_mechanism(trace, policy);
}

void print_sweep() {
  netpp::bench::print_banner(
      "Sec. 4.4: parking policy sweep - ML phase trace (90% idle)");

  const auto trace = ml_trace(10);
  const auto forecast = ml_forecast(10);

  // Scenario fan-out: each wake latency evaluates both policies on one
  // SweepRunner worker; rows print in scenario order regardless of which
  // worker finishes first.
  const std::vector<double> wake_ms_values = {0.0, 0.1, 1.0, 10.0, 50.0};
  struct PolicyPair {
    MechanismReport reactive;
    MechanismReport predictive;
  };
  SweepRunner runner;
  const auto scenarios = runner.map<PolicyPair>(
      wake_ms_values.size(), [&](std::size_t index, Rng&) {
        ParkingConfig cfg;
        cfg.model = SwitchPowerModel{};
        cfg.wake_latency = Seconds::from_milliseconds(wake_ms_values[index]);
        return PolicyPair{run_reactive(trace, cfg),
                          run_predictive(trace, forecast, cfg)};
      });

  Table table{{"Policy", "Wake latency", "Savings", "Max buffered",
               "Max added delay", "Dropped"}};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const double wake_ms = wake_ms_values[i];
    const auto& reactive = scenarios[i].reactive;
    table.add_row({"reactive", fmt(wake_ms, 1) + " ms",
                   fmt_percent(reactive.savings),
                   fmt(reactive.max_buffered.value() / 8e6, 2) + " MB",
                   to_string(reactive.max_added_delay),
                   fmt(reactive.dropped.value() / 8e6, 2) + " MB"});

    const auto& predictive = scenarios[i].predictive;
    table.add_row({"predictive", fmt(wake_ms, 1) + " ms",
                   fmt_percent(predictive.savings),
                   fmt(predictive.max_buffered.value() / 8e6, 2) + " MB",
                   to_string(predictive.max_added_delay),
                   fmt(predictive.dropped.value() / 8e6, 2) + " MB"});
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "Reactive parking pays for wake latency with buffering (and loss when\n"
      "the circuit-switch buffer overflows); the predictive policy exploits\n"
      "the ML schedule to pre-wake and avoids both (Sec. 4.4).\n\n");

  netpp::bench::print_banner("Threshold sensitivity (reactive, 1 ms wake)");
  struct Band {
    double hi, lo;
  };
  const std::vector<Band> bands = {
      {0.95, 0.80}, {0.85, 0.60}, {0.70, 0.40}, {0.50, 0.20}};
  const auto band_results = runner.map<MechanismReport>(
      bands.size(), [&](std::size_t index, Rng&) {
        ParkingConfig cfg;
        cfg.model = SwitchPowerModel{};
        cfg.wake_latency = Seconds::from_milliseconds(1.0);
        cfg.hi_threshold = bands[index].hi;
        cfg.lo_threshold = bands[index].lo;
        return run_reactive(trace, cfg);
      });

  Table thresh{{"hi/lo thresholds", "Savings", "Wakes", "Parks",
                "Mean active pipelines"}};
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const auto& result = band_results[i];
    thresh.add_row({fmt(bands[i].hi, 2) + "/" + fmt(bands[i].lo, 2),
                    fmt_percent(result.savings),
                    std::to_string(result.wake_transitions),
                    std::to_string(result.park_transitions),
                    fmt(result.mean_on_components, 2)});
  }
  std::printf("%s", thresh.to_ascii().c_str());
}

void BM_ReactiveParking(benchmark::State& state) {
  const auto trace = ml_trace(10);
  ParkingConfig cfg;
  cfg.model = SwitchPowerModel{};
  for (auto _ : state) {
    auto result = run_reactive(trace, cfg);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ReactiveParking);

void BM_PredictiveParking(benchmark::State& state) {
  const auto trace = ml_trace(10);
  const auto forecast = ml_forecast(10);
  ParkingConfig cfg;
  cfg.model = SwitchPowerModel{};
  for (auto _ : state) {
    auto result = run_predictive(trace, forecast, cfg);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PredictiveParking);

}  // namespace

int main(int argc, char** argv) {
  print_sweep();
  return netpp::bench::run_benchmarks(argc, argv);
}
