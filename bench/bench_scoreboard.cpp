// The perf scoreboard runner: measures the fixed scenario suite from
// bench/workloads.h and scores it against reference numbers with the
// scoreboard library (scoreboard.h). Rows and their reference keys:
//
//   solver_capped/100k    <-> scoreboard_solver_capped_100k_ms
//   solver_uncapped/100k  <-> scoreboard_solver_uncapped_100k_ms
//   poisson_e2e/10k       <-> scoreboard_poisson_e2e_10k_ms
//   route_churn/100k      <-> scoreboard_route_churn_100k_ms
//   fault_storm           <-> scoreboard_fault_storm_ms
//   composite_stack       <-> scoreboard_composite_stack_ms
//   sharded_composite_smoke <-> scoreboard_sharded_composite_smoke_ms
//   sharded_1m_smoke      <-> scoreboard_sharded_1m_smoke_ms
//   serve_qps             <-> scoreboard_serve_qps_ms
//   telemetry_idle        absolute gate (< 2%), reference display-only
//   sharded_overhead      absolute gate (< 150%), reference display-only:
//                         100 x (sharded_composite_smoke / composite_stack
//                         - 1), both from the same measure_suite() pass —
//                         the price of the 4-shard barrier loop over the
//                         single backend on one scenario, compared across
//                         paths rather than with its own past
//
// Reference numbers MUST come from this binary (--write-reference in CI,
// --record context injection in tools/record_bench.sh): two binaries
// running the identical source loop differ by up to ~20% from code layout
// and link order alone, which would swamp the 10% gate. The gbench BM_*
// rows in BENCH_flowsim.json are the human-facing record; the scoreboard
// scores only against its own keys.
//
// Each timed row is best-of-N process-CPU time over calibrated ~100 ms hot
// loops — the same statistic on both sides of the ratio. Exits non-zero in
// Release builds when any scored row regresses past its limit (>10% for
// ratio rows). Debug builds report but never enforce.
//
// Flags:
//   --reference=PATH        reference JSON (default: BENCH_flowsim.json,
//                           then ../BENCH_flowsim.json)
//   --rounds=N              best-of rounds per row (default 3)
//   --record                measure the suite and print key=value lines
//                           for tools/record_bench.sh
//   --write-reference=PATH  measure the suite and write a reference JSON
//                           (gbench schema) for tools/check_scoreboard.cmake
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "netpp/mech/composite.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/serve/engine.h"
#include "netpp/topo/route_cache.h"
#include "netpp/topo/routing.h"
#include "scoreboard.h"
#include "workloads.h"

namespace {

using namespace netpp;

double cpu_now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Best-of-`rounds` per-iteration CPU time in ms. Each round is a hot loop
/// of enough repetitions to run ~100 ms — the same shape as the
/// --benchmark_min_time=0.1 google-benchmark runs that produce the
/// reference numbers, so the per-iteration means are directly comparable;
/// best-of-rounds then guards against scheduler noise inflating a round.
double best_of_ms(int rounds, const std::function<void()>& body) {
  body();  // warm-up: allocator, caches, lazy statics
  double start = cpu_now_ms();
  body();
  const double once = cpu_now_ms() - start;
  const int reps =
      once >= 100.0 ? 1 : static_cast<int>(100.0 / (once > 0.01 ? once : 0.01)) + 1;
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    start = cpu_now_ms();
    for (int i = 0; i < reps; ++i) body();
    const double elapsed = (cpu_now_ms() - start) / reps;
    if (elapsed < best) best = elapsed;
  }
  return best;
}

double measure_solver(int rounds, double cap_bps) {
  const auto snap = bench::make_solver_snapshot(100000, cap_bps);
  return best_of_ms(rounds, [&] {
    auto rates = max_min_fair_rates(snap.flows, snap.capacities);
    benchmark::DoNotOptimize(rates);
  });
}

double measure_poisson(int rounds) {
  const auto flows = bench::make_poisson_workload(10000);
  return best_of_ms(rounds, [&] {
    const auto run = bench::run_poisson_workload(flows);
    benchmark::DoNotOptimize(run.completed);
  });
}

double measure_route_churn(int rounds) {
  const auto& topo = bench::pod_topology();
  const auto pairs = bench::make_host_pairs(100000);
  Router router{topo.graph};
  RouteCache cache{router, RouteCache::Config{}};
  // The cache persists across rounds like it does across benchmark
  // iterations: after the warm-up pass every lookup is a hash probe.
  return best_of_ms(rounds, [&] {
    std::size_t hops = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto path = cache.route(pairs[i].first, pairs[i].second, i);
      hops += path ? path->hops() : 0;
    }
    benchmark::DoNotOptimize(hops);
  });
}

double measure_fault_storm(int rounds) {
  const bench::FaultScenario s = bench::make_fault_scenario();
  const FaultSchedule schedule =
      bench::make_fault_schedule(s, 5.0, 0.5, bench::kFaultSeed + 2);
  return best_of_ms(rounds, [&] {
    auto result = bench::run_fault_storm(s, schedule);
    benchmark::DoNotOptimize(result);
  });
}

double measure_composite_stack(int rounds) {
  const bench::CompositeScenario sc = bench::make_composite_scenario(2.0);
  return best_of_ms(rounds, [&] {
    const CompositeReport report =
        run_composite(sc.topo, sc.workload, sc.demands, sc.horizon, sc.config);
    benchmark::DoNotOptimize(report.combined_savings);
  });
}

// The composite stack on the sharded backend: same scenario as
// composite_stack but the workload runs through the 4-shard barrier loop
// with per-pod power domains, pricing the backend seam plus the
// shard-merge overhead.
double measure_sharded_composite(int rounds) {
  bench::CompositeScenario sc = bench::make_composite_scenario(2.0);
  sc.config.backend.kind = BackendKind::kSharded;
  sc.config.backend.num_shards = 4;
  return best_of_ms(rounds, [&] {
    const CompositeReport report =
        run_composite(sc.topo, sc.workload, sc.demands, sc.horizon, sc.config);
    benchmark::DoNotOptimize(report.combined_savings);
  });
}

// The sharded_overhead row: what the 4-shard backend costs over the single
// one on the composite scenario, in percent. Both times must come from the
// same pass so host noise hits the two sides alike.
constexpr double kShardedOverheadGatePct = 150.0;

double sharded_overhead_pct(double sharded_ms, double single_ms) {
  return 100.0 * (sharded_ms / single_ms - 1.0);
}

// CI-sized cut of the bench_flowsim_sharded 1M gate: the same standing-
// population scenario at 50k flows, run through the 2-shard barrier loop.
double measure_sharded_smoke(int rounds) {
  const auto flows = bench::make_sharded_workload(
      bench::kShardedSmokeFlows, bench::kShardedSmokeCompleting);
  return best_of_ms(rounds, [&] {
    const auto run = bench::run_sharded_workload(flows, 2);
    benchmark::DoNotOptimize(run.completed);
  });
}

// The warm serving hot path behind netpp_serve: a persistent QueryEngine
// answering a fixed 16-query what-if batch every iteration. The baselines
// and composite caches warm up on the first pass; the steady state this row
// prices is what a long-running server actually spends per batch — fault-
// baseline forks + replays, composite-cache hits, and result rendering
// (result_cache off so every answer is recomputed).
double measure_serve_qps(int rounds) {
  serve::QueryEngine engine{serve::EngineConfig{.result_cache = false}};
  const char* const queries[] = {
      R"({"command":"faults","seed":7,"output":"csv"})",
      R"({"command":"faults","seed":7,"output":"table"})",
      R"({"command":"faults","seed":7,"output":"metrics"})",
      R"({"command":"faults","seed":7,"backend":"sharded","shards":2,"output":"csv"})",
      R"({"command":"mech","iters":2,"output":"csv"})",
      R"({"command":"mech","stack":"dynamic","iters":2,"output":"csv"})",
      R"({"command":"mech","stack":"tailor","iters":2,"output":"csv"})",
      R"({"command":"mech","stack":"park","iters":2,"output":"csv"})",
      R"({"command":"mech","stack":"rate","iters":2,"output":"csv"})",
      R"({"command":"mech","iters":2,"ocs":2,"output":"csv"})",
      R"({"command":"mech","iters":2,"ocs":8,"output":"csv"})",
      R"({"command":"mech","iters":2,"pod_budget_w":500,"core_budget_w":200,"output":"csv"})",
      R"({"command":"mech","iters":2,"output":"table"})",
      R"({"command":"savings","prop":0.85,"output":"csv"})",
      R"({"command":"cluster","gpus":8192,"output":"csv"})",
      R"({"command":"cluster","output":"table"})",
  };
  serve::JsonValue batch = serve::JsonValue::make_array();
  for (const char* q : queries) batch.push_back(serve::parse_json(q));
  return best_of_ms(rounds, [&] {
    const serve::JsonValue responses = engine.handle(batch);
    benchmark::DoNotOptimize(responses.as_array().size());
  });
}

/// One measurement of every suite row, in a fixed order. Both sides of
/// every gate ratio come from this function (in different processes of the
/// same binary), so the statistic and the code layout match by construction.
struct SuiteMeasurements {
  double solver_capped_ms;
  double solver_uncapped_ms;
  double poisson_ms;
  double route_churn_ms;
  double fault_storm_ms;
  double composite_stack_ms;
  double sharded_composite_ms;
  double sharded_smoke_ms;
  double serve_qps_ms;
  double telemetry_idle_pct;
  double sharded_overhead_pct;
};

SuiteMeasurements measure_suite(int rounds) {
  SuiteMeasurements m{};
  m.solver_capped_ms = measure_solver(rounds, 25e9);
  m.solver_uncapped_ms = measure_solver(rounds, 0.0);
  m.poisson_ms = measure_poisson(rounds);
  m.route_churn_ms = measure_route_churn(rounds);
  m.fault_storm_ms = measure_fault_storm(rounds);
  m.composite_stack_ms = measure_composite_stack(rounds);
  m.sharded_composite_ms = measure_sharded_composite(rounds);
  m.sharded_smoke_ms = measure_sharded_smoke(rounds);
  m.serve_qps_ms = measure_serve_qps(rounds);
  m.telemetry_idle_pct = bench::measure_idle_overhead_pct(rounds);
  m.sharded_overhead_pct =
      sharded_overhead_pct(m.sharded_composite_ms, m.composite_stack_ms);
  return m;
}

constexpr const char* kBuildType =
#ifdef NDEBUG
    "release";
#else
    "debug";
#endif

/// Writes the suite as a reference JSON in the google-benchmark schema the
/// scoreboard parser reads: scoreboard keys as benchmark entries, build
/// type and the two absolute-gate percentages as context.
bool write_reference(const std::string& path, const SuiteMeasurements& m) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\n"
               "  \"context\": {\n"
               "    \"netpp_build_type\": \"%s\",\n"
               "    \"telemetry_idle_overhead_pct\": %.3f,\n"
               "    \"sharded_overhead_pct\": %.3f\n"
               "  },\n"
               "  \"benchmarks\": [\n",
               kBuildType, m.telemetry_idle_pct, m.sharded_overhead_pct);
  const struct { const char* key; double ms; } rows[] = {
      {"scoreboard_solver_capped_100k_ms", m.solver_capped_ms},
      {"scoreboard_solver_uncapped_100k_ms", m.solver_uncapped_ms},
      {"scoreboard_poisson_e2e_10k_ms", m.poisson_ms},
      {"scoreboard_route_churn_100k_ms", m.route_churn_ms},
      {"scoreboard_fault_storm_ms", m.fault_storm_ms},
      {"scoreboard_composite_stack_ms", m.composite_stack_ms},
      {"scoreboard_sharded_composite_smoke_ms", m.sharded_composite_ms},
      {"scoreboard_sharded_1m_smoke_ms", m.sharded_smoke_ms},
      {"scoreboard_serve_qps_ms", m.serve_qps_ms},
  };
  const std::size_t n = sizeof rows / sizeof rows[0];
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"run_type\": \"iteration\","
                 " \"iterations\": 1, \"real_time\": %.6f,"
                 " \"cpu_time\": %.6f, \"time_unit\": \"ms\"}%s\n",
                 rows[i].key, rows[i].ms, rows[i].ms,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  return std::fclose(out) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string reference_path;
  std::string write_reference_path;
  int rounds = 3;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reference=", 12) == 0) {
      reference_path = arg + 12;
    } else if (std::strncmp(arg, "--write-reference=", 18) == 0) {
      write_reference_path = arg + 18;
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      rounds = std::atoi(arg + 9);
      if (rounds < 1) rounds = 1;
    } else if (std::strcmp(arg, "--record") == 0) {
      record = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--reference=PATH] [--rounds=N] [--record]"
                   " [--write-reference=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  if (record || !write_reference_path.empty()) {
    const SuiteMeasurements m = measure_suite(rounds);
    if (!write_reference_path.empty()) {
      if (!write_reference(write_reference_path, m)) {
        std::fprintf(stderr, "cannot write reference %s\n",
                     write_reference_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote reference %s (%s build)\n",
                   write_reference_path.c_str(), kBuildType);
    }
    if (record) {
      // Machine-readable rows for record_bench.sh to inject as
      // --benchmark_context into BENCH_flowsim.json.
      std::printf("scoreboard_solver_capped_100k_ms=%.3f\n",
                  m.solver_capped_ms);
      std::printf("scoreboard_solver_uncapped_100k_ms=%.3f\n",
                  m.solver_uncapped_ms);
      std::printf("scoreboard_poisson_e2e_10k_ms=%.3f\n", m.poisson_ms);
      std::printf("scoreboard_route_churn_100k_ms=%.3f\n", m.route_churn_ms);
      std::printf("scoreboard_fault_storm_ms=%.3f\n", m.fault_storm_ms);
      std::printf("scoreboard_composite_stack_ms=%.3f\n",
                  m.composite_stack_ms);
      std::printf("scoreboard_sharded_composite_smoke_ms=%.3f\n",
                  m.sharded_composite_ms);
      std::printf("scoreboard_sharded_1m_smoke_ms=%.3f\n", m.sharded_smoke_ms);
      std::printf("scoreboard_serve_qps_ms=%.3f\n", m.serve_qps_ms);
      std::printf("sharded_overhead_pct=%.3f\n", m.sharded_overhead_pct);
    }
    return 0;
  }

  netpp::bench::print_banner(
      "Perf scoreboard - fixed scenario suite vs reference scores");

  bench::ReferenceScores ref;
  if (!reference_path.empty()) {
    ref = bench::load_reference_scores(reference_path);
  } else {
    for (const char* candidate :
         {"BENCH_flowsim.json", "../BENCH_flowsim.json"}) {
      ref = bench::load_reference_scores(candidate);
      if (ref.loaded) break;
    }
  }

  const SuiteMeasurements m = measure_suite(rounds);
  const auto ratio_row = [](const char* name, const char* key,
                            double measured) {
    bench::ScoreRow row;
    row.name = name;
    row.reference_key = key;
    row.measured = measured;
    return row;
  };
  std::vector<bench::ScoreRow> rows;
  rows.push_back(ratio_row("solver_capped/100k",
                           "scoreboard_solver_capped_100k_ms",
                           m.solver_capped_ms));
  rows.push_back(ratio_row("solver_uncapped/100k",
                           "scoreboard_solver_uncapped_100k_ms",
                           m.solver_uncapped_ms));
  rows.push_back(ratio_row("poisson_e2e/10k", "scoreboard_poisson_e2e_10k_ms",
                           m.poisson_ms));
  rows.push_back(ratio_row("route_churn/100k",
                           "scoreboard_route_churn_100k_ms",
                           m.route_churn_ms));
  rows.push_back(ratio_row("fault_storm", "scoreboard_fault_storm_ms",
                           m.fault_storm_ms));
  rows.push_back(ratio_row("composite_stack", "scoreboard_composite_stack_ms",
                           m.composite_stack_ms));
  rows.push_back(ratio_row("sharded_composite_smoke",
                           "scoreboard_sharded_composite_smoke_ms",
                           m.sharded_composite_ms));
  rows.push_back(ratio_row("sharded_1m_smoke",
                           "scoreboard_sharded_1m_smoke_ms",
                           m.sharded_smoke_ms));
  rows.push_back(ratio_row("serve_qps", "scoreboard_serve_qps_ms",
                           m.serve_qps_ms));
  {
    bench::ScoreRow telemetry;
    telemetry.name = "telemetry_idle";
    telemetry.reference_key = "telemetry_idle_overhead_pct";
    telemetry.kind = bench::RowKind::kAbsolutePct;
    telemetry.measured = m.telemetry_idle_pct;
    telemetry.limit = bench::kTelemetryIdleGatePct;
    rows.push_back(std::move(telemetry));
  }
  {
    bench::ScoreRow overhead;
    overhead.name = "sharded_overhead";
    overhead.reference_key = "sharded_overhead_pct";
    overhead.kind = bench::RowKind::kAbsolutePct;
    overhead.measured = m.sharded_overhead_pct;
    overhead.limit = kShardedOverheadGatePct;
    rows.push_back(std::move(overhead));
  }

  // Adaptive re-measurement: host noise on a shared runner is bursty at
  // second scale, so one burst can inflate every round of a single row.
  // Re-measuring only the failing rows and keeping the min converges each
  // suspect row to its true floor; a real regression fails every pass,
  // since its floor genuinely sits past the limit.
  const std::function<double(int)> remeasure[] = {
      [](int r) { return measure_solver(r, 25e9); },
      [](int r) { return measure_solver(r, 0.0); },
      [](int r) { return measure_poisson(r); },
      [](int r) { return measure_route_churn(r); },
      [](int r) { return measure_fault_storm(r); },
      [](int r) { return measure_composite_stack(r); },
      [](int r) { return measure_sharded_composite(r); },
      [](int r) { return measure_sharded_smoke(r); },
      [](int r) { return measure_serve_qps(r); },
      [](int r) { return bench::measure_idle_overhead_pct(r); },
      [](int r) {
        const double single_ms = measure_composite_stack(r);
        return sharded_overhead_pct(measure_sharded_composite(r), single_ms);
      },
  };
  bench::ScoreboardReport report = bench::score_rows(rows, ref);
  for (int pass = 0; pass < 4 && report.failures > 0; ++pass) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!report.rows[i].failed()) continue;
      std::fprintf(stderr, "re-measuring %s (pass %d)...\n",
                   rows[i].name.c_str(), pass + 1);
      rows[i].measured = std::min(rows[i].measured, remeasure[i](rounds));
    }
    report = bench::score_rows(rows, ref);
  }
  std::printf("%s\n", report.table.c_str());
  if (!ref.loaded) {
    std::printf(
        "NOTE: no readable reference (%s) - ratio rows unscored; pass\n"
        "--reference=PATH or regenerate with tools/record_bench.sh.\n\n",
        reference_path.empty() ? "BENCH_flowsim.json" : ref.path.c_str());
  } else if (!ref.release_reference()) {
    std::printf(
        "NOTE: reference %s was not recorded from a Release build - ratio\n"
        "rows unscored (Debug numbers are meaningless; see bench/README.md)."
        "\n\n",
        ref.path.c_str());
  }
  std::printf("scored %d, unscored %d, over-limit %d (best-of-%d rounds)\n",
              report.scored, report.unscored, report.failures, rounds);

#ifdef NDEBUG
  const bool enforce = true;
#else
  const bool enforce = false;
  std::printf("NOTE: debug build - gate reported but not enforced.\n");
#endif
  if (enforce && report.failures > 0) {
    std::fprintf(stderr, "FAIL: %d scoreboard row(s) regressed past limit\n",
                 report.failures);
    return 1;
  }
  return 0;
}
