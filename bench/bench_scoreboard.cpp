// The perf scoreboard runner: measures the fixed scenario suite from
// bench/workloads.h and scores it against reference numbers with the
// scoreboard library (scoreboard.h). kSuite below is the one row table:
// each row's table name, reference key, kind, limit and measure function.
// Everything else (the suite pass, --record, --write-reference, the scored
// rows and the re-measure passes) walks it.
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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
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

double measure_solver_capped(int rounds) {
  return measure_solver(rounds, 25e9);
}

double measure_solver_uncapped(int rounds) {
  return measure_solver(rounds, 0.0);
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
  RouteCache cache{router};
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

/// One measurement pass: each scenario is timed at most once, so a row
/// derived from other rows' times (sharded_overhead) reads the very times
/// its pass took for them, and host noise hits both sides alike.
class Pass {
 public:
  explicit Pass(int rounds) : rounds_(rounds) {}

  double time(double (*measure)(int rounds)) {
    const auto [it, fresh] = times_.try_emplace(measure, 0.0);
    if (fresh) it->second = measure(rounds_);
    return it->second;
  }

 private:
  int rounds_;
  std::map<double (*)(int), double> times_;
};

/// A row timed by a scenario of its own.
template <double (*Measure)(int rounds)>
double timed(Pass& pass) {
  return pass.time(Measure);
}

/// The sharded_overhead row: what the 4-shard backend costs over the single
/// one on the composite scenario, in percent — the price of the barrier
/// loop, compared across paths rather than with its own past.
double sharded_overhead_pct(Pass& pass) {
  const double single_ms = pass.time(measure_composite_stack);
  return 100.0 * (pass.time(measure_sharded_composite) / single_ms - 1.0);
}

struct SuiteRow {
  const char* name;  // shown in the table
  const char* key;   // benchmark name or context key in the reference
  bench::RowKind kind;
  double limit;  // ratio cap (kRatio) or percent cap (kAbsolutePct)
  /// ms per iteration (kRatio) or a percentage (kAbsolutePct).
  double (*measure)(Pass& pass);
  /// Printed by --record. telemetry_idle's context value is recorded from
  /// bench_telemetry_overhead instead (tools/record_bench.sh).
  bool record = true;
};

constexpr auto kRatio = bench::RowKind::kRatio;
constexpr auto kPct = bench::RowKind::kAbsolutePct;
constexpr double kRatioLimit = bench::kScoreboardFailRatio;

/// The suite, in table order. Ratio rows gate measured/reference (the
/// reference is written as a benchmark entry); absolute rows gate their
/// percentage alone (the reference is a display-only context value).
constexpr SuiteRow kSuite[] = {
    {"solver_capped/100k", "scoreboard_solver_capped_100k_ms", kRatio,
     kRatioLimit, timed<measure_solver_capped>},
    {"solver_uncapped/100k", "scoreboard_solver_uncapped_100k_ms", kRatio,
     kRatioLimit, timed<measure_solver_uncapped>},
    {"poisson_e2e/10k", "scoreboard_poisson_e2e_10k_ms", kRatio, kRatioLimit,
     timed<measure_poisson>},
    {"route_churn/100k", "scoreboard_route_churn_100k_ms", kRatio,
     kRatioLimit, timed<measure_route_churn>},
    {"fault_storm", "scoreboard_fault_storm_ms", kRatio, kRatioLimit,
     timed<measure_fault_storm>},
    {"composite_stack", "scoreboard_composite_stack_ms", kRatio, kRatioLimit,
     timed<measure_composite_stack>},
    {"sharded_composite_smoke", "scoreboard_sharded_composite_smoke_ms",
     kRatio, kRatioLimit, timed<measure_sharded_composite>},
    {"sharded_1m_smoke", "scoreboard_sharded_1m_smoke_ms", kRatio,
     kRatioLimit, timed<measure_sharded_smoke>},
    {"serve_qps", "scoreboard_serve_qps_ms", kRatio, kRatioLimit,
     timed<measure_serve_qps>},
    {"telemetry_idle", "telemetry_idle_overhead_pct", kPct,
     bench::kTelemetryIdleGatePct, timed<bench::measure_idle_overhead_pct>,
     /*record=*/false},
    {"sharded_overhead", "sharded_overhead_pct", kPct, 150.0,
     sharded_overhead_pct},
};

/// One measurement of every row, in table order. Both sides of every gate
/// ratio come from this function (in different processes of the same
/// binary), so the statistic and the code layout match by construction.
std::vector<bench::ScoreRow> measure_suite(int rounds) {
  Pass pass{rounds};
  std::vector<bench::ScoreRow> rows;
  for (const SuiteRow& s : kSuite) {
    rows.push_back({.name = s.name,
                    .reference_key = s.key,
                    .kind = s.kind,
                    .measured = s.measure(pass),
                    .limit = s.limit});
  }
  return rows;
}

constexpr const char* kBuildType =
#ifdef NDEBUG
    "release";
#else
    "debug";
#endif

/// Writes the suite as a reference JSON in the google-benchmark schema the
/// scoreboard parser reads: ratio rows as benchmark entries, the build type
/// and the absolute rows' percentages as context.
bool write_reference(const std::string& path,
                     const std::vector<bench::ScoreRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"context\": {\n    \"netpp_build_type\": \"%s\"",
               kBuildType);
  for (const bench::ScoreRow& row : rows) {
    if (row.kind != kPct) continue;
    std::fprintf(out, ",\n    \"%s\": %.3f", row.reference_key.c_str(),
                 row.measured);
  }
  std::fprintf(out, "\n  },\n  \"benchmarks\": [\n");
  const char* separator = "";
  for (const bench::ScoreRow& row : rows) {
    if (row.kind != kRatio) continue;
    std::fprintf(out,
                 "%s    {\"name\": \"%s\", \"run_type\": \"iteration\","
                 " \"iterations\": 1, \"real_time\": %.6f,"
                 " \"cpu_time\": %.6f, \"time_unit\": \"ms\"}",
                 separator, row.reference_key.c_str(), row.measured,
                 row.measured);
    separator = ",\n";
  }
  std::fprintf(out, "\n  ]\n}\n");
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
    const std::vector<bench::ScoreRow> rows = measure_suite(rounds);
    if (!write_reference_path.empty()) {
      if (!write_reference(write_reference_path, rows)) {
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
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!kSuite[i].record) continue;
        std::printf("%s=%.3f\n", rows[i].reference_key.c_str(),
                    rows[i].measured);
      }
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

  std::vector<bench::ScoreRow> rows = measure_suite(rounds);

  // Adaptive re-measurement: host noise on a shared runner is bursty at
  // second scale, so one burst can inflate every round of a single row.
  // Re-measuring only the failing rows and keeping the min converges each
  // suspect row to its true floor; a real regression fails every pass,
  // since its floor genuinely sits past the limit.
  bench::ScoreboardReport report = bench::score_rows(rows, ref);
  for (int attempt = 0; attempt < 4 && report.failures > 0; ++attempt) {
    Pass pass{rounds};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!report.rows[i].failed()) continue;
      std::fprintf(stderr, "re-measuring %s (pass %d)...\n",
                   rows[i].name.c_str(), attempt + 1);
      rows[i].measured = std::min(rows[i].measured, kSuite[i].measure(pass));
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
