// netpp command-line interface: the paper's analyses as a shell tool, with
// ASCII or CSV output for scripting and plotting.
//
//   netpp_cli cluster [--gpus N] [--gbps B] [--ratio R] [--prop P]
//   netpp_cli table3 [--csv]
//   netpp_cli fig3 [--csv]
//   netpp_cli fig4 [--csv]
//   netpp_cli savings --prop P [--gbps B] [cluster flags]
//   netpp_cli sensitivity [--csv]
//   netpp_cli faults [--mtbf S] [--mttr S] [--seed N]
//                    [--policy none|wake-all|re-tailor] [--headroom H] [--csv]
//                    [--trace-out F] [--metrics-out F] [--sample-period S]
//                    [--save-state F [--save-at T]] [--load-state F]
//   netpp_cli mech [--stack all|dynamic|tailor|park|rate] [--iters N]
//                  [--volume GBIT] [--horizon S] [--ocs N] [--csv]
//                  [--pod-budget W] [--core-budget W]
//                  [--trace-out F] [--metrics-out F]
//                  [--save-state F] [--load-state F]
//   netpp_cli telemetry [faults flags] [--trace-out F] [--metrics-out F]
//   netpp_cli help
//
// Flags accept both `--flag value` and `--flag=value`, and every subcommand
// accepts every scenario flag. The scenario flags are rows of the schema
// table netpp_serve queries use (serve/query.h), which checks their values
// for both front ends. Every error path prints a single `netpp_cli: error:
// ...` line to stderr and exits non-zero.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "netpp/analysis/report.h"
#include "netpp/analysis/savings.h"
#include "netpp/analysis/sensitivity.h"
#include "netpp/analysis/speedup.h"
#include "netpp/cluster/cluster.h"
#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/serve/query.h"
#include "netpp/serve/scenarios.h"
#include "netpp/state/image.h"
#include "netpp/telemetry/export.h"
#include "netpp/telemetry/telemetry.h"

namespace {

using namespace netpp;
using namespace netpp::literals;

/// The scenario knobs live in serve::ScenarioOptions — the single struct
/// both this CLI and netpp_serve parse into, so a serve query and the
/// equivalent one-shot run are the same scenario by construction.
struct Options {
  serve::ScenarioOptions scenario;
  bool csv = false;
  // telemetry outputs (faults / mech / telemetry subcommands)
  std::string trace_out;
  std::string metrics_out;
  // snapshot save/restore (faults / mech subcommands)
  std::string save_state;
  std::string load_state;
  double save_at_s = -1.0;  ///< <0 means the subcommand default
};

int error_out(const std::string& message) {
  std::fprintf(stderr, "netpp_cli: error: %s\n", message.c_str());
  return 2;
}

void print_table(const Table& table, bool csv) {
  std::printf("%s", csv ? table.to_csv().c_str() : table.to_ascii().c_str());
}

int usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: netpp_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  cluster      baseline (or custom) cluster power summary\n"
      "  table3       paper Table 3: savings vs proportionality/bandwidth\n"
      "  fig3         paper Figure 3: fixed-workload speedup series\n"
      "  fig4         paper Figure 4: fixed-ratio speedup series\n"
      "  savings      one savings cell: --prop P [--gbps B]\n"
      "  sensitivity  headline metrics vs modeling assumptions\n"
      "  faults       fault-injection resilience run on a tailored fabric\n"
      "  mech         composed Sec. 4 mechanism stack on an ML fat tree\n"
      "  telemetry    faults scenario with full tracing/sampling, summarized\n"
      "\n"
      "flags: --gpus N --gbps B --ratio R --prop P --csv\n"
      "faults flags: --mtbf S --mttr S --seed N --headroom H\n"
      "              --policy none|wake-all|re-tailor\n"
      "mech flags:   --stack all|dynamic|tailor|park|rate --iters N\n"
      "              --volume GBIT --horizon S --ocs N\n"
      "              --pod-budget W --core-budget W   per-domain average-\n"
      "                                       power budgets (0 = unbudgeted)\n"
      "backend (faults/mech):\n"
      "              --backend single|sharded simulator backend (sharded\n"
      "                                       faults runs the k=4 fat tree;\n"
      "                                       the default is leaf-spine)\n"
      "              --shards N               sharded pod shards (>= 1)\n"
      "telemetry outputs (faults/mech/telemetry):\n"
      "              --trace-out FILE.json    Chrome trace (Perfetto)\n"
      "              --metrics-out FILE.json  metrics dump\n"
      "              --sample-period S        time-series cadence\n"
      "snapshots (faults/mech):\n"
      "              --save-state FILE        faults: run to --save-at (default\n"
      "                                       half the fault horizon), snapshot,\n"
      "                                       stop; mech: snapshot the final\n"
      "                                       metric registry after the run\n"
      "              --load-state FILE        faults: restore and continue to\n"
      "                                       the end; mech: restore the metric\n"
      "                                       registry and re-export it\n"
      "              --save-at T              faults snapshot time (seconds)\n");
  return out == stdout ? 0 : 2;
}

/// Parses the flags after the subcommand. Throws std::invalid_argument
/// (serve::ServeError for a scenario flag's value) on the first bad flag.
Options parse(int argc, char** argv) {
  Options opt;
  const auto fields = serve::scenario_fields();
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_inline_value = true;
    }
    if (flag == "--csv") {
      if (has_inline_value) {
        throw std::invalid_argument("flag '--csv' takes no value");
      }
      opt.csv = true;
      continue;
    }
    // Every other flag takes one value: either inline (--flag=value) or the
    // next argument (--flag value).
    std::string* const path = flag == "--trace-out"     ? &opt.trace_out
                              : flag == "--metrics-out" ? &opt.metrics_out
                              : flag == "--save-state"  ? &opt.save_state
                              : flag == "--load-state"  ? &opt.load_state
                                                        : nullptr;
    const bool known_flag =
        path != nullptr || flag == "--save-at" ||
        std::ranges::find(fields, flag, &serve::ScenarioField::flag) !=
            fields.end();
    if (!known_flag) {
      throw std::invalid_argument("unknown flag '" + flag +
                                  "' (see 'netpp_cli help')");
    }
    if (!has_inline_value && i + 1 >= argc) {
      throw std::invalid_argument("flag '" + flag + "' needs a value");
    }
    const std::string value =
        has_inline_value ? inline_value : std::string{argv[++i]};
    if (path != nullptr) {
      *path = value;
    } else if (flag == "--save-at") {
      opt.save_at_s = serve::read_flag_number(flag, value, serve::FieldRule{});
    } else {
      serve::apply_flag(opt.scenario, flag, value);
    }
  }
  return opt;
}

/// Writes the requested trace/metrics files; returns 0, or 1 after printing
/// a one-line diagnostic on the first failing write.
int write_telemetry_outputs(const Options& opt,
                            const telemetry::Telemetry& tel) {
  std::string error;
  if (!opt.trace_out.empty()) {
    const telemetry::TimeSeriesSampler* sampler =
        tel.sampler().enabled() ? &tel.sampler() : nullptr;
    const std::string json = telemetry::to_chrome_trace_json(tel.events(),
                                                             sampler);
    if (!telemetry::write_file(opt.trace_out, json, error)) {
      error_out(error);
      return 1;
    }
  }
  if (!opt.metrics_out.empty()) {
    const std::string json = telemetry::to_metrics_json(tel.metrics());
    if (!telemetry::write_file(opt.metrics_out, json, error)) {
      error_out(error);
      return 1;
    }
  }
  return 0;
}

bool wants_telemetry(const Options& opt) {
  return !opt.trace_out.empty() || !opt.metrics_out.empty();
}

int cmd_cluster(const Options& opt) {
  print_table(serve::cluster_summary_table(opt.scenario.cluster), opt.csv);
  return 0;
}

int cmd_table3(const Options& opt) {
  const std::vector<Gbps> bws = {100_Gbps, 200_Gbps, 400_Gbps, 800_Gbps,
                                 1600_Gbps};
  const std::vector<double> props = {0.10, 0.20, 0.50, 0.85, 1.00};
  const auto rows = savings_table(opt.scenario.cluster, bws, props);
  Table table{{"bandwidth_gbps", "p10", "p20", "p50", "p85", "p100"}};
  for (const auto& row : rows) {
    std::vector<std::string> cells{fmt(row.bandwidth.value(), 0)};
    for (const auto& cell : row.cells) {
      cells.push_back(fmt(100.0 * cell.savings_fraction, 2));
    }
    table.add_row(std::move(cells));
  }
  print_table(table, opt.csv);
  return 0;
}

int cmd_fig(const Options& opt, BudgetScenario scenario) {
  const BudgetSolver solver = BudgetSolver::paper_baseline();
  const std::vector<Gbps> bws = {100_Gbps, 200_Gbps, 400_Gbps, 800_Gbps,
                                 1600_Gbps};
  std::vector<double> props;
  for (int i = 0; i <= 20; ++i) props.push_back(i * 0.05);
  const auto series = scenario == BudgetScenario::kFixedWorkload
                          ? fixed_workload_speedup(solver, bws, props)
                          : fixed_ratio_speedup(solver, bws, props);
  Table table{
      {"proportionality", "s100", "s200", "s400", "s800", "s1600"}};
  for (std::size_t i = 0; i < props.size(); ++i) {
    std::vector<std::string> row{fmt(props[i], 2)};
    for (const auto& s : series) {
      row.push_back(fmt(100.0 * s.points[i].speedup, 2));
    }
    table.add_row(std::move(row));
  }
  print_table(table, opt.csv);
  return 0;
}

int cmd_savings(const Options& opt) {
  print_table(
      serve::savings_cell_table(opt.scenario.cluster, opt.scenario.prop),
      opt.csv);
  return 0;
}

int cmd_sensitivity(const Options& opt) {
  Table table{{"parameter", "value", "net_share_pct", "efficiency_pct",
               "savings50_pct", "savings85_pct"}};
  for (const auto& p : run_sensitivity(make_paper_sensitivity_suite())) {
    table.add_row({p.parameter, fmt(p.value, 2),
                   fmt(100.0 * p.metrics.network_share, 2),
                   fmt(100.0 * p.metrics.network_efficiency, 2),
                   fmt(100.0 * p.metrics.savings_at_50, 2),
                   fmt(100.0 * p.metrics.savings_at_85, 2)});
  }
  print_table(table, opt.csv);
  return 0;
}

int cmd_faults(const Options& opt) {
  if (!opt.save_state.empty() && !opt.load_state.empty()) {
    return error_out("--save-state and --load-state are mutually exclusive");
  }
  serve::check_backend(opt.scenario.backend, /*cli=*/true);
  const auto tel = wants_telemetry(opt)
                       ? serve::make_scenario_telemetry(
                             serve::QueryKind::kFaults, opt.scenario)
                       : nullptr;
  const serve::CannedFaultScenario s =
      serve::make_canned_fault_scenario(opt.scenario, tel.get());
  if (!opt.save_state.empty()) {
    // Run the canned scenario to the snapshot point, serialize everything,
    // and stop: a later --load-state continues bit-identically.
    const Seconds save_at{opt.save_at_s >= 0.0
                              ? opt.save_at_s
                              : s.fault_horizon.value() / 2.0};
    FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
    run.run_until(save_at);
    state::StateImage::capture([&run](state::SnapshotWriter& w) {
      run.save_state(w);
    }).write_file(opt.save_state);
    std::printf("saved state at t=%s to %s\n", to_string(save_at).c_str(),
                opt.save_state.c_str());
    return 0;
  }
  FaultExperimentResult result;
  if (!opt.load_state.empty()) {
    auto r = state::StateImage::from_file(opt.load_state).fork();
    result = serve::resume_fault_run(s, tel.get(), r);
  } else {
    result = run_fault_experiment(s.topo, s.workload, s.schedule, s.config);
  }
  print_table(serve::faults_summary_table(result), opt.csv);
  if (tel != nullptr) return write_telemetry_outputs(opt, *tel);
  return 0;
}

int cmd_telemetry(const Options& opt) {
  // Telemetry demo: the faults scenario with every instrument attached,
  // summarized. --trace-out / --metrics-out save the artifacts. The sharded
  // backend keeps the netsim registry per shard, so this demo (which reads
  // the shared registry) is single-backend only.
  if (opt.scenario.backend.kind != BackendKind::kSingle ||
      opt.scenario.backend.num_shards != 1) {
    return error_out("'telemetry' supports only --backend single");
  }
  const auto tel =
      serve::make_scenario_telemetry(serve::QueryKind::kFaults, opt.scenario);
  const serve::CannedFaultScenario s =
      serve::make_canned_fault_scenario(opt.scenario, tel.get());
  const auto result =
      run_fault_experiment(s.topo, s.workload, s.schedule, s.config);
  const telemetry::MetricRegistry& m = tel->metrics();

  Table table{{"metric", "value"}};
  table.add_row({"events recorded", std::to_string(tel->events().size())});
  table.add_row({"metrics registered", std::to_string(m.size())});
  table.add_row(
      {"samples taken", std::to_string(tel->sampler().times().size())});
  table.add_row({"sampled series", std::to_string(tel->sampler().num_series())});
  table.add_row({"faults injected",
                 std::to_string(m.counter_value("faults.injected"))});
  table.add_row({"solver full solves",
                 std::to_string(m.counter_value("netsim.realloc.full_solves"))});
  table.add_row({"route-cache hits",
                 std::to_string(m.counter_value("netsim.route_cache.hits"))});
  table.add_row({"route-cache misses",
                 std::to_string(m.counter_value("netsim.route_cache.misses"))});
  table.add_row({"flows completed",
                 fmt(m.gauge_value("netsim.completed_flows"), 0)});
  table.add_row({"energy vs all-on",
                 fmt_percent(m.gauge_value("faults.energy_vs_baseline"), 1)});
  table.add_row({"availability", fmt_percent(result.report.availability, 2)});
  print_table(table, opt.csv);
  return write_telemetry_outputs(opt, *tel);
}

int cmd_mech(const Options& opt) {
  if (!opt.save_state.empty() && !opt.load_state.empty()) {
    return error_out("--save-state and --load-state are mutually exclusive");
  }
  serve::check_backend(opt.scenario.backend, /*cli=*/true);
  if (!opt.load_state.empty()) {
    // Offline restore: load a saved metric registry into a fresh bundle and
    // re-export it, without re-running the simulation.
    telemetry::MetricRegistry metrics;
    auto r = state::StateImage::from_file(opt.load_state).fork();
    metrics.restore_state(r);
    if (!r.at_end()) {
      throw std::invalid_argument(
          "SnapshotReader: trailing bytes after the metrics snapshot");
    }
    Table table{{"metric", "value"}};
    table.add_row({"metrics restored", std::to_string(metrics.size())});
    table.add_row(
        {"combined savings",
         fmt_percent(metrics.gauge_value("composite.combined_savings"), 2)});
    print_table(table, opt.csv);
    if (!opt.metrics_out.empty()) {
      std::string error;
      const std::string json = telemetry::to_metrics_json(metrics);
      if (!telemetry::write_file(opt.metrics_out, json, error)) {
        return error_out(error);
      }
    }
    return 0;
  }
  // The canned scenario (and the summary rendering below) are shared with
  // netpp_serve — serve/scenarios.h is the single definition of both.
  serve::CannedMechScenario s = serve::make_canned_mech_scenario(opt.scenario);
  // --save-state needs a registry to snapshot even without --metrics-out.
  const auto tel = wants_telemetry(opt) || !opt.save_state.empty()
                       ? serve::make_scenario_telemetry(serve::QueryKind::kMech,
                                                        opt.scenario)
                       : nullptr;
  s.config.telemetry = tel.get();

  const CompositeReport report =
      run_composite(s.topo, s.workload, s.demands, s.horizon, s.config);
  print_table(serve::mech_summary_table(opt.scenario.stack, report), opt.csv);
  if (!opt.save_state.empty()) {
    state::StateImage::capture([&tel](state::SnapshotWriter& w) {
      tel->metrics().save_state(w);
    }).write_file(opt.save_state);
    std::printf("saved metric registry to %s\n", opt.save_state.c_str());
  }
  if (tel != nullptr) return write_telemetry_outputs(opt, *tel);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return error_out("missing command (see 'netpp_cli help')");
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return usage(stdout);
  }
  // Every rejection — a bad flag, a model's precondition, an unreadable
  // snapshot — ends here as the one-line diagnostic.
  try {
    const Options opt = parse(argc, argv);
    if (command == "cluster") return cmd_cluster(opt);
    if (command == "table3") return cmd_table3(opt);
    if (command == "fig3") return cmd_fig(opt, BudgetScenario::kFixedWorkload);
    if (command == "fig4") return cmd_fig(opt, BudgetScenario::kFixedCommRatio);
    if (command == "savings") return cmd_savings(opt);
    if (command == "sensitivity") return cmd_sensitivity(opt);
    if (command == "faults") return cmd_faults(opt);
    if (command == "mech") return cmd_mech(opt);
    if (command == "telemetry") return cmd_telemetry(opt);
  } catch (const std::exception& e) {
    return error_out(e.what());
  }
  return error_out("unknown command '" + command + "' (see 'netpp_cli help')");
}
