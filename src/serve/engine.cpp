#include "netpp/serve/engine.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netpp/analysis/report.h"
#include "netpp/faults/experiment.h"
#include "netpp/mech/composite.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/scenarios.h"
#include "netpp/sim/sweep.h"
#include "netpp/state/image.h"
#include "netpp/telemetry/export.h"
#include "netpp/telemetry/telemetry.h"

namespace netpp::serve {

namespace {

std::string render_table(const Table& table, QueryOutput output) {
  return output == QueryOutput::kCsv ? table.to_csv() : table.to_ascii();
}

/// Key of the warm fault baseline a query forks. The image bakes in
/// everything the fresh constructor consumed: the fabric and schedule
/// (backend, mtbf/mttr/seed), the initial tailoring and degraded-mode
/// config (policy, headroom), and the telemetry attachment the snapshot
/// echo-validates on restore (attached? sampler period?).
std::string fault_baseline_key(const ScenarioOptions& o, bool telemetered) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "backend=%d|shards=%zu|mtbf=%.17g|mttr=%.17g|seed=%llu"
                "|policy=%d|head=%.17g|tel=%d|sp=%.17g",
                static_cast<int>(o.backend.kind), o.backend.num_shards,
                o.mtbf_s, o.mttr_s,
                static_cast<unsigned long long>(o.fault_seed),
                static_cast<int>(o.policy), o.headroom,
                telemetered ? 1 : 0, telemetered ? o.sample_period_s : 0.0);
  return std::string{buf};
}

/// Key of the shared CompositeCache a mech query runs against: the axes
/// that change the scenario fingerprint (fabric via the backend, workload
/// via iters/volume). Stack composition, OCS count, horizon, and budgets
/// are the what-if axes the cache absorbs.
std::string mech_cache_key(const ScenarioOptions& o) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "backend=%d|shards=%zu|iters=%d|vol=%.17g",
                static_cast<int>(o.backend.kind), o.backend.num_shards,
                o.mech_iterations, o.mech_volume_gbit);
  return std::string{buf};
}

/// The query's "id" member when it is present and scalar, for echoing in
/// error envelopes produced before parse_query could run to completion.
JsonValue echo_id(const JsonValue& request) {
  const JsonValue* id = request.find("id");
  if (id == nullptr || id->kind() == JsonKind::kArray ||
      id->kind() == JsonKind::kObject) {
    return JsonValue{};
  }
  return *id;
}

/// A warm fault baseline: the scenario its image was captured from, with
/// the telemetry pointer cleared (each fork attaches its own bundle), and
/// the image itself. Forks share the scenario read-only.
struct FaultBaseline {
  CannedFaultScenario scenario;
  state::StateImage image;
};

/// Builds the baseline for `scenario` the way the CLI starts a one-shot
/// run: fresh construction tailors the fabric and arms the injector; the
/// image captures that instant (t = 0) so forks skip straight past setup.
std::unique_ptr<const FaultBaseline> build_fault_baseline(
    CannedFaultScenario s) {
  state::StateImage image;
  {
    const FaultExperimentRun run{s.topo, s.workload, s.schedule, s.config};
    image = state::StateImage::capture(
        [&](state::SnapshotWriter& w) { run.save_state(w); });
  }
  s.config.telemetry = nullptr;
  return std::make_unique<const FaultBaseline>(
      FaultBaseline{std::move(s), std::move(image)});
}

}  // namespace

struct QueryEngine::Impl {
  EngineConfig config;

  std::mutex mutex;
  /// Rendered payloads keyed by cache_key(query) — identical queries are
  /// answered without touching the simulator.
  std::map<std::string, std::string> results;
  /// Warm fault baselines keyed by fault_baseline_key. unique_ptr keeps
  /// baseline addresses stable while new ones are inserted; fork() on a
  /// const image is safe concurrently.
  std::map<std::string, std::unique_ptr<const FaultBaseline>> fault_baselines;
  /// One CompositeCache per mech scenario (mech_cache_key). Each cache
  /// serializes its callers internally.
  std::map<std::string, std::unique_ptr<CompositeCache>> mech_caches;
  EngineStats stats;

  /// Looks up or builds the warm baseline for the query's faults tuple.
  /// The build runs outside `mutex`, so a cold build does not stall other
  /// queries (result-cache hits included). Threads racing on one cold key
  /// each build; the first insert wins and the others discard their
  /// baseline, whose image is byte-identical. `baselines_built` counts
  /// inserted baselines.
  const FaultBaseline& obtain_fault_baseline(const ScenarioOptions& opt,
                                             bool telemetered) {
    const std::string key = fault_baseline_key(opt, telemetered);
    {
      const std::lock_guard<std::mutex> lock{mutex};
      const auto it = fault_baselines.find(key);
      if (it != fault_baselines.end()) return *it->second;
    }
    const auto tel = telemetered
                         ? make_scenario_telemetry(QueryKind::kFaults, opt)
                         : nullptr;
    auto baseline =
        build_fault_baseline(make_canned_fault_scenario(opt, tel.get()));
    const std::lock_guard<std::mutex> lock{mutex};
    const auto [it, inserted] =
        fault_baselines.try_emplace(key, std::move(baseline));
    if (inserted) ++stats.baselines_built;
    return *it->second;
  }

  CompositeCache& obtain_mech_cache(const ScenarioOptions& opt) {
    const std::lock_guard<std::mutex> lock{mutex};
    auto& slot = mech_caches[mech_cache_key(opt)];
    if (slot == nullptr) slot = std::make_unique<CompositeCache>();
    return *slot;
  }

  std::string compute_faults(const Query& query) {
    const bool metrics = query.output == QueryOutput::kMetrics;
    const auto tel =
        metrics ? make_scenario_telemetry(query.kind, query.opt) : nullptr;
    const FaultBaseline& baseline = obtain_fault_baseline(query.opt, metrics);
    FaultExperimentResult result;
    try {
      auto reader = baseline.image.fork();
      result = resume_fault_run(baseline.scenario, tel.get(), reader);
    } catch (const std::invalid_argument& e) {
      // A damaged (or mismatched) baseline image fails snapshot validation
      // inside the restoring constructor; reject the query, keep serving.
      throw ServeError{ErrorCode::kCorruptBaseline, "", e.what()};
    }
    {
      const std::lock_guard<std::mutex> lock{mutex};
      ++stats.baseline_forks;
    }
    if (metrics) return telemetry::to_metrics_json(tel->metrics());
    return render_table(faults_summary_table(result), query.output);
  }

  std::string compute_mech(const Query& query) {
    const bool metrics = query.output == QueryOutput::kMetrics;
    const auto tel =
        metrics ? make_scenario_telemetry(query.kind, query.opt) : nullptr;
    CannedMechScenario s = make_canned_mech_scenario(query.opt);
    s.config.telemetry = tel.get();
    s.config.cache = &obtain_mech_cache(query.opt);
    const CompositeReport report =
        run_composite(s.topo, s.workload, s.demands, s.horizon, s.config);
    if (metrics) return telemetry::to_metrics_json(tel->metrics());
    return render_table(mech_summary_table(query.opt.stack, report),
                        query.output);
  }

  std::string compute(const Query& query) {
    switch (query.kind) {
      case QueryKind::kCluster:
        return render_table(cluster_summary_table(query.opt.cluster),
                            query.output);
      case QueryKind::kSavings:
        return render_table(savings_cell_table(query.opt.cluster,
                                               query.opt.prop),
                            query.output);
      case QueryKind::kFaults:
        return compute_faults(query);
      case QueryKind::kMech:
        return compute_mech(query);
    }
    throw ServeError{ErrorCode::kInternal, "", "unreachable query kind"};
  }

  std::string payload_for(const Query& query) {
    const std::string key = cache_key(query);
    if (config.result_cache) {
      const std::lock_guard<std::mutex> lock{mutex};
      const auto it = results.find(key);
      if (it != results.end()) {
        ++stats.result_reuses;
        return it->second;
      }
    }
    std::string payload = compute(query);
    if (config.result_cache) {
      const std::lock_guard<std::mutex> lock{mutex};
      results.emplace(key, payload);
    }
    return payload;
  }
};

QueryEngine::QueryEngine(EngineConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
}

QueryEngine::~QueryEngine() = default;

JsonValue QueryEngine::answer(const Query& query) {
  {
    const std::lock_guard<std::mutex> lock{impl_->mutex};
    ++impl_->stats.queries;
  }
  try {
    std::string payload = impl_->payload_for(query);
    JsonValue result = JsonValue::make_object();
    result.set("command", JsonValue::make_string(to_string(query.kind)));
    result.set("output", JsonValue::make_string(to_string(query.output)));
    result.set("payload", JsonValue::make_string(std::move(payload)));
    return make_ok_response(query.id, std::move(result));
  } catch (const ServeError& e) {
    return make_error_response(query.id, e.code(), e.field(), e.what());
  } catch (const std::exception& e) {
    return make_error_response(query.id, ErrorCode::kInternal, "", e.what());
  }
}

JsonValue QueryEngine::handle(const JsonValue& request) {
  const auto handle_one = [this](const JsonValue& item) -> JsonValue {
    try {
      return answer(parse_query(item));
    } catch (const ServeError& e) {
      return make_error_response(echo_id(item), e.code(), e.field(),
                                 e.what());
    }
  };
  if (request.kind() != JsonKind::kArray) return handle_one(request);

  const std::vector<JsonValue>& items = request.as_array();
  std::vector<JsonValue> responses(items.size());
  SweepConfig sweep;
  sweep.num_threads = impl_->config.num_threads;
  SweepRunner runner{sweep};
  runner.run_indexed(items.size(), [&](std::size_t index) {
    responses[index] = handle_one(items[index]);
  });
  JsonValue batch = JsonValue::make_array();
  for (JsonValue& response : responses) batch.push_back(std::move(response));
  return batch;
}

std::string QueryEngine::handle_text(const std::string& text) {
  JsonValue request;
  try {
    request = parse_json(text);
  } catch (const std::invalid_argument& e) {
    return make_error_response(JsonValue{}, ErrorCode::kBadJson, "", e.what())
        .dump();
  }
  return handle(request).dump();
}

void QueryEngine::warm_default_baseline() {
  impl_->obtain_fault_baseline(ScenarioOptions{}, /*telemetered=*/false);
}

void QueryEngine::save_baseline(const std::string& path) {
  warm_default_baseline();
  const std::lock_guard<std::mutex> lock{impl_->mutex};
  impl_->fault_baselines
      .at(fault_baseline_key(ScenarioOptions{}, /*telemetered=*/false))
      ->image.write_file(path);
}

void QueryEngine::load_baseline(const std::string& path) {
  auto baseline = std::make_unique<const FaultBaseline>(
      FaultBaseline{make_canned_fault_scenario(ScenarioOptions{}, nullptr),
                    state::StateImage::from_file(path)});
  const std::lock_guard<std::mutex> lock{impl_->mutex};
  impl_->fault_baselines.insert_or_assign(
      fault_baseline_key(ScenarioOptions{}, /*telemetered=*/false),
      std::move(baseline));
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  {
    const std::lock_guard<std::mutex> lock{impl_->mutex};
    out = impl_->stats;
    for (const auto& [key, cache] : impl_->mech_caches) {
      (void)key;
      out.sim_reuses += cache->sim_reuses();
      out.stage_reuses += cache->stage_reuses();
    }
  }
  return out;
}

}  // namespace netpp::serve
