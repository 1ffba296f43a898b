// The warm-state query engine behind netpp_serve.
//
// A QueryEngine loads nothing up front; it lazily builds and then keeps the
// expensive, scenario-level state the canned analyses share, so a batch of
// what-if queries costs a fraction of the equivalent one-shot CLI runs:
//
//   * faults queries fork a warm baseline. The first query for a faults
//     tuple constructs the experiment once (topology, workload, fault
//     schedule, initial tailoring) and captures a state::StateImage of it;
//     every later query forks that image through the snapshot-restoring
//     FaultExperimentRun constructor instead of re-tailoring from scratch.
//   * mech queries share a CompositeCache per scenario (backend, workload),
//     so sweeping stack compositions, OCS counts, horizons, and domain
//     budgets reuses the backend simulation runs and per-stage totals.
//   * identical queries (same cache_key) are answered from a rendered
//     result cache without touching the simulator at all.
//
// Every answer is byte-identical to the equivalent cold run — and therefore
// to the one-shot netpp_cli output, which the equivalence tests pin at the
// process level: forks restore bit-exact state, CompositeCache hits are
// pure-function reuses, and the render path is shared (serve/scenarios.h).
//
// Errors never escape as exceptions: answer() converts ServeError (and
// snapshot-validation failures from a damaged warm baseline, surfaced as
// kCorruptBaseline) into the typed error envelope of serve/protocol.h.
//
// Thread safety: handle()/answer() may be called concurrently; batches fan
// out over a sim::SweepRunner pool. Internal caches are mutex-protected,
// but cold fault baselines are built outside the lock (racing builds of
// one key produce byte-identical images; the first insert wins), and each
// mech scenario's CompositeCache serializes its callers, so results are
// independent of thread count and arrival order.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "netpp/serve/json.h"
#include "netpp/serve/query.h"

namespace netpp::serve {

struct EngineConfig {
  /// Worker-thread ceiling for batch (array) requests; 0 means the shared
  /// thread budget (netpp/sim/thread_budget.h).
  std::size_t num_threads = 0;
  /// Answer repeated identical queries from the rendered-result cache.
  bool result_cache = true;
};

/// Warm-state accounting, for the serve benches and --stats reporting.
struct EngineStats {
  std::size_t queries = 0;          ///< queries answered (ok or error)
  std::size_t result_reuses = 0;    ///< answered from the result cache
  std::size_t baselines_built = 0;  ///< warm fault baselines inserted
  std::size_t baseline_forks = 0;   ///< queries answered by forking one
  std::size_t sim_reuses = 0;       ///< backend runs reused (mech caches)
  std::size_t stage_reuses = 0;     ///< stage totals reused (mech caches)
};

class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config = {});
  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers one request: an object is one query, an array is a batch
  /// (answered in order, fanned out over the worker pool). Never throws;
  /// malformed queries become typed error envelopes in place.
  [[nodiscard]] JsonValue handle(const JsonValue& request);

  /// Text in, serialized response out: parses `text` as JSON (kBadJson
  /// envelope if malformed) and dumps handle()'s response on one line.
  [[nodiscard]] std::string handle_text(const std::string& text);

  /// Answers one parsed query with an ok/error envelope. Never throws.
  [[nodiscard]] JsonValue answer(const Query& query);

  /// Eagerly builds the default faults baseline (the one `--save-baseline`
  /// writes), so the first query doesn't pay for it.
  void warm_default_baseline();
  /// Writes the default faults baseline image to `path` (warming it first).
  void save_baseline(const std::string& path);
  /// Installs a baseline image from `path` for the default faults tuple.
  /// The bytes are validated on first fork: a damaged image turns the
  /// queries that touch it into kCorruptBaseline errors, it does not take
  /// the server down.
  void load_baseline(const std::string& path);

  [[nodiscard]] EngineStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace netpp::serve
