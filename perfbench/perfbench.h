// The netpp benchmark: three workloads, each a function from options to a
// RunResult (see README.md for the metric and layer map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "netpp/netsim/flowsim.h"

namespace perfbench {

/// The end-to-end sheet every plain run prints, in BENCHMARK.json order.
inline const std::vector<std::string> kEndToEnd = {
    "setup_s", "run_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb"};

/// The per-layer sheet every traced run prints, as (name, unit). A layer the workload leaves
/// idle reads 0.
inline const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"netsim.step_us.p50", "us"},
    {"netsim.step_us.p99", "us"},
    {"netsim.binding.step_us.p50", "us"},
    {"netsim.binding.step_us.p99", "us"},
    {"netsim.fast.step_us.p50", "us"},
    {"netsim.binding.subset_flows_mean", "count"},
    {"netsim.realloc.binding_solves", "count"},
    {"netsim.realloc.fast_path_ratio", "ratio"},
    {"topo.route_cache.hit_ratio", "ratio"},
    {"topo.route_cache.misses", "count"},
    {"sim.events", "count"},
    {"netsim.active_flows_mean", "count"},
    {"traffic.generate_ms", "ms"},
    {"topo.build_ms", "ms"},
    {"netsim.submit_ms", "ms"},
    {"netsim.sharded.build_ms", "ms"},
    {"netsim.sharded.window_ms.p50", "ms"},
    {"netsim.sharded.window_ms.p99", "ms"},
    {"netsim.sharded.windows", "count"},
    {"netsim.sharded.completions_per_window_mean", "count"},
    {"netsim.sharded.shard_active_max_over_mean", "ratio"},
    {"netsim.sharded.speedup_w2", "x"},
    {"netsim.sharded.speedup_w4", "x"},
    {"mech.composite.sharded_over_single_x", "x"},
    {"serve.json.parse_us.p50", "us"},
    {"serve.query.parse_us.p50", "us"},
    {"serve.json.dump_us.p50", "us"},
    {"serve.answer.result_hit_us.p50", "us"},
    {"serve.answer.faults_single_ms.p50", "ms"},
    {"serve.answer.faults_single_ms.p99", "ms"},
    {"serve.answer.faults_sharded_ms.p50", "ms"},
    {"serve.answer.faults_sharded_ms.p99", "ms"},
    {"serve.answer.mech_single_ms.p50", "ms"},
    {"serve.answer.mech_single_ms.p99", "ms"},
    {"serve.answer.mech_sharded_ms.p50", "ms"},
    {"serve.answer.mech_sharded_ms.p99", "ms"},
    {"serve.answer.analytic_us.p50", "us"},
    {"serve.cache.result_hit_ratio", "ratio"},
    {"serve.cache.baselines_built", "count"},
    {"serve.cache.baseline_forks", "count"},
    {"mech.cache.sim_reuses", "count"},
    {"mech.cache.stage_reuses", "count"},
    {"trace_overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The netpp_serve binary whatif_serve spawns.
  std::string serve_bin;
  /// Directory (relative paths keep the unix socket path short) for the
  /// daemon socket and the trace file.
  std::string work_dir = ".";
};

/// Worker threads a sharded run uses: min(CPUs this process may run on, 4).
[[nodiscard]] std::size_t default_workers();

// --- Simulation workloads ---------------------------------------------------

/// What a simulation run produced: bit-identical across worker counts and
/// across traced/untraced runs, so a perf-only change must leave it alone.
struct SimDigest {
  std::size_t completed = 0;
  std::uint64_t events = 0;
  double fct_sum = 0.0;  ///< sum of FCTs in completion order, seconds

  [[nodiscard]] std::string str() const;  ///< FCT sum as a hexfloat
  bool operator==(const SimDigest&) const = default;
};

/// The benchmark's simulation sizes.
inline constexpr std::size_t kPodFlows = 50'000;
inline constexpr std::size_t kMultipodFlows = 200'000;
inline constexpr std::size_t kMultipodCompleting = 6'000;

/// pod_poisson inputs: poisson_config(num_flows) on the k=8 pod fabric with
/// the arrival seed replaced by `seed`.
[[nodiscard]] std::vector<netpp::FlowSpec> make_pod_poisson_flows(
    std::size_t num_flows, std::uint64_t seed);

/// multipod_sharded inputs: make_sharded_workload(total, completing), then a
/// seeded pod-preserving host relabelling and a seeded submission order. The
/// shape (cross-pod share, completion schedule, caps) is unchanged.
[[nodiscard]] std::vector<netpp::FlowSpec> make_multipod_flows(
    std::size_t total, std::size_t completing, std::uint64_t seed);

/// References for the self-tests: each simulation driven by one
/// run() / run_until(horizon) call, as a user would.
[[nodiscard]] SimDigest run_pod_poisson_digest(
    const std::vector<netpp::FlowSpec>& flows);
[[nodiscard]] SimDigest run_multipod_digest(
    const std::vector<netpp::FlowSpec>& flows, std::size_t workers);

/// One benchmark repetition at a given size, as the plain run slices it or
/// (`traced`) as the traced run steps it. Throws std::runtime_error when the
/// repetition's own output checks fail.
[[nodiscard]] SimDigest pod_poisson_rep_digest(std::size_t num_flows,
                                               std::uint64_t seed,
                                               bool traced);
[[nodiscard]] SimDigest multipod_rep_digest(std::size_t total,
                                            std::size_t completing,
                                            std::uint64_t seed,
                                            std::size_t workers, bool traced);

[[nodiscard]] RunResult run_pod_poisson(const Options& opt, Tracer* tracer);
[[nodiscard]] RunResult run_multipod_sharded(const Options& opt,
                                             Tracer* tracer);

// --- Serve workload ---------------------------------------------------------

// The whatif_serve query mix, assumed (no recorded netpp_serve traffic
// exists; see README.md). Every share is applied as an exact count.
inline constexpr std::size_t kStreamQueries = 1000;
inline constexpr double kAnalyticShare = 0.20;  ///< cluster / savings
inline constexpr double kFaultsShare = 0.40;    ///< the rest is mech
inline constexpr double kShardedShare = 0.125;  ///< of faults and of mech
inline constexpr double kColdShare = 0.05;      ///< of each family
inline constexpr double kZipfS = 1.0;  ///< catalogue rank r weighs 1/(r+1)^s

/// The seeded what-if query stream: one JSON request per entry, no ids, so
/// equal requests must get byte-equal responses. The seed picks the Zipf
/// sampling offset, the cold tuples and the order.
[[nodiscard]] std::vector<std::string> make_query_stream(std::uint64_t seed);

/// Digest of the answers a fresh in-process QueryEngine gives to the seed's
/// stream: 16 hex digits of FNV-1a over every distinct (request, answer)
/// pair in request order. The daemon must give the same answers.
[[nodiscard]] std::string whatif_answers_digest(std::uint64_t seed);

[[nodiscard]] RunResult run_whatif_serve(const Options& opt, Tracer* tracer);

// --- Recorded digests -------------------------------------------------------

/// The digests every workload produced on a few seeds when the benchmark was
/// defined. A run on one of these seeds counts a differing digest as a
/// failure: a perf-only change must leave every digest unchanged.
struct RecordedDigests {
  std::uint64_t seed;
  const char* pod_poisson;       ///< SimDigest::str()
  const char* multipod_sharded;  ///< SimDigest::str()
  const char* whatif_serve;      ///< whatif_answers_digest()
};

/// The recorded digests of `seed`, or nullptr when none were recorded.
[[nodiscard]] const RecordedDigests* recorded_digests(std::uint64_t seed);

/// Counts one attempt, and a failure when `digest` differs from the
/// `field` recorded for `seed`; the sheet says which case held.
void check_recorded(RunResult& r, std::uint64_t seed, const std::string& digest,
                    const char* RecordedDigests::* field);

}  // namespace perfbench
