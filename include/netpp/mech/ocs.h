// §4.2 "Static Opt. #2: Scheduling Network Jobs" — topology tailoring with
// optical circuit switches.
//
// ML training traffic patterns are known when the job starts, so instead of
// keeping a full fat tree powered, an OCS layer can stitch a job-specific
// topology that uses as few packet switches as possible; the rest are turned
// off (or kept in standby for faster reaction).
//
// `tailor_topology` takes an explicit topology and a demand matrix and
// greedily powers off switches — least-loaded first — as long as every
// demand remains routable and the max-min fair allocation still satisfies
// all demands. This is the practical heuristic version of the paper's "where
// should OCSs be added?" optimization question.
//
// `OcsOverheadModel` answers the reconfiguration-cost side: off-the-shelf
// OCSs reconfigure in tens of milliseconds, which is negligible for jobs
// lasting hours or days (the paper's argument against needing RotorNet/
// Sirius-class nanosecond switching).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netpp/netsim/fairshare.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/routing.h"
#include "netpp/units.h"

namespace netpp {

/// A steady-state demand between two hosts.
struct TrafficDemand {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Gbps rate{};

  /// Rejects invalid/equal endpoints and NaN/non-positive rates against
  /// `graph` with a descriptive std::invalid_argument / std::out_of_range.
  void validate(const Graph& graph) const;
};

struct TailorConfig {
  /// Demands are satisfied if each flow's max-min rate reaches this fraction
  /// of its demand (1.0 = exactly; <1 allows slack). In (0, 1].
  double satisfaction = 0.999;
  /// Number of ECMP paths considered per demand. At least 1.
  std::size_t max_ecmp_paths = 8;
  /// Switches in this list are never powered off (e.g. ToRs that are a
  /// host's only attachment are always protected automatically).
  std::vector<NodeId> pinned;

  /// Rejects `satisfaction` outside (0, 1] (NaN included) and
  /// `max_ecmp_paths` < 1 with std::invalid_argument("TailorConfig: ...").
  void validate() const;
};

struct TailorResult {
  std::vector<NodeId> powered_on;
  std::vector<NodeId> powered_off;
  /// Fraction of switches turned off.
  double switches_off_fraction = 0.0;
  /// Whether the initial (full) topology satisfied the demands at all.
  bool feasible = false;
};

/// Greedy tailoring: route demands on the full topology, then repeatedly try
/// to power off the least-loaded remaining switch, keeping it off only if
/// all demands stay satisfied. Deterministic. Throws std::invalid_argument
/// for an invalid config (`TailorConfig::validate`) or demand.
[[nodiscard]] TailorResult tailor_topology(
    const BuiltTopology& topology, const std::vector<TrafficDemand>& demands,
    const TailorConfig& config = TailorConfig());

/// Re-tailoring over a partially failed fabric: like `tailor_topology`, but
/// starts from `base` — a router whose disabled nodes/links are *failed
/// hardware* that tailoring may never power on. Switches enabled in `base`
/// are candidates for powering off; disabled switches stay off. Used by the
/// degraded-mode policy to recompute the powered set after a failure.
/// `result.powered_on`/`powered_off` cover only non-failed switches.
[[nodiscard]] TailorResult tailor_topology_on(
    const Router& base, const BuiltTopology& topology,
    const std::vector<TrafficDemand>& demands,
    const TailorConfig& config = TailorConfig());

/// Checks whether `demands` are satisfiable on the graph as currently
/// enabled in `router` (ECMP routing + max-min fair rates >= satisfaction *
/// demand). Exposed for testing and for reactive re-checks. Throws
/// std::invalid_argument for an invalid config.
[[nodiscard]] bool demands_satisfiable(const Router& router,
                                       const std::vector<TrafficDemand>& demands,
                                       const TailorConfig& config);

/// Variant for degraded fabrics: `link_capacity_factors[l]` scales link l's
/// nominal capacity (1.0 = healthy). Empty means all healthy.
[[nodiscard]] bool demands_satisfiable(
    const Router& router, const std::vector<TrafficDemand>& demands,
    const TailorConfig& config, std::span<const double> link_capacity_factors);

/// The buffers behind `tailor_topology_on` and `demands_satisfiable` —
/// demand routes, ECMP path sets, CSR rows, capacities, the max-min solver
/// and the greedy's working router — kept across calls, so a warm workspace
/// allocates nothing but each TailorResult's own vectors. Each call
/// overwrites every buffer it reads before reading it: no route, rate or
/// mask carries from one call to the next, and every result equals the free
/// functions' (which run on a call-local workspace) bit for bit. Not
/// thread-safe; one workspace per controller or thread.
class TailorWorkspace {
 public:
  /// `graph` must outlive the workspace.
  explicit TailorWorkspace(const Graph& graph);

  /// `tailor_topology_on(base, topology, demands, config)`. `base` must
  /// route over this workspace's graph (std::invalid_argument otherwise).
  [[nodiscard]] TailorResult tailor(
      const Router& base, const BuiltTopology& topology,
      const std::vector<TrafficDemand>& demands, const TailorConfig& config);

  /// `demands_satisfiable(router, demands, config, link_capacity_factors)`.
  [[nodiscard]] bool satisfiable(
      const Router& router, const std::vector<TrafficDemand>& demands,
      const TailorConfig& config,
      std::span<const double> link_capacity_factors = {});

 private:
  struct Route {
    std::vector<std::uint32_t> row;  ///< directed resources of the chosen path
    std::vector<NodeId> transits;    ///< switches the chosen path transits
    std::vector<NodeId> crossed;     ///< transit nodes of every path
  };

  /// Sizes the per-demand routes and refills the capacities and caps.
  void prepare(const Graph& graph, const std::vector<TrafficDemand>& demands,
               std::span<const double> link_capacity_factors);
  bool route_all(const Router& router,
                 const std::vector<TrafficDemand>& demands,
                 std::size_t max_paths);
  bool satisfied(double satisfaction);
  void switch_load(std::size_t num_nodes);
  bool try_without(const Router& router,
                   const std::vector<TrafficDemand>& demands,
                   const TailorConfig& config, NodeId sw);
  bool route(const Router& router, const TrafficDemand& demand, std::size_t d,
             std::size_t max_paths, Route& out);

  Router router_;  ///< the greedy's copy of `base`
  std::vector<Route> routes_;
  std::vector<Route> saved_;  ///< pre-step routes of the affected demands
  std::vector<std::size_t> affected_;
  std::vector<LinkId> path_links_;  ///< one demand's ECMP set, flat
  std::vector<std::size_t> path_ends_;
  std::vector<double> capacities_;  ///< per directed resource
  std::vector<double> caps_;        ///< per demand, bits/s
  std::vector<std::uint32_t> arena_;
  std::vector<std::uint32_t> start_;
  MaxMinSolver solver_;
  std::span<const double> rates_;  ///< last solve, valid until the next
  std::vector<NodeId> candidates_;
  std::vector<NodeId> order_;
  std::vector<double> load_;  ///< bits/s per node under the feasibility solve
  std::vector<bool> protected_;
};

/// Amortized cost of OCS reconfiguration for batch jobs.
class OcsOverheadModel {
 public:
  struct Config {
    Seconds reconfiguration_time{Seconds::from_milliseconds(25.0)};
    Watts ocs_power{50.0};  ///< free-space OCS: mirrors only
    int reconfigurations_per_job = 1;
  };

  OcsOverheadModel() : OcsOverheadModel(Config{}) {}
  explicit OcsOverheadModel(Config config) : config_(config) {}

  /// Fraction of the job time lost to reconfiguration.
  [[nodiscard]] double time_overhead(Seconds job_duration) const;

  /// Net average power saving: `switch_savings` (from tailoring) minus the
  /// OCS devices' own draw.
  [[nodiscard]] Watts net_power_savings(Watts switch_savings,
                                        int num_ocs_devices) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace netpp
