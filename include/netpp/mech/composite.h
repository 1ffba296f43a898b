// Composed §4 mechanism stacks: static tailoring × dynamic adaptation.
//
// The paper's optimizations are not alternatives — they compose. §4.2 OCS
// tailoring selects which packet switches are powered at all; §4.4 parking
// gates the pipelines of the survivors; §4.3 rate adaptation clocks what
// remains. This module runs that stack end-to-end on a simulated fabric:
//
//   1. record per-switch load traces from a FlowSimulator run of the
//      workload on the full fabric (the all-on baseline and the
//      dynamic-only stages), and on the tailored fabric (survivors carry
//      the rerouted traffic);
//   2. drive every powered switch's trace through a StackedSwitchPolicy —
//      reactive parking concentrates load onto few pipelines, per-pipeline
//      rate adaptation clocks them to the concentrated load;
//   3. report combined savings against the all-on baseline next to each
//      mechanism alone, over the same workload.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netpp/mech/core_parking.h"
#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/mech/ocs.h"
#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/netsim/backend.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/builders.h"

namespace netpp {

/// Per-switch composition of the dynamic §4 mechanisms on one timeline:
/// reactive parking (when `park`) decides the powered pipeline set from the
/// switch-aggregate load; rate adaptation (when `rate_adapt`) clocks the
/// powered pipelines to their concentrated load. With both disabled the
/// policy prices the all-on switch (the baseline stage).
class StackedSwitchPolicy : public MechanismPolicy {
 public:
  struct Stages {
    bool park = true;
    bool rate_adapt = true;
  };

  StackedSwitchPolicy(ParkingConfig parking, RateAdaptConfig rate,
                      Stages stages);

  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] PowerStateTimeline make_timeline(
      const LoadTrace& trace) override;
  void observe(const LoadSegment& seg, PowerStateTimeline& timeline) override;
  [[nodiscard]] bool models_buffering() const override { return stages_.park; }
  [[nodiscard]] double capacity_fraction(
      const PowerStateTimeline& timeline) const override;
  [[nodiscard]] Bits buffer_capacity() const override {
    return parking_.buffer_capacity;
  }
  [[nodiscard]] double nominal_capacity_bps() const override {
    return parking_.switch_capacity.bits_per_second();
  }

  [[nodiscard]] const Stages& stages() const { return stages_; }

 private:
  ParkingConfig parking_;
  RateAdaptConfig rate_;
  Stages stages_;
  int pipes_ = 0;
  std::vector<PortState> ports_;
  /// Raw per-pipeline channel loads of the current segment (the baseline
  /// power function prices these; parking overwrites the track loads with
  /// the concentrated ones).
  std::vector<double> channel_loads_;
  double offered_ = 0.0;  ///< switch-aggregate load of the current segment
};

/// Per-pod / core-layer power-domain scoping of the composed stack.
struct PowerDomainsConfig {
  /// Average-power budget per pod domain (0 = unbudgeted). Reported as
  /// within_budget per DomainReport; budgets do not alter the mechanisms.
  Watts pod_budget{0.0};
  /// Average-power budget for the core-layer domain (0 = unbudgeted).
  Watts core_budget{0.0};
  /// Core-layer parking (mech/core_parking.h): prices core switches flat
  /// and, when the backend collapses the core, parks them against the
  /// aggregate cross-pod load.
  CoreParkingConfig core{};
};

struct CompositeConfig;
struct CompositeReport;

/// Warm-state memoization across run_composite calls that share a scenario
/// (same topology, workload, demands, backend, and per-switch mechanism
/// parameters) while varying the stack composition, OCS device count,
/// horizon, or domain budgets — the what-if axes the serve engine sweeps.
///
/// The cache absorbs the expensive, composition-independent work: the
/// backend simulation runs (keyed by the disabled-switch set), the tailoring
/// pass, the extracted per-switch load traces, and the un-telemetered
/// per-stage mechanism totals. Everything cached is a deterministic pure
/// function of the scenario, so cached and cold calls return bit-identical
/// reports — the golden equivalence test pins that.
///
/// One cache must only ever see one scenario: the first run stamps a
/// fingerprint (topology size, workload volume, backend, mechanism knobs)
/// and a later run with a different fingerprint is rejected with
/// std::invalid_argument("CompositeCache: ..."). Concurrent runs sharing a
/// cache are serialized on an internal mutex; use one cache per scenario
/// for parallelism.
class CompositeCache {
 public:
  CompositeCache();
  ~CompositeCache();
  CompositeCache(const CompositeCache&) = delete;
  CompositeCache& operator=(const CompositeCache&) = delete;

  /// Backend simulation runs answered from the cache (not re-simulated).
  [[nodiscard]] std::size_t sim_reuses() const;
  /// run_stage totals answered from the cache.
  [[nodiscard]] std::size_t stage_reuses() const;

 private:
  friend CompositeReport run_composite(const BuiltTopology& topology,
                                       const std::vector<FlowSpec>& workload,
                                       const std::vector<TrafficDemand>& demands,
                                       Seconds horizon,
                                       const CompositeConfig& config);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct CompositeConfig {
  bool tailor = true;      ///< §4.2 static: OCS topology tailoring
  bool park = true;        ///< §4.4 dynamic: pipeline parking
  bool rate_adapt = true;  ///< §4.3 dynamic: per-pipeline rate adaptation
  TailorConfig tailor_config{};
  ParkingConfig parking{};
  RateAdaptConfig rate{};
  /// OCS devices stitching the tailored fabric; their draw charges every
  /// tailored stage (the "is the addition worth it?" bookkeeping).
  int num_ocs_devices = 0;
  OcsOverheadModel ocs{};
  /// Which simulator runs the workload. The default single backend is
  /// bit-identical to the pre-seam driver; the sharded backend opens
  /// multi-pod scale and switches the core tier to aggregate-load policies
  /// (see docs/MODELS.md, "Backend-agnostic experiments").
  BackendConfig backend{};
  /// Per-pod and core-layer domain accounting/budgets.
  PowerDomainsConfig domains{};
  /// Optional telemetry bundle (must outlive the call). The combined-stack
  /// per-switch mechanism runs record their transitions/breakpoints into
  /// the event log and accumulate "mech.<name>.*" metrics; the composite
  /// totals land under "composite.*".
  telemetry::Telemetry* telemetry = nullptr;
  /// Optional warm-state cache (must outlive the call). When set, the
  /// simulation runs, tailoring pass, traces, and un-telemetered stage
  /// totals are memoized across calls sharing the scenario; results stay
  /// bit-identical to cold calls. Null memoizes within the call only (a
  /// call-local cache). Telemetered stages always re-run so their
  /// events/metrics are emitted every call.
  CompositeCache* cache = nullptr;
};

/// One mechanism (or the full stack) over the common workload.
struct CompositeStageResult {
  std::string name;
  Joules energy{};
  double savings = 0.0;  ///< vs the all-on baseline
};

/// One power domain's share of the combined stack: a pod ("pod<i>", the
/// structural pods of topo/pods.h) or the core layer ("core", which also
/// carries the OCS draw when tailoring is enabled).
struct DomainReport {
  std::string name;
  std::size_t switches = 0;
  Joules energy{};           ///< combined stack, this domain's switches
  Joules baseline_energy{};  ///< all-on, same switches
  double savings = 0.0;
  Watts average_power{};
  Watts budget{};  ///< 0 = unbudgeted
  bool within_budget = true;
};

struct CompositeReport {
  /// Energy-accounting window: the requested horizon, extended to cover
  /// the slower of the two simulation runs when the workload outruns it.
  Seconds horizon{};
  std::size_t switches_total = 0;
  Joules baseline_energy{};  ///< all switches on, nominal clocks, full lanes
  Joules energy{};           ///< the enabled stack, OCS draw included
  double combined_savings = 0.0;
  /// Best single enabled mechanism's savings (the stack must beat it).
  double best_single_savings = 0.0;
  std::vector<CompositeStageResult> singles;
  TailorResult tailoring;  ///< only populated when tailoring is enabled
  /// Transition/loss accounting of the combined stack.
  std::size_t wake_transitions = 0;
  std::size_t park_transitions = 0;
  std::size_t level_transitions = 0;
  Bits dropped{};
  Watts average_power{};
  Watts baseline_average_power{};
  /// Per-pod + core breakdown of the combined stack (empty when the
  /// topology has no structural pod partition).
  std::vector<DomainReport> domains;
};

/// Runs the enabled mechanism stack (and each enabled mechanism alone) over
/// `workload` on `topology`. `demands` is the steady-state matrix tailoring
/// must keep satisfiable. The horizon is extended automatically if the
/// workload finishes later.
[[nodiscard]] CompositeReport run_composite(
    const BuiltTopology& topology, const std::vector<FlowSpec>& workload,
    const std::vector<TrafficDemand>& demands, Seconds horizon,
    const CompositeConfig& config);

}  // namespace netpp
