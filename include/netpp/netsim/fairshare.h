// Max-min fair bandwidth allocation (progressive filling / water-filling).
//
// The flow-level simulator models TCP-like bandwidth sharing: each active
// flow gets its max-min fair rate given the capacities of the directed links
// it crosses. Progressive filling: repeatedly find the most contended link,
// freeze its flows at the link's equal share, subtract, repeat.
//
// The solver is built for the simulator's hot path: flows arrive as
// caller-owned CSR rows (one 32-bit resource arena plus per-flow start
// offsets) that the solver reads in place, every workspace is a contiguous
// structure-of-arrays buffer (soa.h aligned vectors, 32-bit indices), the
// resource->flow incidence is the reverse CSR of the caller's rows, and the
// "find the tightest link / smallest cap" steps run over lazy-delete
// min-heaps instead of per-round linear scans. The bulk cap-freeze
// dispatches to the soa.h fill_unfrozen kernel (scalar or, with NETPP_SIMD,
// AVX2). Results are bit-identical across dispatch paths,
// and to the textbook scan-based implementation (kept as a reference in the
// tests and the scale bench) on the randomized problems the tests draw:
// shares are computed with the same IEEE-exact expressions in the same
// order, and ties break toward the lowest index exactly as a first-hit
// linear scan does. They are not bit-identical to it on every problem. The
// lazy heap relies on a freeze never lowering a touched link's share, which
// holds in exact arithmetic but not after rounding: (residual - v) / (n - 1)
// can land one step below residual / n, the heap then pops a different
// tightest link than the scan would, and a few rates move by 1 ulp.
// Replaying 20,000 solve_arena calls of a k=8 pod Poisson run gave 31 such
// rates out of 2,954,520, in 23 problems (ROADMAP.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netpp/netsim/soa.h"

namespace netpp {

/// One flow's demand: the indices of the (directed) resources it uses.
/// An empty set means the flow is unconstrained (gets +inf -> callers clamp).
struct FairShareFlow {
  std::vector<std::size_t> resources;
  /// Optional per-flow rate cap (e.g. the sender NIC). <= 0 means uncapped.
  double cap = 0.0;
};

/// Reusable max-min solver. Keeping one instance alive across solves reuses
/// all workspace buffers (CSR arrays, heaps, residuals), so a steady-state
/// simulation allocates nothing per event.
///
/// Problem-size limit: at most 2^31 - 1 total flow->resource incidences (and
/// flows, and resources) per solve; beyond that either entry point throws
/// std::length_error. The bound keeps every index and count in 32 bits
/// (exactly convertible to double on all kernel paths).
class MaxMinSolver {
 public:
  /// Lifetime totals over this instance, for telemetry: how often the
  /// solver ran and how big the problems were (mean problem size is
  /// flows_solved / solves).
  struct SolveStats {
    std::uint64_t solves = 0;
    std::uint64_t flows_solved = 0;
  };
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

  /// Snapshot restore: overwrites the lifetime totals verbatim (the scratch
  /// arenas are rebuilt by the next solve and carry no cross-call state).
  void restore_stats(const SolveStats& s) { stats_ = s; }

  /// Dense solve. Flow f crosses resources arena[start[f] .. start[f+1])
  /// (so `start` has caps.size() + 1 entries and start[0] == 0), and
  /// caps[f] is its rate cap (<= 0 means uncapped; an uncapped flow that
  /// crosses no resource gets 0). `capacities[r]` is the capacity of
  /// resource r (>= 0; a zero-capacity resource pins the flows crossing it
  /// to rate 0). Returns one rate per flow, in row order; the view stays
  /// valid until the next solve on this instance. `arena` and `start` must
  /// stay alive and unchanged for the duration of the call. Throws
  /// std::invalid_argument for malformed rows or a negative/NaN capacity,
  /// and std::out_of_range for a resource index outside `capacities`.
  std::span<const double> solve(std::span<const std::uint32_t> arena,
                                std::span<const std::uint32_t> start,
                                std::span<const double> caps,
                                std::span<const double> capacities);

  /// Sparse solve for repeated small subproblems over a big fabric, with
  /// the same row layout as solve(). `touched` must list every resource
  /// index any row uses, each exactly once (order free), and every flow is
  /// capped at `uniform_cap` (> 0). Only the touched entries of the
  /// resource-indexed workspace are reset and capacities are trusted (no
  /// NaN scan), so a solve costs O(flows + touched + incidence) instead of
  /// O(total resources). Returns exactly the doubles solve() would for the
  /// same rows with every cap equal to `uniform_cap`.
  std::span<const double> solve_arena(std::span<const std::uint32_t> arena,
                                      std::span<const std::uint32_t> start,
                                      std::span<const double> capacities,
                                      std::span<const std::uint32_t> touched,
                                      double uniform_cap);

 private:
  struct HeapEntry {
    double key;
    std::uint32_t idx;
    /// Resource version at push time (link heap only). While it still
    /// matches res_ver_[idx] the key is exactly the resource's current
    /// share, so run() accepts the entry without re-dividing.
    std::uint32_t ver;
  };

  /// Checks the problem-size bound and counts each resource's incidence
  /// into active_on_, then points run() at the caller's rows.
  void ingest(std::span<const std::uint32_t> arena,
              std::span<const std::uint32_t> start, std::size_t num_res);

  /// The progressive-filling loop over the ingested rows. `dense` means
  /// "touched == every resource" (solve()); the touched span is only read
  /// when !dense.
  std::span<const double> run(std::size_t num_flows,
                              std::span<const double> capacities,
                              std::span<const std::uint32_t> touched,
                              bool dense, double uniform_cap);

  void freeze(std::uint32_t f, double value);

  // Flow-indexed SoA workspace.
  soa::AlignedVec<double> rate_;
  soa::AlignedVec<double> flow_cap_;       // per-flow cap (non-uniform runs)
  soa::AlignedVec<std::uint8_t> frozen_;
  // The caller's rows (flow -> resources), read in place by run() and
  // freeze().
  const std::uint32_t* fres_ = nullptr;
  const std::uint32_t* fstart_ = nullptr;
  // Resource-indexed SoA workspace (grow-only, sparse reset over `touched`).
  soa::AlignedVec<double> residual_;        // remaining capacity
  soa::AlignedVec<std::uint32_t> active_on_;  // unfrozen-flow degree
  soa::AlignedVec<std::uint32_t> res_ver_;    // bumped on every freeze touch
  // Reverse CSR: resource -> flows, grouped in flow order.
  soa::AlignedVec<std::uint32_t> csr_start_;   // per-resource group start
  soa::AlignedVec<std::uint32_t> csr_cursor_;  // fill cursor / group end
  soa::AlignedVec<std::uint32_t> csr_flows_;   // flow ids grouped by resource
  soa::AlignedVec<HeapEntry> link_heap_;  // (share, resource), lazy-delete
  soa::AlignedVec<HeapEntry> cap_heap_;   // (cap, flow), lazy-delete
  SolveStats stats_;
};

/// Convenience wrapper over MaxMinSolver for owned-vector callers (tests,
/// one-off analyses): flattens `flows` into CSR rows and runs the dense
/// solve. Throws std::out_of_range for a resource index outside
/// `capacities`. Hot paths should hold a MaxMinSolver and pass their own
/// rows.
[[nodiscard]] std::vector<double> max_min_fair_rates(
    const std::vector<FairShareFlow>& flows,
    const std::vector<double>& capacities);

}  // namespace netpp
