// The pre-optimization max-min solver, kept verbatim as the semantic
// reference for the equivalence property tests (fairshare_property_test,
// fairshare_soa_test). O(rounds x (links + flows)) progressive filling with
// per-round linear scans; the optimized solver must be bit-identical to
// this on every SIMD dispatch path — both perform the same IEEE arithmetic
// in the same order, so the tests compare with EXPECT_EQ, not EXPECT_NEAR.
// Also home to the CSR flattening the tests feed MaxMinSolver's entry
// points with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "netpp/netsim/fairshare.h"

namespace netpp::testing {

/// A problem as the CSR rows MaxMinSolver takes: flow f's resources are
/// arena[start[f] .. start[f+1]) and its cap is caps[f].
struct CsrRows {
  std::vector<std::uint32_t> arena;
  std::vector<std::uint32_t> start{0};
  std::vector<double> caps;
};

inline CsrRows to_csr_rows(const std::vector<FairShareFlow>& flows) {
  CsrRows rows;
  for (const FairShareFlow& flow : flows) {
    for (const std::size_t r : flow.resources) {
      rows.arena.push_back(static_cast<std::uint32_t>(r));
    }
    rows.start.push_back(static_cast<std::uint32_t>(rows.arena.size()));
    rows.caps.push_back(flow.cap);
  }
  return rows;
}

inline std::vector<double> max_min_fair_rates_reference(
    const std::vector<FairShareFlow>& flows,
    const std::vector<double>& capacities) {
  const std::size_t num_flows = flows.size();
  const std::size_t num_res = capacities.size();

  std::vector<double> rate(num_flows, 0.0);
  std::vector<bool> frozen(num_flows, false);
  std::vector<double> residual = capacities;
  std::vector<std::size_t> active_on(num_res, 0);

  std::vector<std::vector<std::size_t>> flows_on(num_res);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (std::size_t r : flows[f].resources) {
      flows_on[r].push_back(f);
      ++active_on[r];
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t remaining = num_flows;
  while (remaining > 0) {
    double link_share = kInf;
    std::size_t tight_link = num_res;
    for (std::size_t r = 0; r < num_res; ++r) {
      if (active_on[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(active_on[r]);
      if (share < link_share) {
        link_share = share;
        tight_link = r;
      }
    }
    double cap_level = kInf;
    std::size_t capped_flow = num_flows;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      if (flows[f].cap > 0.0 && flows[f].cap < cap_level) {
        cap_level = flows[f].cap;
        capped_flow = f;
      }
    }
    if (tight_link == num_res && capped_flow == num_flows) break;
    if (cap_level <= link_share) {
      frozen[capped_flow] = true;
      rate[capped_flow] = cap_level;
      --remaining;
      for (std::size_t r : flows[capped_flow].resources) {
        residual[r] -= cap_level;
        if (residual[r] < 0.0) residual[r] = 0.0;
        --active_on[r];
      }
      continue;
    }
    for (std::size_t f : flows_on[tight_link]) {
      if (frozen[f]) continue;
      frozen[f] = true;
      rate[f] = link_share;
      --remaining;
      for (std::size_t r : flows[f].resources) {
        residual[r] -= link_share;
        if (residual[r] < 0.0) residual[r] = 0.0;
        --active_on[r];
      }
    }
  }
  return rate;
}

}  // namespace netpp::testing
