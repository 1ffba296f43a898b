// Equivalence property test: the CSR + lazy-heap solver must be
// bit-identical to the original scan-based progressive-filling solver on
// randomized topologies and flow sets, including the awkward corners
// (capped flows, links with no flows, stalled zero-rate flows, empty
// paths, duplicate resources). "Bit-identical" is deliberate — both solvers
// perform the same arithmetic in the same order, so EXPECT_EQ on doubles,
// not EXPECT_NEAR.
#include "netpp/netsim/fairshare.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "fairshare_reference.h"
#include "netpp/sim/random.h"

namespace netpp {
namespace {

using netpp::testing::CsrRows;
using netpp::testing::max_min_fair_rates_reference;
using netpp::testing::to_csr_rows;

void expect_bit_identical(const std::vector<FairShareFlow>& flows,
                          const std::vector<double>& caps,
                          const char* what) {
  const auto expected = max_min_fair_rates_reference(flows, caps);
  const auto actual = max_min_fair_rates(flows, caps);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(actual[f], expected[f]) << what << ", flow " << f;
  }
}

std::vector<FairShareFlow> random_problem(Rng& rng, std::size_t num_res,
                                          std::size_t num_flows) {
  std::vector<FairShareFlow> flows;
  flows.reserve(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    FairShareFlow flow;
    const auto path_len = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t h = 0; h < path_len; ++h) {
      // Duplicates allowed on purpose: the solver must treat a flow listed
      // twice on a link exactly like the reference does.
      flow.resources.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_res) - 1)));
    }
    const double roll = rng.uniform();
    if (roll < 0.3) {
      flow.cap = rng.uniform(0.1, 5.0);  // often binding
    } else if (roll < 0.5) {
      flow.cap = rng.uniform(50.0, 500.0);  // mostly inert
    }
    flows.push_back(std::move(flow));
  }
  return flows;
}

TEST(FairShareProperty, RandomizedBitIdenticalToReference) {
  Rng rng{0x5eedUL};
  for (int trial = 0; trial < 500; ++trial) {
    const auto num_res = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto num_flows = static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<double> caps(num_res);
    for (auto& c : caps) c = rng.uniform(0.5, 100.0);
    const auto flows = random_problem(rng, num_res, num_flows);
    expect_bit_identical(flows, caps, "randomized trial");
    if (HasFatalFailure()) return;
  }
}

TEST(FairShareProperty, UniformCapsLikeTheFlowSimulator) {
  // The simulator's regime: every flow carries the same NIC cap.
  Rng rng{0xCAFEUL};
  for (int trial = 0; trial < 200; ++trial) {
    const auto num_res = static_cast<std::size_t>(rng.uniform_int(2, 16));
    const auto num_flows = static_cast<std::size_t>(rng.uniform_int(1, 60));
    std::vector<double> caps(num_res, 100.0);
    auto flows = random_problem(rng, num_res, num_flows);
    for (auto& flow : flows) flow.cap = 25.0;
    expect_bit_identical(flows, caps, "uniform caps trial");
    if (HasFatalFailure()) return;
  }
}

TEST(FairShareProperty, ZeroActiveLinkIsIgnored) {
  // Resource 1 has no flows; it must not affect the result.
  const std::vector<FairShareFlow> flows = {{{0}, 0.0}, {{0, 2}, 0.0}};
  expect_bit_identical(flows, {10.0, 1.0, 50.0}, "zero-active link");
}

TEST(FairShareProperty, StalledFlowsGetZero) {
  // Uncapped flows that cross no capacitated resource take the solver's
  // terminal break path and stall at rate 0 — even when mixed with real
  // link-crossing and capped flows that keep the filling loop busy.
  std::vector<FairShareFlow> flows;
  for (int i = 0; i < 4; ++i) flows.push_back({{0}, 2.5});
  flows.push_back({{0}, 0.0});
  flows.push_back({{0, 1}, 0.0});
  flows.push_back({{}, 0.0});  // stalled: no resources, no cap
  flows.push_back({{}, 0.0});
  const std::vector<double> caps = {10.0, 7.0};
  expect_bit_identical(flows, caps, "stalled flows");
  const auto rates = max_min_fair_rates(flows, caps);
  EXPECT_EQ(rates[6], 0.0);
  EXPECT_EQ(rates[7], 0.0);
  // The contended link's flows all land on its equal share instead.
  EXPECT_GT(rates[4], 0.0);
}

TEST(FairShareProperty, CappedFlowBelowAndAboveShare) {
  const std::vector<FairShareFlow> flows = {
      {{0}, 10.0}, {{0}, 0.0}, {{0}, 80.0}, {{}, 42.0}, {{}, 0.0}};
  expect_bit_identical(flows, {100.0}, "cap edge cases");
}

TEST(FairShareProperty, SolverWorkspaceReuseIsClean) {
  // One MaxMinSolver instance solving many different problems must give the
  // same answers as a fresh solver each time (no state leaks across solves).
  Rng rng{0xBEEFUL};
  MaxMinSolver reused;
  for (int trial = 0; trial < 100; ++trial) {
    const auto num_res = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const auto num_flows = static_cast<std::size_t>(rng.uniform_int(0, 30));
    std::vector<double> caps(num_res);
    for (auto& c : caps) c = rng.uniform(1.0, 50.0);
    const auto flows = random_problem(rng, num_res, num_flows);

    const CsrRows rows = to_csr_rows(flows);
    const auto from_reused =
        reused.solve(rows.arena, rows.start, rows.caps, caps);
    const auto fresh = max_min_fair_rates(flows, caps);
    ASSERT_EQ(from_reused.size(), fresh.size());
    for (std::size_t f = 0; f < fresh.size(); ++f) {
      EXPECT_EQ(from_reused[f], fresh[f]) << "trial " << trial;
    }
  }
}

TEST(FairShareProperty, InvalidInputsThrowLikeReference) {
  MaxMinSolver solver;
  const std::vector<double> bad_cap = {-1.0};
  const std::vector<double> good_cap = {100.0};
  const std::vector<double> uncapped = {0.0};
  // Row offsets for one flow crossing one resource, or none.
  const std::vector<std::uint32_t> one_hop_row = {0, 1};
  const std::vector<std::uint32_t> empty_row = {0, 0};
  const std::vector<std::uint32_t> out_of_range = {5};
  EXPECT_THROW(solver.solve(out_of_range, one_hop_row, uncapped, good_cap),
               std::out_of_range);
  EXPECT_THROW(solver.solve({}, empty_row, uncapped, bad_cap),
               std::invalid_argument);
  // Malformed rows: offsets that miss the arena, or a cap count that does
  // not match the row count.
  const std::vector<std::uint32_t> hop0 = {0};
  EXPECT_THROW(solver.solve(hop0, empty_row, uncapped, good_cap),
               std::invalid_argument);
  EXPECT_THROW(solver.solve(hop0, one_hop_row, {}, good_cap),
               std::invalid_argument);
  EXPECT_THROW(solver.solve_arena(hop0, empty_row, good_cap, hop0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace netpp
