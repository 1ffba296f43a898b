#include "netpp/netsim/fairshare.h"

#include <gtest/gtest.h>

#include <limits>

namespace netpp {
namespace {

TEST(FairShare, SingleFlowGetsFullLink) {
  const std::vector<FairShareFlow> flows = {{{0}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, EqualSplitOnSharedLink) {
  const std::vector<FairShareFlow> flows = {{{0}, 0.0}, {{0}, 0.0},
                                            {{0}, 0.0}, {{0}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 25.0);
}

TEST(FairShare, ClassicTandemExample) {
  // Links: 0 (cap 1), 1 (cap 1). Flow A uses both; flow B uses link 0;
  // flow C uses link 1. Max-min: A=0.5, B=0.5, C=0.5.
  const std::vector<FairShareFlow> flows = {{{0, 1}, 0.0}, {{0}, 0.0},
                                            {{1}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 0.5);
}

TEST(FairShare, BottleneckFreesCapacityElsewhere) {
  // Link 0 cap 1 shared by A,B; link 1 cap 10 used by B,C.
  // A,B bottlenecked at 0.5 on link 0; C then gets 9.5 on link 1.
  const std::vector<FairShareFlow> flows = {{{0}, 0.0}, {{0, 1}, 0.0},
                                            {{1}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {1.0, 10.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 9.5);
}

TEST(FairShare, PerFlowCapBindsBeforeLink) {
  // Two flows on a 100 link, one capped at 10: capped flow gets 10, the
  // other gets the remaining 90.
  const std::vector<FairShareFlow> flows = {{{0}, 10.0}, {{0}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);
}

TEST(FairShare, CapAboveFairShareIsInert) {
  const std::vector<FairShareFlow> flows = {{{0}, 80.0}, {{0}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(FairShare, EmptyPathUncappedGetsZero) {
  const std::vector<FairShareFlow> flows = {{{}, 0.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
}

TEST(FairShare, EmptyPathCappedGetsCap) {
  const std::vector<FairShareFlow> flows = {{{}, 42.0}};
  const auto rates = max_min_fair_rates(flows, {100.0});
  EXPECT_DOUBLE_EQ(rates[0], 42.0);
}

TEST(FairShare, NoFlowsIsFine) {
  const auto rates = max_min_fair_rates({}, {100.0});
  EXPECT_TRUE(rates.empty());
}

TEST(FairShare, InvalidInputsThrow) {
  EXPECT_THROW(max_min_fair_rates({{{0}, 0.0}}, {-1.0}),
               std::invalid_argument);
  EXPECT_THROW(max_min_fair_rates(
                   {{{0}, 0.0}},
                   {std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(max_min_fair_rates({{{5}, 0.0}}, {100.0}), std::out_of_range);
  // An index that would wrap to a valid one when narrowed to 32 bits.
  EXPECT_THROW(max_min_fair_rates({{{std::size_t{1} << 32}, 0.0}}, {100.0}),
               std::out_of_range);
}

TEST(FairShare, ZeroCapacityPinsFlowsToZero) {
  // A dead (disabled or fully degraded) resource is a valid input: flows
  // crossing it get rate 0, everyone else shares normally.
  const auto rates = max_min_fair_rates({{{0}, 0.0}, {{1}, 0.0}},
                                        {0.0, 100.0});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(FairShare, NoLinkExceedsCapacity) {
  // Random-ish deterministic mesh of flows; verify feasibility.
  std::vector<FairShareFlow> flows;
  const std::vector<double> caps = {10.0, 20.0, 5.0, 40.0};
  for (std::size_t f = 0; f < 12; ++f) {
    FairShareFlow flow;
    flow.resources = {f % caps.size(), (f * 7 + 1) % caps.size()};
    if (flow.resources[0] == flow.resources[1]) flow.resources.pop_back();
    flow.cap = (f % 3 == 0) ? 3.0 : 0.0;
    flows.push_back(flow);
  }
  const auto rates = max_min_fair_rates(flows, caps);
  std::vector<double> used(caps.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(rates[f], 0.0);
    for (auto r : flows[f].resources) used[r] += rates[f];
  }
  for (std::size_t r = 0; r < caps.size(); ++r) {
    EXPECT_LE(used[r], caps[r] + 1e-9) << "link " << r;
  }
}

// Max-min property: you cannot raise any flow's rate without lowering that
// of a flow with an equal-or-smaller rate. We verify a necessary condition:
// every flow is either at its cap or crosses a saturated link where it has
// a maximal rate among that link's flows.
TEST(FairShare, MaxMinPropertyHolds) {
  std::vector<FairShareFlow> flows = {
      {{0, 1}, 0.0}, {{1, 2}, 0.0}, {{0, 2}, 0.0}, {{1}, 7.0}, {{2}, 0.0}};
  const std::vector<double> caps = {30.0, 25.0, 60.0};
  const auto rates = max_min_fair_rates(flows, caps);

  std::vector<double> used(caps.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (auto r : flows[f].resources) used[r] += rates[f];
  }
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].cap > 0.0 && rates[f] >= flows[f].cap - 1e-9) continue;
    bool bottlenecked = false;
    for (auto r : flows[f].resources) {
      if (used[r] >= caps[r] - 1e-9) {
        double max_on_link = 0.0;
        for (std::size_t g = 0; g < flows.size(); ++g) {
          for (auto rr : flows[g].resources) {
            if (rr == r) max_on_link = std::max(max_on_link, rates[g]);
          }
        }
        if (rates[f] >= max_on_link - 1e-9) bottlenecked = true;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " rate " << rates[f];
  }
}

}  // namespace
}  // namespace netpp
