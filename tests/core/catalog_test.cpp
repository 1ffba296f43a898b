#include "netpp/power/catalog.h"

#include <gtest/gtest.h>

namespace netpp {
namespace {

using namespace netpp::literals;

TEST(PowerTable, ExactEntriesReturnedVerbatim) {
  const PowerTable table{{{100.0, 4.0}, {200.0, 6.5}, {400.0, 10.0}}};
  EXPECT_DOUBLE_EQ(table.at(100_Gbps).value(), 4.0);
  EXPECT_DOUBLE_EQ(table.at(200_Gbps).value(), 6.5);
  EXPECT_DOUBLE_EQ(table.at(400_Gbps).value(), 10.0);
  ASSERT_TRUE(table.exact(200_Gbps).has_value());
  EXPECT_DOUBLE_EQ(table.exact(200_Gbps)->value(), 6.5);
  EXPECT_FALSE(table.exact(300_Gbps).has_value());
}

TEST(PowerTable, PaperNicExtrapolationMatchesStarredValues) {
  // Table 2: 800 G -> 38.6 W and 1600 G -> 58.8 W are the paper's starred
  // (extrapolated) values; they follow from continuing the 200->400 G
  // per-doubling ratio geometrically.
  const PowerTable nics{{{100.0, 8.6}, {200.0, 16.7}, {400.0, 25.4}}};
  EXPECT_NEAR(nics.at(800_Gbps).value(), 38.6, 0.05);
  EXPECT_NEAR(nics.at(1600_Gbps).value(), 58.8, 0.1);
}

TEST(PowerTable, InterpolationIsMonotoneBetweenPoints) {
  const PowerTable table{{{100.0, 8.6}, {200.0, 16.7}, {400.0, 25.4}}};
  double prev = 0.0;
  for (double s = 100.0; s <= 400.0; s += 10.0) {
    const double p = table.at(Gbps{s}).value();
    EXPECT_GT(p, prev) << "speed " << s;
    prev = p;
  }
}

TEST(PowerTable, BelowTableContinuesFirstSegment) {
  const PowerTable table{{{200.0, 16.7}, {400.0, 25.4}}};
  const double p100 = table.at(100_Gbps).value();
  // Geometric continuation downward: 16.7 / 1.521 ~ 10.98.
  EXPECT_NEAR(p100, 16.7 * 16.7 / 25.4, 0.05);
  EXPECT_LT(p100, 16.7);
  EXPECT_GT(p100, 0.0);
}

TEST(PowerTable, SingleEntryScalesLinearly) {
  const PowerTable table{{{100.0, 5.0}}};
  EXPECT_DOUBLE_EQ(table.at(200_Gbps).value(), 10.0);
  EXPECT_DOUBLE_EQ(table.at(50_Gbps).value(), 2.5);
}

TEST(PowerTable, InvalidInputsThrow) {
  EXPECT_THROW(PowerTable{{}}, std::invalid_argument);
  EXPECT_THROW((PowerTable{{{-1.0, 5.0}}}), std::invalid_argument);
  EXPECT_THROW((PowerTable{{{100.0, -5.0}}}), std::invalid_argument);
  const PowerTable table{{{100.0, 5.0}}};
  EXPECT_THROW((void)table.at(Gbps{0.0}), std::invalid_argument);
  EXPECT_THROW((void)table.at(Gbps{-10.0}), std::invalid_argument);
}

TEST(DeviceCatalog, PaperGpuEnvelope) {
  // §2.3.1: 400 W GPU + 800 W server / 8 GPUs = 500 W max; 85% proportional
  // => 75 W idle.
  const auto& cat = DeviceCatalog::paper_baseline();
  EXPECT_DOUBLE_EQ(cat.gpu_max_power().value(), 500.0);
  EXPECT_DOUBLE_EQ(cat.gpu_envelope().idle_power().value(), 75.0);
  EXPECT_DOUBLE_EQ(cat.gpu_envelope().proportionality(), 0.85);
}

TEST(DeviceCatalog, PaperSwitch) {
  const auto& cat = DeviceCatalog::paper_baseline();
  EXPECT_DOUBLE_EQ(cat.switch_max_power().value(), 750.0);
  EXPECT_DOUBLE_EQ(cat.switch_capacity().tbps(), 51.2);
}

TEST(DeviceCatalog, SwitchRadixPerPortSpeed) {
  const auto& cat = DeviceCatalog::paper_baseline();
  EXPECT_EQ(cat.switch_radix(100_Gbps), 512);
  EXPECT_EQ(cat.switch_radix(200_Gbps), 256);
  EXPECT_EQ(cat.switch_radix(400_Gbps), 128);
  EXPECT_EQ(cat.switch_radix(800_Gbps), 64);
  EXPECT_EQ(cat.switch_radix(1600_Gbps), 32);
  EXPECT_THROW((void)cat.switch_radix(Gbps{0.0}), std::invalid_argument);
  EXPECT_THROW((void)cat.switch_radix(Gbps{1e-9}), std::invalid_argument);
}

TEST(DeviceCatalog, NicPowersMatchTable2) {
  const auto& cat = DeviceCatalog::paper_baseline();
  EXPECT_DOUBLE_EQ(cat.nic_power(100_Gbps).value(), 8.6);
  EXPECT_DOUBLE_EQ(cat.nic_power(200_Gbps).value(), 16.7);
  EXPECT_DOUBLE_EQ(cat.nic_power(400_Gbps).value(), 25.4);
  EXPECT_NEAR(cat.nic_power(800_Gbps).value(), 38.6, 0.05);
  EXPECT_NEAR(cat.nic_power(1600_Gbps).value(), 58.8, 0.1);
}

TEST(DeviceCatalog, TransceiverPowersMatchTable2) {
  const auto& cat = DeviceCatalog::paper_baseline();
  EXPECT_DOUBLE_EQ(cat.transceiver_power(100_Gbps).value(), 4.0);
  EXPECT_DOUBLE_EQ(cat.transceiver_power(200_Gbps).value(), 6.5);
  EXPECT_DOUBLE_EQ(cat.transceiver_power(400_Gbps).value(), 10.0);
  EXPECT_DOUBLE_EQ(cat.transceiver_power(800_Gbps).value(), 16.5);
  EXPECT_DOUBLE_EQ(cat.transceiver_power(1600_Gbps).value(), 27.27);
}

TEST(DeviceCatalog, CustomConfig) {
  DeviceCatalog::Config cfg;
  cfg.gpu_max = Watts{700.0};  // e.g. B200-class part
  cfg.server_overhead = Watts{1600.0};
  cfg.gpus_per_server = 4;
  cfg.compute_proportionality = 0.9;
  const DeviceCatalog cat{cfg};
  EXPECT_DOUBLE_EQ(cat.gpu_max_power().value(), 1100.0);
  EXPECT_NEAR(cat.gpu_envelope().idle_power().value(), 110.0, 1e-9);
}

TEST(DeviceCatalog, InvalidConfigThrows) {
  DeviceCatalog::Config cfg;
  cfg.gpus_per_server = 0;
  EXPECT_THROW(DeviceCatalog{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace netpp
