#include "netpp/netsim/energy_tracker.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "netpp/topo/builders.h"

namespace netpp {
namespace {

using namespace netpp::literals;

struct Rig {
  BuiltTopology topo = build_leaf_spine(2, 1, 1, 100_Gbps, 100_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};
};

FabricEnergyTracker::Config small_config() {
  FabricEnergyTracker::Config cfg;
  cfg.switch_max = 100.0_W;
  cfg.nic_max = 10.0_W;
  cfg.transceiver_max = 4.0_W;
  cfg.network_proportionality = 0.10;
  return cfg;
}

TEST(FabricEnergyTracker, DeviceInventory) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  // 2 leaves + 1 spine = 3 switches; 2 hosts = 2 NICs; 2 optical leaf-spine
  // links = 4 transceivers. Max power = 3*100 + 2*10 + 4*4 = 336 W.
  EXPECT_NEAR(tracker.max_network_power().value(), 336.0, 1e-9);
}

TEST(FabricEnergyTracker, IdleFabricDrawsIdlePower) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  tracker.on_load_change(0.0_s);
  rig.engine.run_until(10.0_s);
  // 10% proportionality: idle = 0.9 * max.
  EXPECT_NEAR(tracker.average_network_power(10.0_s).value(), 0.9 * 336.0,
              1e-6);
  EXPECT_NEAR(tracker.network_energy(10.0_s).value(), 9.0 * 336.0, 1e-6);
}

TEST(FabricEnergyTracker, ActiveDevicesChargeMaxPower) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  rig.sim.set_load_listener(tracker.listener());
  tracker.on_load_change(0.0_s);
  // Host0 (leaf0) -> host1 (leaf1): crosses both leaves, the spine, both
  // optical links; 100 Gbit at 100 G = 1 s active out of 10 s.
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 0.0_s, 0});
  rig.engine.run();
  rig.engine.run_until(10.0_s);
  tracker.on_load_change(10.0_s);

  // Energy = idle everywhere for 10 s + (max - idle) of every device for
  // the 1 busy second (all devices are on the path here).
  const double idle = 0.9 * 336.0;
  const double expected = idle * 10.0 + (336.0 - idle) * 1.0;
  EXPECT_NEAR(tracker.network_energy(10.0_s).value(), expected, 1e-6);
}

TEST(FabricEnergyTracker, BreakdownSumsToTotal) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  rig.sim.set_load_listener(tracker.listener());
  tracker.on_load_change(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(50.0), 1.0_s, 0});
  rig.engine.run();
  rig.engine.run_until(5.0_s);
  const double total = tracker.network_energy(5.0_s).value();
  const double parts = tracker.switch_energy(5.0_s).value() +
                       tracker.nic_energy(5.0_s).value() +
                       tracker.transceiver_energy(5.0_s).value();
  EXPECT_NEAR(total, parts, 1e-9);
  EXPECT_GT(tracker.switch_energy(5.0_s).value(),
            tracker.nic_energy(5.0_s).value());
}

TEST(FabricEnergyTracker, EfficiencyMatchesPaperMetric) {
  // Active 10% of the time at full load with 10% proportionality -> ~11%.
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  rig.sim.set_load_listener(tracker.listener());
  tracker.on_load_change(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 0.0_s, 0});
  rig.engine.run();
  rig.engine.run_until(10.0_s);
  tracker.on_load_change(10.0_s);
  EXPECT_NEAR(tracker.network_energy_efficiency(10.0_s), 0.11, 0.01);
}

TEST(FabricEnergyTracker, FullProportionalityIsFullyEfficient) {
  Rig rig;
  auto cfg = small_config();
  cfg.network_proportionality = 1.0;
  FabricEnergyTracker tracker{rig.sim, cfg};
  rig.sim.set_load_listener(tracker.listener());
  tracker.on_load_change(0.0_s);
  rig.sim.submit(FlowSpec{rig.topo.hosts[0], rig.topo.hosts[1],
                          Bits::from_gigabits(100.0), 0.0_s, 0});
  rig.engine.run();
  rig.engine.run_until(10.0_s);
  tracker.on_load_change(10.0_s);
  EXPECT_NEAR(tracker.network_energy_efficiency(10.0_s), 1.0, 0.05);
}

TEST(FabricEnergyTracker, ComponentModeUsesSwitchModel) {
  Rig rig;
  auto cfg = small_config();
  cfg.mode = DevicePowerMode::kComponent;
  cfg.component_model = SwitchPowerModel{};  // 750 W, 10% proportional
  FabricEnergyTracker tracker{rig.sim, cfg};
  tracker.on_load_change(0.0_s);
  rig.engine.run_until(4.0_s);
  // 3 switches at component idle (675 W) + NICs/transceivers two-state idle.
  const double expected =
      3.0 * 675.0 + 0.9 * (2.0 * 10.0 + 4.0 * 4.0);
  EXPECT_NEAR(tracker.average_network_power(4.0_s).value(), expected, 1e-6);
}

TEST(FabricEnergyTracker, InvalidHorizonThrows) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  const auto thrown_message = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  };
  tracker.on_load_change(2.0_s);
  for (const std::string& message :
       {thrown_message([&] { (void)tracker.average_network_power(0.0_s); }),
        thrown_message([&] { (void)tracker.report(0.0_s); }),
        thrown_message([&] { (void)tracker.network_energy(1.0_s); })}) {
    EXPECT_EQ(message.rfind("FabricEnergyTracker: ", 0), 0u) << message;
  }
}

TEST(FabricEnergyTracker, ElectricalOnlyFabricHasNoTransceivers) {
  // One switch between two hosts over electrical links: no transceiver
  // class at all, so the switch and the two NICs carry the whole fabric.
  Graph graph;
  const NodeId h0 = graph.add_node(NodeKind::kHost);
  const NodeId sw = graph.add_node(NodeKind::kSwitch, 1);
  const NodeId h1 = graph.add_node(NodeKind::kHost);
  graph.add_link(h0, sw, 100_Gbps);
  graph.add_link(sw, h1, 100_Gbps);
  SimEngine engine;
  Router router{graph};
  FlowSimulator sim{graph, router, engine};
  FabricEnergyTracker tracker{sim, small_config()};
  sim.set_load_listener(tracker.listener());
  tracker.on_load_change(0.0_s);
  sim.submit(FlowSpec{h0, h1, Bits::from_gigabits(100.0), 0.0_s, 0});
  engine.run();  // the flow completes at 1 s, the last load change

  EXPECT_NEAR(tracker.max_network_power().value(), 120.0, 1e-9);
  EXPECT_EQ(tracker.transceiver_energy(4.0_s).value(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.network_energy(4.0_s).value(),
                   tracker.switch_energy(4.0_s).value() +
                       tracker.nic_energy(4.0_s).value());
  // Idle (0.9 x 120 W) for 4 s plus the idle/max gap for the busy second.
  EXPECT_NEAR(tracker.network_energy(4.0_s).value(), 108.0 * 4.0 + 12.0,
              1e-6);
}


TEST(FabricEnergyTracker, ReportUsesMaxPowerBaseline) {
  Rig rig;
  FabricEnergyTracker tracker{rig.sim, small_config()};
  tracker.on_load_change(0.0_s);
  rig.engine.run_until(5.0_s);

  const MechanismReport report = tracker.report(5.0_s);
  EXPECT_EQ(report.mechanism, "fabric");
  EXPECT_DOUBLE_EQ(report.duration.value(), 5.0);
  EXPECT_DOUBLE_EQ(report.energy.value(), tracker.network_energy(5.0_s).value());
  EXPECT_DOUBLE_EQ(report.baseline_energy.value(),
                   tracker.max_network_power().value() * 5.0);
  // An idle fabric saves exactly the idle/max gap.
  EXPECT_GT(report.savings, 0.0);
  EXPECT_DOUBLE_EQ(report.average_power.value(),
                   tracker.average_network_power(5.0_s).value());
  EXPECT_THROW((void)tracker.report(Seconds{0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace netpp
