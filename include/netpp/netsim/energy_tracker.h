// Whole-fabric energy accounting on top of the flow simulator.
//
// Attaches a power model to every network device of a simulated topology —
// switches, host NICs, and the optical transceivers on inter-switch links —
// and integrates their energy as the simulation runs, on the same
// PowerStateTimeline the §4 mechanisms use: one timeline per device class
// that has devices, each device one component whose track load is the
// device's load. The actual power function prices the class's power curve;
// the baseline prices the §3.1 ideal-proportional draw, so the efficiency
// metric is the ratio of the two integrals. Two device power modes:
//
//   kTwoState   — the paper's §2.3 model: a device draws idle power when it
//                 carries no traffic and max power when it does (envelope
//                 from the configured proportionality). This is the mode to
//                 cross-validate the analytic ClusterModel against.
//   kComponent  — switches use the component-level SwitchPowerModel at
//                 their instantaneous load (linear in utilization); NICs and
//                 transceivers stay two-state.
//
// Attach via `FlowSimulator::set_load_listener(tracker.listener())` (or
// chain it from your own listener) before submitting flows.
#pragma once

#include <cstdint>
#include <vector>

#include "netpp/mech/mechanism.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/power/state_timeline.h"
#include "netpp/power/switch_model.h"

namespace netpp {

enum class DevicePowerMode {
  kTwoState,
  kComponent,
};

class FabricEnergyTracker {
 public:
  struct Config {
    /// Applies to switches, NICs, and transceivers alike (paper §2.3.2).
    double network_proportionality = 0.10;
    Watts switch_max{750.0};
    Watts nic_max{8.6};
    Watts transceiver_max{4.0};
    DevicePowerMode mode = DevicePowerMode::kTwoState;
    /// Used for switches in kComponent mode.
    SwitchPowerModel component_model{};
  };

  /// `sim` must outlive the tracker. Hosts get one NIC each; every optical
  /// link gets two transceivers; every switch-kind node gets a switch.
  /// Every device starts idle at time 0.
  FabricEnergyTracker(const FlowSimulator& sim, Config config);

  /// Integrates every device class through `now`, then records each
  /// device's load at `now`. Call on every reallocation.
  void on_load_change(Seconds now);

  /// Adapter for FlowSimulator::set_load_listener.
  [[nodiscard]] FlowSimulator::LoadListener listener();

  /// Energy queries integrate through `until`, which must not precede the
  /// last on_load_change(); past it, the last recorded loads hold.
  [[nodiscard]] Joules network_energy(Seconds until) const;
  [[nodiscard]] Watts average_network_power(Seconds until) const;

  /// Per component class.
  [[nodiscard]] Joules switch_energy(Seconds until) const;
  [[nodiscard]] Joules nic_energy(Seconds until) const;
  [[nodiscard]] Joules transceiver_energy(Seconds until) const;

  /// Paper §3.1 energy-efficiency metric over the whole fabric:
  /// ideally-proportional energy / actual energy.
  [[nodiscard]] double network_energy_efficiency(Seconds until) const;

  /// Max power if every device ran at max simultaneously.
  [[nodiscard]] Watts max_network_power() const;

  /// The fabric's energy accounting in the mechanism layer's common
  /// currency: baseline = every device at max power over the window, so the
  /// tracker's results line up next to MechanismPolicy runs. `until` must
  /// be positive.
  [[nodiscard]] MechanismReport report(Seconds until) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  enum class DeviceKind { kSwitch, kNic, kTransceiver };

  /// A device class with at least one device. Device i is component i of
  /// `timeline`, and its track's load is the device's load.
  struct DeviceClass {
    DeviceKind kind;
    /// Per device: the switch node, the NIC's host node, or the optical
    /// link a transceiver terminates (two devices per link).
    std::vector<std::uint32_t> elements;
    Watts max_power;  ///< per device
    PowerStateTimeline timeline;
  };

  /// Adds a class priced by `actual` unless `elements` is empty.
  void add_class(DeviceKind kind, std::vector<std::uint32_t> elements,
                 Watts max_power, PowerStateTimeline::PowerFn actual);
  [[nodiscard]] double device_load(DeviceKind kind,
                                   std::uint32_t element) const;
  /// A copy of `cls.timeline` advanced to `until`.
  [[nodiscard]] PowerStateTimeline integrated(const DeviceClass& cls,
                                              Seconds until) const;
  [[nodiscard]] Joules energy_of_kind(DeviceKind kind, Seconds until) const;

  const FlowSimulator& sim_;
  Config config_;
  /// In DeviceKind order.
  std::vector<DeviceClass> classes_;
};

}  // namespace netpp
