#include "netpp/netsim/energy_tracker.h"

#include <algorithm>
#include <utility>

#include "netpp/power/envelope.h"
#include "netpp/validation.h"

namespace netpp {

namespace {

constexpr const char* kName = "FabricEnergyTracker";

/// The paper's §2.3 two-state curve: idle power while a device carries no
/// traffic, max power while it carries any.
PowerStateTimeline::PowerFn two_state_power(PowerEnvelope env) {
  return [env](std::span<const ComponentTrack> tracks) {
    Watts total{};
    for (const auto& track : tracks) {
      total += track.load > 0.0 ? env.max_power() : env.idle_power();
    }
    return total;
  };
}

}  // namespace

FabricEnergyTracker::FabricEnergyTracker(const FlowSimulator& sim,
                                         Config config)
    : sim_(sim), config_(config) {
  const Graph& g = sim.graph();
  std::vector<std::uint32_t> switches;
  std::vector<std::uint32_t> hosts;
  std::vector<std::uint32_t> optical_ends;
  for (const auto& node : g.nodes()) {
    if (node.kind == NodeKind::kHost) {
      hosts.push_back(node.id);
    } else if (node.kind == NodeKind::kSwitch) {
      switches.push_back(node.id);
    }
  }
  for (const auto& link : g.links()) {
    if (link.optical) optical_ends.insert(optical_ends.end(), 2, link.id);
  }

  const double p = config_.network_proportionality;
  if (config_.mode == DevicePowerMode::kComponent) {
    const SwitchPowerModel model = config_.component_model;
    add_class(DeviceKind::kSwitch, std::move(switches), model.max_power(),
              [model](std::span<const ComponentTrack> tracks) {
                Watts total{};
                for (const auto& track : tracks) {
                  total += model.at_uniform_load(track.load);
                }
                return total;
              });
  } else {
    add_class(DeviceKind::kSwitch, std::move(switches), config_.switch_max,
              two_state_power(
                  PowerEnvelope::from_proportionality(config_.switch_max, p)));
  }
  add_class(DeviceKind::kNic, std::move(hosts), config_.nic_max,
            two_state_power(
                PowerEnvelope::from_proportionality(config_.nic_max, p)));
  add_class(DeviceKind::kTransceiver, std::move(optical_ends),
            config_.transceiver_max,
            two_state_power(PowerEnvelope::from_proportionality(
                config_.transceiver_max, p)));
}

void FabricEnergyTracker::add_class(DeviceKind kind,
                                    std::vector<std::uint32_t> elements,
                                    Watts max_power,
                                    PowerStateTimeline::PowerFn actual) {
  if (elements.empty()) return;
  PowerStateTimeline timeline{static_cast<int>(elements.size()),
                              TransitionRules{}};
  // In the paper's two-state model a device is either idle or "working at
  // full speed", so the ideal-proportional reference follows activity, not
  // utilization; component mode uses real utilization.
  const bool two_state = config_.mode == DevicePowerMode::kTwoState;
  timeline.set_power_model(
      std::move(actual),
      [max_power, two_state](std::span<const ComponentTrack> tracks) {
        double useful = 0.0;
        for (const auto& track : tracks) {
          useful += two_state ? (track.load > 0.0 ? 1.0 : 0.0)
                              : std::clamp(track.load, 0.0, 1.0);
        }
        return max_power * useful;
      });
  classes_.push_back(
      DeviceClass{kind, std::move(elements), max_power, std::move(timeline)});
}

double FabricEnergyTracker::device_load(DeviceKind kind,
                                        std::uint32_t element) const {
  switch (kind) {
    case DeviceKind::kSwitch:
      return sim_.node_load(element);
    case DeviceKind::kNic: {
      // A NIC is loaded by its host's access-link traffic (either way).
      double carried = 0.0, capacity = 0.0;
      for (const auto& adj : sim_.graph().neighbors(element)) {
        for (int dir = 0; dir < 2; ++dir) {
          const DirectedLink dl{adj.link, dir};
          carried += sim_.directed_link_rate(dl).bits_per_second();
          capacity +=
              sim_.graph().link(adj.link).capacity.bits_per_second();
        }
      }
      return capacity > 0.0 ? std::min(1.0, carried / capacity) : 0.0;
    }
    case DeviceKind::kTransceiver: {
      const double u0 =
          sim_.directed_link_utilization(DirectedLink{element, 0});
      const double u1 =
          sim_.directed_link_utilization(DirectedLink{element, 1});
      return std::min(1.0, std::max(u0, u1));
    }
  }
  return 0.0;
}

void FabricEnergyTracker::on_load_change(Seconds now) {
  for (auto& cls : classes_) {
    // The loads recorded at the previous change held until now.
    cls.timeline.advance_to(now);
    for (std::size_t c = 0; c < cls.elements.size(); ++c) {
      cls.timeline.set_load(static_cast<int>(c),
                            device_load(cls.kind, cls.elements[c]));
    }
  }
}

FlowSimulator::LoadListener FabricEnergyTracker::listener() {
  return [this](Seconds now) { on_load_change(now); };
}

PowerStateTimeline FabricEnergyTracker::integrated(const DeviceClass& cls,
                                                   Seconds until) const {
  validation::require(until >= cls.timeline.now(), kName,
                      "horizon must not precede the last load change");
  PowerStateTimeline ahead = cls.timeline;
  ahead.advance_to(until);
  return ahead;
}

Joules FabricEnergyTracker::energy_of_kind(DeviceKind kind,
                                           Seconds until) const {
  for (const auto& cls : classes_) {
    if (cls.kind == kind) return integrated(cls, until).energy();
  }
  return Joules{};
}

Joules FabricEnergyTracker::network_energy(Seconds until) const {
  Joules total{};
  for (const auto& cls : classes_) total += integrated(cls, until).energy();
  return total;
}

Watts FabricEnergyTracker::average_network_power(Seconds until) const {
  validation::require(until.value() > 0.0, kName,
                      "horizon must be positive");
  return network_energy(until) / until;
}

Joules FabricEnergyTracker::switch_energy(Seconds until) const {
  return energy_of_kind(DeviceKind::kSwitch, until);
}

Joules FabricEnergyTracker::nic_energy(Seconds until) const {
  return energy_of_kind(DeviceKind::kNic, until);
}

Joules FabricEnergyTracker::transceiver_energy(Seconds until) const {
  return energy_of_kind(DeviceKind::kTransceiver, until);
}

double FabricEnergyTracker::network_energy_efficiency(Seconds until) const {
  double actual = 0.0;
  double ideal = 0.0;
  for (const auto& cls : classes_) {
    const PowerStateTimeline timeline = integrated(cls, until);
    actual += timeline.energy().value();
    ideal += timeline.baseline_energy().value();
  }
  if (actual <= 0.0) return 1.0;
  return ideal / actual;
}

Watts FabricEnergyTracker::max_network_power() const {
  Watts total{};
  for (const auto& cls : classes_) {
    total += cls.max_power * static_cast<double>(cls.elements.size());
  }
  return total;
}

MechanismReport FabricEnergyTracker::report(Seconds until) const {
  validation::require(until.value() > 0.0, kName,
                      "horizon must be positive");
  MechanismReport report;
  report.mechanism = "fabric";
  report.duration = until;
  report.energy = network_energy(until);
  report.baseline_energy = Joules{max_network_power().value() * until.value()};
  report.savings =
      report.baseline_energy.value() > 0.0
          ? 1.0 - report.energy.value() / report.baseline_energy.value()
          : 0.0;
  report.average_power = average_network_power(until);
  return report;
}

}  // namespace netpp
