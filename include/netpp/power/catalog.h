// Device power catalog (paper §2.3, Tables 1 and 2).
//
// The catalog maps datasheet-style device entries to power draws:
//   - Nvidia H100 NVL GPU: 400 W, plus 800 W of server overhead shared by
//     8 GPUs => 500 W max per GPU; modern servers are ~85% power
//     proportional => 75 W idle per GPU.
//   - 51.2 Tbps switch: 750 W (Alibaba HPN number).
//   - NICs (ConnectX-7 family) and optical transceivers per port speed,
//     Table 2, with the paper's extrapolation rule for speeds beyond the
//     datasheet range.
//
// Extrapolation: the paper says "linearly extrapolated from the closest
// available one", but its starred values (38.6 W / 58.8 W NICs at 800 G /
// 1600 G) match a *geometric* extension of the last observed per-doubling
// ratio (25.4/16.7 = 1.521): 25.4 * 1.521 = 38.6, * 1.521 again = 58.8.
// PowerTable implements that rule (log-log-linear continuation), which
// reproduces the paper's numbers exactly; see DESIGN.md.
#pragma once

#include <map>
#include <optional>

#include "netpp/power/envelope.h"
#include "netpp/units.h"

namespace netpp {

/// Monotone speed -> power lookup with interpolation and geometric
/// extrapolation, used for NIC and transceiver tables.
class PowerTable {
 public:
  PowerTable() = default;

  /// Builds a table from (speed, power) points. At least one point required;
  /// speeds must be positive and strictly increasing once sorted (duplicate
  /// speeds are rejected).
  explicit PowerTable(std::map<double, double> gbps_to_watts);

  /// Power draw at `speed`.
  ///  - exact entry: returned as-is;
  ///  - between entries: geometric (log-log linear) interpolation;
  ///  - above the table: geometric continuation of the last segment's
  ///    per-doubling ratio (the paper's starred-value rule);
  ///  - below the table: geometric continuation of the first segment
  ///    (single-entry tables scale linearly with speed).
  [[nodiscard]] Watts at(Gbps speed) const;

  /// Exact datasheet entry, if `speed` is one of the table's points.
  [[nodiscard]] std::optional<Watts> exact(Gbps speed) const;

  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

 private:
  std::map<double, double> points_;  // Gbps -> W
};

/// Kinds of network-side devices tracked by the cluster model.
enum class NetworkDeviceKind {
  kSwitch,
  kNic,
  kTransceiver,
};

/// The full device catalog used by the analysis. Immutable after creation.
class DeviceCatalog {
 public:
  struct Config {
    Watts gpu_max{400.0};                // Nvidia H100 NVL (Table 1)
    Watts server_overhead{800.0};        // CPUs, RAM, storage, fans (§2.3.1)
    int gpus_per_server = 8;             // §2.1
    double compute_proportionality = 0.85;  // modern servers [4]

    Watts switch_max{750.0};             // 51.2 Tbps switch (Table 1)
    Gbps switch_capacity = Gbps::from_tbps(51.2);

    std::map<double, double> nic_watts = {
        {100.0, 8.6}, {200.0, 16.7}, {400.0, 25.4}};  // Table 2 (measured)
    std::map<double, double> transceiver_watts = {
        {100.0, 4.0},  {200.0, 6.5},   {400.0, 10.0},
        {800.0, 16.5}, {1600.0, 27.27}};  // Table 2
  };

  DeviceCatalog() : DeviceCatalog(Config{}) {}
  explicit DeviceCatalog(Config config);

  /// The paper's baseline catalog (all defaults above).
  static const DeviceCatalog& paper_baseline();

  /// Max power of one GPU including its share of server overhead (500 W for
  /// the baseline).
  [[nodiscard]] Watts gpu_max_power() const { return gpu_max_; }

  /// Two-state envelope of one GPU+server-share at the configured compute
  /// proportionality (500 W max / 75 W idle for the baseline).
  [[nodiscard]] PowerEnvelope gpu_envelope() const { return gpu_envelope_; }

  [[nodiscard]] double compute_proportionality() const {
    return config_.compute_proportionality;
  }

  [[nodiscard]] Watts switch_max_power() const { return config_.switch_max; }
  [[nodiscard]] Gbps switch_capacity() const {
    return config_.switch_capacity;
  }

  /// Switch radix (number of ports) when every port runs at `port_speed`.
  /// 51.2 Tbps at 400 G => 128 ports. Truncates to an integer port count;
  /// a port speed so slow the count leaves int's range throws.
  [[nodiscard]] int switch_radix(Gbps port_speed) const;

  /// NIC power at an arbitrary port speed (Table 2 + extrapolation rule;
  /// yields the starred 38.6 W / 58.8 W at 800 G / 1600 G).
  [[nodiscard]] Watts nic_power(Gbps speed) const { return nics_.at(speed); }

  /// Optical transceiver power at an arbitrary port speed.
  [[nodiscard]] Watts transceiver_power(Gbps speed) const {
    return transceivers_.at(speed);
  }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  Watts gpu_max_{};
  PowerEnvelope gpu_envelope_{};
  PowerTable nics_;
  PowerTable transceivers_;
};

}  // namespace netpp
