// Re-prints the golden fixture expectations for golden_equivalence_test.cpp
// as ready-to-paste C++ (hexfloat doubles, exact integers). Run only to
// re-record after a deliberate behavior change; the whole point of the suite
// is that refactors do NOT change these values. Built as the plain
// `golden_record` executable (not a test): ./build/tests/golden_record
#include <cstdio>

#include "golden_inputs.h"

namespace {

using namespace netpp;

void field(const char* name, double v) {
  std::printf("    %s = %a;  // %.17g\n", name, v, v);
}
void field(const char* name, const char* unit, double v) {
  std::printf("    %s = %s{%a};  // %.17g\n", name, unit, v, v);
}
void field(const char* name, std::size_t v) {
  std::printf("    %s = %zu;\n", name, v);
}

void print_rateadapt(const char* tag, RateAdaptMode mode, bool lanes) {
  RateAdaptPolicy policy{golden::rateadapt_config(lanes), mode};
  const MechanismReport r = run_mechanism(golden::rate_trace(), policy);
  std::printf("  {  // %s\n", tag);
  field("e.energy", "Joules", r.energy.value());
  field("e.average_power", "Watts", r.average_power.value());
  field("e.savings", r.savings);
  field("e.level_transitions", r.level_transitions);
  field("e.mean_level", r.mean_level);
  std::printf("  }\n");
}

void print_parking(const char* tag, ParkingPolicy& policy,
                   const LoadTrace& trace) {
  const MechanismReport r = run_mechanism(trace, policy);
  std::printf("  {  // %s\n", tag);
  field("e.energy", "Joules", r.energy.value());
  field("e.average_power", "Watts", r.average_power.value());
  field("e.savings", r.savings);
  field("e.mean_on_components", r.mean_on_components);
  field("e.wake_transitions", r.wake_transitions);
  field("e.park_transitions", r.park_transitions);
  field("e.max_buffered", "Bits", r.max_buffered.value());
  field("e.dropped", "Bits", r.dropped.value());
  field("e.max_added_delay", "Seconds", r.max_added_delay.value());
  std::printf("  }\n");
}

void print_downrate(const char* tag) {
  DownratePolicy policy{golden::downrate_config()};
  const MechanismReport r = run_mechanism(golden::diurnal_trace(), policy);
  std::printf("  {  // %s\n", tag);
  field("energy", r.energy.value());
  field("baseline_energy", r.baseline_energy.value());
  field("savings", r.savings);
  field("level_transitions", r.level_transitions);
  field("violation_time", policy.violation_time().value());
  field("outage_time", policy.outage_time().value());
  field("mean_level", r.mean_level);
  std::printf("  }\n");
}

void print_eee(const char* tag, const EeeResult& r) {
  std::printf("  {  // %s\n", tag);
  field("e.energy_j", r.energy.value());
  field("e.always_on_energy_j", r.always_on_energy.value());
  field("e.savings", r.energy_savings_fraction);
  field("e.lpi_fraction", r.lpi_time_fraction);
  field("e.mean_added_delay_s", r.mean_added_delay.value());
  field("e.max_added_delay_s", r.max_added_delay.value());
  field("e.wakes", r.wake_transitions);
  field("e.frames", r.frames);
  std::printf("  }\n");
}

}  // namespace

int main() {
  using namespace netpp;

  print_rateadapt("kNone", RateAdaptMode::kNone, false);
  print_rateadapt("kGlobalAsic", RateAdaptMode::kGlobalAsic, false);
  print_rateadapt("kPerPipeline", RateAdaptMode::kPerPipeline, false);
  print_rateadapt("kPerPipeline+lanes", RateAdaptMode::kPerPipeline, true);

  const LoadTrace trace = golden::parking_trace();
  ReactiveParkingPolicy reactive{golden::parking_config()};
  print_parking("reactive", reactive, trace);
  PredictiveParkingPolicy predictive{golden::parking_config(),
                                     golden::forecast()};
  print_parking("predictive", predictive, trace);
  ResilientParkingPolicy resilient{golden::parking_config(),
                                   golden::recalls()};
  print_parking("resilient", resilient, resilient.splice(trace));
  std::printf("  // resilient emergency_wakes = %zu\n",
              resilient.emergency_wakes());

  print_downrate("downrate");

  print_eee("eee", simulate_eee_link(golden::eee_config(false),
                                     golden::eee_frames(),
                                     golden::eee_horizon()));
  print_eee("eee+coalesce", simulate_eee_link(golden::eee_config(true),
                                              golden::eee_frames(),
                                              golden::eee_horizon()));
  return 0;
}
