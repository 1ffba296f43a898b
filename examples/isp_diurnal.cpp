// ISP scenario (paper §3.4): "in ISP networks, the benefits from power
// proportionality are even more direct since it is all network and no
// compute ... links are more likely to be underutilized rather than
// completely unused."
//
// Simulates a backbone ring of PoP routers under compressed diurnal
// traffic, then evaluates rate adaptation and pipeline parking on the
// busiest PoP's recorded load trace.
//
//   ./build/examples/isp_diurnal
#include <cstdio>

#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/mech/trace_recorder.h"
#include "netpp/topo/builders.h"
#include "netpp/traffic/generators.h"

int main() {
  using namespace netpp;
  using namespace netpp::literals;

  // 8 PoPs in a ring with 2 chords, 400 G links; one access host per PoP.
  const auto topo = build_backbone_ring(8, 2, 400_Gbps);
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine};

  // One compressed "day" = 24 s of simulation; peak in the evening.
  DiurnalTrafficConfig traffic_cfg;
  traffic_cfg.peak_arrivals_per_second = 1500.0;
  traffic_cfg.trough_ratio = 0.2;
  traffic_cfg.peak_hour = 20.0;
  traffic_cfg.day_duration = 24.0_s;
  traffic_cfg.days = 1;
  // Backbone-scale flows: tens to hundreds of megabytes, so the 400 G ring
  // sits partially loaded (underutilized, not unused - Sec. 3.4).
  traffic_cfg.min_size = Bits::from_bytes(10e6);
  traffic_cfg.max_size = Bits::from_gigabits(40.0);
  const auto flows = make_diurnal_traffic(topo.hosts, traffic_cfg);
  std::printf("ISP backbone: %zu PoPs, %zu links; %zu flows over one day\n\n",
              topo.switches.size(), topo.graph.num_links(), flows.size());

  NodeLoadRecorder recorder{sim, topo.switches};
  sim.set_load_listener(recorder.listener());
  recorder.sample(0.0_s);
  for (const auto& flow : flows) sim.submit(flow);
  engine.run();
  const Seconds horizon{24.0};
  engine.run_until(horizon);

  std::printf("Completed flows: %zu | mean FCT: %.3f s\n\n",
              sim.completed().size(), sim.fct_stats().mean());

  // Find the busiest PoP by average load.
  NodeId busiest = topo.switches.front();
  double best = -1.0;
  for (NodeId pop : topo.switches) {
    const LoadTrace trace = recorder.load_trace(pop, 1, horizon);
    double integral = 0.0;
    for (std::size_t i = 0; i < trace.num_segments(); ++i) {
      const double seg_end = trace.segment_end(i).value();
      integral += trace.loads[i][0] * (seg_end - trace.times[i].value());
    }
    if (integral > best) {
      best = integral;
      busiest = pop;
    }
  }
  std::printf("Busiest PoP: %s (mean load %.1f%%)\n\n",
              topo.graph.node(busiest).name.c_str(),
              100.0 * best / horizon.value());

  // Evaluate the paper's dynamic mechanisms on that router.
  const SwitchPowerModel model;

  RateAdaptConfig ra;
  ra.model = model;
  const LoadTrace pipe_trace =
      recorder.load_trace(busiest, model.config().num_pipelines, horizon);
  const auto rate_adapt = [&](const RateAdaptConfig& config,
                              RateAdaptMode mode) {
    RateAdaptPolicy policy{config, mode};
    return run_mechanism(pipe_trace, policy);
  };
  const auto global = rate_adapt(ra, RateAdaptMode::kGlobalAsic);
  const auto per_pipe = rate_adapt(ra, RateAdaptMode::kPerPipeline);
  RateAdaptConfig ra_lanes = ra;
  ra_lanes.lane_steps = {0.25, 0.5, 1.0};
  const auto lanes = rate_adapt(ra_lanes, RateAdaptMode::kPerPipeline);

  ParkingConfig pk;
  pk.model = model;
  // This PoP's capacity: its incident links (degree x 400 G, both ways).
  pk.switch_capacity =
      Gbps{static_cast<double>(topo.graph.degree(busiest)) * 2.0 * 400.0};
  pk.wake_latency = Seconds::from_milliseconds(1.0);
  ReactiveParkingPolicy parking{pk};
  const auto parked =
      run_mechanism(recorder.load_trace(busiest, 1, horizon), parking);

  std::printf("Mechanism savings on the busiest PoP router (vs always-on):\n");
  std::printf("  rate adaptation, global clock:   %5.1f%%\n",
              100.0 * global.savings);
  std::printf("  rate adaptation, per-pipeline:   %5.1f%%\n",
              100.0 * per_pipe.savings);
  std::printf("  + SerDes down-rating:            %5.1f%%\n",
              100.0 * lanes.savings);
  std::printf("  pipeline parking (reactive):     %5.1f%%  "
              "(%.2f pipelines active on average, %.2f MB peak buffer)\n",
              100.0 * parked.savings, parked.mean_on_components,
              parked.max_buffered.value() / 8e6);
  std::printf(
      "\nUnlike the ML cluster, the backbone never fully idles - diurnal\n"
      "troughs leave partial load, which favours rate adaptation and\n"
      "partial parking over all-off approaches (paper Sec. 3.4).\n");
  return 0;
}
