// Umbrella header: includes the whole netpp public API.
//
// Prefer the individual headers in production code; this exists for
// exploration, examples, and quick prototypes.
//
//   core     — the paper's Sec. 2-3 analytical models
//   sim      — discrete-event substrate (engine, RNG, stats, sweeps)
//   topo     — explicit topologies, routing, max flow
//   netsim   — flow-level network simulation + fabric energy tracking
//              (priced on core's PowerStateTimeline, like every Sec. 4
//              mechanism)
//   traffic  — workload generators and the closed training loop
//   mech     — Sec. 4 mechanism models
//   faults   — fault injection, degraded-mode policies, resilience reports
#pragma once

// core
#include "netpp/analysis/overlap.h"
#include "netpp/analysis/peak_power.h"
#include "netpp/analysis/report.h"
#include "netpp/analysis/savings.h"
#include "netpp/analysis/sensitivity.h"
#include "netpp/analysis/speedup.h"
#include "netpp/cluster/cluster.h"
#include "netpp/power/catalog.h"
#include "netpp/power/envelope.h"
#include "netpp/power/state_timeline.h"
#include "netpp/power/switch_model.h"
#include "netpp/topomodel/fattree.h"
#include "netpp/units.h"
#include "netpp/workload/phase_model.h"

// sim
#include "netpp/sim/engine.h"
#include "netpp/sim/random.h"
#include "netpp/sim/stats.h"
#include "netpp/sim/sweep.h"

// topo
#include "netpp/topo/builders.h"
#include "netpp/topo/graph.h"
#include "netpp/topo/maxflow.h"
#include "netpp/topo/routing.h"

// netsim
#include "netpp/netsim/energy_tracker.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/netsim/flowsim.h"

// traffic
#include "netpp/traffic/generators.h"
#include "netpp/traffic/training_loop.h"

// mech
#include "netpp/mech/composite.h"
#include "netpp/mech/downrate.h"
#include "netpp/mech/eee.h"
#include "netpp/mech/knobs.h"
#include "netpp/mech/load_trace.h"
#include "netpp/mech/mechanism.h"
#include "netpp/mech/ocs.h"
#include "netpp/mech/packet_switch.h"
#include "netpp/mech/parking.h"
#include "netpp/mech/rateadapt.h"
#include "netpp/mech/redesign.h"
#include "netpp/mech/scheduler.h"
#include "netpp/mech/trace_recorder.h"

// faults
#include "netpp/analysis/resilience.h"
#include "netpp/faults/degraded_mode.h"
#include "netpp/faults/experiment.h"
#include "netpp/faults/fault_model.h"
#include "netpp/faults/injector.h"
