// pod_poisson and multipod_sharded: the two simulation workloads.
//
// Plain runs time set-up and the run itself per repetition, and slice the
// run on a fixed simulated-time grid so every slice is one latency sample:
// 10 ms of simulated time on pod_poisson, one barrier window on
// multipod_sharded. Both slicings are result-invariant (SimEngine::run_until
// on any grid, ShardedFlowSimulator::run_until on its own barrier grid), so
// the digests equal those of a single run()/run_until(horizon) call.
//
// Traced runs step the engine one event at a time (pod_poisson) or one
// barrier window at a time (multipod_sharded), time each call, and attribute
// it from the simulator's own counters.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "netpp/netsim/sharded.h"
#include "netpp/topo/builders.h"
#include "netpp/topo/pods.h"
#include "netpp/traffic/generators.h"
#include "perfbench.h"
#include "workloads.h"  // bench/: pod_topology(), poisson_config(), ...

namespace perfbench {

using namespace netpp;

namespace {

constexpr double kPodSliceS = 0.01;
constexpr std::size_t kMultipodShards = 4;
constexpr std::uint64_t kMinReps = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e6;
}

/// Both simulations run on a freshly built copy of pod_topology()'s fabric,
/// so building it is part of every repetition's set-up.
BuiltTopology build_pod_fabric() { return build_fat_tree(8, Gbps{100.0}); }

FlowSimulator::Config pod_config() {
  FlowSimulator::Config config;
  config.flow_rate_cap = Gbps{25.0};  // the HPN-pod GPU NIC cap
  return config;
}

ShardedFlowSimulator::Config multipod_config(std::size_t workers) {
  ShardedFlowSimulator::Config config;
  config.num_shards = kMultipodShards;
  config.num_threads = workers;
  config.shard.flow_rate_cap = bench::kShardedFlowCap;
  config.shard.use_route_cache = true;
  return config;
}

SimDigest digest_of(const std::vector<FlowRecord>& completed,
                    std::uint64_t events) {
  SimDigest d;
  d.completed = completed.size();
  d.events = events;
  for (const FlowRecord& r : completed) d.fct_sum += r.fct().value();
  return d;
}

/// A sharded run's digest. Its event count is the events scheduled on all
/// shard engines: the barrier loop steps them internally.
SimDigest multipod_digest(ShardedFlowSimulator& sim) {
  std::uint64_t scheduled = 0;
  for (std::size_t s = 0; s < sim.num_shards(); ++s) {
    scheduled += sim.shard_mutable(s).engine().next_seq();
  }
  return digest_of(sim.completed(), scheduled);
}

std::string ratio_note(double num, double base, const char* base_name) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.0f of %.0f %s)", num, base, base_name);
  return buf;
}

/// Set-up timings shared by both simulations, in the layer's own names.
struct SetupTimes {
  double build_ms = 0.0;
  double generate_ms = 0.0;
  double construct_ms = 0.0;
  double submit_ms = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
};

void add_setup_layers(RunResult& r, const std::vector<SetupTimes>& reps,
                      bool sharded) {
  const auto med = [&](double SetupTimes::* field) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*field);
    return summarize(v);
  };
  const Summary build = med(&SetupTimes::build_ms);
  const Summary gen = med(&SetupTimes::generate_ms);
  const Summary submit = med(&SetupTimes::submit_ms);
  r.add("topo.build_ms", build.median, "ms", describe(build, "ms"));
  r.add("traffic.generate_ms", gen.median, "ms", describe(gen, "ms"));
  r.add("netsim.submit_ms", submit.median, "ms", describe(submit, "ms"));
  if (sharded) {
    const Summary ctor = med(&SetupTimes::construct_ms);
    r.add("netsim.sharded.build_ms", ctor.median, "ms", describe(ctor, "ms"));
  }
}

void add_realloc_layers(RunResult& r, const FlowSimulator::ReallocStats& s,
                        std::uint64_t events) {
  const double fast = static_cast<double>(s.fast_arrivals + s.fast_departures);
  const double lookups =
      static_cast<double>(s.route_cache.hits + s.route_cache.misses);
  r.add("netsim.binding.subset_flows_mean",
        s.binding_solves == 0
            ? 0.0
            : static_cast<double>(s.binding_subset_flows) /
                  static_cast<double>(s.binding_solves),
        "count",
        ratio_note(static_cast<double>(s.binding_subset_flows),
                   static_cast<double>(s.binding_solves), "binding solves"));
  r.add("netsim.realloc.binding_solves",
        static_cast<double>(s.binding_solves), "count");
  r.add("netsim.realloc.fast_path_ratio",
        events == 0 ? 0.0 : fast / static_cast<double>(events), "ratio",
        ratio_note(fast, static_cast<double>(events), "events"));
  r.add("topo.route_cache.hit_ratio",
        lookups == 0.0 ? 0.0 : static_cast<double>(s.route_cache.hits) / lookups,
        "ratio",
        ratio_note(static_cast<double>(s.route_cache.hits), lookups,
                   "lookups"));
  r.add("topo.route_cache.misses", static_cast<double>(s.route_cache.misses),
        "count");
  r.add("sim.events", static_cast<double>(events), "count");
}

void add_overhead(RunResult& r, const std::vector<double>& plain_run_s,
                  const std::vector<double>& traced_run_s) {
  const double plain = median_of(plain_run_s);
  const double traced = median_of(traced_run_s);
  char note[120];
  std::snprintf(note, sizeof note,
                "traced run_s %.6g s vs plain %.6g s (medians of %zu/%zu)",
                traced, plain, traced_run_s.size(), plain_run_s.size());
  r.add("trace_overhead_pct", plain > 0.0 ? (traced / plain - 1.0) * 100.0 : 0.0,
        "%", note);
}

/// Adds setup_s / run_s / latency / peak RSS: the end-to-end sheet of a
/// simulation workload.
void add_end_to_end(RunResult& r, const std::vector<SetupTimes>& reps,
                    const std::vector<std::vector<double>>& slice_ms,
                    const char* slice_name) {
  std::vector<double> setup;
  std::vector<double> run;
  for (const SetupTimes& t : reps) {
    setup.push_back(t.setup_s);
    run.push_back(t.run_s);
  }
  const Summary s = summarize(setup);
  const Summary u = summarize(run);
  r.add("setup_s", s.median, "s", describe(s, "s"));
  r.add("run_s", u.median, "s", describe(u, "s"));
  r.add_latency(slice_ms, slice_name);
  r.add("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM of this process");
}

}  // namespace

std::size_t default_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::min<std::size_t>(cpus, 4);
}

std::string SimDigest::str() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "completed=%zu events=%llu fct_sum=%a",
                completed, static_cast<unsigned long long>(events), fct_sum);
  return buf;
}

// ---------------------------------------------------------------------------
// pod_poisson
// ---------------------------------------------------------------------------

namespace {

std::vector<FlowSpec> pod_poisson_flows(const std::vector<NodeId>& hosts,
                                        std::size_t num_flows,
                                        std::uint64_t seed) {
  PoissonTrafficConfig config = bench::poisson_config(num_flows);
  config.seed = seed;
  return make_poisson_traffic(hosts, config);
}

/// Per-event timings of a traced pod_poisson repetition.
struct StepTrace {
  std::vector<double> all_us;
  std::vector<double> binding_us;
  std::vector<double> fast_us;
  double active_sum = 0.0;
  FlowSimulator::ReallocStats stats;
};

struct PodRep {
  SetupTimes times;
  SimDigest digest;
  std::string failure;
};

PodRep pod_rep(std::size_t num_flows, std::uint64_t seed,
               std::vector<double>* slice_ms, StepTrace* steps,
               Tracer* tracer, std::uint64_t rep) {
  PodRep out;
  const auto t0 = Clock::now();
  const BuiltTopology topo = build_pod_fabric();
  const auto t1 = Clock::now();
  const std::vector<FlowSpec> flows =
      pod_poisson_flows(topo.hosts, num_flows, seed);
  const auto t2 = Clock::now();
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine, pod_config()};
  const auto t3 = Clock::now();
  for (const FlowSpec& f : flows) sim.submit(f);
  const auto t4 = Clock::now();

  std::uint32_t run_span = Tracer::kNoParent;
  if (tracer != nullptr) {
    const auto root = tracer->record("pod_poisson.setup", t0, t4,
                                     Tracer::kNoParent, rep);
    tracer->record("topo.build", t0, t1, root, rep);
    tracer->record("traffic.generate", t1, t2, root, rep);
    tracer->record("netsim.construct", t2, t3, root, rep);
    tracer->record("netsim.submit", t3, t4, root, rep);
    run_span = tracer->open("pod_poisson.run", t4, Tracer::kNoParent, rep);
  }

  std::uint64_t events = 0;
  if (steps == nullptr) {
    for (std::uint64_t k = 1; !engine.empty(); ++k) {
      const auto a = Clock::now();
      events += engine.run_until(Seconds{static_cast<double>(k) * kPodSliceS});
      slice_ms->push_back(ms_between(a, Clock::now()));
    }
  } else {
    for (;;) {
      const FlowSimulator::ReallocStats before = sim.realloc_stats();
      const auto a = Clock::now();
      if (!engine.step()) break;
      const auto b = Clock::now();
      ++events;
      const FlowSimulator::ReallocStats& after = sim.realloc_stats();
      const double us = us_between(a, b);
      const char* name = "netsim.step";
      steps->all_us.push_back(us);
      if (after.binding_solves != before.binding_solves) {
        steps->binding_us.push_back(us);
        name = "netsim.step.binding";
      } else if (after.fast_arrivals != before.fast_arrivals ||
                 after.fast_departures != before.fast_departures) {
        steps->fast_us.push_back(us);
        name = "netsim.step.fast";
      }
      steps->active_sum += static_cast<double>(sim.active_flows());
      if (tracer != nullptr) tracer->record(name, a, b, run_span, rep);
    }
    steps->stats = sim.realloc_stats();
  }
  const auto t5 = Clock::now();
  if (tracer != nullptr) tracer->close(run_span, t5);

  out.times = SetupTimes{ms_between(t0, t1), ms_between(t1, t2),
                         ms_between(t2, t3), ms_between(t3, t4),
                         seconds_between(t0, t4), seconds_between(t4, t5)};
  out.digest = digest_of(sim.completed(), events);
  if (out.digest.completed != flows.size()) {
    out.failure = std::to_string(flows.size() - out.digest.completed) +
                  " submitted flows never completed";
  }
  try {
    sim.check_invariants();
  } catch (const std::exception& e) {
    out.failure = std::string{"check_invariants: "} + e.what();
  }
  return out;
}

}  // namespace

std::vector<FlowSpec> make_pod_poisson_flows(std::size_t num_flows,
                                             std::uint64_t seed) {
  return pod_poisson_flows(bench::pod_topology().hosts, num_flows, seed);
}

SimDigest run_pod_poisson_digest(const std::vector<FlowSpec>& flows) {
  const BuiltTopology& topo = bench::pod_topology();
  SimEngine engine;
  Router router{topo.graph};
  FlowSimulator sim{topo.graph, router, engine, pod_config()};
  for (const FlowSpec& f : flows) sim.submit(f);
  const std::uint64_t events = engine.run();
  return digest_of(sim.completed(), events);
}

SimDigest pod_poisson_rep_digest(std::size_t num_flows, std::uint64_t seed,
                                 bool traced) {
  std::vector<double> slices;
  StepTrace steps;
  const PodRep rep = pod_rep(num_flows, seed, traced ? nullptr : &slices,
                             traced ? &steps : nullptr, nullptr, 0);
  if (!rep.failure.empty()) throw std::runtime_error(rep.failure);
  return rep.digest;
}

RunResult run_pod_poisson(const Options& opt, Tracer* tracer) {
  RunResult r;
  std::vector<SetupTimes> plain;
  std::vector<SetupTimes> traced;
  std::vector<std::vector<double>> slice_ms;
  StepTrace steps;
  SimDigest first;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0;
       rep < kMinReps || seconds_between(start, Clock::now()) < opt.seconds;
       ++rep) {
    // Traced runs alternate plain and traced repetitions so the tracing
    // overhead is measured on the same machine state.
    const bool trace_this = opt.trace && rep % 2 == 1;
    if (!trace_this) slice_ms.emplace_back();
    PodRep one = pod_rep(kPodFlows, opt.seed,
                         trace_this ? nullptr : &slice_ms.back(),
                         trace_this ? &steps : nullptr,
                         trace_this ? tracer : nullptr, rep);
    ++r.attempted;
    if (rep == 0) first = one.digest;
    if (!one.failure.empty()) {
      r.fail("rep " + std::to_string(rep) + ": " + one.failure);
    } else if (!(one.digest == first)) {
      r.fail("rep " + std::to_string(rep) + " digest " + one.digest.str() +
             " != rep 0 digest " + first.str());
    }
    (trace_this ? traced : plain).push_back(one.times);
  }
  char line[200];
  std::snprintf(line, sizeof line, "flows=%zu slice=%gs reps=%zu+%zu traced",
                kPodFlows, kPodSliceS, plain.size(), traced.size());
  r.report.push_back(line);
  r.report.push_back("sim_digest " + first.str());
  check_recorded(r, opt.seed, first.str(), &RecordedDigests::pod_poisson);

  if (!opt.trace) {
    add_end_to_end(r, plain, slice_ms, "10 ms simulated slice");
    return r;
  }
  r.add_percentiles("netsim.step_us", summarize(steps.all_us), "us");
  r.add_percentiles("netsim.binding.step_us", summarize(steps.binding_us),
                    "us");
  const Summary fast = summarize(steps.fast_us);
  r.add("netsim.fast.step_us.p50", fast.median, "us", describe(fast, "us"));
  // Counters are per repetition (every repetition replays the same run).
  add_realloc_layers(r, steps.stats, first.events);
  r.add("netsim.active_flows_mean",
        steps.all_us.empty()
            ? 0.0
            : steps.active_sum / static_cast<double>(steps.all_us.size()),
        "count", "sampled after every event");
  add_setup_layers(r, traced, /*sharded=*/false);
  std::vector<double> plain_run;
  std::vector<double> traced_run;
  for (const SetupTimes& t : plain) plain_run.push_back(t.run_s);
  for (const SetupTimes& t : traced) traced_run.push_back(t.run_s);
  add_overhead(r, plain_run, traced_run);
  return r;
}

// ---------------------------------------------------------------------------
// multipod_sharded
// ---------------------------------------------------------------------------

std::vector<FlowSpec> make_multipod_flows(std::size_t total,
                                          std::size_t completing,
                                          std::uint64_t seed) {
  std::vector<FlowSpec> flows = bench::make_sharded_workload(total, completing);
  const BuiltTopology& topo = bench::pod_topology();
  const PodPartition pods = make_pod_partition(topo.graph);
  std::vector<std::vector<NodeId>> pod_hosts(pods.num_pods);
  for (const NodeId h : topo.hosts) {
    pod_hosts[static_cast<std::size_t>(pods.pod_of_node[h])].push_back(h);
  }
  Rng rng{seed ^ 0x6d756c7469706f64ull};
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  };
  // Relabel hosts: pod p becomes pod order[p], and the hosts inside each pod
  // are permuted. Pods of equal size keep every flow's intra/cross-pod class.
  std::vector<std::size_t> order(pods.num_pods);
  std::iota(order.begin(), order.end(), std::size_t{0});
  shuffle(order);
  std::vector<NodeId> relabel(topo.graph.num_nodes(), kInvalidNode);
  for (std::size_t p = 0; p < pod_hosts.size(); ++p) {
    std::vector<NodeId> target = pod_hosts[order[p]];
    if (target.size() != pod_hosts[p].size()) target = pod_hosts[p];
    shuffle(target);
    for (std::size_t i = 0; i < target.size(); ++i) {
      relabel[pod_hosts[p][i]] = target[i];
    }
  }
  for (FlowSpec& f : flows) {
    f.src = relabel[f.src];
    f.dst = relabel[f.dst];
  }
  shuffle(flows);
  return flows;
}

namespace {

/// Per-window observations of a traced multipod_sharded repetition.
struct WindowTrace {
  std::vector<double> window_ms;
  std::vector<double> completions;
  std::vector<double> imbalance;
  std::vector<double> active;  ///< shard-resident active flows, summed
  FlowSimulator::ReallocStats stats;
  std::size_t windows_per_rep = 0;
};

struct MultipodRep {
  SetupTimes times;
  SimDigest digest;
  std::string failure;
};

MultipodRep multipod_rep(std::uint64_t seed, std::size_t workers,
                         std::size_t total, std::size_t completing,
                         std::vector<double>* window_ms, WindowTrace* trace,
                         Tracer* tracer, std::uint64_t rep) {
  MultipodRep out;
  const auto t0 = Clock::now();
  const BuiltTopology topo = build_pod_fabric();
  const auto t1 = Clock::now();
  const std::vector<FlowSpec> flows =
      make_multipod_flows(total, completing, seed);
  const auto t2 = Clock::now();
  const ShardedFlowSimulator::Config config = multipod_config(workers);
  ShardedFlowSimulator sim{topo.graph, config};
  const auto t3 = Clock::now();
  for (const FlowSpec& f : flows) sim.submit(f);
  const auto t4 = Clock::now();

  std::uint32_t run_span = Tracer::kNoParent;
  if (tracer != nullptr) {
    const auto root = tracer->record("multipod_sharded.setup", t0, t4,
                                     Tracer::kNoParent, rep);
    tracer->record("topo.build", t0, t1, root, rep);
    tracer->record("traffic.generate", t1, t2, root, rep);
    tracer->record("netsim.sharded.build", t2, t3, root, rep);
    tracer->record("netsim.submit", t3, t4, root, rep);
    run_span =
        tracer->open("multipod_sharded.run", t4, Tracer::kNoParent, rep);
  }
  // Completions already counted; outlives the listener, which reads it at
  // every barrier of the window loop below.
  std::size_t drained = 0;
  if (trace != nullptr) {
    sim.set_barrier_listener([&](Seconds) {
      trace->completions.push_back(
          static_cast<double>(sim.completed().size() - drained));
      drained = sim.completed().size();
      double sum = 0.0;
      double max = 0.0;
      for (std::size_t s = 0; s < sim.num_shards(); ++s) {
        const auto active = static_cast<double>(sim.shard(s).active_flows());
        sum += active;
        max = std::max(max, active);
      }
      trace->active.push_back(sum);
      if (sum > 0.0) {
        trace->imbalance.push_back(
            max / (sum / static_cast<double>(sim.num_shards())));
      }
    });
  }

  // One run_until per barrier window: the grid points below the horizon,
  // then the horizon itself — exactly the windows run_until(horizon) makes.
  const double horizon = bench::kShardedHorizon.value();
  const double interval = config.barrier_interval.value();
  std::size_t windows = 0;
  for (std::uint64_t k = 1; sim.now().value() < horizon; ++k) {
    const double grid = static_cast<double>(k) * interval;
    const auto a = Clock::now();
    sim.run_until(Seconds{grid <= horizon ? grid : horizon});
    const auto b = Clock::now();
    ++windows;
    if (window_ms != nullptr) window_ms->push_back(ms_between(a, b));
    if (trace != nullptr) trace->window_ms.push_back(ms_between(a, b));
    if (tracer != nullptr) {
      tracer->record("netsim.sharded.window", a, b, run_span, rep);
    }
  }
  const auto t5 = Clock::now();
  if (tracer != nullptr) tracer->close(run_span, t5);
  if (trace != nullptr) {
    trace->stats = sim.realloc_stats();
    trace->windows_per_rep = windows;
    sim.set_barrier_listener(nullptr);
  }

  out.times = SetupTimes{ms_between(t0, t1), ms_between(t1, t2),
                         ms_between(t2, t3), ms_between(t3, t4),
                         seconds_between(t0, t4), seconds_between(t4, t5)};
  out.digest = multipod_digest(sim);
  if (out.digest.completed == 0 ||
      out.digest.completed + sim.flows_in_flight() != flows.size()) {
    out.failure = "completed/in-flight accounting does not add up";
  }
  try {
    sim.check_invariants();
  } catch (const std::exception& e) {
    out.failure = std::string{"check_invariants: "} + e.what();
  }
  return out;
}

}  // namespace

SimDigest run_multipod_digest(const std::vector<FlowSpec>& flows,
                              std::size_t workers) {
  ShardedFlowSimulator sim{bench::pod_topology().graph,
                           multipod_config(workers)};
  for (const FlowSpec& f : flows) sim.submit(f);
  sim.run_until(bench::kShardedHorizon);
  return multipod_digest(sim);
}

SimDigest multipod_rep_digest(std::size_t total, std::size_t completing,
                              std::uint64_t seed, std::size_t workers,
                              bool traced) {
  std::vector<double> windows_ms;
  WindowTrace trace;
  const MultipodRep rep =
      multipod_rep(seed, workers, total, completing,
                   traced ? nullptr : &windows_ms, traced ? &trace : nullptr,
                   nullptr, 0);
  if (!rep.failure.empty()) throw std::runtime_error(rep.failure);
  return rep.digest;
}

RunResult run_multipod_sharded(const Options& opt, Tracer* tracer) {
  RunResult r;
  const std::size_t workers = default_workers();
  // The reference: an untimed 1-worker run on the same seed. Every timed
  // repetition, at any worker count, must reproduce its digest exactly.
  const MultipodRep reference =
      multipod_rep(opt.seed, 1, kMultipodFlows, kMultipodCompleting, nullptr,
                   nullptr, nullptr, 0);
  ++r.attempted;
  if (!reference.failure.empty()) r.fail("reference: " + reference.failure);
  const auto check = [&](const MultipodRep& one, const std::string& what) {
    ++r.attempted;
    if (!one.failure.empty()) {
      r.fail(what + ": " + one.failure);
    } else if (!(one.digest == reference.digest)) {
      r.fail(what + " digest " + one.digest.str() +
             " != 1-worker digest " + reference.digest.str());
    }
  };

  // Plain runs time the default worker count only. Traced runs cycle
  // through traced/plain at the default count and plain runs at 1, 2 and 4
  // workers (capped by the CPUs available) for the speed-up figures.
  std::vector<std::size_t> cycle{workers};
  if (opt.trace) {
    cycle = {workers, workers, 1};
    if (workers > 2) cycle.push_back(2);
  }
  std::vector<SetupTimes> plain;
  std::vector<SetupTimes> traced;
  std::vector<double> run_by_workers[5];
  run_by_workers[1].push_back(reference.times.run_s);
  std::vector<std::vector<double>> window_ms;
  WindowTrace windows;
  const auto start = Clock::now();
  std::uint64_t rep = 1;
  for (std::uint64_t round = 0;
       round < kMinReps || seconds_between(start, Clock::now()) < opt.seconds;
       ++round) {
    for (std::size_t i = 0; i < cycle.size(); ++i, ++rep) {
      const bool trace_this = opt.trace && i == 0;
      if (!opt.trace) window_ms.emplace_back();
      MultipodRep one = multipod_rep(
          opt.seed, cycle[i], kMultipodFlows, kMultipodCompleting,
          opt.trace ? nullptr : &window_ms.back(),
          trace_this ? &windows : nullptr,
          trace_this ? tracer : nullptr, rep);
      check(one, "rep " + std::to_string(rep) + " (" +
                     std::to_string(cycle[i]) + " workers)");
      if (trace_this) {
        traced.push_back(one.times);
      } else {
        if (cycle[i] == workers) plain.push_back(one.times);
        run_by_workers[cycle[i]].push_back(one.times.run_s);
      }
    }
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "flows=%zu completing=%zu shards=%zu workers=%zu reps=%zu+%zu "
                "traced",
                kMultipodFlows, kMultipodCompleting, kMultipodShards, workers,
                plain.size(), traced.size());
  r.report.push_back(line);
  r.report.push_back("sim_digest " + reference.digest.str());
  check_recorded(r, opt.seed, reference.digest.str(),
                 &RecordedDigests::multipod_sharded);

  if (!opt.trace) {
    add_end_to_end(r, plain, window_ms, "barrier window");
    return r;
  }
  r.add_percentiles("netsim.sharded.window_ms", summarize(windows.window_ms),
                    "ms");
  r.add("netsim.sharded.windows", static_cast<double>(windows.windows_per_rep),
        "count", "per run");
  const Summary done = summarize(windows.completions);
  r.add("netsim.sharded.completions_per_window_mean", done.mean, "count",
        "over " + std::to_string(done.count) + " windows");
  const Summary imb = summarize(windows.imbalance);
  r.add("netsim.sharded.shard_active_max_over_mean", imb.mean, "ratio",
        "max/mean shard active flows, mean over " + std::to_string(imb.count) +
            " windows");
  const double one_worker = median_of(run_by_workers[1]);
  for (const std::size_t w : {std::size_t{2}, std::size_t{4}}) {
    const std::size_t used = std::min(w, workers);
    const double t = median_of(run_by_workers[used]);
    char note[120];
    std::snprintf(note, sizeof note,
                  "run_s %.6g s at 1 worker / %.6g s at %zu (medians of %zu/%zu)",
                  one_worker, t, used, run_by_workers[1].size(),
                  run_by_workers[used].size());
    r.add(w == 2 ? "netsim.sharded.speedup_w2" : "netsim.sharded.speedup_w4",
          t > 0.0 ? one_worker / t : 0.0, "x", note);
  }
  add_realloc_layers(r, windows.stats, reference.digest.events);
  r.add("netsim.active_flows_mean", summarize(windows.active).mean, "count",
        "shard-resident, sampled at every barrier");
  add_setup_layers(r, traced, /*sharded=*/true);
  std::vector<double> plain_run;
  std::vector<double> traced_run;
  for (const SetupTimes& t : plain) plain_run.push_back(t.run_s);
  for (const SetupTimes& t : traced) traced_run.push_back(t.run_s);
  add_overhead(r, plain_run, traced_run);
  return r;
}

}  // namespace perfbench
