// Scale gate for the flow-simulation hot path: how fast can we solve the
// max-min fair-share problem and run the event loop at HPN-pod scale?
//
// Two families of benchmarks, sized 1k / 10k / 100k flows on a k=8 fat tree
// (128 hosts, the paper's HPN-pod shape scaled to fit CI); the workloads
// themselves live in bench/workloads.h so every perf gate (this binary, the
// telemetry gate, the scoreboard) scores the same fixed scenarios:
//   - BM_Solver{Capped,Uncapped}: one fair-share solve over a snapshot of N
//     simultaneously active flows (capped = NIC-bound ML regime, uncapped =
//     fabric-contended regime).
//   - BM_SolverReference*: the pre-optimization progressive-filling solver
//     (kept verbatim below) on the same snapshots, so every future run
//     carries the before/after trajectory in one JSON.
//   - BM_FlowSimPoisson: end-to-end event loop, Poisson arrivals with
//     bounded-Pareto sizes, ~300 concurrent flows in steady state.
//     BM_FlowSimPoissonNoRouteCache is the same loop with
//     Config::use_route_cache off (per-arrival BFS), isolating what the
//     route cache buys end-to-end.
//   - BM_EcmpRoute{Uncached,Cached}: routing only — N ECMP route picks for
//     random host pairs against a fresh Router vs through a RouteCache.
//     Cached cost is sublinear in N: the (ToR,ToR)-canonical pair space of
//     the k=8 pod saturates after a few thousand lookups and everything
//     after is a hash probe.
//
// Regenerate the checked-in baseline with tools/record_bench.sh (one-step
// Release build + record; see bench/README.md).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/netsim/flowsim.h"
#include "netpp/topo/route_cache.h"
#include "netpp/topo/routing.h"
#include "workloads.h"

namespace {

using namespace netpp;

// ---------------------------------------------------------------------------
// Reference solver: the original O(rounds x (links + flows)) progressive
// filling with per-round linear scans, kept verbatim as the perf baseline.
// The equivalence property tests (tests/netsim/fairshare_property_test.cpp,
// tests/netsim/fairshare_soa_test.cpp) hold the optimized solver
// bit-identical to this on every SIMD dispatch path.
// ---------------------------------------------------------------------------
std::vector<double> max_min_fair_rates_reference(
    const std::vector<FairShareFlow>& flows,
    const std::vector<double>& capacities) {
  const std::size_t num_flows = flows.size();
  const std::size_t num_res = capacities.size();

  std::vector<double> rate(num_flows, 0.0);
  std::vector<bool> frozen(num_flows, false);
  std::vector<double> residual = capacities;
  std::vector<std::size_t> active_on(num_res, 0);

  std::vector<std::vector<std::size_t>> flows_on(num_res);
  for (std::size_t f = 0; f < num_flows; ++f) {
    for (std::size_t r : flows[f].resources) {
      flows_on[r].push_back(f);
      ++active_on[r];
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t remaining = num_flows;
  while (remaining > 0) {
    double link_share = kInf;
    std::size_t tight_link = num_res;
    for (std::size_t r = 0; r < num_res; ++r) {
      if (active_on[r] == 0) continue;
      const double share = residual[r] / static_cast<double>(active_on[r]);
      if (share < link_share) {
        link_share = share;
        tight_link = r;
      }
    }
    double cap_level = kInf;
    std::size_t capped_flow = num_flows;
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      if (flows[f].cap > 0.0 && flows[f].cap < cap_level) {
        cap_level = flows[f].cap;
        capped_flow = f;
      }
    }
    if (tight_link == num_res && capped_flow == num_flows) break;
    if (cap_level <= link_share) {
      frozen[capped_flow] = true;
      rate[capped_flow] = cap_level;
      --remaining;
      for (std::size_t r : flows[capped_flow].resources) {
        residual[r] -= cap_level;
        if (residual[r] < 0.0) residual[r] = 0.0;
        --active_on[r];
      }
      continue;
    }
    for (std::size_t f : flows_on[tight_link]) {
      if (frozen[f]) continue;
      frozen[f] = true;
      rate[f] = link_share;
      --remaining;
      for (std::size_t r : flows[f].resources) {
        residual[r] -= link_share;
        if (residual[r] < 0.0) residual[r] = 0.0;
        --active_on[r];
      }
    }
  }
  return rate;
}

void BM_SolverCapped(benchmark::State& state) {
  const auto snap =
      bench::make_solver_snapshot(static_cast<std::size_t>(state.range(0)),
                                  25e9);
  for (auto _ : state) {
    auto rates = max_min_fair_rates(snap.flows, snap.capacities);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SolverCapped)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SolverUncapped(benchmark::State& state) {
  const auto snap =
      bench::make_solver_snapshot(static_cast<std::size_t>(state.range(0)),
                                  0.0);
  for (auto _ : state) {
    auto rates = max_min_fair_rates(snap.flows, snap.capacities);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SolverUncapped)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SolverReferenceCapped(benchmark::State& state) {
  const auto snap =
      bench::make_solver_snapshot(static_cast<std::size_t>(state.range(0)),
                                  25e9);
  for (auto _ : state) {
    auto rates = max_min_fair_rates_reference(snap.flows, snap.capacities);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SolverReferenceCapped)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SolverReferenceUncapped(benchmark::State& state) {
  const auto snap =
      bench::make_solver_snapshot(static_cast<std::size_t>(state.range(0)),
                                  0.0);
  for (auto _ : state) {
    auto rates = max_min_fair_rates_reference(snap.flows, snap.capacities);
    benchmark::DoNotOptimize(rates);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SolverReferenceUncapped)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// End-to-end event loop: Poisson arrivals sized so that ~300 flows are
// active in steady state; NIC-capped at 25 G like the HPN-pod GPU hosts.
void BM_FlowSimPoisson(benchmark::State& state) {
  const auto flows =
      bench::make_poisson_workload(static_cast<std::size_t>(state.range(0)));

  bench::PoissonRun last;
  for (auto _ : state) {
    last = bench::run_poisson_workload(flows);
    benchmark::DoNotOptimize(last.completed);
  }
  state.counters["flows"] = static_cast<double>(flows.size());
  state.counters["completed"] = static_cast<double>(last.completed);
  state.counters["events"] = static_cast<double>(last.events);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_FlowSimPoisson)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Opt-out control: identical workload with per-arrival BFS routing. The
// flowsim_routecache test pins the two configurations to bit-identical
// completion times, so any delta here is pure routing cost.
void BM_FlowSimPoissonNoRouteCache(benchmark::State& state) {
  const auto flows =
      bench::make_poisson_workload(static_cast<std::size_t>(state.range(0)));

  for (auto _ : state) {
    const auto run = bench::run_poisson_workload(flows, false);
    benchmark::DoNotOptimize(run.completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_FlowSimPoissonNoRouteCache)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Routing-only family: N ECMP route picks for pseudo-random host pairs.
// ---------------------------------------------------------------------------
void BM_EcmpRouteUncached(benchmark::State& state) {
  const auto& topo = bench::pod_topology();
  const auto pairs =
      bench::make_host_pairs(static_cast<std::size_t>(state.range(0)));
  Router router{topo.graph};
  for (auto _ : state) {
    std::size_t hops = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto path = router.ecmp_route(pairs[i].first, pairs[i].second, i);
      hops += path ? path->hops() : 0;
    }
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_EcmpRouteUncached)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_EcmpRouteCached(benchmark::State& state) {
  const auto& topo = bench::pod_topology();
  const auto pairs =
      bench::make_host_pairs(static_cast<std::size_t>(state.range(0)));
  Router router{topo.graph};
  RouteCache cache{router};
  for (auto _ : state) {
    std::size_t hops = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto path = cache.route(pairs[i].first, pairs[i].second, i);
      hops += path ? path->hops() : 0;
    }
    benchmark::DoNotOptimize(hops);
  }
  const auto stats = cache.stats();
  state.counters["entries"] = static_cast<double>(stats.entries);
  state.counters["pool_kb"] = static_cast<double>(stats.pool_bytes) / 1024.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_EcmpRouteCached)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  netpp::bench::print_banner(
      "Flow-simulation scale gate - k=8 fat tree (128 hosts)");
  std::printf(
      "Solver snapshots at 1k/10k/100k active flows plus end-to-end Poisson\n"
      "runs; *Reference* benchmarks are the pre-optimization solver kept for\n"
      "the perf trajectory. JSON: --benchmark_format=json.\n\n");
  return netpp::bench::run_benchmarks(argc, argv);
}
