#include "netpp/netsim/fairshare.h"

#include <cmath>
#include <cstring>

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace netpp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every index and count stays below 2^31 so uint32 never overflows and the
// SIMD int->double conversions are exact.
constexpr std::size_t kMaxProblem = (std::size_t{1} << 31) - 1;

// Min-heap on (key, idx): smallest key first, ties toward the smallest
// index. This reproduces the reference solver's first-hit linear scan
// (strict '<' keeps the lowest index among equal candidates).
struct EntryGreater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.idx > b.idx;
  }
};

// Uniform-cap detection for dense solves: when every flow carries the same
// positive cap (the simulator's NIC-cap regime), the general cap heap
// degenerates — all keys equal, so it pops in ascending flow index, which a
// cursor reproduces with zero heap maintenance. Returns the common cap, or
// -1.0 when caps are absent or mixed.
double detect_uniform_cap(std::span<const double> caps) {
  if (caps.empty()) return -1.0;
  const double cap = caps.front();
  if (!(cap > 0.0)) return -1.0;
  for (const double c : caps) {
    if (c != cap) return -1.0;
  }
  return cap;
}

// Restores the min-heap property after h[0] was replaced in place. One
// root-to-leaf sift instead of the pop_heap + push_heap round trip the
// standard library would take for the same replace-the-top update. The heap
// LAYOUT this produces can differ from std::push_heap's, but the entry
// multiset is identical, and the solver only ever reads the front — the
// unique minimum under the strict (key, idx) total order — so every
// decision (and every computed double) is unchanged.
template <typename E>
void sift_down_root(soa::AlignedVec<E>& h) {
  const std::size_t n = h.size();
  const E e = h[0];
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && EntryGreater{}(h[c], h[c + 1])) ++c;  // smaller child
    if (!EntryGreater{}(e, h[c])) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = e;
}

}  // namespace

void MaxMinSolver::freeze(std::uint32_t f, double value) {
  frozen_[f] = 1;
  rate_[f] = value;
  const std::uint32_t* res = fres_;
  const std::uint32_t end = fstart_[f + 1];
  for (std::uint32_t i = fstart_[f]; i < end; ++i) {
    const std::uint32_t r = res[i];
    const double left = residual_[r] - value;
    residual_[r] = left > 0.0 ? left : 0.0;  // branchless (maxsd) clamp
    --active_on_[r];
    ++res_ver_[r];  // invalidates the link's heap entry fast-accept path
    // No heap update here: freezing at the current fill level v only raises
    // a touched link's share ((residual - v) / (n - 1) >= residual / n
    // whenever residual / n >= v, which progressive filling guarantees), so
    // the link's existing heap entry is a valid lower bound. run() fixes
    // it up lazily when it reaches the top. That holds in exact arithmetic
    // only: after rounding the new share can sit one step below the old,
    // and the entry then overstates it (see fairshare.h).
  }
}

void MaxMinSolver::ingest(std::span<const std::uint32_t> arena,
                          std::span<const std::uint32_t> start,
                          std::size_t num_res) {
  if (start.size() > kMaxProblem + 1 || num_res > kMaxProblem ||
      arena.size() > kMaxProblem) {
    throw std::length_error("max-min problem exceeds 2^31 flows/resources");
  }
  if (start.empty() || start.front() != 0 || start.back() != arena.size()) {
    throw std::invalid_argument("max-min rows must span the arena from 0");
  }
  // The caller's arena IS the flow->resource CSR, so ingesting is one
  // sequential counting pass.
  for (std::uint32_t r : arena) {
    if (r >= num_res) throw std::out_of_range("resource index out of range");
    ++active_on_[r];
  }
  fres_ = arena.data();
  fstart_ = start.data();
}

std::span<const double> MaxMinSolver::solve(
    std::span<const std::uint32_t> arena, std::span<const std::uint32_t> start,
    std::span<const double> caps, std::span<const double> capacities) {
  if (start.size() != caps.size() + 1) {
    throw std::invalid_argument("max-min rows need one cap per row");
  }
  for (double c : capacities) {
    // Zero is allowed: a dead (disabled or fully degraded) link pins its
    // flows to rate 0 via the normal progressive-filling path.
    if (std::isnan(c) || c < 0.0) {
      throw std::invalid_argument("capacities must be non-negative");
    }
  }
  const std::size_t num_res = capacities.size();
  residual_.resize(num_res);
  active_on_.resize(num_res);
  res_ver_.resize(num_res);
  csr_start_.resize(num_res);
  csr_cursor_.resize(num_res);
  if (num_res != 0) {
    std::memcpy(residual_.data(), capacities.data(),
                num_res * sizeof(double));
    std::memset(active_on_.data(), 0, num_res * sizeof(std::uint32_t));
    std::memset(res_ver_.data(), 0, num_res * sizeof(std::uint32_t));
  }
  ingest(arena, start, num_res);
  const double uniform_cap = detect_uniform_cap(caps);
  if (!(uniform_cap > 0.0)) {
    flow_cap_.resize(caps.size());
    if (!caps.empty()) {
      std::memcpy(flow_cap_.data(), caps.data(), caps.size() * sizeof(double));
    }
  }
  return run(caps.size(), capacities, {}, /*dense=*/true, uniform_cap);
}

std::span<const double> MaxMinSolver::solve_arena(
    std::span<const std::uint32_t> arena, std::span<const std::uint32_t> start,
    std::span<const double> capacities, std::span<const std::uint32_t> touched,
    double uniform_cap) {
  assert(uniform_cap > 0.0);
  const std::size_t num_res = capacities.size();
  // Resource-indexed workspace is grow-only and reset sparsely: only the
  // touched entries are (re)initialized, so a small subproblem over a big
  // fabric costs nothing per untouched link.
  if (residual_.size() < num_res) {
    residual_.resize(num_res);
    active_on_.resize(num_res);
    res_ver_.resize(num_res);
    csr_start_.resize(num_res);
    csr_cursor_.resize(num_res);
  }
  for (std::uint32_t r : touched) {
    residual_[r] = capacities[r];
    active_on_[r] = 0;
    res_ver_[r] = 0;
  }
  ingest(arena, start, num_res);
  return run(start.size() - 1, capacities, touched, /*dense=*/false,
             uniform_cap);
}

std::span<const double> MaxMinSolver::run(
    std::size_t num_flows, std::span<const double> capacities,
    std::span<const std::uint32_t> touched, bool dense, double uniform_cap) {
  const std::size_t num_res = capacities.size();
  const bool uniform = uniform_cap > 0.0;
  ++stats_.solves;
  stats_.flows_solved += num_flows;

  rate_.assign(num_flows, 0.0);
  frozen_.assign(num_flows, 0);

  // Reverse CSR (resource -> flows): prefix-sum the counts ingest()
  // accumulated, then fill by streaming the caller's flow->resource rows.
  // Grouping per resource preserves flow order, matching the reference's
  // adjacency lists. csr_cursor_ doubles as the fill cursor and lands
  // exactly on the group end.
  //
  // Both this pass and the heap seeding below visit the solve's resources:
  // every one when dense, else `touched`.
  const auto for_each_resource = [&](auto&& visit) {
    if (dense) {
      for (std::uint32_t r = 0; r < num_res; ++r) visit(r);
    } else {
      for (std::uint32_t r : touched) visit(r);
    }
  };
  std::uint32_t cum = 0;
  for_each_resource([&](std::uint32_t r) {
    csr_start_[r] = cum;
    csr_cursor_[r] = cum;
    cum += active_on_[r];
  });
  csr_flows_.resize(cum);
  {
    const std::uint32_t* fres = fres_;
    const std::uint32_t* fstart = fstart_;
    const std::uint32_t n32 = static_cast<std::uint32_t>(num_flows);
    for (std::uint32_t f = 0; f < n32; ++f) {
      const std::uint32_t end = fstart[f + 1];
      for (std::uint32_t i = fstart[f]; i < end; ++i) {
        csr_flows_[csr_cursor_[fres[i]]++] = f;
      }
    }
  }

  // Seed the link heap: every populated resource's initial share. The
  // heap's internal layout depends on the seeding order, but every decision
  // below reads only the front — the minimum under a strict total (key, idx)
  // order — so the freeze sequence (and every computed double) is
  // independent of the order `touched` lists the resources in.
  link_heap_.clear();
  for_each_resource([&](std::uint32_t r) {
    if (active_on_[r] > 0) {
      link_heap_.push_back(
          {residual_[r] / static_cast<double>(active_on_[r]), r, 0});
    }
  });
  std::make_heap(link_heap_.begin(), link_heap_.end(), EntryGreater{});

  // Cap bookkeeping: a heap of (cap, flow) in the general case; with a
  // uniform cap every entry has the same key, so the heap's pop order is
  // exactly ascending flow index — a cursor over the flow array reproduces
  // it without any heap maintenance.
  std::size_t cap_cursor = 0;
  if (!uniform) {
    cap_heap_.clear();
    for (std::uint32_t f = 0; f < num_flows; ++f) {
      if (flow_cap_[f] > 0.0) cap_heap_.push_back({flow_cap_[f], f, 0});
    }
    std::make_heap(cap_heap_.begin(), cap_heap_.end(), EntryGreater{});
  }

  std::size_t remaining = num_flows;
  while (remaining > 0) {
    // Smallest unfrozen cap.
    double cap_level = kInf;
    std::size_t capped_flow = num_flows;
    if (uniform) {
      while (cap_cursor < num_flows && frozen_[cap_cursor]) ++cap_cursor;
      if (cap_cursor < num_flows) {
        cap_level = uniform_cap;
        capped_flow = cap_cursor;
      }
    } else {
      while (!cap_heap_.empty()) {
        const HeapEntry top = cap_heap_[0];
        if (!frozen_[top.idx]) {
          cap_level = top.key;
          capped_flow = top.idx;
          break;
        }
        std::pop_heap(cap_heap_.begin(), cap_heap_.end(), EntryGreater{});
        cap_heap_.pop_back();
      }
    }

    // Lower-bound gate: every link's current share is >= its own heap key,
    // and the front key is the minimum key, so the true minimum share is
    // >= link_heap_.front().key. When that lower bound already clears the
    // cap level, the cap freeze wins the round without touching the link
    // heap — the exact comparison below would have picked the same branch,
    // the same flow, and the same value, so the freeze sequence (and thus
    // every computed double) is unchanged. In cap-dominated rounds this
    // skips the whole stale-entry fixup walk.
    if (capped_flow != num_flows &&
        (link_heap_.empty() || link_heap_[0].key >= cap_level)) {
      if (uniform) {
        // Once the heap's lower bound clears the uniform cap it clears it
        // forever: keys and shares only rise, and the cap level is fixed.
        // Every remaining round would be this same cap freeze — in cursor
        // order, i.e. ascending flow index — and the residual bookkeeping
        // those freezes would do is dead (the workspace is reset before the
        // next solve). Freeze them all at once with the blend kernel.
        soa::fill_unfrozen(rate_.data() + cap_cursor,
                           frozen_.data() + cap_cursor, uniform_cap,
                           num_flows - cap_cursor);
        break;
      }
      std::pop_heap(cap_heap_.begin(), cap_heap_.end(), EntryGreater{});
      cap_heap_.pop_back();
      freeze(static_cast<std::uint32_t>(capped_flow), cap_level);
      --remaining;
      continue;
    }

    // Tightest link. Heap entries are lower bounds on the links' current
    // shares (shares only grow as filling proceeds): drop entries for
    // emptied links, re-push stale entries at their current share, and stop
    // when the top is current — it is then the true minimum, with ties
    // broken toward the lowest index exactly like the reference scan (any
    // other link with an equal current share still has its entry key pinned
    // between the front key and its share, i.e. equal, so the heap's
    // (key, idx) order resolves the tie by index).
    double link_share = kInf;
    std::size_t tight_link = num_res;
    while (!link_heap_.empty()) {
      const HeapEntry top = link_heap_[0];
      const std::uint32_t n_active = active_on_[top.idx];
      if (n_active != 0) {
        // Fast accept: no freeze has touched this link since its entry was
        // pushed, so the stored key is bit-for-bit the current share and the
        // (serialized, ~20-cycle) division below is provably redundant.
        if (top.ver == res_ver_[top.idx]) {
          link_share = top.key;
          tight_link = top.idx;
          break;
        }
        const double current =
            residual_[top.idx] / static_cast<double>(n_active);
        if (top.key == current) {
          link_share = current;
          tight_link = top.idx;
          break;
        }
        link_heap_[0].key = current;
        link_heap_[0].ver = res_ver_[top.idx];
        sift_down_root(link_heap_);
        continue;
      }
      link_heap_[0] = link_heap_.back();
      link_heap_.pop_back();
      if (!link_heap_.empty()) sift_down_root(link_heap_);
    }

    if (tight_link == num_res && capped_flow == num_flows) {
      // Remaining flows are uncapped and cross no capacitated resource:
      // conventionally give them zero (callers treat empty paths specially).
      break;
    }

    if (cap_level <= link_share) {
      // Freeze the capped flow at its cap and release its share.
      if (!uniform) {
        std::pop_heap(cap_heap_.begin(), cap_heap_.end(), EntryGreater{});
        cap_heap_.pop_back();
      }
      freeze(static_cast<std::uint32_t>(capped_flow), cap_level);
      --remaining;
      continue;
    }

    // Freeze every unfrozen flow on the tightest link at the link share.
    // (freeze() drains the link's active count, so the heap entry consumed
    // here goes stale on its own.)
    for (std::uint32_t i = csr_start_[tight_link]; i < csr_cursor_[tight_link];
         ++i) {
      const std::uint32_t f = csr_flows_[i];
      if (frozen_[f]) continue;
      freeze(f, link_share);
      --remaining;
    }
  }

  return {rate_.data(), num_flows};
}

std::vector<double> max_min_fair_rates(
    const std::vector<FairShareFlow>& flows,
    const std::vector<double>& capacities) {
  std::size_t total = 0;
  for (const FairShareFlow& flow : flows) total += flow.resources.size();
  // Bound the offsets before narrowing them to the solver's 32-bit rows.
  if (total > kMaxProblem) {
    throw std::length_error("max-min problem exceeds 2^31 incidences");
  }
  std::vector<std::uint32_t> arena;
  arena.reserve(total);
  std::vector<std::uint32_t> start;
  start.reserve(flows.size() + 1);
  start.push_back(0);
  std::vector<double> caps;
  caps.reserve(flows.size());
  for (const FairShareFlow& flow : flows) {
    for (const std::size_t r : flow.resources) {
      // Range-check before narrowing, so no wrapped index reaches the solver.
      if (r >= capacities.size()) {
        throw std::out_of_range("resource index out of range");
      }
      arena.push_back(static_cast<std::uint32_t>(r));
    }
    start.push_back(static_cast<std::uint32_t>(arena.size()));
    caps.push_back(flow.cap);
  }
  MaxMinSolver solver;
  const auto rates = solver.solve(arena, start, caps, capacities);
  return {rates.begin(), rates.end()};
}

}  // namespace netpp
