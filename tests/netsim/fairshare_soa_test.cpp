// SoA/SIMD bit-identity sweep: both dispatch paths of the soa.h kernels
// (scalar, and with NETPP_SIMD also AVX2 when the CPU has it) must produce
// bit-identical results — both at the kernel level (settle and
// fill_unfrozen compared lane by lane against the forced-scalar path; the
// fused settle_and_scan against the settle + due walk + straight-line
// completion scan sequence it replaces, at threshold -inf against settle +
// that scan, and at dt 0 and threshold -inf against a hand-written scan;
// find_due against a scalar search) and end to end (the solver against the
// verbatim pre-optimization reference, and the sparse solve_arena entry
// point against the dense solve()). force_simd_level() exists for exactly
// this sweep; the suite runs under ASan/UBSan and TSan in CI. It also pins
// the dispatch rule and the AlignedVec workspace buffer.
//
// Comparisons use the raw double bits (std::bit_cast), not ==: the contract
// is "same IEEE operations in the same order", which also pins signed
// zeros and infinities.
#include "netpp/netsim/soa.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fairshare_reference.h"
#include "netpp/netsim/fairshare.h"
#include "netpp/sim/random.h"

namespace netpp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Forces a dispatch level for one scope; restores full dispatch on exit.
class ForcedLevel {
 public:
  explicit ForcedLevel(soa::SimdLevel level)
      : applied_(soa::force_simd_level(level)) {}
  ~ForcedLevel() { soa::force_simd_level(soa::detected_simd_level()); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
  [[nodiscard]] soa::SimdLevel applied() const { return applied_; }

 private:
  soa::SimdLevel applied_;
};

/// Every level this binary + CPU can actually run: scalar, plus AVX2 when
/// it is detected.
std::vector<soa::SimdLevel> compiled_levels() {
  std::vector<soa::SimdLevel> levels{soa::SimdLevel::kScalar};
  if (soa::detected_simd_level() == soa::SimdLevel::kAvx2) {
    levels.push_back(soa::SimdLevel::kAvx2);
  }
  return levels;
}

/// The straight-line completion scan: both minima over the lanes, each lane
/// folded in index order under soa::completion_key's rule.
soa::CompletionPass straight_line_scan(const std::vector<double>& remaining,
                                       const std::vector<double>& rate,
                                       double cap) {
  soa::CompletionPass pass;
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    const soa::LaneKey key = soa::completion_key(remaining[i], rate[i], cap);
    if (key.minimum != nullptr && key.value < pass.*key.minimum) {
      pass.*key.minimum = key.value;
    }
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Random problem generation: zero-capacity links, single-flow links,
// duplicate resources, capped/uncapped mixes.
// ---------------------------------------------------------------------------
struct Problem {
  std::vector<FairShareFlow> flows;
  std::vector<double> caps;
};

Problem random_problem(Rng& rng, bool uniform_cap) {
  Problem p;
  const auto num_res = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const auto num_flows = static_cast<std::size_t>(rng.uniform_int(0, 40));
  p.caps.resize(num_res);
  for (auto& c : p.caps) {
    // ~15% zero-capacity links: flows crossing one pin to rate 0.
    c = rng.uniform() < 0.15 ? 0.0 : rng.uniform(0.5, 100.0);
  }
  p.flows.reserve(num_flows);
  for (std::size_t f = 0; f < num_flows; ++f) {
    FairShareFlow flow;
    const auto path_len = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t h = 0; h < path_len; ++h) {
      // Duplicates allowed on purpose.
      flow.resources.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_res) - 1)));
    }
    if (uniform_cap) {
      flow.cap = 25.0;
    } else {
      const double roll = rng.uniform();
      if (roll < 0.3) {
        flow.cap = rng.uniform(0.1, 5.0);  // often binding
      } else if (roll < 0.5) {
        flow.cap = rng.uniform(50.0, 500.0);  // mostly inert
      }
    }
    p.flows.push_back(std::move(flow));
  }
  // Half the trials get a guaranteed single-flow link: a fresh resource
  // crossed only by flow 0 (the uncontended-freeze corner).
  if (!p.flows.empty() && rng.uniform() < 0.5) {
    p.caps.push_back(rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.5, 100.0));
    p.flows[0].resources.push_back(p.caps.size() - 1);
  }
  return p;
}

void expect_matches_reference(const Problem& p, const std::string& what) {
  const auto expected = testing::max_min_fair_rates_reference(p.flows, p.caps);
  const auto actual = max_min_fair_rates(p.flows, p.caps);
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(bits(actual[f]), bits(expected[f]))
        << what << ", flow " << f << ": " << actual[f] << " vs "
        << expected[f];
  }
}

TEST(FairShareSoa, SolverMatchesReferenceOnEveryDispatchPath) {
  for (const soa::SimdLevel level : compiled_levels()) {
    ForcedLevel forced{level};
    ASSERT_EQ(forced.applied(), level);
    const std::string what =
        std::string{"level "} + soa::to_string(level);
    Rng rng{0x50A0ull + static_cast<std::uint64_t>(level)};
    for (int trial = 0; trial < 120; ++trial) {
      expect_matches_reference(random_problem(rng, false),
                               what + ", mixed-cap trial");
      if (HasFatalFailure()) return;
    }
    for (int trial = 0; trial < 80; ++trial) {
      expect_matches_reference(random_problem(rng, true),
                               what + ", uniform-cap trial");
      if (HasFatalFailure()) return;
    }
  }
}

// The sparse entry point the simulator's binding walk rides on (solve_arena
// over a touched set and a uniform cap) must return exactly the doubles the
// dense solve() does over the same CSR rows — on every dispatch path.
TEST(FairShareSoa, SparseEntryPointsMatchDenseSolve) {
  constexpr double kUniformCap = 25.0;
  for (const soa::SimdLevel level : compiled_levels()) {
    ForcedLevel forced{level};
    Rng rng{0xA2E4Aull + static_cast<std::uint64_t>(level)};
    for (int trial = 0; trial < 60; ++trial) {
      Problem p = random_problem(rng, true);
      if (p.flows.empty()) continue;

      const testing::CsrRows rows = testing::to_csr_rows(p.flows);
      MaxMinSolver dense;
      const auto dense_span = dense.solve(rows.arena, rows.start, rows.caps,
                                          p.caps);
      const std::vector<double> expected{dense_span.begin(),
                                         dense_span.end()};

      std::vector<std::uint32_t> touched;
      std::vector<std::uint8_t> seen(p.caps.size(), 0);
      for (std::uint32_t r : rows.arena) {
        if (seen[r] == 0) {
          seen[r] = 1;
          touched.push_back(r);
        }
      }

      MaxMinSolver sparse;
      const auto arena_span = sparse.solve_arena(
          rows.arena, rows.start, p.caps,
          std::span<const std::uint32_t>(touched), kUniformCap);
      ASSERT_EQ(arena_span.size(), expected.size());
      for (std::size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(bits(arena_span[f]), bits(expected[f]))
            << "solve_arena, level " << soa::to_string(level) << ", trial "
            << trial << ", flow " << f;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level sweeps: the vector paths against the forced-scalar path on
// the same inputs, lane by lane, across sizes that exercise every tail.
// ---------------------------------------------------------------------------

/// Random reallocation-shaped arrays: rates are 0 (closed lane), exactly
/// `cap` (NIC-capped lane), or a positive share; remaining is >= 0 with
/// some exact zeros.
struct Lanes {
  std::vector<double> remaining;
  std::vector<double> rate;
};

/// Which rates random_lanes draws. kAllCapped makes every vector block skip
/// the division; kNoneCapped mixes closed lanes and below-cap shares only;
/// kAllClosed has no progressing lane at all.
enum class RateMix { kMixed, kAllCapped, kNoneCapped, kAllClosed };

Lanes random_lanes(Rng& rng, std::size_t n, double cap,
                   RateMix mix = RateMix::kMixed) {
  Lanes lanes;
  lanes.remaining.resize(n);
  lanes.rate.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes.remaining[i] = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 50e9);
    const double roll = rng.uniform();
    if (mix == RateMix::kAllCapped) {
      lanes.rate[i] = cap;
    } else if (roll < 0.15 || mix == RateMix::kAllClosed) {
      lanes.rate[i] = 0.0;
    } else if (roll < 0.45 && mix == RateMix::kMixed) {
      lanes.rate[i] = cap;
    } else {
      lanes.rate[i] = rng.uniform(1e3, 30e9);
    }
  }
  return lanes;
}

/// Moves about a third of the lanes onto the due threshold `eps` as seen
/// after a settle by `dt`: exactly eps plus the lane's progress, or one ulp
/// either side of that. Zero-rate lanes, and every lane when dt <= 0, land
/// exactly at, just below or just above eps; the others land within an ulp
/// of it, whichever way the settle rounds. A few lanes get NaN, which the
/// due predicate counts as due.
void add_threshold_lanes(Rng& rng, Lanes& lanes, double eps, double dt) {
  for (std::size_t i = 0; i < lanes.remaining.size(); ++i) {
    const double roll = rng.uniform();
    if (roll >= 0.35) continue;
    double at = eps + (dt > 0.0 ? lanes.rate[i] * dt : 0.0);
    if (roll < 0.02) {
      at = std::numeric_limits<double>::quiet_NaN();
    } else if (roll < 0.12) {
      at = std::nextafter(at, 0.0);
    } else if (roll < 0.22) {
      at = std::nextafter(at, kInf);
    }
    lanes.remaining[i] = at;
  }
}

TEST(FairShareSoa, SettleKernelBitIdenticalAcrossPaths) {
  constexpr double kCap = 25e9;
  const auto levels = compiled_levels();
  Rng rng{0x5E77ull};
  for (int trial = 0; trial < 40; ++trial) {
    // Sizes 0..66 sweep every AVX2 main-loop + tail combination.
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    const Lanes lanes = random_lanes(rng, n, kCap);
    const double dt = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 2.0);

    std::vector<double> expected = lanes.remaining;
    {
      ForcedLevel forced{soa::SimdLevel::kScalar};
      soa::settle(expected.data(), lanes.rate.data(), dt, n);
    }
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> got = lanes.remaining;
      soa::settle(got.data(), lanes.rate.data(), dt, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(got[i]), bits(expected[i]))
            << "settle, level " << soa::to_string(level) << ", trial "
            << trial << ", lane " << i;
      }
    }
  }
}

TEST(FairShareSoa, CompletionScanBitIdenticalAcrossPaths) {
  constexpr double kCap = 25e9;
  const auto levels = compiled_levels();
  Rng rng{0xC03Full};
  for (int trial = 0; trial < 120; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    // The first 40 trials mix rates; then all-capped arrays (no vector
    // block divides) and arrays with no capped lane.
    const RateMix mix = trial < 40   ? RateMix::kMixed
                        : trial < 80 ? RateMix::kAllCapped
                                     : RateMix::kNoneCapped;
    const Lanes lanes = random_lanes(rng, n, kCap, mix);

    // Pin the semantics against the documented straight-line scan.
    double want_quotient = kInf;
    double want_capped = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes.rate[i] <= 0.0) continue;
      if (lanes.rate[i] == kCap) {
        if (lanes.remaining[i] < want_capped) want_capped = lanes.remaining[i];
      } else {
        const double q = lanes.remaining[i] / lanes.rate[i];
        if (q < want_quotient) want_quotient = q;
      }
    }

    // At dt 0 and threshold -inf the fused pass is the read-only scan
    // every reallocation reschedules from.
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> got = lanes.remaining;
      const soa::CompletionPass pass = soa::settle_and_scan(
          got.data(), lanes.rate.data(), 0.0, -kInf, kCap, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(got[i]), bits(lanes.remaining[i]))
            << "completion scan wrote lane " << i << ", level "
            << soa::to_string(level) << ", trial " << trial;
      }
      EXPECT_EQ(pass.due, 0u) << "level " << soa::to_string(level)
                              << ", trial " << trial;
      EXPECT_EQ(bits(pass.min_quotient), bits(want_quotient))
          << "completion scan quotient, level " << soa::to_string(level)
          << ", trial " << trial;
      EXPECT_EQ(bits(pass.min_capped), bits(want_capped))
          << "completion scan capped, level " << soa::to_string(level)
          << ", trial " << trial;
    }
  }
}

// The completion event's fused pass must equal the sequence it replaces:
// settle (skipped when dt <= 0), a scalar due walk, then the straight-line
// completion scan over the lanes that stayed above the threshold — bit for
// bit, including every remaining lane it writes (or, for dt <= 0, leaves
// alone).
TEST(FairShareSoa, SettleAndScanMatchesSettleWalkScan) {
  constexpr double kCap = 25e9;
  constexpr double kEps = 1.0;  // FlowSimulator's completion threshold
  const auto levels = compiled_levels();
  Rng rng{0xF05Eull};
  for (const RateMix mix : {RateMix::kMixed, RateMix::kAllCapped,
                            RateMix::kNoneCapped, RateMix::kAllClosed}) {
    // An uncapped simulator passes cap 0, which only zero-rate lanes match;
    // those lanes must still stay out of both minima.
    const double cap = mix == RateMix::kNoneCapped ||
                               mix == RateMix::kAllClosed
                           ? 0.0
                           : kCap;
    for (std::size_t n = 0; n <= 66; ++n) {
      for (const double dt : {0.0, -0.5, rng.uniform(1e-9, 2.0)}) {
        Lanes lanes = random_lanes(rng, n, cap, mix);
        add_threshold_lanes(rng, lanes, kEps, dt);

        std::vector<double> want_remaining = lanes.remaining;
        std::size_t want_due = 0;
        std::size_t want_first = n;
        std::vector<double> live_remaining;
        std::vector<double> live_rate;
        {
          ForcedLevel forced{soa::SimdLevel::kScalar};
          if (dt > 0.0) {
            soa::settle(want_remaining.data(), lanes.rate.data(), dt, n);
          }
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!(want_remaining[i] > kEps)) {
            if (want_due++ == 0) want_first = i;
          } else {
            live_remaining.push_back(want_remaining[i]);
            live_rate.push_back(lanes.rate[i]);
          }
        }
        const soa::CompletionPass want =
            straight_line_scan(live_remaining, live_rate, cap);

        for (const soa::SimdLevel level : levels) {
          ForcedLevel forced{level};
          const std::string what = std::string{"level "} +
                                   soa::to_string(level) + ", n " +
                                   std::to_string(n) + ", dt " +
                                   std::to_string(dt);
          std::vector<double> got = lanes.remaining;
          const soa::CompletionPass pass = soa::settle_and_scan(
              got.data(), lanes.rate.data(), dt, kEps, cap, n);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(got[i]), bits(want_remaining[i]))
                << what << ", lane " << i;
          }
          EXPECT_EQ(pass.due, want_due) << what;
          EXPECT_EQ(pass.first_due, want_first) << what;
          EXPECT_EQ(bits(pass.min_quotient), bits(want.min_quotient)) << what;
          EXPECT_EQ(bits(pass.min_capped), bits(want.min_capped)) << what;
        }
      }
    }
  }
}

// The sharded driver settles each window's collection with the fused pass
// at threshold -inf, and reschedules from its minima instead of
// rescanning: that pass must equal settle (skipped when dt <= 0) followed
// by the straight-line completion scan over every lane — the same lanes bit
// for bit, both minima bitwise, and no lane due — at every compiled level.
TEST(FairShareSoa, SettleAndScanAtMinusInfinityMatchesSettleThenScan) {
  constexpr double kCap = 25e9;
  const auto levels = compiled_levels();
  Rng rng{0x5CA7ull};
  for (const RateMix mix : {RateMix::kMixed, RateMix::kAllCapped,
                            RateMix::kNoneCapped, RateMix::kAllClosed}) {
    // Cap 0 is the uncapped simulator: only zero-rate lanes equal it.
    for (const double cap : {kCap, 0.0}) {
      for (std::size_t n = 0; n <= 66; ++n) {
        for (const double dt : {0.0, rng.uniform(1e-9, 2.0)}) {
          const Lanes lanes = random_lanes(rng, n, cap, mix);
          for (const soa::SimdLevel level : levels) {
            ForcedLevel forced{level};
            const std::string what = std::string{"level "} +
                                     soa::to_string(level) + ", cap " +
                                     std::to_string(cap) + ", n " +
                                     std::to_string(n) + ", dt " +
                                     std::to_string(dt);
            std::vector<double> want = lanes.remaining;
            if (dt > 0.0) soa::settle(want.data(), lanes.rate.data(), dt, n);
            const soa::CompletionPass want_pass =
                straight_line_scan(want, lanes.rate, cap);

            std::vector<double> got = lanes.remaining;
            const soa::CompletionPass pass = soa::settle_and_scan(
                got.data(), lanes.rate.data(), dt, -kInf, cap, n);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bits(got[i]), bits(want[i])) << what << ", lane " << i;
            }
            EXPECT_EQ(pass.due, 0u) << what;
            EXPECT_EQ(pass.first_due, n) << what;
            EXPECT_EQ(bits(pass.min_quotient), bits(want_pass.min_quotient))
                << what;
            EXPECT_EQ(bits(pass.min_capped), bits(want_pass.min_capped))
                << what;
            // The driver flags the halves whose raise would void these
            // minima by soa::attains_minimum: each finite one is some lane's.
            bool quotient_attained = false;
            bool capped_attained = false;
            for (std::size_t i = 0; i < n; ++i) {
              if (soa::attains_minimum(got[i], lanes.rate[i], cap, pass)) {
                (lanes.rate[i] == cap ? capped_attained : quotient_attained) =
                    true;
              }
            }
            EXPECT_EQ(quotient_attained, std::isfinite(pass.min_quotient))
                << what;
            EXPECT_EQ(capped_attained, std::isfinite(pass.min_capped))
                << what;
          }
        }
      }
    }
  }
}

TEST(FairShareSoa, FindDueMatchesScalarSearchFromEveryStart) {
  constexpr double kEps = 1.0;
  const double below = std::nextafter(kEps, 0.0);
  const double above = std::nextafter(kEps, kInf);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto levels = compiled_levels();
  Rng rng{0xF1DDull};
  for (std::size_t n = 0; n <= 66; ++n) {
    for (const double due_share : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<double> remaining(n);
      for (double& r : remaining) {
        const auto pick = rng.uniform_int(0, 3);
        if (rng.uniform() < due_share) {
          const double due[] = {0.0, kEps, below, nan};
          r = due[pick];
        } else {
          r = pick == 0 ? above : rng.uniform(2.0, 50e9);
        }
      }
      for (std::size_t from = 0; from <= n; ++from) {
        std::size_t want = from;
        while (want < n && remaining[want] > kEps) ++want;
        for (const soa::SimdLevel level : levels) {
          ForcedLevel forced{level};
          ASSERT_EQ(soa::find_due(remaining.data(), kEps, from, n), want)
              << "level " << soa::to_string(level) << ", n " << n
              << ", from " << from << ", due share " << due_share;
        }
      }
    }
  }
}

TEST(FairShareSoa, FillUnfrozenBitIdenticalAcrossPaths) {
  const auto levels = compiled_levels();
  Rng rng{0xD1Full};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 66));
    std::vector<double> rate(n);
    std::vector<std::uint8_t> frozen(n);
    for (std::size_t i = 0; i < n; ++i) {
      rate[i] = rng.uniform(0.0, 10.0);
      frozen[i] = rng.uniform() < 0.5 ? 1 : 0;
    }
    const double value = rng.uniform(0.0, 30e9);
    for (const soa::SimdLevel level : levels) {
      ForcedLevel forced{level};
      std::vector<double> got_rate = rate;
      std::vector<std::uint8_t> got_frozen = frozen;
      soa::fill_unfrozen(got_rate.data(), got_frozen.data(), value, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double want = frozen[i] != 0 ? rate[i] : value;
        ASSERT_EQ(bits(got_rate[i]), bits(want))
            << "fill_unfrozen, level " << soa::to_string(level) << ", trial "
            << trial << ", lane " << i;
        ASSERT_EQ(got_frozen[i], 1) << "frozen flag, lane " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The dispatch rule and the AlignedVec workspace buffer.
// ---------------------------------------------------------------------------

// AVX2 exactly when its bodies are compiled in (NETPP_SIMD, which the root
// CMake file defines for every target, on x86-64 with GCC or Clang) and the
// CPU reports AVX2; scalar otherwise. force_simd_level clamps to that.
TEST(FairShareSoa, DispatchIsAvx2ExactlyWhenCompiledInAndSupported) {
#if defined(NETPP_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  const soa::SimdLevel detected = soa::detected_simd_level();
  EXPECT_EQ(detected, avx2 ? soa::SimdLevel::kAvx2 : soa::SimdLevel::kScalar);
  EXPECT_EQ(soa::active_simd_level(), detected);
  EXPECT_STREQ(soa::to_string(soa::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(soa::to_string(soa::SimdLevel::kAvx2), "avx2");
  {
    ForcedLevel forced{soa::SimdLevel::kScalar};
    EXPECT_EQ(forced.applied(), soa::SimdLevel::kScalar);
    EXPECT_EQ(soa::active_simd_level(), soa::SimdLevel::kScalar);
  }
  EXPECT_EQ(soa::active_simd_level(), detected);
  {
    ForcedLevel forced{soa::SimdLevel::kAvx2};
    EXPECT_EQ(forced.applied(), detected);
    EXPECT_EQ(soa::active_simd_level(), detected);
  }
}

bool aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % soa::kAlignment == 0;
}

TEST(FairShareSoa, AlignedVecKeepsAlignmentAndContentsAcrossGrowth) {
  soa::AlignedVec<std::uint32_t> pushed;
  EXPECT_TRUE(pushed.empty());
  int growths = 0;
  const std::uint32_t* storage = nullptr;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    pushed.push_back(i * 7U);
    ASSERT_EQ(pushed.size(), i + 1);
    if (pushed.data() == storage) continue;
    ++growths;
    storage = pushed.data();
    ASSERT_TRUE(aligned(storage)) << "push_back growth " << growths;
    for (std::uint32_t j = 0; j <= i; ++j) {
      ASSERT_EQ(pushed[j], j * 7U) << "push_back growth " << growths;
    }
  }
  EXPECT_GE(growths, 3);
  EXPECT_EQ(pushed.back(), 999U * 7U);

  soa::AlignedVec<double> resized;
  const double kept[] = {1.5, -0.0, kInf};
  resized.resize(3);
  for (std::size_t i = 0; i < 3; ++i) resized[i] = kept[i];
  for (const std::size_t n : {20, 300, 5000}) {
    resized.resize(n);
    ASSERT_EQ(resized.size(), n);
    ASSERT_TRUE(aligned(resized.data())) << "resize to " << n;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(bits(resized[i]), bits(kept[i])) << "resize to " << n;
    }
  }
}

TEST(FairShareSoa, AlignedVecNeverShrinksItsStorage) {
  soa::AlignedVec<double> v;
  v.resize(100);
  for (std::size_t i = 0; i < 100; ++i) v[i] = static_cast<double>(i);
  const double* storage = v.data();
  v.resize(10);
  EXPECT_EQ(v.size(), 10U);
  EXPECT_EQ(v.data(), storage);
  v.pop_back();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.data(), storage);
  v.reserve(50);
  EXPECT_EQ(v.data(), storage);
  // Regrowing within the capacity keeps the storage, and resize never
  // initializes: the lanes still hold what was written before the shrink.
  v.resize(100);
  EXPECT_EQ(v.data(), storage);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(v[i], static_cast<double>(i)) << "lane " << i;
  }
}

TEST(FairShareSoa, AlignedVecAssignFillsEveryLane) {
  soa::AlignedVec<std::uint8_t> v;
  for (const std::size_t n : {37, 5, 200, 0}) {
    const auto value = static_cast<std::uint8_t>(n % 251 + 1);
    v.assign(n, value);
    ASSERT_EQ(v.size(), n);
    ASSERT_TRUE(v.empty() || aligned(v.data()));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v[i], value) << "assign " << n << ", lane " << i;
    }
  }
}

TEST(FairShareSoa, AlignedVecMoveLeavesTheSourceEmpty) {
  soa::AlignedVec<std::uint32_t> a;
  for (std::uint32_t i = 0; i < 40; ++i) a.push_back(i);
  const std::uint32_t* storage = a.data();

  soa::AlignedVec<std::uint32_t> b{std::move(a)};
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.size(), 40U);
  EXPECT_EQ(b.data(), storage);

  soa::AlignedVec<std::uint32_t> c;
  c.push_back(99);
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
  ASSERT_EQ(c.size(), 40U);
  EXPECT_EQ(c.data(), storage);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(c[i], i);

  // A moved-from vector is empty and reusable.
  a.push_back(5);
  ASSERT_EQ(a.size(), 1U);
  EXPECT_EQ(a[0], 5U);
  EXPECT_TRUE(aligned(a.data()));
}

}  // namespace
}  // namespace netpp
