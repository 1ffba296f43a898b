#include "netpp/netsim/soa.h"

#include <atomic>
#include <bit>
#include <limits>

#if defined(NETPP_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define NETPP_SIMD_X86 1
#include <immintrin.h>
#else
#define NETPP_SIMD_X86 0
#endif

namespace netpp::soa {

namespace {

// force_simd_level cap; values above any real level mean "no cap". Atomic so
// the TSan job can run solver tests concurrently with a forced level.
std::atomic<int> g_forced_level{1 << 20};

void fill_unfrozen_scalar(double* rate, std::uint8_t* frozen, double value,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (frozen[i] == 0) {
      rate[i] = value;
      frozen[i] = 1;
    }
  }
}

void settle_scalar(double* remaining, const double* rate, double dt,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double next = remaining[i] - rate[i] * dt;
    remaining[i] = next > 0.0 ? next : 0.0;
  }
}

CompletionPass settle_and_scan_scalar(double* remaining, const double* rate,
                                      double dt, double eps, double cap,
                                      std::size_t n) {
  const bool settle = dt > 0.0;
  CompletionPass pass;
  pass.first_due = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (settle) {
      const double next = remaining[i] - rate[i] * dt;
      remaining[i] = next > 0.0 ? next : 0.0;
    }
    const double rem = remaining[i];
    if (!(rem > eps)) {
      if (pass.due++ == 0) pass.first_due = i;
      continue;
    }
    const LaneKey key = completion_key(rem, rate[i], cap);
    if (key.minimum != nullptr && key.value < pass.*key.minimum) {
      pass.*key.minimum = key.value;
    }
  }
  return pass;
}

std::size_t find_due_scalar(const double* remaining, double eps,
                            std::size_t from, std::size_t n) {
  for (std::size_t i = from; i < n; ++i) {
    if (!(remaining[i] > eps)) return i;
  }
  return n;
}

#if NETPP_SIMD_X86

// Folds the AVX2 body's counts and four-lane minima and the scalar pass over
// its tail [at, n) into one CompletionPass.
CompletionPass merge_tail(std::size_t due, std::size_t first_due,
                          const double* quotient_lanes,
                          const double* capped_lanes,
                          const CompletionPass& tail, std::size_t at) {
  CompletionPass pass = tail;
  pass.first_due = due != 0 ? first_due : at + tail.first_due;
  pass.due = due + tail.due;
  for (int l = 0; l < 4; ++l) {
    if (quotient_lanes[l] < pass.min_quotient) {
      pass.min_quotient = quotient_lanes[l];
    }
    if (capped_lanes[l] < pass.min_capped) pass.min_capped = capped_lanes[l];
  }
  return pass;
}

__attribute__((target("avx2"))) void fill_unfrozen_avx2(double* rate,
                                                        std::uint8_t* frozen,
                                                        double value,
                                                        std::size_t n) {
  const __m256d fill = _mm256_set1_pd(value);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t packed;
    std::memcpy(&packed, frozen + i, sizeof(packed));
    const __m256i lanes = _mm256_cvtepi8_epi64(
        _mm_cvtsi32_si128(static_cast<int>(packed)));  // 4 flag bytes -> i64
    const __m256d mask =
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(lanes, zero));
    const __m256d cur = _mm256_loadu_pd(rate + i);
    _mm256_storeu_pd(rate + i, _mm256_blendv_pd(cur, fill, mask));
    packed = 0x01010101U;
    std::memcpy(frozen + i, &packed, sizeof(packed));
  }
  fill_unfrozen_scalar(rate + i, frozen + i, value, n - i);
}

__attribute__((target("avx2"))) void settle_avx2(double* remaining,
                                                 const double* rate, double dt,
                                                 std::size_t n) {
  const __m256d vdt = _mm256_set1_pd(dt);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d rem = _mm256_loadu_pd(remaining + i);
    const __m256d next =
        _mm256_sub_pd(rem, _mm256_mul_pd(_mm256_loadu_pd(rate + i), vdt));
    _mm256_storeu_pd(remaining + i, _mm256_max_pd(next, zero));
  }
  settle_scalar(remaining + i, rate + i, dt, n - i);
}

__attribute__((target("avx2"))) CompletionPass settle_and_scan_avx2(
    double* remaining, const double* rate, double dt, double eps, double cap,
    std::size_t n) {
  const bool settle = dt > 0.0;
  const __m256d vdt = _mm256_set1_pd(dt);
  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d vcap = _mm256_set1_pd(cap);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vinf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const bool capped = cap > 0.0;
  __m256d qacc = vinf;
  __m256d cacc = vinf;
  std::size_t due = 0;
  std::size_t first_due = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(rate + i);
    __m256d rem = _mm256_loadu_pd(remaining + i);
    if (settle) {
      rem = _mm256_max_pd(_mm256_sub_pd(rem, _mm256_mul_pd(r, vdt)), zero);
      _mm256_storeu_pd(remaining + i, rem);
    }
    const __m256d alive = _mm256_cmp_pd(rem, veps, _CMP_GT_OQ);
    const __m256d eq_cap = _mm256_cmp_pd(r, vcap, _CMP_EQ_OQ);
    const int alive_bits = _mm256_movemask_pd(alive);
    if (capped && (alive_bits & _mm256_movemask_pd(eq_cap)) == 0xF) {
      cacc = _mm256_min_pd(cacc, rem);
      continue;
    }
    if (alive_bits != 0xF) {
      const unsigned due_bits = ~static_cast<unsigned>(alive_bits) & 0xF;
      if (due == 0) first_due = i + std::countr_zero(due_bits);
      due += static_cast<std::size_t>(std::popcount(due_bits));
    }
    const __m256d pos =
        _mm256_and_pd(alive, _mm256_cmp_pd(r, zero, _CMP_GT_OQ));
    const __m256d at_cap = _mm256_and_pd(pos, eq_cap);
    const __m256d below = _mm256_andnot_pd(eq_cap, pos);
    cacc = _mm256_min_pd(cacc, _mm256_blendv_pd(vinf, rem, at_cap));
    if (_mm256_movemask_pd(below) != 0) {
      const __m256d quo = _mm256_div_pd(rem, r);
      qacc = _mm256_min_pd(qacc, _mm256_blendv_pd(vinf, quo, below));
    }
  }
  double quotient_lanes[4];
  double capped_lanes[4];
  _mm256_storeu_pd(quotient_lanes, qacc);
  _mm256_storeu_pd(capped_lanes, cacc);
  // The scalar tail is an out-of-line legacy-SSE call, and GCC emits no
  // vzeroupper before it (nor at the return after it). Dirty upper halves
  // would slow every SSE instruction the caller runs next until some other
  // kernel clears them: ~900 TSC ticks per call on a small shard.
  _mm256_zeroupper();
  return merge_tail(
      due, first_due, quotient_lanes, capped_lanes,
      settle_and_scan_scalar(remaining + i, rate + i, dt, eps, cap, n - i),
      i);
}

__attribute__((target("avx2"))) std::size_t find_due_avx2(
    const double* remaining, double eps, std::size_t from, std::size_t n) {
  const __m256d veps = _mm256_set1_pd(eps);
  std::size_t i = from;
  for (; i + 4 <= n; i += 4) {
    const int alive = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(remaining + i), veps, _CMP_GT_OQ));
    if (alive != 0xF) {
      return i + std::countr_zero(static_cast<unsigned>(~alive & 0xF));
    }
  }
  return find_due_scalar(remaining, eps, i, n);
}

#endif  // NETPP_SIMD_X86

}  // namespace

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel detected_simd_level() {
#if NETPP_SIMD_X86
  static const SimdLevel detected =
      __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel active_simd_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  const SimdLevel detected = detected_simd_level();
  return static_cast<int>(detected) <= forced ? detected
                                              : static_cast<SimdLevel>(forced);
}

SimdLevel force_simd_level(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return active_simd_level();
}

void fill_unfrozen(double* rate, std::uint8_t* frozen, double value,
                   std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      fill_unfrozen_avx2(rate, frozen, value, n);
      return;
#endif
    default:
      fill_unfrozen_scalar(rate, frozen, value, n);
      return;
  }
}

void settle(double* remaining, const double* rate, double dt, std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      settle_avx2(remaining, rate, dt, n);
      return;
#endif
    default:
      settle_scalar(remaining, rate, dt, n);
      return;
  }
}

CompletionPass settle_and_scan(double* remaining, const double* rate,
                               double dt, double eps, double cap,
                               std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      return settle_and_scan_avx2(remaining, rate, dt, eps, cap, n);
#endif
    default:
      return settle_and_scan_scalar(remaining, rate, dt, eps, cap, n);
  }
}

std::size_t find_due(const double* remaining, double eps, std::size_t from,
                     std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      return find_due_avx2(remaining, eps, from, n);
#endif
    default:
      return find_due_scalar(remaining, eps, from, n);
  }
}

}  // namespace netpp::soa
