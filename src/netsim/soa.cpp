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

void div_shares_scalar(const double* residual, const std::uint32_t* active,
                       double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = residual[i] / static_cast<double>(active[i]);
  }
}

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

// Folds one lane into pass's minima under completion_key's rule.
void fold_lane(CompletionPass& pass, double remaining, double rate,
               double cap) {
  const LaneKey key = completion_key(remaining, rate, cap);
  if (key.minimum != nullptr && key.value < pass.*key.minimum) {
    pass.*key.minimum = key.value;
  }
}

void completion_scan_scalar(const double* remaining, const double* rate,
                            double cap, std::size_t n, double* min_quotient,
                            double* min_capped) {
  CompletionPass pass;
  for (std::size_t i = 0; i < n; ++i) {
    fold_lane(pass, remaining[i], rate[i], cap);
  }
  *min_quotient = pass.min_quotient;
  *min_capped = pass.min_capped;
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
    fold_lane(pass, rem, rate[i], cap);
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

// Folds a vector body's results and the scalar pass over its tail
// [at, n) into one CompletionPass.
CompletionPass merge_tail(std::size_t due, std::size_t first_due,
                          const double* quotient_lanes,
                          const double* capped_lanes, int lanes,
                          const CompletionPass& tail, std::size_t at) {
  CompletionPass pass = tail;
  pass.first_due = due != 0 ? first_due : at + tail.first_due;
  pass.due = due + tail.due;
  for (int l = 0; l < lanes; ++l) {
    if (quotient_lanes[l] < pass.min_quotient) {
      pass.min_quotient = quotient_lanes[l];
    }
    if (capped_lanes[l] < pass.min_capped) pass.min_capped = capped_lanes[l];
  }
  return pass;
}

// The 2^31 problem-size bound (enforced by MaxMinSolver) makes the signed
// epi32 -> double conversions below exact for every count that can occur.

void div_shares_sse2(const double* residual, const std::uint32_t* active,
                     double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i counts = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(active + i));  // two uint32 lanes
    const __m128d denom = _mm_cvtepi32_pd(counts);
    const __m128d numer = _mm_loadu_pd(residual + i);
    _mm_storeu_pd(out + i, _mm_div_pd(numer, denom));
  }
  div_shares_scalar(residual + i, active + i, out + i, n - i);
}

void fill_unfrozen_sse2(double* rate, std::uint8_t* frozen, double value,
                        std::size_t n) {
  const __m128d fill = _mm_set1_pd(value);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i mask = _mm_set_epi64x(frozen[i + 1] == 0 ? -1 : 0,
                                        frozen[i] == 0 ? -1 : 0);
    const __m128d maskd = _mm_castsi128_pd(mask);
    const __m128d cur = _mm_loadu_pd(rate + i);
    const __m128d res =
        _mm_or_pd(_mm_andnot_pd(maskd, cur), _mm_and_pd(maskd, fill));
    _mm_storeu_pd(rate + i, res);
    frozen[i] = 1;
    frozen[i + 1] = 1;
  }
  fill_unfrozen_scalar(rate + i, frozen + i, value, n - i);
}

__attribute__((target("avx2"))) void div_shares_avx2(
    const double* residual, const std::uint32_t* active, double* out,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i counts =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(active + i));
    const __m256d denom = _mm256_cvtepi32_pd(counts);
    const __m256d numer = _mm256_loadu_pd(residual + i);
    _mm256_storeu_pd(out + i, _mm256_div_pd(numer, denom));
  }
  div_shares_scalar(residual + i, active + i, out + i, n - i);
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

void settle_sse2(double* remaining, const double* rate, double dt,
                 std::size_t n) {
  const __m128d vdt = _mm_set1_pd(dt);
  const __m128d zero = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d rem = _mm_loadu_pd(remaining + i);
    const __m128d next =
        _mm_sub_pd(rem, _mm_mul_pd(_mm_loadu_pd(rate + i), vdt));
    // maxpd(next, 0) returns the second operand on NaN and on equal zeros —
    // exactly the scalar `next > 0.0 ? next : 0.0`.
    _mm_storeu_pd(remaining + i, _mm_max_pd(next, zero));
  }
  settle_scalar(remaining + i, rate + i, dt, n - i);
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

void completion_scan_sse2(const double* remaining, const double* rate,
                          double cap, std::size_t n, double* min_quotient,
                          double* min_capped) {
  const double inf = std::numeric_limits<double>::infinity();
  const __m128d vcap = _mm_set1_pd(cap);
  const __m128d zero = _mm_setzero_pd();
  const __m128d vinf = _mm_set1_pd(inf);
  __m128d qacc = vinf;
  __m128d cacc = vinf;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r = _mm_loadu_pd(rate + i);
    const __m128d rem = _mm_loadu_pd(remaining + i);
    const __m128d pos = _mm_cmpgt_pd(r, zero);
    const __m128d at_cap = _mm_and_pd(pos, _mm_cmpeq_pd(r, vcap));
    const __m128d below = _mm_andnot_pd(_mm_cmpeq_pd(r, vcap), pos);
    const __m128d clane =
        _mm_or_pd(_mm_and_pd(at_cap, rem), _mm_andnot_pd(at_cap, vinf));
    cacc = _mm_min_pd(cacc, clane);
    if (_mm_movemask_pd(below) != 0) {
      // Non-qualifying lanes (which may hold 0/0 = NaN) are blended to +inf
      // before they can reach the min.
      const __m128d quo = _mm_div_pd(rem, r);
      qacc = _mm_min_pd(
          qacc, _mm_or_pd(_mm_and_pd(below, quo), _mm_andnot_pd(below, vinf)));
    }
  }
  double lanes[2];
  _mm_storeu_pd(lanes, qacc);
  double q = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
  _mm_storeu_pd(lanes, cacc);
  double c = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
  double qt;
  double ct;
  completion_scan_scalar(remaining + i, rate + i, cap, n - i, &qt, &ct);
  *min_quotient = qt < q ? qt : q;
  *min_capped = ct < c ? ct : c;
}

__attribute__((target("avx2"))) void completion_scan_avx2(
    const double* remaining, const double* rate, double cap, std::size_t n,
    double* min_quotient, double* min_capped) {
  const double inf = std::numeric_limits<double>::infinity();
  const __m256d vcap = _mm256_set1_pd(cap);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vinf = _mm256_set1_pd(inf);
  __m256d qacc = vinf;
  __m256d cacc = vinf;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(rate + i);
    const __m256d rem = _mm256_loadu_pd(remaining + i);
    const __m256d pos = _mm256_cmp_pd(r, zero, _CMP_GT_OQ);
    const __m256d eq_cap = _mm256_cmp_pd(r, vcap, _CMP_EQ_OQ);
    const __m256d at_cap = _mm256_and_pd(pos, eq_cap);
    const __m256d below = _mm256_andnot_pd(eq_cap, pos);
    cacc = _mm256_min_pd(cacc, _mm256_blendv_pd(vinf, rem, at_cap));
    if (_mm256_movemask_pd(below) != 0) {
      const __m256d quo = _mm256_div_pd(rem, r);
      qacc = _mm256_min_pd(qacc, _mm256_blendv_pd(vinf, quo, below));
    }
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, qacc);
  double q = lanes[0];
  for (int l = 1; l < 4; ++l) q = lanes[l] < q ? lanes[l] : q;
  _mm256_storeu_pd(lanes, cacc);
  double c = lanes[0];
  for (int l = 1; l < 4; ++l) c = lanes[l] < c ? lanes[l] : c;
  double qt;
  double ct;
  completion_scan_scalar(remaining + i, rate + i, cap, n - i, &qt, &ct);
  *min_quotient = qt < q ? qt : q;
  *min_capped = ct < c ? ct : c;
}

CompletionPass settle_and_scan_sse2(double* remaining, const double* rate,
                                    double dt, double eps, double cap,
                                    std::size_t n) {
  const bool settle = dt > 0.0;
  const __m128d vdt = _mm_set1_pd(dt);
  const __m128d veps = _mm_set1_pd(eps);
  const __m128d vcap = _mm_set1_pd(cap);
  const __m128d zero = _mm_setzero_pd();
  const __m128d vinf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  // At cap <= 0 a lane equal to the cap is closed (rate <= 0) and must stay
  // out of the minima, so only a positive cap has a common block.
  const bool capped = cap > 0.0;
  __m128d qacc = vinf;
  __m128d cacc = vinf;
  std::size_t due = 0;
  std::size_t first_due = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r = _mm_loadu_pd(rate + i);
    __m128d rem = _mm_loadu_pd(remaining + i);
    if (settle) {
      rem = _mm_max_pd(_mm_sub_pd(rem, _mm_mul_pd(r, vdt)), zero);
      _mm_storeu_pd(remaining + i, rem);
    }
    // cmpgt is false on NaN, so a NaN lane counts as due, as in the scalar
    // !(rem > eps).
    const __m128d alive = _mm_cmpgt_pd(rem, veps);
    const __m128d eq_cap = _mm_cmpeq_pd(r, vcap);
    const int alive_bits = _mm_movemask_pd(alive);
    if (capped && (alive_bits & _mm_movemask_pd(eq_cap)) == 0x3) {
      // The common block: every lane stays above eps at a positive cap,
      // so the at-cap blend below would pass every lane's rem through.
      cacc = _mm_min_pd(cacc, rem);
      continue;
    }
    if (alive_bits != 0x3) {
      const unsigned due_bits = ~static_cast<unsigned>(alive_bits) & 0x3;
      if (due == 0) first_due = i + std::countr_zero(due_bits);
      due += static_cast<std::size_t>(std::popcount(due_bits));
    }
    const __m128d pos = _mm_and_pd(alive, _mm_cmpgt_pd(r, zero));
    const __m128d at_cap = _mm_and_pd(pos, eq_cap);
    const __m128d below = _mm_andnot_pd(eq_cap, pos);
    cacc = _mm_min_pd(
        cacc, _mm_or_pd(_mm_and_pd(at_cap, rem), _mm_andnot_pd(at_cap, vinf)));
    if (_mm_movemask_pd(below) != 0) {
      const __m128d quo = _mm_div_pd(rem, r);
      qacc = _mm_min_pd(
          qacc, _mm_or_pd(_mm_and_pd(below, quo), _mm_andnot_pd(below, vinf)));
    }
  }
  double quotient_lanes[2];
  double capped_lanes[2];
  _mm_storeu_pd(quotient_lanes, qacc);
  _mm_storeu_pd(capped_lanes, cacc);
  return merge_tail(
      due, first_due, quotient_lanes, capped_lanes, 2,
      settle_and_scan_scalar(remaining + i, rate + i, dt, eps, cap, n - i),
      i);
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
      due, first_due, quotient_lanes, capped_lanes, 4,
      settle_and_scan_scalar(remaining + i, rate + i, dt, eps, cap, n - i),
      i);
}

std::size_t find_due_sse2(const double* remaining, double eps,
                          std::size_t from, std::size_t n) {
  const __m128d veps = _mm_set1_pd(eps);
  std::size_t i = from;
  for (; i + 2 <= n; i += 2) {
    const int alive =
        _mm_movemask_pd(_mm_cmpgt_pd(_mm_loadu_pd(remaining + i), veps));
    if (alive != 0x3) {
      return i + std::countr_zero(static_cast<unsigned>(~alive & 0x3));
    }
  }
  return find_due_scalar(remaining, eps, i, n);
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
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel detected_simd_level() {
#if NETPP_SIMD_X86
  static const SimdLevel detected =
      __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kSse2;
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

void div_shares(const double* residual, const std::uint32_t* active,
                double* out, std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      div_shares_avx2(residual, active, out, n);
      return;
    case SimdLevel::kSse2:
      div_shares_sse2(residual, active, out, n);
      return;
#endif
    default:
      div_shares_scalar(residual, active, out, n);
      return;
  }
}

void fill_unfrozen(double* rate, std::uint8_t* frozen, double value,
                   std::size_t n) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      fill_unfrozen_avx2(rate, frozen, value, n);
      return;
    case SimdLevel::kSse2:
      fill_unfrozen_sse2(rate, frozen, value, n);
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
    case SimdLevel::kSse2:
      settle_sse2(remaining, rate, dt, n);
      return;
#endif
    default:
      settle_scalar(remaining, rate, dt, n);
      return;
  }
}

void completion_scan(const double* remaining, const double* rate, double cap,
                     std::size_t n, double* min_quotient, double* min_capped) {
  switch (active_simd_level()) {
#if NETPP_SIMD_X86
    case SimdLevel::kAvx2:
      completion_scan_avx2(remaining, rate, cap, n, min_quotient, min_capped);
      return;
    case SimdLevel::kSse2:
      completion_scan_sse2(remaining, rate, cap, n, min_quotient, min_capped);
      return;
#endif
    default:
      completion_scan_scalar(remaining, rate, cap, n, min_quotient,
                             min_capped);
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
    case SimdLevel::kSse2:
      return settle_and_scan_sse2(remaining, rate, dt, eps, cap, n);
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
    case SimdLevel::kSse2:
      return find_due_sse2(remaining, eps, from, n);
#endif
    default:
      return find_due_scalar(remaining, eps, from, n);
  }
}

}  // namespace netpp::soa
