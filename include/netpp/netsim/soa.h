// Structure-of-arrays helpers for the simulation hot paths.
//
// The solver and reallocation pipelines are memory-bound: their per-event
// cost is dominated by streaming index and residual arrays, not arithmetic.
// This header provides the two building blocks they share:
//
//   - AlignedVec<T>: a minimal cache-line-aligned, grow-only workspace
//     buffer for trivially-copyable hot-path data. Unlike std::vector it
//     guarantees 64-byte alignment (vector kernels can use aligned loads on
//     the bulk of the range) and never value-initializes on resize, so
//     re-using a workspace across solves costs exactly the bytes written.
//
//   - Four branch-light kernels, each with a scalar body and, behind
//     NETPP_SIMD, an AVX2 body selected at runtime from CPUID: the solver's
//     fill_unfrozen and the flow simulator's column passes (settle at
//     admissions and topology changes, the fused settle_and_scan at every
//     completion event and rescan, and its find_due search). Both bodies
//     are bit-identical: the kernels use only IEEE-exact operations
//     (correctly-rounded vdivpd, separate multiply and subtract, blends,
//     min/max), so results do not depend on the dispatch level.
//     tests/netsim/fairshare_soa_test.cpp pins the AVX2 body against the
//     scalar one and against straight-line references;
//     force_simd_level() exists for exactly that sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>

namespace netpp::soa {

/// Alignment of every AlignedVec allocation: one x86 cache line, and enough
/// for any SSE/AVX2 aligned access.
inline constexpr std::size_t kAlignment = 64;

/// Grow-only aligned buffer for trivially-copyable workspace data.
///
/// Semantics are the subset of std::vector the hot paths need, with two
/// deliberate differences: resize() never shrinks capacity and never
/// initializes new elements (callers own the reset policy — that is the
/// whole point of a sparse-reset workspace), and the storage is always
/// kAlignment-aligned.
template <typename T>
class AlignedVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedVec is for POD-style workspace data");
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedVec never runs destructors");

 public:
  AlignedVec() = default;
  ~AlignedVec() { deallocate(data_); }

  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;
  AlignedVec(AlignedVec&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  AlignedVec& operator=(AlignedVec&& other) noexcept {
    if (this != &other) {
      deallocate(data_);
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow_to(n);
  }

  /// Grows (never shrinks capacity); new elements are UNINITIALIZED.
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void assign(std::size_t n, T value) {
    resize(n);
    for (std::size_t i = 0; i < n; ++i) data_[i] = value;
  }

  void clear() { size_ = 0; }

  void push_back(T value) {
    if (size_ == capacity_) grow_to(size_ + 1);
    data_[size_++] = value;
  }

  void pop_back() { --size_; }

 private:
  void grow_to(std::size_t n) {
    std::size_t cap = capacity_ < 16 ? 16 : capacity_;
    while (cap < n) cap *= 2;
    T* fresh = static_cast<T*>(
        ::operator new(cap * sizeof(T), std::align_val_t{kAlignment}));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    deallocate(data_);
    data_ = fresh;
    capacity_ = cap;
  }

  static void deallocate(T* p) {
    if (p != nullptr) ::operator delete(p, std::align_val_t{kAlignment});
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// ---------------------------------------------------------------------------
// Runtime-dispatched kernels.
// ---------------------------------------------------------------------------

/// Dispatch levels, ordered by capability. kScalar is always available and
/// is the only level of non-x86 and NETPP_SIMD=OFF builds; kAvx2 exists
/// when NETPP_SIMD is compiled in on x86-64 AND the CPU reports AVX2. A CPU
/// without AVX2 runs the scalar bodies. Both levels produce bit-identical
/// results. The values order the levels for force_simd_level's clamp, and
/// fairshare_soa_test derives its per-level seeds from them.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 2,
};

[[nodiscard]] const char* to_string(SimdLevel level);

/// Best level this binary + CPU supports: kAvx2 or kScalar.
[[nodiscard]] SimdLevel detected_simd_level();

/// Level the kernels currently run at: detected, unless capped by
/// force_simd_level.
[[nodiscard]] SimdLevel active_simd_level();

/// Caps the dispatch at `level` (clamped to detected_simd_level()) and
/// returns the level actually applied. Test hook for sweeping both
/// dispatch levels; not intended for concurrent use with running solvers.
SimdLevel force_simd_level(SimdLevel level);

/// The bulk cap-freeze: for i in [0, n), if !frozen[i] { rate[i] = value;
/// frozen[i] = 1; }. `frozen` must hold 0/1 flags (the AVX2 body stores 1
/// unconditionally). Pure blend — bit-identical on both paths.
void fill_unfrozen(double* rate, std::uint8_t* frozen, double value,
                   std::size_t n);

/// The progress settle: remaining[i] = max(remaining[i] - rate[i] * dt, 0.0)
/// for i in [0, n). The multiply and subtract stay separate operations
/// (soa.cpp builds with -ffp-contract=off, so no path fuses them into an
/// FMA) and max matches the scalar `next > 0.0 ? next : 0.0` on every edge
/// (NaN, signed zero) — bit-identical on both paths.
void settle(double* remaining, const double* rate, double dt, std::size_t n);

/// What one settle_and_scan pass found.
struct CompletionPass {
  /// Lanes due after the settle: !(remaining[i] > eps), so NaN counts as due.
  std::size_t due = 0;
  /// Lowest due index; n when no lane is due.
  std::size_t first_due = 0;
  /// The completion scan's two minima over the lanes that stay above eps,
  /// each lane folded under completion_key's rule; +inf when no lane
  /// qualifies.
  double min_quotient = std::numeric_limits<double>::infinity();
  double min_capped = std::numeric_limits<double>::infinity();
};

/// The completion scan's rule for one lane: the minimum it competes for and
/// its value there. A lane at the cap competes for min_capped with its
/// remaining volume, any other lane for min_quotient with remaining / rate,
/// and a stalled lane (!(rate > 0.0)) for neither (minimum == nullptr). The
/// scalar kernels fold every lane through it; the AVX2 body reproduces it
/// bit for bit.
struct LaneKey {
  double CompletionPass::*minimum = nullptr;
  double value = 0.0;
};
[[nodiscard]] inline LaneKey completion_key(double remaining, double rate,
                                            double cap) {
  if (!(rate > 0.0)) return {};
  if (rate == cap) return {&CompletionPass::min_capped, remaining};
  return {&CompletionPass::min_quotient, remaining / rate};
}

/// Whether the lane attains the minimum it competes for in `pass`: the only
/// lanes whose raise can move the pass's minima.
[[nodiscard]] inline bool attains_minimum(double remaining, double rate,
                                          double cap,
                                          const CompletionPass& pass) {
  const LaneKey key = completion_key(remaining, rate, cap);
  return key.minimum != nullptr && key.value == pass.*key.minimum;
}

/// A completion event's one pass over the rate/remaining columns:
///   - settles every lane exactly as settle() does, and writes nothing when
///     dt <= 0;
///   - counts the due lanes, !(remaining[i] > eps), and reports the lowest;
///   - folds every lane above eps into the two minima by completion_key.
/// Qualifying lanes produce no NaN (rate > 0), so the min reductions are
/// order-independent and the AVX2 accumulators match the scalar fold bit
/// for bit. At eps = -inf no lane is due unless it holds NaN or -inf (no
/// simulator column does), and at dt <= 0 the pass writes nothing: the
/// completion scan every reallocation and barrier rescan reschedules from.
/// The AVX2 body divides only in blocks holding a below-cap lane, and a
/// block whose lanes all stay above eps at a positive cap costs one min.
/// Allocation-free.
[[nodiscard]] CompletionPass settle_and_scan(double* remaining,
                                             const double* rate, double dt,
                                             double eps, double cap,
                                             std::size_t n);

/// Lowest index i in [from, n) with !(remaining[i] > eps) — settle_and_scan's
/// due predicate — or n when there is none.
[[nodiscard]] std::size_t find_due(const double* remaining, double eps,
                                   std::size_t from, std::size_t n);

}  // namespace netpp::soa
