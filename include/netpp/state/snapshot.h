// Versioned binary snapshot format for deterministic save/restore.
//
// A snapshot is a flat byte buffer: an 8-byte magic ("NPPSNAP1"), a u32
// format version, and a sequence of named sections. Each section carries its
// name, a u64 payload length prefix, and a CRC32 of the payload, so a reader
// can reject truncation, corruption, and version skew with a typed
// "SnapshotReader: constraint" error instead of undefined behaviour.
//
// Doubles are serialized as their raw IEEE-754 bit pattern (little-endian
// u64), which round-trips every value exactly — including negative zero,
// infinities, NaN payloads, and subnormals — equivalent to printing and
// re-parsing hexfloats but without the text detour. This is what lets a run
// resumed from a snapshot be bit-identical to the uninterrupted run: no
// serialization rounding can perturb a carried sum or an event time.
//
// The writer/reader pair is deliberately dumb: sections are written and read
// in one fixed order per snapshot kind (the order is part of the format).
// There is no reflection and no schema evolution beyond the version gate.
//
// Field walks. Each snapshotted component lists its fields once, in one
// private walk templated on the direction:
//
//   template <class Self, class Io> static void transfer(Self& self, Io& io);
//
// save_state() runs it as (const component, SnapshotWriter), restore_state()
// as (component, SnapshotReader). The walk vocabulary means the same on both
// sides: field() writes or reads one value, echo() writes a config value or
// rejects a restore target built differently, count() writes a length or
// reads one bounded by the bytes left in the section, check() rejects a
// restored value (and does nothing on save). Steps that differ by nature
// (sorting on save, re-registering events on restore) branch on
// Io::kReading inside the walk.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "netpp/units.h"
#include "netpp/validation.h"

namespace netpp::state {

/// Snapshot format version written by this build. Readers reject anything
/// else; there is no cross-version migration.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `len` bytes. `seed` chains
/// incremental computation; pass the previous return value to continue.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// Appends named, length-prefixed, CRC-protected sections to a byte buffer.
/// Puts are only legal between open_section/close_section.
class SnapshotWriter {
 public:
  static constexpr bool kReading = false;

  SnapshotWriter();

  void open_section(std::string_view name);
  void close_section();

  void put_u8(std::uint8_t v) { raw(&v, 1); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit-pattern serialization; round-trips every double bitwise.
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  /// u64 length prefix + raw bytes.
  void put_string(std::string_view s);

  // --- Walk vocabulary (see the file comment) ---

  void field(bool v) { put_bool(v); }
  void field(std::uint8_t v) { put_u8(v); }
  void field(std::uint32_t v) { put_u32(v); }
  void field(std::uint64_t v) { put_u64(v); }
  void field(double v) { put_f64(v); }
  void field(Seconds v) { put_f64(v.value()); }
  void field(Bits v) { put_f64(v.value()); }
  void field(const std::string& s) { put_string(s); }
  /// Any contiguous container of the scalars above (std::vector,
  /// AlignedVec): u64 count, then each element.
  template <class Vec>
    requires requires(const Vec& v) { v.data(); }
  void field(const Vec& v) {
    put_u64(v.size());
    put_elements(v.data(), v.size());
  }
  void field(const std::vector<bool>& v) {
    put_u64(v.size());
    for (const bool b : v) put_bool(b);
  }
  /// A nested component, through its own save_state().
  template <class C>
    requires requires(const C& c, SnapshotWriter& w) { c.save_state(w); }
  void field(const C& c) {
    c.save_state(*this);
  }
  /// An enum as its u8 value; the reader rejects values past `last`.
  template <class E>
  void enum_u8(E e, E /*last*/, std::string_view /*who*/,
               std::string_view /*what*/) {
    put_u8(static_cast<std::uint8_t>(e));
  }
  template <class T>
  void echo(const T& v, std::string_view /*who*/, std::string_view /*what*/) {
    field(v);
  }
  /// Writes `n`; the reader bounds it by `elem_bytes` per element.
  std::size_t count(std::size_t n, std::size_t /*elem_bytes*/) {
    put_u64(n);
    return n;
  }
  void check(bool /*ok*/, std::string_view /*who*/, std::string_view /*what*/) {
  }
  /// count() then `each(element)` for every element of `v`.
  template <class Vec, class Each>
  void seq(const Vec& v, std::size_t elem_bytes, Each&& each) {
    (void)count(v.size(), elem_bytes);
    for (const auto& x : v) each(x);
  }

  /// Finished snapshot bytes. Must not be called with a section open.
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const;

 private:
  /// Grows the open section's payload by `len` bytes; returns the first.
  std::uint8_t* extend(std::size_t len);
  void raw(const void* data, std::size_t len);
  /// `n` little-endian elements, no count.
  void put_elements(const std::uint8_t* p, std::size_t n) { raw(p, n); }
  void put_elements(const std::uint32_t* p, std::size_t n);
  void put_elements(const std::uint64_t* p, std::size_t n);
  void put_elements(const double* p, std::size_t n);
  void put_elements(const Seconds* p, std::size_t n);

  std::vector<std::uint8_t> buffer_;    // header + closed sections
  std::vector<std::uint8_t> payload_;   // open section under construction
  std::string section_name_;
  bool section_open_ = false;
};

/// Sequential reader over a snapshot buffer. The constructor validates the
/// magic and version; open_section validates name, length, and CRC before
/// any payload byte is interpreted. Every malformed input path throws
/// std::invalid_argument("SnapshotReader: ...") — never UB.
class SnapshotReader {
 public:
  static constexpr bool kReading = true;

  explicit SnapshotReader(std::vector<std::uint8_t> buffer);

  /// Opens the next section, which must be named `expected`; verifies the
  /// payload CRC up front.
  void open_section(std::string_view expected);
  /// Closes the current section; the payload must be fully consumed.
  void close_section();

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_f64() { return std::bit_cast<double>(get_u64()); }
  [[nodiscard]] std::string get_string();

  // --- Walk vocabulary (see the file comment) ---

  void field(bool& v) { v = get_bool(); }
  void field(std::uint8_t& v) { v = get_u8(); }
  void field(std::uint32_t& v) { v = get_u32(); }
  void field(std::uint64_t& v) { v = get_u64(); }
  void field(double& v) { v = get_f64(); }
  void field(Seconds& v) { v = Seconds{get_f64()}; }
  void field(Bits& v) { v = Bits{get_f64()}; }
  void field(std::string& s) { s = get_string(); }
  /// Sized from a bounded count: nothing is allocated for elements the
  /// section cannot hold.
  template <class Vec>
    requires requires(Vec& v) { v.data(); }
  void field(Vec& v) {
    using T = std::remove_cvref_t<decltype(*v.data())>;
    v.resize(count(0, sizeof(T)));
    get_elements(v.data(), v.size());
  }
  void field(std::vector<bool>& v) {
    v.assign(count(0, 1), false);
    for (auto&& b : v) b = get_bool();
  }
  /// A nested component, through its own restore_state().
  template <class C>
    requires requires(C& c, SnapshotReader& r) { c.restore_state(r); }
  void field(C& c) {
    c.restore_state(*this);
  }
  template <class E>
  void enum_u8(E& e, E last, std::string_view who, std::string_view what) {
    const std::uint8_t v = get_u8();
    validation::require(v <= static_cast<std::uint8_t>(last), who, what);
    e = static_cast<E>(v);
  }
  /// Reads a value and rejects the restore target unless it holds the same
  /// bit pattern: "<who>: <what>".
  template <class T>
  void echo(const T& expected, std::string_view who, std::string_view what) {
    T got{};
    field(got);
    if (!same_bits(got, expected)) validation::fail(who, what);
  }
  /// Reads a count and rejects it unless that many elements of at least
  /// `elem_bytes` wire bytes each fit in the rest of the section.
  std::size_t count(std::size_t /*n*/, std::size_t elem_bytes);
  void check(bool ok, std::string_view who, std::string_view what) {
    validation::require(ok, who, what);
  }
  /// Resizes `v` to a bounded count (value-initialized elements), then
  /// `each(element)` for every element.
  template <class Vec, class Each>
  void seq(Vec& v, std::size_t elem_bytes, Each&& each) {
    v.clear();
    v.resize(count(0, elem_bytes));
    for (auto& x : v) each(x);
  }

  /// True once every section has been consumed.
  [[nodiscard]] bool at_end() const { return pos_ == buffer_.size(); }

 private:
  template <class T>
  static bool same_bits(const T& a, const T& b) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    } else if constexpr (std::is_same_v<T, Seconds> ||
                         std::is_same_v<T, Bits>) {
      return same_bits(a.value(), b.value());
    } else {
      return a == b;
    }
  }
  /// `n` elements, no count; `n` comes from count(), so `n` times the
  /// element width cannot wrap.
  void get_elements(std::uint8_t* out, std::size_t n);
  void get_elements(std::uint32_t* out, std::size_t n);
  void get_elements(std::uint64_t* out, std::size_t n);
  void get_elements(double* out, std::size_t n);
  void get_elements(Seconds* out, std::size_t n);
  void need(std::size_t n, std::string_view what);
  [[nodiscard]] std::size_t bytes_left() const;
  [[noreturn]] void fail(std::string_view constraint) const;
  std::uint32_t read_u32_at(std::size_t pos) const;
  std::uint64_t read_u64_at(std::size_t pos) const;

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;          // next unread byte in buffer_
  std::size_t section_end_ = 0;  // one past the open section's payload
  std::string section_name_;
  bool section_open_ = false;
};

/// One pending event as its (time, FIFO seq) pair. `queue` is a SimEngine or
/// a SimulatorBackend's control plane: writing reads the pair of `id`;
/// reading re-registers the event with its original pair, so it fires in the
/// uninterrupted run's order, and stores the new handle in `id`. The event
/// calls `fire(owner)`. Only restores instantiate that call, so a walk's
/// const save side never compiles a call to a non-const member.
template <class Io, class Queue, class Id, class Owner, class Fire>
void pending_event(Io& io, Queue& queue, Id& id, Owner& owner, Fire fire) {
  if constexpr (Io::kReading) {
    Seconds at;
    std::uint64_t seq = 0;
    io.field(at);
    io.field(seq);
    id = queue.restore_event_at(at, seq,
                                [owner = &owner, fire] { fire(*owner); });
  } else {
    io.field(queue.event_time(id));
    io.field(queue.event_seq(id));
  }
}

/// A u32 block arena of which only each block's live prefix is ever read;
/// `live(b)` returns block b's (begin, count). Writing zeroes every other
/// slot: growth leaves instance-specific heap garbage there, and equal
/// states must give equal bytes.
template <class Io, class Arena, class Live>
void arena(Io& io, Arena& slots, std::size_t blocks, Live&& live) {
  if constexpr (Io::kReading) {
    io.field(slots);
  } else {
    std::vector<std::uint32_t> canonical(slots.size(), 0);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto [begin, count] = live(b);
      std::copy_n(slots.data() + begin, count, canonical.data() + begin);
    }
    io.field(canonical);
  }
}

}  // namespace netpp::state
