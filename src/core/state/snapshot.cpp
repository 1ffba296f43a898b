#include "netpp/state/snapshot.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "netpp/validation.h"

namespace netpp::state {

namespace {

constexpr std::array<char, 8> kMagic = {'N', 'P', 'P', 'S', 'N', 'A', 'P', '1'};

/// Slicing-by-8 tables: tables[0] is the bytewise CRC-32 table, and
/// tables[k][i] advances tables[k - 1][i] by one more zero byte, so one
/// lookup per byte of an 8-byte block replaces eight dependent steps.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

/// Little-endian bytes of `v`, independent of the host's byte order.
template <class U>
void store_le(std::uint8_t* out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

/// Little-endian u32 from bytes, independent of the host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter() : buffer_(kMagic.begin(), kMagic.end()) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(
        static_cast<std::uint8_t>((kSnapshotVersion >> shift) & 0xffu));
  }
}

std::uint8_t* SnapshotWriter::extend(std::size_t len) {
  if (!section_open_) {
    throw std::logic_error("SnapshotWriter: put outside a section");
  }
  const std::size_t at = payload_.size();
  payload_.resize(at + len);
  return payload_.data() + at;
}

void SnapshotWriter::raw(const void* data, std::size_t len) {
  std::uint8_t* out = extend(len);
  if (len > 0) std::memcpy(out, data, len);
}

void SnapshotWriter::put_u32(std::uint32_t v) { store_le(extend(4), v); }

void SnapshotWriter::put_u64(std::uint64_t v) { store_le(extend(8), v); }

void SnapshotWriter::put_elements(const std::uint32_t* p, std::size_t n) {
  std::uint8_t* out = extend(4 * n);
  for (std::size_t i = 0; i < n; ++i) store_le(out + 4 * i, p[i]);
}

void SnapshotWriter::put_elements(const std::uint64_t* p, std::size_t n) {
  std::uint8_t* out = extend(8 * n);
  for (std::size_t i = 0; i < n; ++i) store_le(out + 8 * i, p[i]);
}

void SnapshotWriter::put_elements(const double* p, std::size_t n) {
  std::uint8_t* out = extend(8 * n);
  for (std::size_t i = 0; i < n; ++i) {
    store_le(out + 8 * i, std::bit_cast<std::uint64_t>(p[i]));
  }
}

void SnapshotWriter::put_elements(const Seconds* p, std::size_t n) {
  std::uint8_t* out = extend(8 * n);
  for (std::size_t i = 0; i < n; ++i) {
    store_le(out + 8 * i, std::bit_cast<std::uint64_t>(p[i].value()));
  }
}

void SnapshotWriter::put_string(std::string_view s) {
  put_u64(s.size());
  raw(s.data(), s.size());
}

void SnapshotWriter::open_section(std::string_view name) {
  if (section_open_) {
    throw std::logic_error("SnapshotWriter: section already open");
  }
  if (name.empty() || name.size() > 255) {
    throw std::logic_error("SnapshotWriter: section name must be 1..255 bytes");
  }
  section_name_.assign(name);
  payload_.clear();
  section_open_ = true;
}

void SnapshotWriter::close_section() {
  if (!section_open_) {
    throw std::logic_error("SnapshotWriter: no section open");
  }
  // Section framing: u32 name length, name bytes, u64 payload length,
  // u32 CRC32(payload), payload bytes.
  const auto emit_u32 = [this](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }
  };
  const auto emit_u64 = [this](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }
  };
  emit_u32(static_cast<std::uint32_t>(section_name_.size()));
  buffer_.insert(buffer_.end(), section_name_.begin(), section_name_.end());
  emit_u64(payload_.size());
  emit_u32(crc32(payload_.data(), payload_.size()));
  buffer_.insert(buffer_.end(), payload_.begin(), payload_.end());
  payload_.clear();
  section_open_ = false;
}

const std::vector<std::uint8_t>& SnapshotWriter::buffer() const {
  if (section_open_) {
    throw std::logic_error("SnapshotWriter: buffer() with a section open");
  }
  return buffer_;
}

// ---------------------------------------------------------------------------
// SnapshotReader

void SnapshotReader::fail(std::string_view constraint) const {
  validation::fail("SnapshotReader", constraint);
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> buffer)
    : buffer_(std::move(buffer)) {
  if (buffer_.size() < kMagic.size() + 4) {
    fail("buffer shorter than the snapshot header");
  }
  if (std::memcmp(buffer_.data(), kMagic.data(), kMagic.size()) != 0) {
    fail("bad magic, not a netpp snapshot");
  }
  const std::uint32_t version = read_u32_at(kMagic.size());
  if (version != kSnapshotVersion) {
    fail("unsupported snapshot version " + std::to_string(version) +
         " (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  pos_ = kMagic.size() + 4;
}

std::uint32_t SnapshotReader::read_u32_at(std::size_t pos) const {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buffer_[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::uint64_t SnapshotReader::read_u64_at(std::size_t pos) const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buffer_[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

std::size_t SnapshotReader::bytes_left() const {
  return (section_open_ ? section_end_ : buffer_.size()) - pos_;
}

void SnapshotReader::need(std::size_t n, std::string_view what) {
  if (n > bytes_left()) {
    fail("truncated snapshot reading " + std::string(what) +
         (section_open_ ? " in section '" + section_name_ + "'" : ""));
  }
}

void SnapshotReader::open_section(std::string_view expected) {
  if (section_open_) {
    throw std::logic_error("SnapshotReader: section already open");
  }
  // Frame header: u32 name length + name + u64 payload length + u32 CRC.
  if (buffer_.size() - pos_ < 4) fail("truncated section header");
  const std::uint32_t name_len = read_u32_at(pos_);
  if (name_len == 0 || name_len > 255 ||
      buffer_.size() - pos_ - 4 < name_len) {
    fail("corrupt section name length");
  }
  std::string name(reinterpret_cast<const char*>(buffer_.data() + pos_ + 4),
                   name_len);
  if (name != expected) {
    fail("expected section '" + std::string(expected) + "', found '" + name +
         "'");
  }
  std::size_t p = pos_ + 4 + name_len;
  if (buffer_.size() - p < 12) fail("truncated section frame of '" + name + "'");
  const std::uint64_t payload_len = read_u64_at(p);
  const std::uint32_t expected_crc = read_u32_at(p + 8);
  p += 12;
  if (payload_len > buffer_.size() - p) {
    fail("truncated payload of section '" + name + "'");
  }
  const std::uint32_t actual_crc =
      crc32(buffer_.data() + p, static_cast<std::size_t>(payload_len));
  if (actual_crc != expected_crc) {
    fail("CRC mismatch in section '" + name + "'");
  }
  pos_ = p;
  section_end_ = p + static_cast<std::size_t>(payload_len);
  section_name_ = std::move(name);
  section_open_ = true;
}

void SnapshotReader::close_section() {
  if (!section_open_) {
    throw std::logic_error("SnapshotReader: no section open");
  }
  if (pos_ != section_end_) {
    fail("trailing bytes in section '" + section_name_ + "'");
  }
  section_open_ = false;
  section_name_.clear();
}

std::uint8_t SnapshotReader::get_u8() {
  need(1, "u8");
  return buffer_[pos_++];
}

std::uint32_t SnapshotReader::get_u32() {
  need(4, "u32");
  const std::uint32_t v = read_u32_at(pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::get_u64() {
  need(8, "u64");
  const std::uint64_t v = read_u64_at(pos_);
  pos_ += 8;
  return v;
}

std::string SnapshotReader::get_string() {
  const std::uint64_t len = get_u64();
  need(static_cast<std::size_t>(len), "string payload");
  std::string s(reinterpret_cast<const char*>(buffer_.data() + pos_),
                static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

void SnapshotReader::get_elements(std::uint8_t* out, std::size_t n) {
  need(n, "u8 elements");
  if (n > 0) std::memcpy(out, buffer_.data() + pos_, n);
  pos_ += n;
}

void SnapshotReader::get_elements(std::uint32_t* out, std::size_t n) {
  need(4 * n, "u32 elements");
  for (std::size_t i = 0; i < n; ++i, pos_ += 4) out[i] = read_u32_at(pos_);
}

void SnapshotReader::get_elements(std::uint64_t* out, std::size_t n) {
  need(8 * n, "u64 elements");
  for (std::size_t i = 0; i < n; ++i, pos_ += 8) out[i] = read_u64_at(pos_);
}

void SnapshotReader::get_elements(double* out, std::size_t n) {
  need(8 * n, "f64 elements");
  for (std::size_t i = 0; i < n; ++i, pos_ += 8) {
    out[i] = std::bit_cast<double>(read_u64_at(pos_));
  }
}

void SnapshotReader::get_elements(Seconds* out, std::size_t n) {
  need(8 * n, "f64 elements");
  for (std::size_t i = 0; i < n; ++i, pos_ += 8) {
    out[i] = Seconds{std::bit_cast<double>(read_u64_at(pos_))};
  }
}

std::size_t SnapshotReader::count(std::size_t /*n*/, std::size_t elem_bytes) {
  const std::uint64_t n = get_u64();
  if (n > bytes_left() / std::max<std::size_t>(elem_bytes, 1)) {
    fail("count " + std::to_string(n) + " exceeds the bytes left" +
         (section_open_ ? " in section '" + section_name_ + "'" : ""));
  }
  return static_cast<std::size_t>(n);
}

}  // namespace netpp::state
