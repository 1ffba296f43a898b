// Snapshot format contract: exact round-tripping (doubles bitwise, arrays,
// strings), and typed "SnapshotReader: constraint" rejection of every
// malformed input — truncation, corruption, version skew, wrong section
// order, unconsumed payload, counts the section cannot hold — never UB.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "netpp/state/image.h"
#include "netpp/state/snapshot.h"

namespace netpp::state {
namespace {

std::vector<std::uint8_t> one_section_snapshot() {
  SnapshotWriter w;
  w.open_section("demo");
  w.put_u32(7);
  w.put_f64(3.25);
  w.put_string("hello");
  w.close_section();
  return w.buffer();
}

TEST(Snapshot, ScalarsRoundTripBitwise) {
  SnapshotWriter w;
  w.open_section("scalars");
  w.put_u8(0xab);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_string("§unicode✓");
  w.close_section();

  SnapshotReader r{w.buffer()};
  r.open_section("scalars");
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_string(), "§unicode✓");
  r.close_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, DoublesRoundTripEveryBitPattern) {
  // The bit-identity guarantee hinges on these: -0.0, infinities, NaN
  // payloads, subnormals, and values that decimal text would round.
  const double values[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      0.1 + 0.2,  // != 0.3: must survive exactly
      1.0 / 3.0,
  };
  SnapshotWriter w;
  w.open_section("doubles");
  for (double v : values) w.put_f64(v);
  w.close_section();

  SnapshotReader r{w.buffer()};
  r.open_section("doubles");
  for (double v : values) {
    const double got = r.get_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
  r.close_section();
}

TEST(Snapshot, VectorsAndArraysRoundTrip) {
  const std::vector<std::uint8_t> u8s{1, 2, 255};
  const std::vector<std::uint32_t> u32s{0, 42, 0xffffffffu};
  const std::vector<std::uint64_t> u64s{1ULL << 63, 7};
  const std::vector<double> f64s{-1.5, 2.5e300, -0.0};
  const std::vector<bool> flags{true, false, true};
  const std::vector<Seconds> times{Seconds{0.5}, Seconds{-0.0}};
  const std::vector<std::uint8_t> empty;
  SnapshotWriter w;
  w.open_section("vecs");
  w.field(u8s);
  w.field(u32s);
  w.field(u64s);
  w.field(f64s);
  w.field(flags);
  w.field(times);
  w.field(empty);  // empty vectors are legal
  w.close_section();

  SnapshotReader r{w.buffer()};
  r.open_section("vecs");
  std::vector<std::uint8_t> u8_out;
  std::vector<std::uint32_t> u32_out;
  std::vector<std::uint64_t> u64_out;
  std::vector<double> f64_out;
  std::vector<bool> flags_out;
  std::vector<Seconds> times_out;
  std::vector<std::uint8_t> empty_out{9};
  r.field(u8_out);
  r.field(u32_out);
  r.field(u64_out);
  r.field(f64_out);
  r.field(flags_out);
  r.field(times_out);
  r.field(empty_out);
  EXPECT_EQ(u8_out, u8s);
  EXPECT_EQ(u32_out, u32s);
  EXPECT_EQ(u64_out, u64s);
  ASSERT_EQ(f64_out.size(), f64s.size());
  for (std::size_t i = 0; i < f64s.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f64_out[i]),
              std::bit_cast<std::uint64_t>(f64s[i]));
  }
  EXPECT_EQ(flags_out, flags);
  ASSERT_EQ(times_out.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(times_out[1].value()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(empty_out.empty());
  r.close_section();
}

TEST(Snapshot, ArrayCountMismatchIsTyped) {
  // A restore target whose own shape fixes a count rejects a different
  // stored one through echo(), with the target's "Type: constraint" error.
  SnapshotWriter w;
  w.open_section("s");
  w.field(std::vector<std::uint32_t>{1, 2, 3});
  w.close_section();
  SnapshotReader r{w.buffer()};
  r.open_section("s");
  try {
    r.echo(std::uint64_t{2}, "Demo", "array count does not match");
    FAIL() << "a mismatched count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Demo: array count does not match");
  }
}

TEST(Snapshot, CountBeyondTheSectionRejectedBeforeSizing) {
  // 2^62 + 1 four-byte elements wrap to 4 bytes when multiplied by the
  // element width; the bound divides instead, so the count is rejected
  // before anything is sized from it.
  SnapshotWriter w;
  w.open_section("s");
  w.put_u64((std::uint64_t{1} << 62) + 1);
  w.put_u32(7);
  w.close_section();
  SnapshotReader r{w.buffer()};
  r.open_section("s");
  std::vector<std::uint32_t> v;
  try {
    r.field(v);
    FAIL() << "an oversized count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SnapshotReader:"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(v.empty());

  // A count of structured elements is bounded by their smallest wire size.
  SnapshotWriter w2;
  w2.open_section("s");
  (void)w2.count(3, 16);
  for (int i = 0; i < 5; ++i) w2.put_u64(0);
  w2.close_section();
  SnapshotReader ok{w2.buffer()};
  ok.open_section("s");
  EXPECT_EQ(ok.count(0, 8), 3u);
  SnapshotReader tight{w2.buffer()};
  tight.open_section("s");
  EXPECT_THROW((void)tight.count(0, 16), std::invalid_argument);
}

TEST(Snapshot, MultipleSectionsReadInOrder) {
  SnapshotWriter w;
  w.open_section("first");
  w.put_u32(1);
  w.close_section();
  w.open_section("second");
  w.put_u32(2);
  w.close_section();

  SnapshotReader r{w.buffer()};
  r.open_section("first");
  EXPECT_EQ(r.get_u32(), 1u);
  r.close_section();
  r.open_section("second");
  EXPECT_EQ(r.get_u32(), 2u);
  r.close_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, WrongSectionNameRejected) {
  SnapshotReader r{one_section_snapshot()};
  EXPECT_THROW(r.open_section("other"), std::invalid_argument);
}

TEST(Snapshot, BadMagicRejected) {
  auto bytes = one_section_snapshot();
  bytes[0] ^= 0xff;
  EXPECT_THROW(SnapshotReader{bytes}, std::invalid_argument);
}

TEST(Snapshot, WrongVersionRejected) {
  auto bytes = one_section_snapshot();
  bytes[8] ^= 0xff;  // version u32 follows the 8-byte magic
  EXPECT_THROW(SnapshotReader{bytes}, std::invalid_argument);
}

TEST(Snapshot, EveryTruncationRejectedNotUB) {
  const auto bytes = one_section_snapshot();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(
        {
          SnapshotReader r{std::move(cut)};
          r.open_section("demo");
          (void)r.get_u32();
          (void)r.get_f64();
          (void)r.get_string();
          r.close_section();
        },
        std::invalid_argument)
        << "truncated to " << len << " bytes";
  }
}

TEST(Snapshot, EverySingleByteCorruptionRejected) {
  // Any flipped payload/frame byte must surface as a typed error — either a
  // CRC mismatch, a frame validation failure, or a value-level constraint.
  const auto bytes = one_section_snapshot();
  for (std::size_t i = 12; i < bytes.size(); ++i) {  // past magic+version
    auto corrupt = bytes;
    corrupt[i] ^= 0x01;
    try {
      SnapshotReader r{std::move(corrupt)};
      r.open_section("demo");
      (void)r.get_u32();
      (void)r.get_f64();
      (void)r.get_string();
      r.close_section();
      // A flip inside the f64 payload changes the value but stays a valid
      // frame only if the CRC also matched — impossible for 1-bit flips.
      FAIL() << "corruption at byte " << i << " was not detected";
    } catch (const std::invalid_argument&) {
      // expected
    }
  }
}

TEST(Snapshot, TrailingGarbageRejected) {
  auto bytes = one_section_snapshot();
  bytes.push_back(0x00);
  SnapshotReader r{std::move(bytes)};
  r.open_section("demo");
  (void)r.get_u32();
  (void)r.get_f64();
  (void)r.get_string();
  r.close_section();
  EXPECT_FALSE(r.at_end());
  EXPECT_THROW(r.open_section("next"), std::invalid_argument);
}

TEST(Snapshot, UnconsumedPayloadRejectedOnClose) {
  SnapshotReader r{one_section_snapshot()};
  r.open_section("demo");
  (void)r.get_u32();
  EXPECT_THROW(r.close_section(), std::invalid_argument);
}

TEST(Snapshot, ReadingPastSectionEndRejected) {
  SnapshotReader r{one_section_snapshot()};
  r.open_section("demo");
  (void)r.get_u32();
  (void)r.get_f64();
  (void)r.get_string();
  EXPECT_THROW((void)r.get_u64(), std::invalid_argument);
}

TEST(Snapshot, WriterMisuseIsLogicError) {
  SnapshotWriter w;
  EXPECT_THROW(w.put_u32(1), std::logic_error);  // no section open
  w.open_section("s");
  EXPECT_THROW(w.open_section("t"), std::logic_error);  // nested
  EXPECT_THROW((void)w.buffer(), std::logic_error);      // still open
  w.close_section();
  EXPECT_THROW(w.close_section(), std::logic_error);  // nothing open
}

TEST(Snapshot, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/snapshot_test.nppsnap";
  SnapshotWriter w;
  w.open_section("file");
  w.put_f64(-0.0);
  w.put_u64(99);
  w.close_section();
  StateImage{w.buffer()}.write_file(path);

  SnapshotReader r = StateImage::from_file(path).fork();
  r.open_section("file");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.get_u64(), 99u);
  r.close_section();
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileRejected) {
  try {
    (void)StateImage::from_file("/nonexistent/path.nppsnap");
    FAIL() << "a missing file was read";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SnapshotReader:"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
  // Chained computation equals one-shot.
  EXPECT_EQ(crc32(s + 4, 5, crc32(s, 4)), crc32(s, 9));
}

/// The bytewise table loop crc32 used before slicing-by-8, as its
/// reference.
std::uint32_t crc32_bytewise(const std::uint8_t* bytes, std::size_t len,
                             std::uint32_t seed = 0) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(Snapshot, Crc32MatchesBytewiseLoop) {
  std::mt19937_64 rng{0xc3c32u};
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  // Every length 0-256 at every start offset 0-7: each alignment and tail.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  const std::uint32_t whole = crc32_bytewise(buf.data(), buf.size());
  EXPECT_EQ(crc32(buf.data(), buf.size()), whole);
  // Chained seeds: any split point, and an arbitrary starting seed.
  for (const std::size_t split : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{4099},
                                  buf.size() - 3}) {
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
  EXPECT_EQ(crc32(buf.data() + 3, 1000, 0x12345678u),
            crc32_bytewise(buf.data() + 3, 1000, 0x12345678u));
}

}  // namespace
}  // namespace netpp::state
