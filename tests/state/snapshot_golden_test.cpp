// Snapshot bytes are part of the format: the images in
// snapshot_golden_inputs.h, which together cover every section kind, must
// keep the length and CRC-32 recorded below. The doubles in them come from
// the fused soa kernels, so the scalar-only build (NETPP_SIMD=OFF) must
// reproduce the same constants. snapshot_golden_record re-prints them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "snapshot_golden_inputs.h"

namespace netpp::snapshot_golden {
namespace {

struct Expected {
  const char* name;
  std::size_t length;
  std::uint32_t crc;
};

constexpr Expected kExpected[] = {
    {"faults_single_telemetered", 31193, 0x8ba75ccau},
    {"faults_sharded2", 58933, 0x0a227219u},
    {"serve_baseline", 25058, 0xa1947fbbu},
    {"mech_registry", 2423, 0xa6fe47cdu},
    {"power_timeline", 348, 0x47c244eau},
};

TEST(SnapshotGolden, ImagesKeepTheirBytes) {
  ASSERT_EQ(std::size(kExpected), std::size(kImages));
  for (std::size_t i = 0; i < std::size(kImages); ++i) {
    const std::vector<std::uint8_t> bytes = kImages[i].build();
    EXPECT_EQ(std::string(kImages[i].name), kExpected[i].name);
    EXPECT_EQ(bytes.size(), kExpected[i].length) << kImages[i].name;
    EXPECT_EQ(state::crc32(bytes.data(), bytes.size()), kExpected[i].crc)
        << kImages[i].name;
  }
}

}  // namespace
}  // namespace netpp::snapshot_golden
