// Re-prints the expectations of snapshot_golden_test.cpp: one ready-to-paste
// row per image in snapshot_golden_inputs.h, holding its length and
// state::crc32. Run it again only after a deliberate change to the snapshot
// format; a refactor of save_state/restore_state must leave every row as
// it is. Built as the plain `snapshot_golden_record` executable (not a
// test): ./build/tests/snapshot_golden_record
#include <cstdio>

#include "snapshot_golden_inputs.h"

int main() {
  for (const auto& image : netpp::snapshot_golden::kImages) {
    const std::vector<std::uint8_t> bytes = image.build();
    std::printf("    {\"%s\", %zu, 0x%08xu},\n", image.name, bytes.size(),
                netpp::state::crc32(bytes.data(), bytes.size()));
  }
  return 0;
}
