// Test helper: damages a snapshot file in a controlled way so the CLI and
// serve error tests can feed truncated / corrupted snapshots to netpp_cli /
// netpp_serve and assert the one-line "SnapshotReader: ..." rejection
// contract.
//
//   snapcorrupt <in> <out> truncate <byte-count>
//   snapcorrupt <in> <out> flip <byte-offset>
//   snapcorrupt <in> <out> flip-section <section-name>
//   snapcorrupt <in> <out> set-u64 <section-name> <payload-offset> <value>
//
// flip-section walks the snapshot's section framing (u32 name length, name,
// u64 payload length, u32 CRC, payload) and flips the middle payload byte of
// the named section — the targeted way to damage one component of a warm
// baseline image (say, the simulator workspaces) while leaving the header
// and every other section intact, so the reader's per-section CRC check is
// what must catch it.
//
// set-u64 overwrites the little-endian u64 at a payload offset of the named
// section and recomputes that section's CRC: a crafted image that passes
// every CRC, so the values themselves must be validated (a count, say,
// that the section cannot hold).
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "netpp/state/snapshot.h"

namespace {

std::uint32_t read_u32(const std::vector<char>& b, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[pos + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_u64(const std::vector<char>& b, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[pos + i]))
         << (8 * i);
  }
  return v;
}

/// Finds the payload range of the first section named `name`. Returns false
/// (with a diagnostic) when the framing is unwalkable or the name is absent.
bool find_section_payload(const std::vector<char>& bytes,
                          const std::string& name, std::size_t& begin,
                          std::size_t& length) {
  constexpr std::size_t kHeader = 8 + 4;  // magic + version
  std::size_t pos = kHeader;
  while (pos + 4 <= bytes.size()) {
    const std::uint32_t name_len = read_u32(bytes, pos);
    if (name_len == 0 || name_len > 255 ||
        pos + 4 + name_len + 12 > bytes.size()) {
      break;
    }
    const std::string section{bytes.data() + pos + 4, name_len};
    const std::uint64_t payload_len = read_u64(bytes, pos + 4 + name_len);
    const std::size_t payload_begin = pos + 4 + name_len + 12;
    if (payload_len > bytes.size() - payload_begin) break;
    if (section == name) {
      begin = payload_begin;
      length = static_cast<std::size_t>(payload_len);
      return true;
    }
    pos = payload_begin + static_cast<std::size_t>(payload_len);
  }
  std::fprintf(stderr, "snapcorrupt: no section named '%s'\n", name.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool set_u64 = argc == 7 && std::string{argv[3]} == "set-u64";
  if (argc != 5 && !set_u64) {
    std::fprintf(stderr,
                 "usage: snapcorrupt <in> <out> truncate <n> | flip <pos> |"
                 " flip-section <name> | set-u64 <name> <offset> <value>\n");
    return 2;
  }
  std::ifstream in{argv[1], std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "snapcorrupt: cannot read %s\n", argv[1]);
    return 2;
  }
  std::vector<char> bytes{std::istreambuf_iterator<char>{in},
                          std::istreambuf_iterator<char>{}};
  const std::string mode = argv[3];
  if (mode == "truncate") {
    const auto arg =
        static_cast<std::size_t>(std::strtoull(argv[4], nullptr, 10));
    if (arg > bytes.size()) {
      std::fprintf(stderr, "snapcorrupt: truncation beyond end of file\n");
      return 2;
    }
    bytes.resize(arg);
  } else if (mode == "flip") {
    const auto arg =
        static_cast<std::size_t>(std::strtoull(argv[4], nullptr, 10));
    if (arg >= bytes.size()) {
      std::fprintf(stderr, "snapcorrupt: flip offset beyond end of file\n");
      return 2;
    }
    bytes[arg] = static_cast<char>(bytes[arg] ^ 0x20);
  } else if (mode == "flip-section") {
    std::size_t begin = 0;
    std::size_t length = 0;
    if (!find_section_payload(bytes, argv[4], begin, length)) return 2;
    if (length == 0) {
      std::fprintf(stderr, "snapcorrupt: section '%s' has an empty payload\n",
                   argv[4]);
      return 2;
    }
    const std::size_t target = begin + length / 2;
    bytes[target] = static_cast<char>(bytes[target] ^ 0x20);
  } else if (set_u64) {
    std::size_t begin = 0;
    std::size_t length = 0;
    if (!find_section_payload(bytes, argv[4], begin, length)) return 2;
    const auto offset =
        static_cast<std::size_t>(std::strtoull(argv[5], nullptr, 10));
    if (length < 8 || offset > length - 8) {
      std::fprintf(stderr, "snapcorrupt: offset past section '%s'\n",
                   argv[4]);
      return 2;
    }
    std::uint64_t value = std::strtoull(argv[6], nullptr, 10);
    for (int i = 0; i < 8; ++i, value >>= 8) {
      bytes[begin + offset + i] = static_cast<char>(value & 0xffu);
    }
    // The section's CRC is the u32 right before its payload.
    std::uint32_t crc = netpp::state::crc32(bytes.data() + begin, length);
    for (int i = 0; i < 4; ++i, crc >>= 8) {
      bytes[begin - 4 + i] = static_cast<char>(crc & 0xffu);
    }
  } else {
    std::fprintf(stderr, "snapcorrupt: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  std::ofstream out{argv[2], std::ios::binary | std::ios::trunc};
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    std::fprintf(stderr, "snapcorrupt: cannot write %s\n", argv[2]);
    return 2;
  }
  return 0;
}
