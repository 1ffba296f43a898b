// In-memory snapshot images: the fork facility behind warm-state serving.
//
// A StateImage is a captured snapshot held as bytes, and the one way
// snapshots reach and leave files. An image is captured once (say, from a
// warm baseline: simulator workspaces, route caches, telemetry registries)
// and then *forked* arbitrarily many times — each fork() hands out a fresh
// SnapshotReader over a private copy of the bytes, so thousands of
// divergent what-if restores never re-run setup and never share mutable
// state. Every fork revalidates the header, and section CRCs are checked on
// open exactly as for a file read, so a damaged image is rejected with the
// usual typed "SnapshotReader: ..." error instead of being served.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netpp/state/snapshot.h"

namespace netpp::state {

class StateImage {
 public:
  /// An empty image; forking it throws ("SnapshotReader: buffer shorter
  /// than the snapshot header").
  StateImage() = default;

  /// Adopts already-serialized snapshot bytes (e.g. a SnapshotWriter
  /// buffer, or a file read). The bytes are validated lazily, on fork().
  explicit StateImage(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  /// Captures an image by running `save` over a fresh SnapshotWriter — the
  /// one-liner for "image this component's save_state".
  static StateImage capture(
      const std::function<void(SnapshotWriter&)>& save) {
    SnapshotWriter writer;
    save(writer);
    return StateImage{writer.buffer()};
  }

  /// Reads an image from `path`. Throws std::invalid_argument
  /// ("SnapshotReader: ...") if unreadable; content damage surfaces on
  /// fork()/open_section like any snapshot.
  static StateImage from_file(const std::string& path);

  /// Writes the image to `path` (binary, overwrite). Throws
  /// std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  /// A fresh reader over a private copy of the bytes. The copy is what
  /// makes forks independent: a reader consumes its buffer positionally,
  /// and concurrent forks must not share cursors. Header validation runs
  /// per fork; per-section CRCs run on open_section as usual.
  [[nodiscard]] SnapshotReader fork() const { return SnapshotReader{bytes_}; }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace netpp::state
