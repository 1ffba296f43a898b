// MLPerf-Power-style perf scoreboard: fixed scenarios, checked-in reference
// scores, ratios, and a regression gate.
//
// The model follows MLPerf Power's submission/scoring split: a *reference*
// file (BENCH_flowsim.json, recorded on a known machine by
// tools/record_bench.sh) holds the scores to beat, and a scoring run
// measures the same fixed scenarios (bench/workloads.h) and reports the
// ratio measured/reference per row. Ratios — not absolute times — are what
// make the numbers durable: a row fails only when THIS build is >10% slower
// than the reference measured on the SAME machine, so CI regenerates a
// fresh same-machine reference first (tools/check_scoreboard.cmake) while
// local runs on the recording machine can score against the checked-in
// file directly.
//
// This header is the scoring library (reference reading, row arithmetic,
// table formatting, gate policy); bench_scoreboard.cpp owns the scenario
// suite.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace netpp::bench {

/// Default gate: a scored ratio row fails at >10% regression.
inline constexpr double kScoreboardFailRatio = 1.10;

/// Reference scores read from a google-benchmark JSON file. Only the
/// fields the scoreboard needs survive: per-benchmark cpu_time (normalized
/// to milliseconds) and the flat (non-container) entries of the context
/// object (netpp_build_type, telemetry_idle_overhead_pct, the
/// scoreboard_*_ms rows record_bench.sh injects); strings are kept as they
/// are, other scalars as their JSON text.
struct ReferenceScores {
  bool loaded = false;
  std::string path;
  std::map<std::string, double> benchmark_cpu_ms;
  std::map<std::string, std::string> context;

  /// cpu_time of the named benchmark in ms, or a negative value if absent.
  [[nodiscard]] double benchmark_ms(const std::string& name) const;
  /// Context value parsed as a number, or a negative value if absent or
  /// non-numeric. (Every context number the scoreboard reads is >= 0 except
  /// telemetry_idle_overhead_pct, which callers treat as display-only.)
  [[nodiscard]] double context_number(const std::string& key) const;
  /// True when the reference was recorded from a Release build
  /// (context netpp_build_type == "release") — the only kind worth gating
  /// against.
  [[nodiscard]] bool release_reference() const;
};

/// Parses `path` with serve::parse_json (strict JSON). Returns loaded ==
/// false when the file is missing, unreadable, malformed, or holds no
/// usable benchmark entry; ignores members it does not recognize (nested
/// context values included). The first non-aggregate entry per benchmark
/// name wins; ns/us/ms/s times convert to ms.
[[nodiscard]] ReferenceScores load_reference_scores(const std::string& path);

/// How a row is scored.
enum class RowKind {
  /// measured and reference are times in ms; fails when
  /// measured/reference > limit.
  kRatio,
  /// measured is a percentage gated against an absolute limit (the
  /// telemetry idle-overhead row); the reference value is display-only.
  kAbsolutePct,
};

struct ScoreRow {
  std::string name;           // scenario name shown in the table
  std::string reference_key;  // benchmark name or context key in the JSON
  RowKind kind = RowKind::kRatio;
  double measured = 0.0;       // ms (kRatio) or percent (kAbsolutePct)
  double reference = -1.0;     // filled by score_rows(); < 0 => unscored
  double limit = kScoreboardFailRatio;  // ratio cap or percent cap

  [[nodiscard]] bool scored() const;
  /// measured/reference for scored kRatio rows; < 0 otherwise.
  [[nodiscard]] double ratio() const;
  [[nodiscard]] bool failed() const;
};

struct ScoreboardReport {
  std::vector<ScoreRow> rows;
  int scored = 0;
  int unscored = 0;
  int failures = 0;  // rows over their limit (gate enforcement is caller's)
  std::string table;  // formatted, ends with '\n'
};

/// Resolves each row's reference value (benchmark name first, then context
/// key), computes ratios, formats the table. Rows whose reference key is
/// absent stay unscored: reported, never failed. When the reference is not
/// from a Release build every kRatio row is left unscored too (Debug
/// numbers are meaningless — see bench/README.md).
[[nodiscard]] ScoreboardReport score_rows(std::vector<ScoreRow> rows,
                                          const ReferenceScores& ref);

}  // namespace netpp::bench
