// Scoring half of the perf scoreboard (see scoreboard.h). The reference
// file is parsed with the serve layer's strict JSON parser; a short walk
// then keeps per-benchmark cpu_time and the flat context entries.
#include "scoreboard.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "netpp/serve/json.h"

namespace netpp::bench {
namespace {

using serve::JsonKind;
using serve::JsonValue;

double unit_to_ms(const std::string& unit) {
  if (unit == "ns") return 1e-6;
  if (unit == "us") return 1e-3;
  if (unit == "s") return 1e3;
  return 1.0;  // "ms" (or absent) — the repo's benchmarks report ms
}

/// The string member `key` of `object`; "" when absent or not a string.
std::string string_member(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->kind() == JsonKind::kString
             ? value->as_string()
             : std::string{};
}

void read_benchmark_entry(const JsonValue& entry,
                          std::map<std::string, double>& out) {
  const std::string name = string_member(entry, "name");
  const JsonValue* cpu_time = entry.find("cpu_time");
  if (name.empty() || cpu_time == nullptr ||
      cpu_time->kind() != JsonKind::kNumber || cpu_time->as_number() < 0.0) {
    return;
  }
  // First iteration entry wins; aggregates (mean/median/stddev) are skipped
  // so repetition runs score the same as single runs.
  if (string_member(entry, "run_type") == "aggregate") return;
  out.emplace(name, cpu_time->as_number() *
                        unit_to_ms(string_member(entry, "time_unit")));
}

std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%10.2f ms", ms);
  return buf;
}

std::string fmt_pct(double pct) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+9.2f %% ", pct);
  return buf;
}

}  // namespace

double ReferenceScores::benchmark_ms(const std::string& name) const {
  const auto it = benchmark_cpu_ms.find(name);
  return it == benchmark_cpu_ms.end() ? -1.0 : it->second;
}

double ReferenceScores::context_number(const std::string& key) const {
  const auto it = context.find(key);
  if (it == context.end() || it->second.empty()) return -1.0;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? -1.0 : value;
}

bool ReferenceScores::release_reference() const {
  const auto it = context.find("netpp_build_type");
  return it != context.end() && it->second == "release";
}

ReferenceScores load_reference_scores(const std::string& path) {
  ReferenceScores ref;
  ref.path = path;
  std::ifstream in{path, std::ios::binary};
  if (!in) return ref;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  try {
    root = serve::parse_json(buffer.str());
  } catch (const std::invalid_argument&) {
    return ref;
  }

  const JsonValue* context = root.find("context");
  if (context != nullptr && context->kind() == JsonKind::kObject) {
    for (const auto& [key, value] : context->as_object()) {
      if (value.kind() == JsonKind::kString) {
        ref.context.emplace(key, value.as_string());
      } else if (value.kind() != JsonKind::kArray &&
                 value.kind() != JsonKind::kObject) {
        ref.context.emplace(key, value.dump());
      }
    }
  }
  const JsonValue* benchmarks = root.find("benchmarks");
  if (benchmarks != nullptr && benchmarks->kind() == JsonKind::kArray) {
    for (const JsonValue& entry : benchmarks->as_array()) {
      read_benchmark_entry(entry, ref.benchmark_cpu_ms);
    }
  }
  ref.loaded = !ref.benchmark_cpu_ms.empty();
  return ref;
}

bool ScoreRow::scored() const {
  return kind == RowKind::kAbsolutePct || reference > 0.0;
}

double ScoreRow::ratio() const {
  if (kind != RowKind::kRatio || reference <= 0.0) return -1.0;
  return measured / reference;
}

bool ScoreRow::failed() const {
  if (!scored()) return false;
  if (kind == RowKind::kAbsolutePct) return measured >= limit;
  return ratio() > limit;
}

ScoreboardReport score_rows(std::vector<ScoreRow> rows,
                            const ReferenceScores& ref) {
  const bool usable = ref.loaded && ref.release_reference();
  for (ScoreRow& row : rows) {
    if (row.kind == RowKind::kAbsolutePct) {
      row.reference = ref.context_number(row.reference_key);
      continue;
    }
    if (!usable) {
      row.reference = -1.0;
      continue;
    }
    row.reference = ref.benchmark_ms(row.reference_key);
    if (row.reference <= 0.0) {
      row.reference = ref.context_number(row.reference_key);
    }
  }

  ScoreboardReport report;
  std::string table;
  {
    char head[160];
    std::snprintf(head, sizeof head, "  %-22s %13s %13s %8s %8s  %s\n",
                  "scenario", "measured", "reference", "ratio", "limit",
                  "status");
    table = head;
  }
  for (const ScoreRow& row : rows) {
    const bool pct = row.kind == RowKind::kAbsolutePct;
    const std::string measured = pct ? fmt_pct(row.measured)
                                     : fmt_ms(row.measured);
    const std::string reference =
        row.reference > 0.0 || (pct && row.reference > -1.0)
            ? (pct ? fmt_pct(row.reference) : fmt_ms(row.reference))
            : std::string{"            -"};
    char ratio_buf[32] = "       -";
    if (row.ratio() >= 0.0) {
      std::snprintf(ratio_buf, sizeof ratio_buf, "%8.3f", row.ratio());
    }
    char limit_buf[32];
    if (pct) {
      std::snprintf(limit_buf, sizeof limit_buf, "<%5.2f%% ", row.limit);
    } else {
      std::snprintf(limit_buf, sizeof limit_buf, "<=%5.2f ", row.limit);
    }
    const char* status = "unscored";
    if (row.scored()) status = row.failed() ? "FAIL" : "ok";
    char line[256];
    std::snprintf(line, sizeof line, "  %-22s %13s %13s %8s %8s  %s\n",
                  row.name.c_str(), measured.c_str(), reference.c_str(),
                  ratio_buf, limit_buf, status);
    table += line;

    if (row.scored()) {
      ++report.scored;
      if (row.failed()) ++report.failures;
    } else {
      ++report.unscored;
    }
  }
  report.rows = std::move(rows);
  report.table = std::move(table);
  return report;
}

}  // namespace netpp::bench
