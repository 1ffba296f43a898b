// Query parsing: strict JSON-object → typed Query, field-precise errors.
//
// A query is a JSON object selecting one canned analysis and overriding its
// knobs, from one table shared with netpp_cli:
//
//   {"command":"mech","stack":"dynamic","ocs":8,"output":"csv","id":3}
//
// Commands: "cluster", "savings", "faults", "mech". Every command accepts
// "id" (echoed in the response) and "output" ("csv" | "table" | "metrics");
// the rest of the schema is scenario_fields(), and parsing is strict: a
// field the command does not define is rejected with unknown_field, a wrong
// JSON type, a fraction for a whole number or an unknown spelling with
// bad_value, a number outside its rule's range with out_of_range, and an
// inconsistent backend/shard combination with backend_mismatch — all as
// ServeError, rendered into the typed error envelope by the engine.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"
#include "netpp/serve/scenarios.h"

namespace netpp::serve {

enum class QueryOutput : std::uint8_t { kCsv, kTable, kMetrics };

/// "cluster" / "savings" / "faults" / "mech".
[[nodiscard]] const char* to_string(QueryKind kind);
/// "csv" / "table" / "metrics".
[[nodiscard]] const char* to_string(QueryOutput output);

struct Query {
  QueryKind kind = QueryKind::kCluster;
  QueryOutput output = QueryOutput::kCsv;
  /// The query's "id" member, echoed verbatim in the response envelope
  /// (JSON null when the query carried none).
  JsonValue id;
  /// The scenario knobs after applying the query's overrides to the CLI
  /// defaults.
  ScenarioOptions opt;
};

/// The values one scenario field accepts. With `spellings` empty, a finite
/// number in [lo, hi], lo itself excluded when `lo_open`; a `whole` field
/// must also be integral with |v| <= 2^53, and its `hi` keeps it inside its
/// member. Otherwise exactly one of the '|'-separated `spellings`. The
/// default rule is a finite number >= 0.
struct FieldRule {
  double lo = 0.0;
  bool lo_open = false;
  double hi = std::numeric_limits<double>::infinity();
  bool whole = false;
  std::string_view spellings = {};
};

/// One row of the scenario schema: a ScenarioOptions knob, the query field
/// and netpp_cli flag that set it, and the one rule both front ends apply.
struct ScenarioField {
  std::string_view name;  ///< query field
  std::string_view flag;  ///< netpp_cli flag
  unsigned commands;      ///< bit (1 << QueryKind) per command accepting it
  FieldRule rule;
  /// The member's value; a spelled field's is the index of its spelling.
  double (*get)(const ScenarioOptions&);
  void (*set)(ScenarioOptions&, double);
};

/// The schema, one row per ScenarioOptions knob.
[[nodiscard]] std::span<const ScenarioField> scenario_fields();

/// Parses one query object. Throws ServeError on any schema violation.
[[nodiscard]] Query parse_query(const JsonValue& request);

/// Applies one netpp_cli scenario flag (`--seed`, "7") to `opt` under its
/// row's rule. Throws ServeError, worded for the CLI, on a rejection.
void apply_flag(ScenarioOptions& opt, std::string_view flag,
                const std::string& text);

/// Reads a netpp_cli number flag: all of `text` must parse (strtod) as a
/// number `rule` accepts, else ServeError "bad value 'TEXT' for flag 'FLAG'".
[[nodiscard]] double read_flag_number(std::string_view flag,
                                      const std::string& text,
                                      const FieldRule& rule);

/// The one cross-field rule: more than one shard needs the sharded backend.
/// Throws ServeError(backend_mismatch, "shards"), worded for a query or,
/// with `cli`, for netpp_cli flags.
void check_backend(const BackendConfig& backend, bool cli);

/// Canonical result-cache key: two queries with equal keys are answered
/// with byte-identical payloads (the echoed id is not part of the key).
[[nodiscard]] std::string cache_key(const Query& query);

}  // namespace netpp::serve
