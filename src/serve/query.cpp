#include "netpp/serve/query.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <type_traits>

namespace netpp::serve {

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCluster: return "cluster";
    case QueryKind::kSavings: return "savings";
    case QueryKind::kFaults: return "faults";
    case QueryKind::kMech: return "mech";
  }
  return "cluster";
}

const char* to_string(QueryOutput output) {
  switch (output) {
    case QueryOutput::kCsv: return "csv";
    case QueryOutput::kTable: return "table";
    case QueryOutput::kMetrics: return "metrics";
  }
  return "csv";
}

namespace {

/// 2^53: past it doubles skip integers, so whole numbers stop there.
constexpr double kMaxWhole = 9007199254740992.0;
/// The largest value an int member holds.
constexpr double kMaxInt = 2147483647.0;

constexpr unsigned bit(QueryKind kind) {
  return 1u << static_cast<unsigned>(kind);
}
constexpr unsigned kSavings = bit(QueryKind::kSavings);
constexpr unsigned kAnalytic = bit(QueryKind::kCluster) | kSavings;
constexpr unsigned kFaults = bit(QueryKind::kFaults);
constexpr unsigned kMech = bit(QueryKind::kMech);
constexpr unsigned kSimulated = kFaults | kMech;

// '|'-separated spellings; an enum's are in enumerator order.
constexpr std::string_view kCommands = "cluster|savings|faults|mech";
constexpr std::string_view kOutputs = "csv|table|metrics";
constexpr std::string_view kStacks = "all|dynamic|tailor|park|rate";

/// Index of `text` among the '|'-separated `spellings`, or npos.
std::size_t spelling_index(std::string_view spellings, std::string_view text) {
  for (std::size_t index = 0;; ++index) {
    const std::size_t bar = spellings.find('|');
    if (spellings.substr(0, bar) == text) return index;
    if (bar == std::string_view::npos) return std::string_view::npos;
    spellings.remove_prefix(bar + 1);
  }
}

std::string_view nth_spelling(std::string_view spellings, std::size_t index) {
  for (; index > 0; --index) spellings.remove_prefix(spellings.find('|') + 1);
  return spellings.substr(0, spellings.find('|'));
}

using Opt = ScenarioOptions;

/// The member at `o.*Path...` as a number: a spelled field's enum member
/// lists its values in spelling order, so its value is the spelling's
/// index. A row's rule keeps every value `set` stores inside the member.
template <auto... Path>
double get(const Opt& o) {
  return static_cast<double>((o .* ... .* Path));
}
template <auto... Path>
void set(Opt& o, double v) {
  auto& member = (o .* ... .* Path);
  member = static_cast<std::remove_reference_t<decltype(member)>>(v);
}

// The bounds are the ones netpp_cli has always enforced; a whole field's
// `hi` is the largest value its member holds (seed and shards stop at 2^53,
// where every whole rule stops).
constexpr ScenarioField kFields[] = {
    {"gpus", "--gpus", kAnalytic, {.lo_open = true},
     get<&Opt::cluster, &ClusterConfig::num_gpus>,
     set<&Opt::cluster, &ClusterConfig::num_gpus>},
    {"gbps", "--gbps", kAnalytic, {.lo_open = true},
     [](const Opt& o) { return o.cluster.bandwidth_per_gpu.value(); },
     [](Opt& o, double v) { o.cluster.bandwidth_per_gpu = Gbps{v}; }},
    {"ratio", "--ratio", kAnalytic, {.hi = 1.0},
     get<&Opt::cluster, &ClusterConfig::communication_ratio>,
     set<&Opt::cluster, &ClusterConfig::communication_ratio>},
    {"prop", "--prop", kSavings, {.hi = 1.0}, get<&Opt::prop>, set<&Opt::prop>},
    {"mtbf_s", "--mtbf", kFaults, {}, get<&Opt::mtbf_s>, set<&Opt::mtbf_s>},
    {"mttr_s", "--mttr", kFaults, {.lo_open = true}, get<&Opt::mttr_s>,
     set<&Opt::mttr_s>},
    {"headroom", "--headroom", kFaults, {}, get<&Opt::headroom>,
     set<&Opt::headroom>},
    {"seed", "--seed", kFaults, {.whole = true}, get<&Opt::fault_seed>,
     set<&Opt::fault_seed>},
    {"policy", "--policy", kFaults, {.spellings = "none|wake-all|re-tailor"},
     get<&Opt::policy>, set<&Opt::policy>},
    {"sample_period_s", "--sample-period", kFaults, {},
     get<&Opt::sample_period_s>, set<&Opt::sample_period_s>},
    {"stack", "--stack", kMech, {.spellings = kStacks},
     [](const Opt& o) {
       return static_cast<double>(spelling_index(kStacks, o.stack));
     },
     [](Opt& o, double v) {
       o.stack = nth_spelling(kStacks, static_cast<std::size_t>(v));
     }},
    {"iters", "--iters", kMech, {.lo = 1.0, .hi = kMaxInt, .whole = true},
     get<&Opt::mech_iterations>, set<&Opt::mech_iterations>},
    {"volume_gbit", "--volume", kMech, {.lo_open = true},
     get<&Opt::mech_volume_gbit>, set<&Opt::mech_volume_gbit>},
    {"horizon_s", "--horizon", kMech, {.lo_open = true},
     get<&Opt::mech_horizon_s>, set<&Opt::mech_horizon_s>},
    {"ocs", "--ocs", kMech, {.hi = kMaxInt, .whole = true},
     get<&Opt::mech_ocs_devices>, set<&Opt::mech_ocs_devices>},
    {"pod_budget_w", "--pod-budget", kMech, {}, get<&Opt::pod_budget_w>,
     set<&Opt::pod_budget_w>},
    {"core_budget_w", "--core-budget", kMech, {}, get<&Opt::core_budget_w>,
     set<&Opt::core_budget_w>},
    {"backend", "--backend", kSimulated, {.spellings = "single|sharded"},
     get<&Opt::backend, &BackendConfig::kind>,
     set<&Opt::backend, &BackendConfig::kind>},
    {"shards", "--shards", kSimulated, {.lo = 1.0, .whole = true},
     get<&Opt::backend, &BackendConfig::num_shards>,
     set<&Opt::backend, &BackendConfig::num_shards>},
};

/// Appends `v` as its shortest round-trip decimal.
void append_number(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// The rule's bounds as a message: "must be > 0", "must be in [0, 1]".
std::string constraint(const FieldRule& rule) {
  const bool bounded = !std::isinf(rule.hi);
  std::string text = bounded        ? "must be in ["
                     : rule.lo_open ? "must be > "
                                    : "must be >= ";
  append_number(text, rule.lo);
  if (bounded) {
    text += ", ";
    append_number(text, rule.hi);
    text += ']';
  }
  return text;
}

/// Why `rule` rejects the number `v`: bad_value for a whole field's
/// fraction, out_of_range outside the bounds; nullopt when it accepts it.
std::optional<ErrorCode> violation(const FieldRule& rule, double v) {
  if (rule.whole && !(v == std::floor(v) && std::fabs(v) <= kMaxWhole)) {
    return ErrorCode::kBadValue;
  }
  const bool above_lo = rule.lo_open ? v > rule.lo : v >= rule.lo;
  if (!(std::isfinite(v) && above_lo && v <= rule.hi)) {
    return ErrorCode::kOutOfRange;
  }
  return std::nullopt;
}

const ScenarioField* find_field(std::string_view ScenarioField::*key,
                                std::string_view value) {
  const auto* it = std::ranges::find(kFields, value, key);
  return it == std::end(kFields) ? nullptr : it;
}

/// `f`'s spelling of `text` as its value; `quote` wraps `text` in the
/// caller's quotes when it is rejected.
double spelled_value(const ScenarioField& f, const std::string& text,
                     char quote) {
  const std::size_t index = spelling_index(f.rule.spellings, text);
  if (index == std::string_view::npos) {
    throw ServeError{ErrorCode::kBadValue, std::string{f.name},
                     "unknown " + std::string{f.name} + " " + quote + text +
                         quote + " (expected " +
                         std::string{f.rule.spellings} + ")"};
  }
  return static_cast<double>(index);
}

const std::string& require_string(const JsonValue& value,
                                  const std::string& field) {
  if (value.kind() != JsonKind::kString) {
    throw ServeError{ErrorCode::kBadValue, field,
                     "\"" + field + "\" must be a string, got " +
                         to_string(value.kind())};
  }
  return value.as_string();
}

/// Applies the query member `value` to `f`'s knob.
void apply_member(const ScenarioField& f, const JsonValue& value,
                  ScenarioOptions& opt) {
  const std::string name{f.name};
  if (!f.rule.spellings.empty()) {
    f.set(opt, spelled_value(f, require_string(value, name), '"'));
    return;
  }
  if (value.kind() != JsonKind::kNumber) {
    throw ServeError{ErrorCode::kBadValue, name,
                     "\"" + name + "\" must be a number, got " +
                         to_string(value.kind())};
  }
  const double v = value.as_number();
  if (const auto code = violation(f.rule, v)) {
    throw ServeError{*code, name,
                     "\"" + name + "\" " +
                         (*code == ErrorCode::kBadValue
                              ? std::string{"must be an integer"}
                              : constraint(f.rule))};
  }
  f.set(opt, v);
}

}  // namespace

std::span<const ScenarioField> scenario_fields() { return kFields; }

Query parse_query(const JsonValue& request) {
  if (request.kind() != JsonKind::kObject) {
    throw ServeError{ErrorCode::kBadRequest, "",
                     std::string{"a query must be a JSON object, got "} +
                         to_string(request.kind())};
  }
  Query query;
  const JsonValue* command = request.find("command");
  if (command == nullptr) {
    throw ServeError{ErrorCode::kBadRequest, "command",
                     "query needs a \"command\" member"};
  }
  const std::string& name = require_string(*command, "command");
  const std::size_t kind = spelling_index(kCommands, name);
  if (kind == std::string_view::npos) {
    throw ServeError{ErrorCode::kUnknownCommand, "command",
                     "unknown command \"" + name + "\" (expected " +
                         std::string{kCommands} + ")"};
  }
  query.kind = static_cast<QueryKind>(kind);

  const bool simulated =
      query.kind == QueryKind::kFaults || query.kind == QueryKind::kMech;
  for (const auto& [key, value] : request.as_object()) {
    if (key == "command") continue;
    if (key == "id") {
      if (value.kind() == JsonKind::kArray ||
          value.kind() == JsonKind::kObject) {
        throw ServeError{ErrorCode::kBadValue, "id",
                         std::string{"\"id\" must be a scalar, got "} +
                             to_string(value.kind())};
      }
      query.id = value;
      continue;
    }
    if (key == "output") {
      const std::string& out = require_string(value, "output");
      const std::size_t output = spelling_index(kOutputs, out);
      if (output == std::string_view::npos) {
        throw ServeError{ErrorCode::kBadValue, "output",
                         "unknown output \"" + out + "\" (expected " +
                             std::string{kOutputs} + ")"};
      }
      query.output = static_cast<QueryOutput>(output);
      if (query.output == QueryOutput::kMetrics && !simulated) {
        throw ServeError{
            ErrorCode::kBadValue, "output",
            "output \"metrics\" is only available for faults and mech "
            "queries"};
      }
      continue;
    }
    const ScenarioField* field = find_field(&ScenarioField::name, key);
    if (field == nullptr || (field->commands & bit(query.kind)) == 0) {
      throw ServeError{ErrorCode::kUnknownField, key,
                       std::string{"\""} + to_string(query.kind) +
                           "\" queries have no field \"" + key + "\""};
    }
    apply_member(*field, value, query.opt);
  }
  check_backend(query.opt.backend, /*cli=*/false);
  return query;
}

void apply_flag(ScenarioOptions& opt, std::string_view flag,
                const std::string& text) {
  const ScenarioField* field = find_field(&ScenarioField::flag, flag);
  if (field == nullptr) {
    throw ServeError{ErrorCode::kUnknownField, std::string{flag},
                     "unknown flag '" + std::string{flag} + "'"};
  }
  field->set(opt, field->rule.spellings.empty()
                      ? read_flag_number(flag, text, field->rule)
                      : spelled_value(*field, text, '\''));
}

double read_flag_number(std::string_view flag, const std::string& text,
                        const FieldRule& rule) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const bool parsed = end != text.c_str() && *end == '\0';
  const std::optional<ErrorCode> code =
      parsed ? violation(rule, v) : ErrorCode::kBadValue;
  if (code) {
    throw ServeError{*code, std::string{flag},
                     "bad value '" + text + "' for flag '" +
                         std::string{flag} + "'"};
  }
  return v;
}

void check_backend(const BackendConfig& backend, bool cli) {
  if (backend.kind == BackendKind::kSingle && backend.num_shards > 1) {
    const std::string shards = std::to_string(backend.num_shards);
    throw ServeError{ErrorCode::kBackendMismatch, "shards",
                     cli ? "--shards " + shards + " requires --backend sharded"
                         : "shards " + shards +
                               " requires backend \"sharded\""};
  }
}

std::string cache_key(const Query& query) {
  // Every knob goes in as its shortest round-trip double, which is exact for
  // every value the rows accept, so equal keys mean equal ScenarioOptions.
  std::string key = std::string{to_string(query.kind)} + '|' +
                    to_string(query.output);
  for (const ScenarioField& field : kFields) {
    key += '|';
    append_number(key, field.get(query.opt));
  }
  return key;
}

}  // namespace netpp::serve
