// Query parsing and the typed-error taxonomy: every schema violation must
// surface as a ServeError with the documented machine-readable code and the
// offending field, and cache_key must identify queries up to their id.
#include "netpp/serve/query.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "netpp/serve/json.h"
#include "netpp/serve/protocol.h"

namespace netpp::serve {
namespace {

Query parse(const std::string& text) { return parse_query(parse_json(text)); }

/// Asserts `text` is rejected with `code` on `field`.
void expect_rejected(const std::string& text, ErrorCode code,
                     const std::string& field) {
  try {
    (void)parse(text);
    FAIL() << "accepted: " << text;
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), code) << text << " -> " << e.what();
    EXPECT_EQ(e.field(), field) << text << " -> " << e.what();
  }
}

TEST(ParseQuery, MinimalQueryGetsCliDefaults) {
  const Query q = parse(R"({"command":"faults"})");
  EXPECT_EQ(q.kind, QueryKind::kFaults);
  EXPECT_EQ(q.output, QueryOutput::kCsv);
  EXPECT_TRUE(q.id.is_null());
  // The ScenarioOptions defaults are the CLI defaults.
  EXPECT_DOUBLE_EQ(q.opt.mtbf_s, 10.0);
  EXPECT_DOUBLE_EQ(q.opt.mttr_s, 0.5);
  EXPECT_EQ(q.opt.fault_seed, 1u);
}

TEST(ParseQuery, OverridesAndIdEcho) {
  const Query q = parse(
      R"({"command":"mech","stack":"dynamic","iters":2,"ocs":8,)"
      R"("output":"table","id":7})");
  EXPECT_EQ(q.kind, QueryKind::kMech);
  EXPECT_EQ(q.output, QueryOutput::kTable);
  EXPECT_DOUBLE_EQ(q.id.as_number(), 7.0);
  EXPECT_EQ(q.opt.stack, "dynamic");
  EXPECT_EQ(q.opt.mech_iterations, 2);
  EXPECT_EQ(q.opt.mech_ocs_devices, 8);
  // Spelled enum fields map each spelling to its own enumerator.
  const Query f = parse(
      R"({"command":"faults","policy":"wake-all","backend":"sharded"})");
  EXPECT_EQ(f.opt.policy, DegradedPolicy::kEmergencyWakeAll);
  EXPECT_EQ(f.opt.backend.kind, BackendKind::kSharded);
}

TEST(ParseQuery, RequestLevelErrors) {
  expect_rejected("[1,2]", ErrorCode::kBadRequest, "");
  expect_rejected(R"({"output":"csv"})", ErrorCode::kBadRequest, "command");
  expect_rejected(R"({"command":"warp"})", ErrorCode::kUnknownCommand,
                  "command");
  expect_rejected(R"({"command":3})", ErrorCode::kBadValue, "command");
}

TEST(ParseQuery, FieldLevelErrors) {
  // A field outside the command's schema.
  expect_rejected(R"({"command":"mech","frobnicate":1})",
                  ErrorCode::kUnknownField, "frobnicate");
  // A faults-only knob on a mech query is just as unknown.
  expect_rejected(R"({"command":"mech","mtbf_s":3})", ErrorCode::kUnknownField,
                  "mtbf_s");
  // Wrong JSON type / unknown enum string.
  expect_rejected(R"({"command":"faults","seed":"7"})", ErrorCode::kBadValue,
                  "seed");
  expect_rejected(R"({"command":"mech","stack":"everything"})",
                  ErrorCode::kBadValue, "stack");
  expect_rejected(R"({"command":"cluster","output":"hologram"})",
                  ErrorCode::kBadValue, "output");
  // metrics output needs a simulated command.
  expect_rejected(R"({"command":"cluster","output":"metrics"})",
                  ErrorCode::kBadValue, "output");
  // An id must be a scalar to echo cleanly.
  expect_rejected(R"({"command":"cluster","id":[1]})", ErrorCode::kBadValue,
                  "id");
}

TEST(ParseQuery, RangeAndBackendErrors) {
  expect_rejected(R"({"command":"faults","mttr_s":0})", ErrorCode::kOutOfRange,
                  "mttr_s");
  expect_rejected(R"({"command":"mech","iters":0})", ErrorCode::kOutOfRange,
                  "iters");
  expect_rejected(R"({"command":"faults","backend":"banana"})",
                  ErrorCode::kBadValue, "backend");
  expect_rejected(R"({"command":"faults","backend":"single","shards":4})",
                  ErrorCode::kBackendMismatch, "shards");
  expect_rejected(R"({"command":"mech","backend":"sharded","shards":0})",
                  ErrorCode::kOutOfRange, "shards");
}

TEST(ParseQuery, WholeNumbersDoNotWrap) {
  // Past an int member's range the value is rejected, not narrowed.
  expect_rejected(R"({"command":"mech","iters":4294967297})",
                  ErrorCode::kOutOfRange, "iters");
  expect_rejected(R"({"command":"mech","iters":2147483648})",
                  ErrorCode::kOutOfRange, "iters");
  expect_rejected(R"({"command":"mech","ocs":4294967296})",
                  ErrorCode::kOutOfRange, "ocs");
}

/// One front end's verdict on a value: the rejection code, or the cache key
/// of the scenario it produced.
struct Verdict {
  std::optional<ErrorCode> error;
  std::string key;
};

/// (row, value text) pairs, applied in order.
using Settings = std::vector<std::pair<const ScenarioField*, std::string>>;

/// `settings` through netpp_cli's path: apply_flag per flag, then the
/// backend rule.
Verdict via_flags(QueryKind kind, const Settings& settings) {
  Query query;
  query.kind = kind;
  try {
    for (const auto& [field, text] : settings) {
      apply_flag(query.opt, field->flag, text);
    }
    check_backend(query.opt.backend, /*cli=*/true);
  } catch (const ServeError& e) {
    return {e.code(), ""};
  }
  return {std::nullopt, cache_key(query)};
}

/// The same settings as one query object; spelled values are JSON strings.
Verdict via_query(QueryKind kind, const Settings& settings) {
  std::string text = std::string{R"({"command":")"} + to_string(kind) + '"';
  for (const auto& [field, value] : settings) {
    const bool spelled = !field->rule.spellings.empty();
    text += ",\"" + std::string{field->name} + "\":" +
            (spelled ? '"' + value + '"' : value);
  }
  try {
    return {std::nullopt, cache_key(parse(text + "}"))};
  } catch (const ServeError& e) {
    return {e.code(), ""};
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string number_text(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

TEST(ScenarioSchema, CliFlagsAndQueryFieldsApplyOneRule) {
  const auto fields = scenario_fields();
  const ScenarioField* backend = nullptr;
  for (const ScenarioField& f : fields) {
    if (f.name == "backend") backend = &f;
  }
  ASSERT_NE(backend, nullptr);
  const ScenarioOptions defaults;
  for (std::size_t row = 0; row < fields.size(); ++row) {
    const ScenarioField& f = fields[row];
    SCOPED_TRACE(std::string{f.name});
    ASSERT_NE(f.commands, 0u);
    const auto kind = static_cast<QueryKind>(std::countr_zero(f.commands));
    // (text, accepted?) probes: the grid every row must reject the same way
    // in both front ends, and values inside the rule both must accept.
    std::vector<std::pair<std::string, bool>> probes;
    if (!f.rule.spellings.empty()) {
      std::string_view rest = f.rule.spellings;
      while (!rest.empty()) {
        const std::size_t bar = rest.find('|');
        probes.emplace_back(std::string{rest.substr(0, bar)}, true);
        rest.remove_prefix(bar == std::string_view::npos ? rest.size()
                                                         : bar + 1);
      }
      probes.emplace_back("bogus", false);
    } else {
      const FieldRule& r = f.rule;
      const double lowest = r.lo_open ? std::nextafter(r.lo, 1.0) : r.lo;
      const double below = r.lo_open ? r.lo
                           : r.whole  ? r.lo - 1.0
                                      : std::nextafter(r.lo, -1.0);
      const auto inside = [&](double v) {
        const bool whole = v == std::floor(v) && std::fabs(v) <= 0x1p53;
        return (!r.whole || whole) && (r.lo_open ? v > r.lo : v >= r.lo) &&
               v <= r.hi;
      };
      std::vector<double> values = {lowest, r.lo + 0.5, -1.0, below,
                                    0x1p31, 0x1p32 + 1.0, 0x1p53 + 2.0};
      if (std::isfinite(r.hi)) {
        values.push_back(r.hi);
        values.push_back(r.whole ? r.hi + 1.0 : std::nextafter(r.hi, kInf));
      }
      for (const double v : values) {
        probes.emplace_back(number_text(v), inside(v));
      }
    }
    Settings prefix;
    // More than one shard needs the sharded backend in both front ends.
    if (f.name == "shards") prefix.emplace_back(backend, "sharded");
    for (const auto& [text, accepted] : probes) {
      SCOPED_TRACE(text);
      auto settings = prefix;
      settings.emplace_back(&f, text);
      const Verdict cli = via_flags(kind, settings);
      const Verdict json = via_query(kind, settings);
      EXPECT_EQ(cli.error, json.error);
      EXPECT_EQ(cli.key, json.key);
      EXPECT_EQ(!cli.error.has_value(), accepted);
      if (!accepted || !prefix.empty()) continue;
      // An accepted value lands in this row's knob and nowhere else.
      ScenarioOptions opt;
      apply_flag(opt, f.flag, text);
      for (std::size_t other = 0; other < fields.size(); ++other) {
        if (other == row) continue;
        EXPECT_EQ(fields[other].get(opt), fields[other].get(defaults))
            << fields[other].name;
      }
    }
  }
}

TEST(CacheKey, IdentifiesQueriesUpToId) {
  const Query a = parse(R"({"command":"faults","seed":7,"id":1})");
  const Query b = parse(R"({"command":"faults","seed":7,"id":"other"})");
  const Query c = parse(R"({"command":"faults","seed":8,"id":1})");
  EXPECT_EQ(cache_key(a), cache_key(b));
  EXPECT_NE(cache_key(a), cache_key(c));
  // Output format is part of the rendered answer, so part of the key.
  const Query d = parse(R"({"command":"faults","seed":7,"output":"table"})");
  EXPECT_NE(cache_key(a), cache_key(d));
}

TEST(ErrorEnvelope, CarriesTheWireContract) {
  const JsonValue env = make_error_response(
      JsonValue::make_number(4), ErrorCode::kOutOfRange, "mttr_s",
      "mttr_s must be > 0");
  EXPECT_EQ(
      env.dump(),
      R"({"ok":false,"id":4,"error":{"code":"out_of_range",)"
      R"("field":"mttr_s","message":"mttr_s must be > 0"}})");
  // Every code has a stable string form.
  EXPECT_STREQ(to_string(ErrorCode::kBadFrame), "bad_frame");
  EXPECT_STREQ(to_string(ErrorCode::kBadJson), "bad_json");
  EXPECT_STREQ(to_string(ErrorCode::kCorruptBaseline), "corrupt_baseline");
  EXPECT_STREQ(to_string(ErrorCode::kInternal), "internal");
}

TEST(Framing, EncodeFrameIsLittleEndianLengthPlusBytes) {
  const std::string frame = encode_frame("abc");
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(static_cast<unsigned char>(frame[0]), 3u);
  EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0u);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0u);
  EXPECT_EQ(frame.substr(4), "abc");
}

}  // namespace
}  // namespace netpp::serve
