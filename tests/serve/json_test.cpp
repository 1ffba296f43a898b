// The serve JSON layer: strict parsing, deterministic serialization, and
// the "Json: ..." rejection contract the bad_json envelope is built on.
#include "netpp/serve/json.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace netpp::serve {
namespace {

TEST(JsonParse, ScalarsRoundTrip) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json(" false ").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse_json("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  // Underflow keeps strtod's value.
  EXPECT_EQ(parse_json("1e-400").as_number(), 0.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  const JsonValue v = parse_json(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue v =
      parse_json(R"({"command":"mech","knobs":[1,2,3],"deep":{"x":true}})");
  ASSERT_EQ(v.kind(), JsonKind::kObject);
  EXPECT_EQ(v.find("command")->as_string(), "mech");
  ASSERT_EQ(v.find("knobs")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("knobs")->as_array()[2].as_number(), 3.0);
  EXPECT_TRUE(v.find("deep")->find("x")->as_bool());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonParse, RejectsMalformedInputWithJsonPrefix) {
  const char* bad[] = {
      "",           "{",          "[1,]",     "{\"a\":}",  "\"unterminated",
      "tru",        "1 2",        "{\"a\" 1}", "\"bad \\q esc\"",
      "{\"a\":1,}", "[1,2] tail", "nan",      "{\"a\":1,\"a\":2}",
      // Past the double range: JSON cannot carry the infinity strtod gives.
      "1e400",      "-1e400",     "[1e309]",
  };
  for (const char* text : bad) {
    try {
      (void)parse_json(text);
      FAIL() << "accepted malformed input: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()}.rfind("Json:", 0), 0u)
          << "diagnostic for '" << text << "' is not 'Json: ...': "
          << e.what();
    }
  }
}

TEST(JsonDump, IsDeterministicAndPreservesMemberOrder) {
  JsonValue obj = JsonValue::make_object();
  obj.set("zeta", JsonValue::make_number(1));
  obj.set("alpha", JsonValue::make_string("x"));
  obj.set("flag", JsonValue::make_bool(false));
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":"x","flag":false})");
  // Stable under re-parse: dump(parse(dump(v))) == dump(v).
  EXPECT_EQ(parse_json(obj.dump()).dump(), obj.dump());
}

TEST(JsonDump, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(JsonValue::make_number(42).dump(), "42");
  EXPECT_EQ(JsonValue::make_number(-3).dump(), "-3");
  EXPECT_EQ(JsonValue::make_number(0.25).dump(), "0.25");
}

TEST(JsonDump, LargeNumbersRoundTrip) {
  // Past long long's range (±2^63 and beyond) the integer fast path must
  // not even be tried.
  for (const double v : {1e300, 9.3e18, 9223372036854775808.0}) {
    for (const double signed_v : {v, -v}) {
      const std::string text = JsonValue::make_number(signed_v).dump();
      EXPECT_EQ(parse_json(text).as_number(), signed_v) << text;
    }
  }
}

TEST(JsonDump, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonValue::make_string("a\"b\\c\nd").dump(),
            R"("a\"b\\c\nd")");
  EXPECT_EQ(json_escape("tab\there"), R"("tab\there")");
  // Round-trips through the parser.
  EXPECT_EQ(parse_json(json_escape("a\"b\\c\n\t\x01")).as_string(),
            "a\"b\\c\n\t\x01");
}

TEST(JsonValue, TypedAccessorsThrowOnKindMismatch) {
  const JsonValue num = JsonValue::make_number(1);
  EXPECT_THROW((void)num.as_string(), std::logic_error);
  EXPECT_THROW((void)num.as_array(), std::logic_error);
  EXPECT_EQ(num.find("x"), nullptr);  // non-object find is a safe nullptr
}

}  // namespace
}  // namespace netpp::serve
