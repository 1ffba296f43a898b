#include "netpp/serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "netpp/validation.h"

namespace netpp::serve {

const char* to_string(JsonKind kind) {
  switch (kind) {
    case JsonKind::kNull: return "null";
    case JsonKind::kBool: return "boolean";
    case JsonKind::kNumber: return "number";
    case JsonKind::kString: return "string";
    case JsonKind::kArray: return "array";
    case JsonKind::kObject: return "object";
  }
  return "unknown";
}

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = JsonKind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = JsonKind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = JsonKind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array() {
  JsonValue j;
  j.kind_ = JsonKind::kArray;
  return j;
}

JsonValue JsonValue::make_object() {
  JsonValue j;
  j.kind_ = JsonKind::kObject;
  return j;
}

bool JsonValue::as_bool() const {
  if (kind_ != JsonKind::kBool) {
    throw std::logic_error("JsonValue: not a boolean");
  }
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != JsonKind::kNumber) {
    throw std::logic_error("JsonValue: not a number");
  }
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != JsonKind::kString) {
    throw std::logic_error("JsonValue: not a string");
  }
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != JsonKind::kArray) {
    throw std::logic_error("JsonValue: not an array");
  }
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const {
  if (kind_ != JsonKind::kObject) {
    throw std::logic_error("JsonValue: not an object");
  }
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != JsonKind::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != JsonKind::kArray) {
    throw std::logic_error("JsonValue: push_back on a non-array");
  }
  array_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != JsonKind::kObject) {
    throw std::logic_error("JsonValue: set on a non-object");
  }
  object_.emplace_back(std::move(key), std::move(v));
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Infinity/NaN; the protocol never emits them, but a
    // defensive null beats invalid output.
    out += "null";
    return;
  }
  char buf[40];
  // Range first: casting a double past long long's range is undefined.
  if (std::fabs(v) < 9.007199254740992e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  // Shortest round-trip: try increasing precision until re-parse matches.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonKind::kNull:
      out += "null";
      return;
    case JsonKind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonKind::kNumber:
      append_number(out, v.as_number());
      return;
    case JsonKind::kString:
      out += json_escape(v.as_string());
      return;
    case JsonKind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      return;
    }
    case JsonKind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        out += json_escape(key);
        out.push_back(':');
        dump_value(value, out);
      }
      out.push_back('}');
      return;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& constraint) const {
    validation::fail("Json",
                     constraint + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected an object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported:
          // the protocol is ASCII in practice; reject rather than mangle).
          if (code >= 0xd800 && code <= 0xdfff) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() < '0' || peek() > '9') fail("expected a value");
    while (peek() >= '0' && peek() <= '9') ++pos_;
    if (peek() == '.') {
      ++pos_;
      if (peek() < '0' || peek() > '9') fail("bad number: lone decimal point");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (peek() < '0' || peek() > '9') fail("bad number: empty exponent");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string lexeme{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(lexeme.c_str(), &end);
    if (end != lexeme.c_str() + lexeme.size()) fail("bad number");
    // Overflow gives ±inf, which JSON cannot carry; underflow keeps its value.
    if (!std::isfinite(v)) {
      pos_ = start;
      fail("number out of range");
    }
    return JsonValue::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

JsonValue parse_json(std::string_view text) {
  return Parser{text}.parse_document();
}

}  // namespace netpp::serve
