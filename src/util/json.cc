#include "util/json.h"

#include <cctype>
#include <cstdlib>
#include <limits>

namespace origin::util {

namespace {

const Json& null_json() {
  static const Json kNull;
  return kNull;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return make_error("json: trailing characters at offset " +
                        std::to_string(pos_));
    }
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value() {
    skip_whitespace();
    if (pos_ >= text_.size()) return make_error("json: unexpected end");
    if (depth_ >= Json::kMaxParseDepth) {
      return make_error("json: nesting exceeds depth limit");
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s.ok()) return s.error();
      return Json(std::move(s).value());
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json(nullptr);
    return parse_number();
  }

  Result<Json> parse_object() {
    ++pos_;  // '{'
    DepthGuard guard(depth_);
    Json::Object object;
    skip_whitespace();
    if (consume('}')) return Json(std::move(object));
    for (;;) {
      skip_whitespace();
      auto key = parse_string();
      if (!key.ok()) return key.error();
      if (!consume(':')) return make_error("json: expected ':'");
      auto value = parse_value();
      if (!value.ok()) return value;
      object.emplace(std::move(key).value(), std::move(value).value());
      if (consume(',')) continue;
      if (consume('}')) return Json(std::move(object));
      return make_error("json: expected ',' or '}'");
    }
  }

  Result<Json> parse_array() {
    ++pos_;  // '['
    DepthGuard guard(depth_);
    Json::Array array;
    skip_whitespace();
    if (consume(']')) return Json(std::move(array));
    for (;;) {
      auto value = parse_value();
      if (!value.ok()) return value;
      array.push_back(std::move(value).value());
      if (consume(',')) continue;
      if (consume(']')) return Json(std::move(array));
      return make_error("json: expected ',' or ']'");
    }
  }

  Result<std::string> parse_string() {
    skip_whitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return make_error("json: expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) {
            return make_error("json: bad \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return make_error("json: bad \\u escape");
          }
          // BMP-only UTF-8 encoding (HAR content here is ASCII anyway).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return make_error("json: unknown escape");
      }
    }
    return make_error("json: unterminated string");
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return make_error("json: invalid value");
    const std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return Json(std::strtod(token.c_str(), nullptr));
    }
    return Json(static_cast<std::int64_t>(std::strtoll(token.c_str(), nullptr, 10)));
  }

  struct DepthGuard {
    explicit DepthGuard(int& depth) : depth(depth) { ++depth; }
    ~DepthGuard() { --depth; }
    int& depth;
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::int64_t clamp_to_int64(double d) {
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<std::int64_t>::max());
  constexpr double kMin =
      static_cast<double>(std::numeric_limits<std::int64_t>::min());
  if (std::isnan(d)) return 0;
  if (d >= kMax) return std::numeric_limits<std::int64_t>::max();
  if (d <= kMin) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

std::string_view json_double_text(double value, JsonNumberBuffer& buf) {
  // to_chars with a precision is specified as printf's conversion in the
  // "C" locale, so this is "%.15g" without the locale and varargs cost.
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 15);
  return std::string_view(buf, result.ptr);
}

void JsonWriter::emit(std::string_view bytes) { out_->append(bytes); }

void JsonWriter::emit_spaces(std::size_t count) { out_->append(count, ' '); }

std::int64_t Json::as_int() const {
  if (const auto* d = std::get_if<double>(&value_)) {
    return clamp_to_int64(*d);
  }
  return std::get<std::int64_t>(value_);
}

const Json& Json::operator[](const std::string& key) const {
  if (!is_object()) return null_json();
  auto it = as_object().find(key);
  return it == as_object().end() ? null_json() : it->second;
}

void Json::write_into(JsonWriter& writer) const {
  if (is_null()) {
    writer.null_value();
  } else if (is_bool()) {
    writer.bool_value(as_bool());
  } else if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    writer.int_value(*i);
  } else if (const auto* d = std::get_if<double>(&value_)) {
    writer.double_value(*d);
  } else if (is_string()) {
    writer.string_value(as_string());
  } else if (is_array()) {
    writer.begin_array();
    for (const Json& element : as_array()) element.write_into(writer);
    writer.end_array();
  } else {
    writer.begin_object();
    for (const auto& [key, value] : as_object()) {
      writer.key(key);
      value.write_into(writer);
    }
    writer.end_object();
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter writer(&out, indent);
  write_into(writer);
  return out;
}

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace origin::util
