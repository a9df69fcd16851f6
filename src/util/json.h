// Minimal JSON value model, writer, and parser — enough for HAR files.
//
// Supports the JSON subset HAR 1.2 uses: objects, arrays, strings (with
// escape handling), doubles/integers, booleans, null. Output goes through
// one formatter, `JsonWriter`, which streams a document as text into a
// caller-owned string: `Json::dump` walks its tree into a writer, and the
// HAR exporter (web/har_json.h) drives one directly from a PageLoad without
// building a tree. Both therefore emit the same bytes for the same values.
// The writer formats numbers and escapes strings through the free functions
// below, which web::har_digest also calls to fold the same value bytes into
// its FNV state.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace origin::util {

// Saturating double → int64 conversion; the raw static_cast is UB when the
// value is out of range (fuzzed documents carry 1e308 and NaN).
std::int64_t clamp_to_int64(double d);

// Room for any number the formatters below write.
using JsonNumberBuffer = char[32];

// Each formatter writes one value's JSON text into `buf` and returns it.
inline std::string_view json_int_text(std::int64_t value,
                                      JsonNumberBuffer& buf);
// "%.15g" of a finite `value` (JSON has no Inf/NaN).
std::string_view json_double_text(double value, JsonNumberBuffer& buf);
// Integer microseconds as milliseconds: the text of
// json_double_text(micros / 1000.0), without floating-point formatting for
// |micros| < 10^15 (where the quotient has at most 15 significant digits,
// so "%.15g" prints it exactly).
inline std::string_view json_millis_text(std::int64_t micros,
                                         JsonNumberBuffer& buf);

// Passes the contents of a JSON string holding `text` to `sink` as
// std::string_views: unescaped runs whole, and '"', '\\' and control bytes
// escaped (\n \r \t \b \f by name, others as \u00XX).
template <typename Sink>
void json_escape(std::string_view text, Sink&& sink);

// Streams one JSON document as text, as a sequence of calls: containers
// with begin_/end_, object members as key() followed by exactly one value
// call. The writer checks nothing about that grammar; the caller's call
// order is the document. With `indent` > 0 every member and element starts
// on its own line, `indent` spaces per level, and keys are followed by
// ": "; with 0 the output is compact. Numbers and string escapes come from
// the formatters above. The text is appended to `*out`; the writer never
// clears it, so a caller that reuses one buffer across documents keeps its
// capacity.
class JsonWriter {
 public:
  JsonWriter(std::string* out, int indent) : out_(out), indent_(indent) {}

  void begin_object() { open_container('{'); }
  void end_object() { close_container('}'); }
  void begin_array() { open_container('['); }
  void end_array() { close_container(']'); }
  // Starts an object member; the next value call writes its value.
  JsonWriter& key(std::string_view name);

  void null_value();
  void bool_value(bool value);
  void int_value(std::int64_t value);
  // JSON has no Inf/NaN, so a non-finite value writes null.
  void double_value(double value);
  void millis_value(std::int64_t micros);
  void string_value(std::string_view value);
  // One string value whose text is the concatenation of `parts`.
  void string_value(std::initializer_list<std::string_view> parts);

 private:
  // The appends, out of line (json.cc) so the inline calls stay small.
  void emit(std::string_view bytes);
  void emit_spaces(std::size_t count);

  void begin_value();
  void separate();
  void open_container(char bracket);
  void close_container(char bracket);
  void escaped(std::string_view text);

  std::string* out_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;       // the open container has no member yet
  bool after_key_ = false;  // the next value belongs to the last key()
};

inline std::string_view json_int_text(std::int64_t value,
                                      JsonNumberBuffer& buf) {
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string_view(buf, result.ptr);
}

inline std::string_view json_millis_text(std::int64_t micros,
                                         JsonNumberBuffer& buf) {
  // For |micros| < 10^15 the quotient micros / 1000 has at most 15
  // significant digits, and the double nearest it lies within half a unit
  // of the 15th, so "%.15g" prints the quotient itself: in fixed notation
  // (it is 0 or at least 0.001, and below 10^12), with trailing zeros and
  // a bare point dropped. Past the bound, format the double.
  constexpr std::int64_t kExactBound = 1'000'000'000'000'000;
  if (micros <= -kExactBound || micros >= kExactBound) {
    return json_double_text(static_cast<double>(micros) / 1000.0, buf);
  }
  char* p = buf;
  if (micros < 0) *p++ = '-';
  const std::uint64_t magnitude = static_cast<std::uint64_t>(
      micros < 0 ? -micros : micros);
  p = std::to_chars(p, buf + sizeof(buf), magnitude / 1000).ptr;
  const auto fraction = static_cast<unsigned>(magnitude % 1000);
  if (fraction != 0) {
    const unsigned tenths = fraction / 100;
    const unsigned hundredths = fraction / 10 % 10;
    const unsigned thousandths = fraction % 10;
    *p++ = '.';
    *p++ = static_cast<char>('0' + tenths);
    if (hundredths != 0 || thousandths != 0) {
      *p++ = static_cast<char>('0' + hundredths);
    }
    if (thousandths != 0) *p++ = static_cast<char>('0' + thousandths);
  }
  return std::string_view(buf, p);
}

template <typename Sink>
void json_escape(std::string_view text, Sink&& sink) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    sink(text.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': sink(std::string_view("\\\"")); break;
      case '\\': sink(std::string_view("\\\\")); break;
      case '\n': sink(std::string_view("\\n")); break;
      case '\r': sink(std::string_view("\\r")); break;
      case '\t': sink(std::string_view("\\t")); break;
      case '\b': sink(std::string_view("\\b")); break;
      case '\f': sink(std::string_view("\\f")); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        sink(std::string_view(code, sizeof(code)));
      }
    }
  }
  sink(text.substr(run));
}

inline JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  emit("\"");
  escaped(name);
  emit(indent_ > 0 ? std::string_view("\": ") : std::string_view("\":"));
  after_key_ = true;
  return *this;
}

inline void JsonWriter::null_value() {
  begin_value();
  emit("null");
}

inline void JsonWriter::bool_value(bool value) {
  begin_value();
  emit(value ? std::string_view("true") : std::string_view("false"));
}

inline void JsonWriter::int_value(std::int64_t value) {
  begin_value();
  JsonNumberBuffer buf;
  emit(json_int_text(value, buf));
}

inline void JsonWriter::double_value(double value) {
  begin_value();
  if (!std::isfinite(value)) {
    emit("null");
    return;
  }
  JsonNumberBuffer buf;
  emit(json_double_text(value, buf));
}

inline void JsonWriter::millis_value(std::int64_t micros) {
  begin_value();
  JsonNumberBuffer buf;
  emit(json_millis_text(micros, buf));
}

inline void JsonWriter::string_value(std::string_view value) {
  begin_value();
  emit("\"");
  escaped(value);
  emit("\"");
}

inline void JsonWriter::string_value(
    std::initializer_list<std::string_view> parts) {
  begin_value();
  emit("\"");
  for (std::string_view part : parts) escaped(part);
  emit("\"");
}

inline void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    separate();
  }
}

// Comma after a previous member, then (when indenting) the member's own
// line: a line break and the current depth's indentation.
inline void JsonWriter::separate() {
  if (!empty_) emit(",");
  empty_ = false;
  if (indent_ == 0) return;
  emit("\n");
  emit_spaces(static_cast<std::size_t>(indent_) *
              static_cast<std::size_t>(depth_));
}

inline void JsonWriter::open_container(char bracket) {
  begin_value();
  emit(std::string_view(&bracket, 1));
  ++depth_;
  empty_ = true;
}

// A closed container is a member of its parent, which is therefore not
// empty any more.
inline void JsonWriter::close_container(char bracket) {
  --depth_;
  if (!empty_ && indent_ > 0) {
    emit("\n");
    emit_spaces(static_cast<std::size_t>(indent_) *
                static_cast<std::size_t>(depth_));
  }
  emit(std::string_view(&bracket, 1));
  empty_ = false;
}

inline void JsonWriter::escaped(std::string_view text) {
  json_escape(text, [this](std::string_view piece) { emit(piece); });
}

class Json {
 public:
  using Array = std::vector<Json>;
  // std::map keeps key order deterministic (alphabetical) for stable
  // golden-file comparisons.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}          // NOLINT
  Json(bool b) : value_(b) {}                        // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT
  Json(std::int64_t i) : value_(i) {}                // NOLINT
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT
  Json(Array a) : value_(std::move(a)) {}            // NOLINT
  Json(Object o) : value_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&value_)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(value_);
  }
  std::int64_t as_int() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }

  // Total accessors: wrong-typed or missing values yield the fallback
  // instead of throwing, so readers of externally-produced documents
  // (HAR imports) stay crash-free on arbitrary shapes.
  bool bool_or(bool fallback) const {
    return is_bool() ? as_bool() : fallback;
  }
  double double_or(double fallback) const {
    return is_number() ? as_double() : fallback;
  }
  std::int64_t int_or(std::int64_t fallback) const {
    return is_number() ? as_int() : fallback;
  }
  std::string string_or(std::string fallback) const {
    return is_string() ? as_string() : std::move(fallback);
  }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  // Object member access; returns a shared null for missing keys.
  const Json& operator[](const std::string& key) const;
  Json& operator[](const std::string& key) {
    return std::get<Object>(value_)[key];
  }
  bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }

  // Serializes compactly; `indent` > 0 pretty-prints (see JsonWriter).
  std::string dump(int indent = 0) const;

  // Rejects documents nested deeper than this (stack-overflow guard; HAR
  // files are ~4 levels deep, so the bound is generous).
  static constexpr int kMaxParseDepth = 96;

  [[nodiscard]] static Result<Json> parse(std::string_view text);

 private:
  void write_into(JsonWriter& writer) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array,
               Object>
      value_;
};

}  // namespace origin::util
