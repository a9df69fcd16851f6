// Minimal JSON value model, writer, and parser — enough for HAR files.
//
// Supports the JSON subset HAR 1.2 uses: objects, arrays, strings (with
// escape handling), doubles/integers, booleans, null. Output goes through
// one formatter, `JsonWriter`, which streams a document into a caller-owned
// string: `Json::dump` walks its tree into a writer, and the HAR exporter
// (web/har_json.h) drives one directly from a PageLoad without building a
// tree. Both therefore emit the same bytes for the same values.
#pragma once

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

// Appends one JSON document to `*out` as a sequence of calls: containers
// with begin_/end_, object members as key() followed by exactly one value
// call. The writer checks nothing about that grammar; the caller's call
// order is the document. With `indent` > 0 every member and element starts
// on its own line, `indent` spaces per level, and keys are followed by ": ";
// with 0 the output is compact. Numbers are formatted as printf("%.15g")
// would, strings escape '"', '\\' and control bytes (\n \r \t \b \f by
// name, others as \u00XX). The writer never clears `*out`, so a caller that
// reuses one buffer across documents keeps its capacity.
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
  // "%.15g"; JSON has no Inf/NaN, so a non-finite value writes null.
  void double_value(double value);
  // Integer microseconds as milliseconds: the same bytes as
  // double_value(micros / 1000.0), without floating-point formatting for
  // |micros| < 10^15 (where the quotient has at most 15 significant
  // digits, so "%.15g" prints it exactly).
  void millis_value(std::int64_t micros);
  void string_value(std::string_view value);
  // One string value whose text is the concatenation of `parts`.
  void string_value(std::initializer_list<std::string_view> parts);

 private:
  void begin_value();
  void separate();
  void newline();
  void open_container(char bracket);
  void close_container(char bracket);
  void escaped(std::string_view text);

  std::string* out_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;       // the open container has no member yet
  bool after_key_ = false;  // the next value belongs to the last key()
};

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
