// Minimal JSON value model, writer, and parser — enough for HAR files.
//
// Supports the JSON subset HAR 1.2 uses: objects, arrays, strings (with
// escape handling), doubles/integers, booleans, null. Output goes through
// one formatter, `JsonWriter`, which streams a document either as text into
// a caller-owned string or as an FNV-1a-64 state folded over that text:
// `Json::dump` walks its tree into a writer, and the HAR exporter
// (web/har_json.h) drives one directly from a PageLoad without building a
// tree. Both therefore emit the same bytes for the same values.
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

#include "util/fnv.h"
#include "util/result.h"

namespace origin::util {

// Saturating double → int64 conversion; the raw static_cast is UB when the
// value is out of range (fuzzed documents carry 1e308 and NaN).
std::int64_t clamp_to_int64(double d);

// An object member name fixed at compile time. It carries the FNV fold of
// the bytes JsonWriter::key writes for it at indent 2 — the quote, the
// name, then `": ` — so the hash output takes one table step per member.
// About 2 KB each: declare them at namespace scope, never per call.
class JsonKey {
 public:
  consteval explicit JsonKey(std::string_view name)
      : name_(plain(name)), folded_({"\"", name, "\": "}) {}

  constexpr std::string_view name() const { return name_; }
  constexpr const FnvRun& folded() const { return folded_; }

 private:
  // Not constexpr and never defined: a name JSON would escape reaches this
  // call during constant evaluation, which is the compile error.
  static void name_needs_escaping();

  static consteval std::string_view plain(std::string_view name) {
    for (char c : name) {
      if (static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\') {
        name_needs_escaping();
      }
    }
    return name;
  }

  std::string_view name_;
  FnvRun folded_;
};

// Streams one JSON document as a sequence of calls: containers with
// begin_/end_, object members as key() followed by exactly one value call.
// The writer checks nothing about that grammar; the caller's call order is
// the document. With `indent` > 0 every member and element starts on its
// own line, `indent` spaces per level, and keys are followed by ": "; with
// 0 the output is compact. Numbers are formatted as printf("%.15g") would,
// strings escape '"', '\\' and control bytes (\n \r \t \b \f by name,
// others as \u00XX).
//
// The document goes to one of two outputs, with the same bytes:
//   * text: appended to `*out`. The writer never clears it, so a caller
//     that reuses one buffer across documents keeps its capacity;
//   * hash: folded into the FNV-1a-64 state `*fnv`, which ends as
//     fnv1a64(text, initial *fnv) without the text being rendered. At
//     indent 2 and depth <= kFoldDepth each fixed run of layout — a line
//     break and indentation (with or without the comma before it), a
//     closing line, a JsonKey, true and false — takes one FnvRun step;
//     value bytes, and every byte of any other layout, take the FNV byte
//     loop.
//
// The calls are defined inline below, so a caller such as web::har_digest
// inlines them and pays no call per member; only the text output's appends
// and double formatting stay out of line.
class JsonWriter {
 public:
  // The layout the hash output folds by table: write_har's.
  static constexpr int kFoldIndent = 2;
  static constexpr int kFoldDepth = 6;

  JsonWriter(std::string* out, int indent) : out_(out), indent_(indent) {}
  JsonWriter(std::uint64_t* fnv, int indent) : fnv_(fnv), indent_(indent) {}

  void begin_object() { open_container('{'); }
  void end_object() { close_container('}'); }
  void begin_array() { open_container('['); }
  void end_array() { close_container(']'); }
  // Starts an object member; the next value call writes its value.
  JsonWriter& key(std::string_view name);
  JsonWriter& key(const JsonKey& name);

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
  // The hash output's fixed runs at kFoldIndent, one row per depth
  // 0..kFoldDepth. Built once, at compile time (json.cc).
  struct FoldedLayout {
    // [comma]: an optional ',', then "\n" and the row's indentation.
    FnvRun lines[2][kFoldDepth + 1];
    // [bracket == ']']: "\n", the row's indentation, then '}' or ']'.
    FnvRun closers[2][kFoldDepth + 1];
    FnvRun true_run{"true"};
    FnvRun false_run{"false"};
  };
  static const FoldedLayout kFolded;

  // Out of line (json.cc), keeping the inline calls small: "%.15g" of a
  // finite `value` into `buf`, and the text output's appends.
  static std::string_view format_double(double value, char (&buf)[32]);
  void text_bytes(std::string_view bytes);
  void text_spaces(std::size_t count);

  void begin_value();
  void separate();
  void line_break(bool comma);
  void open_container(char bracket);
  void close_container(char bracket);
  void escaped(std::string_view text);
  // True when the hash output folds the current depth's layout by table.
  bool folds_layout() const;
  // Bytes to the output: appended, or through the FNV byte loop.
  void emit(std::string_view bytes);
  void emit(char byte);
  // A fixed run: the text output appends `text`, the hash output applies
  // `run`, its fold.
  void emit(std::string_view text, const FnvRun& run);

  std::string* out_ = nullptr;
  std::uint64_t* fnv_ = nullptr;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;       // the open container has no member yet
  bool after_key_ = false;  // the next value belongs to the last key()
};

inline JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  emit('"');
  escaped(name);
  emit(indent_ > 0 ? std::string_view("\": ") : std::string_view("\":"));
  after_key_ = true;
  return *this;
}

inline JsonWriter& JsonWriter::key(const JsonKey& name) {
  if (fnv_ == nullptr || indent_ != kFoldIndent) return key(name.name());
  separate();
  *fnv_ = name.folded().apply(*fnv_);
  after_key_ = true;
  return *this;
}

inline void JsonWriter::null_value() {
  begin_value();
  emit("null");
}

inline void JsonWriter::bool_value(bool value) {
  begin_value();
  if (value) {
    emit("true", kFolded.true_run);
  } else {
    emit("false", kFolded.false_run);
  }
}

inline void JsonWriter::int_value(std::int64_t value) {
  begin_value();
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  emit(std::string_view(buf, result.ptr));
}

inline void JsonWriter::double_value(double value) {
  begin_value();
  if (!std::isfinite(value)) {
    emit("null");
    return;
  }
  char buf[32];
  emit(format_double(value, buf));
}

inline void JsonWriter::millis_value(std::int64_t micros) {
  // For |micros| < 10^15 the quotient micros / 1000 has at most 15
  // significant digits, and the double nearest it lies within half a unit
  // of the 15th, so "%.15g" prints the quotient itself: in fixed notation
  // (it is 0 or at least 0.001, and below 10^12), with trailing zeros and
  // a bare point dropped. Past the bound, format the double.
  constexpr std::int64_t kExactBound = 1'000'000'000'000'000;
  if (micros <= -kExactBound || micros >= kExactBound) {
    double_value(static_cast<double>(micros) / 1000.0);
    return;
  }
  begin_value();
  char buf[24];
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
  emit(std::string_view(buf, p));
}

inline void JsonWriter::string_value(std::string_view value) {
  begin_value();
  emit('"');
  escaped(value);
  emit('"');
}

inline void JsonWriter::string_value(
    std::initializer_list<std::string_view> parts) {
  begin_value();
  emit('"');
  for (std::string_view part : parts) escaped(part);
  emit('"');
}

inline void JsonWriter::begin_value() {
  if (after_key_) {
    after_key_ = false;
  } else if (depth_ > 0) {
    separate();
  }
}

// Comma after a previous member, then the member's own line.
inline void JsonWriter::separate() {
  const bool comma = !empty_;
  empty_ = false;
  line_break(comma);
}

// The optional comma, then (when indenting) a line break and the current
// depth's indentation.
inline void JsonWriter::line_break(bool comma) {
  if (folds_layout()) {
    *fnv_ = kFolded.lines[comma][depth_].apply(*fnv_);
    return;
  }
  if (comma) emit(',');
  if (indent_ == 0) return;
  emit('\n');
  const auto spaces = static_cast<std::size_t>(indent_) *
                      static_cast<std::size_t>(depth_);
  if (out_ != nullptr) {
    text_spaces(spaces);
  } else {
    for (std::size_t i = 0; i < spaces; ++i) emit(' ');
  }
}

inline void JsonWriter::open_container(char bracket) {
  begin_value();
  emit(bracket);
  ++depth_;
  empty_ = true;
}

// A closed container is a member of its parent, which is therefore not
// empty any more.
inline void JsonWriter::close_container(char bracket) {
  --depth_;
  if (empty_) {
    emit(bracket);
  } else if (folds_layout()) {
    *fnv_ = kFolded.closers[bracket == ']'][depth_].apply(*fnv_);
  } else {
    line_break(false);
    emit(bracket);
  }
  empty_ = false;
}

// Writes `text` with JSON escapes, passing unescaped runs on whole.
inline void JsonWriter::escaped(std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    emit(text.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': emit("\\\""); break;
      case '\\': emit("\\\\"); break;
      case '\n': emit("\\n"); break;
      case '\r': emit("\\r"); break;
      case '\t': emit("\\t"); break;
      case '\b': emit("\\b"); break;
      case '\f': emit("\\f"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        emit(std::string_view(code, sizeof(code)));
      }
    }
  }
  emit(text.substr(run));
}

inline bool JsonWriter::folds_layout() const {
  return fnv_ != nullptr && indent_ == kFoldIndent && depth_ >= 0 &&
         depth_ <= kFoldDepth;
}

inline void JsonWriter::emit(std::string_view bytes) {
  if (out_ != nullptr) {
    text_bytes(bytes);
  } else {
    *fnv_ = fnv1a64(bytes, *fnv_);
  }
}

inline void JsonWriter::emit(char byte) {
  if (out_ != nullptr) {
    text_bytes(std::string_view(&byte, 1));
  } else {
    *fnv_ = (*fnv_ ^ static_cast<std::uint8_t>(byte)) * kFnvPrime;
  }
}

inline void JsonWriter::emit(std::string_view text, const FnvRun& run) {
  if (out_ != nullptr) {
    text_bytes(text);
  } else {
    *fnv_ = run.apply(*fnv_);
  }
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
