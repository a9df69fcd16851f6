#include "hpack/hpack.h"

#include <algorithm>

#include "hpack/huffman.h"
#include "hpack/integer.h"

namespace origin::hpack {

namespace {

// Representation discriminators (RFC 7541 §6).
constexpr std::uint8_t kIndexed = 0x80;             // 1xxxxxxx, 7-bit prefix
constexpr std::uint8_t kLiteralIncremental = 0x40;  // 01xxxxxx, 6-bit prefix
constexpr std::uint8_t kTableSizeUpdate = 0x20;     // 001xxxxx, 5-bit prefix
constexpr std::uint8_t kLiteralNever = 0x10;        // 0001xxxx, 4-bit prefix
// Literal without indexing is 0000xxxx with a 4-bit prefix.

}  // namespace

void Encoder::set_max_table_size(std::size_t size) {
  pending_table_size_ = size;
  has_pending_table_size_ = true;
  table_.set_max_size(size);
}

void Encoder::add_sensitive_name(std::string name) {
  sensitive_names_.push_back(std::move(name));
}

bool Encoder::is_sensitive(std::string_view name,
                           std::string_view value) const {
  (void)value;
  return std::find(sensitive_names_.begin(), sensitive_names_.end(), name) !=
         sensitive_names_.end();
}

void Encoder::encode_string(std::string_view s,
                            origin::util::ByteWriter& out) const {
  const std::size_t huffman_size = huffman_encoded_size(s);
  if (huffman_size < s.size()) {
    encode_integer(huffman_size, 7, 0x80, out);
    huffman_encode(s, out);
  } else {
    encode_integer(s.size(), 7, 0x00, out);
    out.raw(s);
  }
}

origin::util::Bytes Encoder::encode(const HeaderList& headers) {
  origin::util::ByteWriter out(headers.size() * 32);
  if (has_pending_table_size_) {
    encode_integer(pending_table_size_, 5, kTableSizeUpdate, out);
    has_pending_table_size_ = false;
  }
  for (const HeaderField& h : headers) {
    if (is_sensitive(h.name, h.value)) {
      // Never-indexed literal; index the name if we can.
      auto match = find_match(table_, h.name, h.value);
      encode_integer(match ? match->index : 0, 4, kLiteralNever, out);
      if (!match) encode_string(h.name, out);
      encode_string(h.value, out);
      continue;
    }
    auto match = find_match(table_, h.name, h.value);
    if (match && match->value_matches) {
      encode_integer(match->index, 7, kIndexed, out);
      continue;
    }
    // Literal with incremental indexing: future blocks on this connection
    // can refer back to it.
    encode_integer(match ? match->index : 0, 6, kLiteralIncremental, out);
    if (!match) encode_string(h.name, out);
    encode_string(h.value, out);
    table_.insert(h);
  }
  return out.take();
}

void Decoder::set_max_table_size_ceiling(std::size_t size) {
  settings_ceiling_ = size;
  if (table_.max_size() > size) table_.set_max_size(size);
}

origin::util::Status Decoder::decode_string(origin::util::ByteReader& reader,
                                            std::string& out) {
  const bool huffman = (reader.peek() & 0x80) != 0;
  auto length = decode_integer(reader, 7);
  if (!length.ok()) return length.error();
  auto bytes = reader.raw(*length);
  if (!reader.ok()) return origin::util::make_error("hpack: truncated string");
  if (huffman) return huffman_decode(bytes, out);
  out.assign(origin::util::as_string_view(bytes));
  return {};
}

const HeaderField* Decoder::indexed_field(std::size_t index) const {
  return index <= kStaticTableSize ? static_table_entry(index)
                                   : table_.entry(index);
}

origin::util::Status Decoder::decode(std::span<const std::uint8_t> block,
                                     HeaderList& out) {
  // Fields overwrite the list's existing elements, so their strings keep
  // the capacity earlier blocks gave them; a typical block needs no growth
  // past the first reserve.
  out.reserve(kTypicalFields);
  std::size_t count = 0;
  auto next_field = [&out, &count]() -> HeaderField& {
    if (count == out.size()) out.emplace_back();
    return out[count++];
  };
  origin::util::ByteReader reader(block);
  bool seen_field = false;
  while (!reader.at_end()) {
    const std::uint8_t first = reader.peek();
    if (first & kIndexed) {
      auto index = decode_integer(reader, 7);
      if (!index.ok()) return index.error();
      if (*index == 0) return origin::util::make_error("hpack: index 0");
      const HeaderField* f = indexed_field(*index);
      if (f == nullptr) {
        return origin::util::make_error("hpack: index out of range");
      }
      next_field() = *f;
      seen_field = true;
      continue;
    }
    if (first & kTableSizeUpdate && !(first & kLiteralIncremental)) {
      // RFC 7541 §4.2: size updates must precede any header field.
      if (seen_field) {
        return origin::util::make_error(
            "hpack: table size update after header field");
      }
      auto size = decode_integer(reader, 5);
      if (!size.ok()) return size.error();
      if (*size > settings_ceiling_) {
        return origin::util::make_error(
            "hpack: table size update above SETTINGS ceiling");
      }
      table_.set_max_size(*size);
      continue;
    }
    // Literal with incremental indexing (01, 6-bit prefix), or without
    // indexing (0000) or never indexed (0001), both with a 4-bit prefix.
    const bool incremental = (first & kLiteralIncremental) != 0;
    auto index = decode_integer(reader, incremental ? 6 : 4);
    if (!index.ok()) return index.error();
    HeaderField& field = next_field();
    if (*index != 0) {
      const HeaderField* f = indexed_field(*index);
      if (f == nullptr) {
        return origin::util::make_error("hpack: name index out of range");
      }
      field.name = f->name;
    } else if (auto s = decode_string(reader, field.name); !s.ok()) {
      return s;
    }
    if (auto s = decode_string(reader, field.value); !s.ok()) return s;
    if (incremental) table_.insert(field);
    seen_field = true;
  }
  out.resize(count);
  return {};
}

origin::util::Result<HeaderList> Decoder::decode(
    std::span<const std::uint8_t> block) {
  HeaderList out;
  if (auto status = decode(block, out); !status.ok()) return status.error();
  return out;
}

}  // namespace origin::hpack
