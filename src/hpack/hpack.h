// HPACK header-block encoder and decoder (RFC 7541).
//
// Each HTTP/2 connection direction owns one Encoder or Decoder; the dynamic
// table is connection state and persists across header blocks. The encoder
// uses incremental indexing for repeatable fields, never-indexed literals
// for sensitive fields, and Huffman coding when it shrinks the string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hpack/tables.h"
#include "util/bytes.h"
#include "util/result.h"

namespace origin::hpack {

using HeaderList = std::vector<HeaderField>;

class Encoder {
 public:
  explicit Encoder(std::size_t max_table_size = 4096)
      : table_(max_table_size) {}

  // Serializes `headers` as one header block. Order is preserved;
  // pseudo-headers must already be first (the h2 layer enforces that).
  origin::util::Bytes encode(const HeaderList& headers);

  // Schedules a "dynamic table size update" to be emitted at the start of
  // the next header block (e.g. after a SETTINGS change).
  void set_max_table_size(std::size_t size);

  // Marks a header name whose values must never be indexed (RFC 7541 §7.1.3
  // — e.g. authorization, short cookies).
  void add_sensitive_name(std::string name);

  std::size_t dynamic_table_size() const { return table_.size_bytes(); }
  std::size_t dynamic_table_entries() const { return table_.entry_count(); }

 private:
  bool is_sensitive(std::string_view name, std::string_view value) const;
  void encode_string(std::string_view s, origin::util::ByteWriter& out) const;

  DynamicTable table_;
  std::vector<std::string> sensitive_names_;
  std::size_t pending_table_size_ = 0;
  bool has_pending_table_size_ = false;
};

class Decoder {
 public:
  explicit Decoder(std::size_t max_table_size = 4096)
      : table_(max_table_size), settings_ceiling_(max_table_size) {}

  // Parses a complete header block into `out`, replacing its contents and
  // reusing its elements' storage. Errors on any malformed representation;
  // per RFC 7540 §4.3 such an error is a connection error (COMPRESSION_ERROR)
  // at the h2 layer, and `out` is then unspecified.
  [[nodiscard]] origin::util::Status decode(std::span<const std::uint8_t> block,
                                            HeaderList& out);
  // The same list in a value of its own.
  [[nodiscard]] origin::util::Result<HeaderList> decode(
      std::span<const std::uint8_t> block);

  // New ceiling advertised via SETTINGS_HEADER_TABLE_SIZE; a subsequent
  // dynamic table size update above this is a decode error.
  void set_max_table_size_ceiling(std::size_t size);

  std::size_t dynamic_table_size() const { return table_.size_bytes(); }
  std::size_t dynamic_table_entries() const { return table_.entry_count(); }

 private:
  // Fields a request or response block typically carries.
  static constexpr std::size_t kTypicalFields = 8;

  // Decodes one string literal into `out`, keeping its capacity.
  [[nodiscard]] origin::util::Status decode_string(
      origin::util::ByteReader& reader, std::string& out);
  // Static or dynamic entry by combined index; nullptr when out of range.
  const HeaderField* indexed_field(std::size_t index) const;

  DynamicTable table_;
  std::size_t settings_ceiling_;
};

}  // namespace origin::hpack
