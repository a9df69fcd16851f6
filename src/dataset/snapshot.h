// Binary shard-snapshot wire format for columnar page timelines
// (DESIGN.md §14).
//
// A snapshot is one TimelineColumns shard, encoded so that a reader can
// stream pages back with zero copies of the column payloads: a fixed
// header, a length-prefixed symbol table, then every column as a
// (tag, byte-length, payload) record in one canonical order. All header
// and framing integers are big-endian through util::ByteWriter/ByteReader
// (the repo's audited bounded codec); column payloads are raw
// little-endian rows bulk-copied from the arena chunks, guarded by an
// endianness sentinel in the header.
//
// The reader is total in the fuzzing sense: SnapshotReader::open()
// validates framing, symbol references, enum ranges, flag masks, and
// row-count cross-sums before returning, never throws, never reads out of
// bounds (every access goes through the span-bounded ByteReader or a
// memcpy inside a validated column span), and rejects trailing bytes — so
// next_page() after a successful open() is infallible, and an accepted
// snapshot re-encodes to the identical byte string (canonical form).
//
// Format v2 (DESIGN.md §15) appends a CRC-64/XZ footer — 4-byte magic
// "OCSF" plus the big-endian CRC of everything before it — which open()
// verifies before parsing a single header byte. A torn or bit-flipped
// shard file is therefore detected up front and surfaces as a Result
// error ("checksum mismatch"), never as silently wrong timeline data; the
// streaming pipeline quarantines such shards and regenerates them from
// their site range (dataset/corpus.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dataset/corpus.h"
#include "util/bytes.h"
#include "util/result.h"
#include "web/har.h"

namespace origin::dataset {

// Format constants, shared by writer, reader, and the fuzz driver.
inline constexpr char kSnapshotMagic[4] = {'O', 'C', 'S', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint8_t kSnapshotLittleEndianPayload = 1;
inline constexpr std::size_t kSnapshotMaxSymbolBytes = 4'096;
inline constexpr std::size_t kSnapshotColumnCount = 30;

// Integrity footer (v2): magic + big-endian CRC-64/XZ over every byte that
// precedes the footer. Verified before any header parsing.
inline constexpr char kSnapshotFooterMagic[4] = {'O', 'C', 'S', 'F'};
inline constexpr std::size_t kSnapshotFooterBytes = 12;

// Entry flag bits (the packed bool column). Any bit outside the mask makes
// a snapshot invalid.
inline constexpr std::uint8_t kSnapshotFlagSecure = 1u << 0;
inline constexpr std::uint8_t kSnapshotFlagNewDns = 1u << 1;
inline constexpr std::uint8_t kSnapshotFlagNewTls = 1u << 2;
inline constexpr std::uint8_t kSnapshotFlagSpeculative = 1u << 3;
inline constexpr std::uint8_t kSnapshotFlagStatus421 = 1u << 4;
inline constexpr std::uint8_t kSnapshotFlagMask = 0x1F;

// Serializes the shard. The byte string is canonical: symbols appear in
// first-appearance (id) order and columns in fixed tag order, so
// encode(decode(encode(x))) == encode(x).
util::Bytes encode_snapshot(const TimelineColumns& columns);
// The same bytes; also stores the payload CRC the footer holds in
// *payload_crc64, so the caller need not hash the buffer again.
util::Bytes encode_snapshot(const TimelineColumns& columns,
                            std::uint64_t* payload_crc64);

// CRC-64/XZ of the payload, every byte before the footer: the value a
// valid footer holds. Total; bytes shorter than a footer have an empty
// payload.
std::uint64_t snapshot_payload_crc64(std::span<const std::uint8_t> bytes);

// util::crc64(bytes), the whole-file CRC a shard is journaled under
// (ShardInfo::content_crc64), from its payload CRC. CRC-64 chains
// (crc64(b, crc64(a)) == crc64(a + b)), so only the footer bytes are
// folded on and each path hashes the payload once.
std::uint64_t snapshot_content_crc64(std::span<const std::uint8_t> bytes,
                                     std::uint64_t payload_crc64);

// Streaming decoder over an encoded snapshot. Non-owning: `bytes` must
// outlive the reader (shard buffers / mapped files stay alive for exactly
// one shard in the pipeline).
class SnapshotReader {
 public:
  [[nodiscard]] static util::Result<SnapshotReader> open(
      std::span<const std::uint8_t> bytes);
  // As open(bytes), but the footer is checked against `payload_crc64`, the
  // caller's snapshot_payload_crc64(bytes), instead of a second pass.
  [[nodiscard]] static util::Result<SnapshotReader> open(
      std::span<const std::uint8_t> bytes, std::uint64_t payload_crc64);

  const ShardMeta& meta() const { return meta_; }

  // Materializes the next page into `out` (reusing its capacity where the
  // standard library allows). Returns false once all pages are consumed.
  bool next_page(web::PageLoad* out);
  void rewind();

 private:
  SnapshotReader() = default;

  // Typed access into a validated column span. Index bounds were checked
  // against meta_ row counts at open(), so these are pure loads.
  template <typename T>
  T column(std::size_t tag, std::size_t row) const;

  ShardMeta meta_;
  std::vector<std::string> symbols_;
  // One validated payload span per column tag, in tag order.
  std::vector<std::span<const std::uint8_t>> columns_;

  std::size_t page_cursor_ = 0;
  std::size_t entry_cursor_ = 0;
  std::size_t answer_cursor_ = 0;
};

// Shard file IO. Paths name regular files inside the pipeline's spill
// directory; all are total (errors come back as Status/Result, never
// exceptions). Writes are crash-consistent: they funnel through
// util::durable_write_file (temp → fsync → rename commit), so a killed run
// leaves either the complete shard or a swept-on-startup `.tmp`, never a
// torn `.ocs`.
[[nodiscard]] util::Status write_shard_file(
    const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] util::Result<util::Bytes> read_shard_file(
    const std::string& path);
[[nodiscard]] util::Status remove_shard_file(const std::string& path);

// Shard path naming: <dir>/shard_<index 6 digits>.ocs
std::string shard_file_path(const std::string& dir, std::size_t index);

// Quarantine path for a shard whose bytes failed CRC/format validation:
// <dir>/quarantine/shard_<index 6 digits>.ocs
std::string quarantine_file_path(const std::string& dir, std::size_t index);

}  // namespace origin::dataset
