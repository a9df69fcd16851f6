#include "dataset/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "util/durable_file.h"
#include "util/hash.h"
#include "util/hot_path.h"
#include "web/resource.h"

namespace origin::dataset {

namespace {

// Column tags, in wire order. The reader rejects any other order, which is
// what makes an accepted snapshot canonical.
enum Tag : std::size_t {
  kEntryResourceIndex = 0,
  kEntryHostSym,
  kEntryAddrFamily,
  kEntryAddrValue,
  kEntryAnswerCount,
  kEntryAsn,
  kEntryVersion,
  kEntryMode,
  kEntryContentType,
  kEntryFlags,
  kEntryStartUs,
  kEntryBlockedUs,
  kEntryDnsUs,
  kEntryConnectUs,
  kEntrySslUs,
  kEntrySendUs,
  kEntryWaitUs,
  kEntryReceiveUs,
  kEntryConnectionId,
  kEntryCertSerial,
  kEntryIssuerSym,
  kEntrySanCount,
  kAnswerFamily,
  kAnswerValue,
  kPageRank,
  kPageBaseSym,
  kPageSuccess,
  kPageEntryCount,
  kPageExtraDns,
  kPageExtraTls,
};

enum class Rows : std::uint8_t { kEntry, kAnswer, kPage };

struct ColumnSpec {
  std::size_t elem_size;
  Rows rows;
};

constexpr ColumnSpec kColumnSpecs[kSnapshotColumnCount] = {
    {4, Rows::kEntry},   // resource_index  i32
    {4, Rows::kEntry},   // host_sym        u32
    {1, Rows::kEntry},   // addr_family     u8
    {8, Rows::kEntry},   // addr_value      u64
    {2, Rows::kEntry},   // answer_count    u16
    {4, Rows::kEntry},   // asn             u32
    {1, Rows::kEntry},   // version         u8
    {1, Rows::kEntry},   // mode            u8
    {1, Rows::kEntry},   // content_type    u8
    {1, Rows::kEntry},   // flags           u8
    {8, Rows::kEntry},   // start_us        i64
    {8, Rows::kEntry},   // blocked_us      i64
    {8, Rows::kEntry},   // dns_us          i64
    {8, Rows::kEntry},   // connect_us      i64
    {8, Rows::kEntry},   // ssl_us          i64
    {8, Rows::kEntry},   // send_us         i64
    {8, Rows::kEntry},   // wait_us         i64
    {8, Rows::kEntry},   // receive_us      i64
    {8, Rows::kEntry},   // connection_id   u64
    {8, Rows::kEntry},   // cert_serial     u64
    {4, Rows::kEntry},   // issuer_sym      u32
    {8, Rows::kEntry},   // san_count       i64
    {1, Rows::kAnswer},  // answer_family   u8
    {8, Rows::kAnswer},  // answer_value    u64
    {8, Rows::kPage},    // rank            u64
    {4, Rows::kPage},    // base_sym        u32
    {1, Rows::kPage},    // success         u8
    {4, Rows::kPage},    // entry_count     u32
    {8, Rows::kPage},    // extra_dns       u64
    {8, Rows::kPage},    // extra_tls       u64
};

std::uint64_t rows_for(Rows rows, const ShardMeta& meta) {
  switch (rows) {
    case Rows::kEntry:
      return meta.entries;
    case Rows::kAnswer:
      return meta.answers;
    case Rows::kPage:
      return meta.pages;
  }
  return 0;
}

template <typename T>
void write_column(util::ByteWriter& writer, std::size_t tag,
                  const util::ArenaColumn<T>& column) {
  writer.u8(static_cast<std::uint8_t>(tag));
  writer.u64(static_cast<std::uint64_t>(column.size() * sizeof(T)));
  column.for_each_span([&writer](std::span<const T> span) {
    writer.raw(span.data(), span.size_bytes());
  });
}

// Unaligned typed load out of a validated column payload.
template <typename T>
ORIGIN_HOT T load_at(std::span<const std::uint8_t> column, std::size_t row) {
  T value;
  std::memcpy(&value, column.data() + row * sizeof(T), sizeof(T));
  return value;
}

// True when every row is < limit — the one shape all range validation
// takes, since every valid domain here is a contiguous [0, limit) range.
template <typename T>
ORIGIN_HOT bool rows_below(std::span<const std::uint8_t> column,
                           std::size_t rows, std::uint64_t limit) {
  for (std::size_t i = 0; i < rows; ++i) {
    if (load_at<T>(column, i) >= limit) return false;
  }
  return true;
}

template <typename T>
ORIGIN_HOT std::uint64_t rows_sum(std::span<const std::uint8_t> column,
                                  std::size_t rows) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < rows; ++i) sum += load_at<T>(column, i);
  return sum;
}

util::Error snapshot_error(const char* what) {
  // analyze:allow(hot-transitive): error messages are built only when a
  // snapshot is rejected, never in the steady-state decode loop; the hot
  // chain is a by-name match of SnapshotReader::open against an unrelated
  // open() call in the h2 server.
  return util::make_error(std::string("snapshot: ") + what);
}

}  // namespace

util::Bytes encode_snapshot(const TimelineColumns& columns) {
  std::uint64_t payload_crc64 = 0;
  return encode_snapshot(columns, &payload_crc64);
}

util::Bytes encode_snapshot(const TimelineColumns& columns,
                            std::uint64_t* payload_crc64) {
  const ShardMeta meta = columns.meta();
  util::ByteWriter writer(64 + static_cast<std::size_t>(meta.symbols) * 24 +
                          static_cast<std::size_t>(meta.entries) * 128 +
                          static_cast<std::size_t>(meta.answers) * 9 +
                          static_cast<std::size_t>(meta.pages) * 33 + 512 +
                          kSnapshotFooterBytes);
  writer.raw(std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic)));
  writer.u32(kSnapshotVersion);
  writer.u8(std::endian::native == std::endian::little
                ? kSnapshotLittleEndianPayload
                : kSnapshotLittleEndianPayload + 1);
  writer.u64(meta.shard_index);
  writer.u64(meta.corpus_seed);
  writer.u64(meta.first_site);
  writer.u64(meta.pages);
  writer.u64(meta.entries);
  writer.u64(meta.answers);
  writer.u32(meta.symbols);
  for (std::uint32_t i = 0; i < meta.symbols; ++i) {
    const std::string_view name = columns.symbol(i);
    writer.u32(static_cast<std::uint32_t>(name.size()));
    writer.raw(name);
  }
  write_column(writer, kEntryResourceIndex, columns.entry_resource_index_);
  write_column(writer, kEntryHostSym, columns.entry_host_sym_);
  write_column(writer, kEntryAddrFamily, columns.entry_addr_family_);
  write_column(writer, kEntryAddrValue, columns.entry_addr_value_);
  write_column(writer, kEntryAnswerCount, columns.entry_answer_count_);
  write_column(writer, kEntryAsn, columns.entry_asn_);
  write_column(writer, kEntryVersion, columns.entry_version_);
  write_column(writer, kEntryMode, columns.entry_mode_);
  write_column(writer, kEntryContentType, columns.entry_content_type_);
  write_column(writer, kEntryFlags, columns.entry_flags_);
  write_column(writer, kEntryStartUs, columns.entry_start_us_);
  write_column(writer, kEntryBlockedUs, columns.entry_blocked_us_);
  write_column(writer, kEntryDnsUs, columns.entry_dns_us_);
  write_column(writer, kEntryConnectUs, columns.entry_connect_us_);
  write_column(writer, kEntrySslUs, columns.entry_ssl_us_);
  write_column(writer, kEntrySendUs, columns.entry_send_us_);
  write_column(writer, kEntryWaitUs, columns.entry_wait_us_);
  write_column(writer, kEntryReceiveUs, columns.entry_receive_us_);
  write_column(writer, kEntryConnectionId, columns.entry_connection_id_);
  write_column(writer, kEntryCertSerial, columns.entry_cert_serial_);
  write_column(writer, kEntryIssuerSym, columns.entry_issuer_sym_);
  write_column(writer, kEntrySanCount, columns.entry_san_count_);
  write_column(writer, kAnswerFamily, columns.answer_family_);
  write_column(writer, kAnswerValue, columns.answer_value_);
  write_column(writer, kPageRank, columns.page_rank_);
  write_column(writer, kPageBaseSym, columns.page_base_sym_);
  write_column(writer, kPageSuccess, columns.page_success_);
  write_column(writer, kPageEntryCount, columns.page_entry_count_);
  write_column(writer, kPageExtraDns, columns.page_extra_dns_);
  write_column(writer, kPageExtraTls, columns.page_extra_tls_);
  // Integrity footer: CRC-64/XZ over every byte written so far. Appended
  // last so the file's own tail proves the whole payload intact.
  *payload_crc64 = util::crc64(writer.bytes());
  writer.raw(std::string_view(kSnapshotFooterMagic,
                              sizeof(kSnapshotFooterMagic)));
  writer.u64(*payload_crc64);
  return writer.take();
}

std::uint64_t snapshot_payload_crc64(std::span<const std::uint8_t> bytes) {
  return util::crc64(
      bytes.first(bytes.size() - std::min(bytes.size(), kSnapshotFooterBytes)));
}

std::uint64_t snapshot_content_crc64(std::span<const std::uint8_t> bytes,
                                     std::uint64_t payload_crc64) {
  return util::crc64(
      bytes.last(std::min(bytes.size(), kSnapshotFooterBytes)), payload_crc64);
}

util::Result<SnapshotReader> SnapshotReader::open(
    std::span<const std::uint8_t> bytes) {
  return open(bytes, snapshot_payload_crc64(bytes));
}

util::Result<SnapshotReader> SnapshotReader::open(
    std::span<const std::uint8_t> bytes, std::uint64_t payload_crc64) {
  if (std::endian::native != std::endian::little) {
    return snapshot_error("big-endian hosts are not supported");
  }
  // Integrity first: the CRC footer is verified before a single header
  // byte is interpreted, so a torn or bit-flipped shard is rejected as
  // corrupt up front — its contents are never read as data.
  if (bytes.size() < kSnapshotFooterBytes) {
    return snapshot_error("missing footer");
  }
  const std::span<const std::uint8_t> payload =
      bytes.first(bytes.size() - kSnapshotFooterBytes);
  const std::span<const std::uint8_t> footer =
      bytes.last(kSnapshotFooterBytes);
  if (std::memcmp(footer.data(), kSnapshotFooterMagic,
                  sizeof(kSnapshotFooterMagic)) != 0) {
    return snapshot_error("bad footer magic (torn or trailing bytes)");
  }
  util::ByteReader footer_reader(footer.subspan(sizeof(kSnapshotFooterMagic)));
  if (footer_reader.u64() != payload_crc64) {
    return snapshot_error("checksum mismatch (torn or corrupt shard)");
  }
  util::ByteReader reader(payload);
  const auto magic = reader.raw(sizeof(kSnapshotMagic));
  if (!reader.ok() ||
      std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return snapshot_error("bad magic");
  }
  if (reader.u32() != kSnapshotVersion) {
    return snapshot_error("unsupported version");
  }
  if (reader.u8() != kSnapshotLittleEndianPayload) {
    return snapshot_error("payload endianness mismatch");
  }

  SnapshotReader out;
  out.meta_.shard_index = reader.u64();
  out.meta_.corpus_seed = reader.u64();
  out.meta_.first_site = reader.u64();
  out.meta_.pages = reader.u64();
  out.meta_.entries = reader.u64();
  out.meta_.answers = reader.u64();
  out.meta_.symbols = reader.u32();
  if (!reader.ok()) return snapshot_error("truncated header");
  // Row counts stay far below 2^32 in practice; the cap keeps the
  // rows * elem_size products away from overflow on any input.
  constexpr std::uint64_t kMaxRows = std::uint64_t{1} << 32;
  if (out.meta_.pages > kMaxRows || out.meta_.entries > kMaxRows ||
      out.meta_.answers > kMaxRows) {
    return snapshot_error("row count exceeds format limit");
  }

  out.symbols_.reserve(out.meta_.symbols);
  for (std::uint32_t i = 0; i < out.meta_.symbols; ++i) {
    const std::uint32_t length = reader.u32();
    if (!reader.ok() || length > kSnapshotMaxSymbolBytes) {
      return snapshot_error("bad symbol table");
    }
    out.symbols_.push_back(reader.str(length));
  }
  if (!reader.ok()) return snapshot_error("truncated symbol table");

  out.columns_.resize(kSnapshotColumnCount);
  for (std::size_t tag = 0; tag < kSnapshotColumnCount; ++tag) {
    if (reader.u8() != tag) return snapshot_error("column order");
    const std::uint64_t byte_length = reader.u64();
    const ColumnSpec& spec = kColumnSpecs[tag];
    if (byte_length != rows_for(spec.rows, out.meta_) * spec.elem_size) {
      return snapshot_error("column length mismatch");
    }
    out.columns_[tag] = reader.raw(static_cast<std::size_t>(byte_length));
  }
  if (!reader.ok()) return snapshot_error("truncated columns");
  if (!reader.at_end()) return snapshot_error("trailing bytes");

  // Semantic validation: every cross-reference and enum range is checked
  // here, once, so next_page() is infallible afterwards.
  const std::size_t pages = static_cast<std::size_t>(out.meta_.pages);
  const std::size_t entries = static_cast<std::size_t>(out.meta_.entries);
  if (rows_sum<std::uint32_t>(out.columns_[kPageEntryCount], pages) !=
      out.meta_.entries) {
    return snapshot_error("page entry counts do not sum to entry rows");
  }
  if (rows_sum<std::uint16_t>(out.columns_[kEntryAnswerCount], entries) !=
      out.meta_.answers) {
    return snapshot_error("answer counts do not sum to answer rows");
  }
  const std::uint64_t symbols = out.meta_.symbols;
  if (!rows_below<std::uint32_t>(out.columns_[kPageBaseSym], pages,
                                 symbols) ||
      !rows_below<std::uint32_t>(out.columns_[kEntryHostSym], entries,
                                 symbols) ||
      !rows_below<std::uint32_t>(out.columns_[kEntryIssuerSym], entries,
                                 symbols)) {
    return snapshot_error("symbol reference out of range");
  }
  const std::size_t answers = static_cast<std::size_t>(out.meta_.answers);
  if (!rows_below<std::uint8_t>(out.columns_[kEntryAddrFamily], entries, 2) ||
      !rows_below<std::uint8_t>(out.columns_[kAnswerFamily], answers, 2)) {
    return snapshot_error("bad address family");
  }
  if (!rows_below<std::uint8_t>(
          out.columns_[kEntryVersion], entries,
          static_cast<std::uint64_t>(web::HttpVersion::kUnknown) + 1) ||
      !rows_below<std::uint8_t>(
          out.columns_[kEntryMode], entries,
          static_cast<std::uint64_t>(web::RequestMode::kFetchApi) + 1) ||
      !rows_below<std::uint8_t>(
          out.columns_[kEntryContentType], entries,
          static_cast<std::uint64_t>(web::ContentType::kOther) + 1)) {
    return snapshot_error("enum value out of range");
  }
  if (!rows_below<std::uint8_t>(out.columns_[kEntryFlags], entries,
                                std::uint64_t{kSnapshotFlagMask} + 1)) {
    return snapshot_error("unknown entry flag bit");
  }
  if (!rows_below<std::uint8_t>(out.columns_[kPageSuccess], pages, 2)) {
    return snapshot_error("bad success value");
  }
  return out;
}

template <typename T>
T SnapshotReader::column(std::size_t tag, std::size_t row) const {
  return load_at<T>(columns_[tag], row);
}

bool SnapshotReader::next_page(web::PageLoad* out) {
  if (page_cursor_ >= meta_.pages) return false;
  const std::size_t page = page_cursor_++;
  out->tranco_rank = column<std::uint64_t>(kPageRank, page);
  out->base_hostname = symbols_[column<std::uint32_t>(kPageBaseSym, page)];
  out->success = column<std::uint8_t>(kPageSuccess, page) != 0;
  out->extra_dns_queries = static_cast<std::size_t>(
      column<std::uint64_t>(kPageExtraDns, page));
  out->extra_tls_connections = static_cast<std::size_t>(
      column<std::uint64_t>(kPageExtraTls, page));

  const std::size_t count = column<std::uint32_t>(kPageEntryCount, page);
  out->entries.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    web::HarEntry& entry = out->entries[i];
    const std::size_t row = entry_cursor_++;
    entry.resource_index =
        static_cast<int>(column<std::int32_t>(kEntryResourceIndex, row));
    entry.hostname = symbols_[column<std::uint32_t>(kEntryHostSym, row)];
    entry.server_address.family = static_cast<dns::Family>(
        column<std::uint8_t>(kEntryAddrFamily, row));
    entry.server_address.value = column<std::uint64_t>(kEntryAddrValue, row);
    const std::size_t answer_count =
        column<std::uint16_t>(kEntryAnswerCount, row);
    entry.dns_answer_set.resize(answer_count);
    for (dns::IpAddress& address : entry.dns_answer_set) {
      address.family = static_cast<dns::Family>(
          column<std::uint8_t>(kAnswerFamily, answer_cursor_));
      address.value = column<std::uint64_t>(kAnswerValue, answer_cursor_);
      ++answer_cursor_;
    }
    entry.asn = column<std::uint32_t>(kEntryAsn, row);
    entry.version = static_cast<web::HttpVersion>(
        column<std::uint8_t>(kEntryVersion, row));
    entry.mode = static_cast<web::RequestMode>(
        column<std::uint8_t>(kEntryMode, row));
    entry.content_type = static_cast<web::ContentType>(
        column<std::uint8_t>(kEntryContentType, row));
    const std::uint8_t flags = column<std::uint8_t>(kEntryFlags, row);
    entry.secure = (flags & kSnapshotFlagSecure) != 0;
    entry.new_dns_query = (flags & kSnapshotFlagNewDns) != 0;
    entry.new_tls_connection = (flags & kSnapshotFlagNewTls) != 0;
    entry.speculative_duplicate = (flags & kSnapshotFlagSpeculative) != 0;
    entry.status_421 = (flags & kSnapshotFlagStatus421) != 0;
    entry.start = util::SimTime::from_micros(
        column<std::int64_t>(kEntryStartUs, row));
    entry.timings.blocked =
        util::Duration::micros(column<std::int64_t>(kEntryBlockedUs, row));
    entry.timings.dns =
        util::Duration::micros(column<std::int64_t>(kEntryDnsUs, row));
    entry.timings.connect =
        util::Duration::micros(column<std::int64_t>(kEntryConnectUs, row));
    entry.timings.ssl =
        util::Duration::micros(column<std::int64_t>(kEntrySslUs, row));
    entry.timings.send =
        util::Duration::micros(column<std::int64_t>(kEntrySendUs, row));
    entry.timings.wait =
        util::Duration::micros(column<std::int64_t>(kEntryWaitUs, row));
    entry.timings.receive =
        util::Duration::micros(column<std::int64_t>(kEntryReceiveUs, row));
    entry.connection_id = column<std::uint64_t>(kEntryConnectionId, row);
    entry.cert_serial = column<std::uint64_t>(kEntryCertSerial, row);
    entry.cert_issuer = symbols_[column<std::uint32_t>(kEntryIssuerSym, row)];
    entry.cert_san_count = column<std::int64_t>(kEntrySanCount, row);
  }
  return true;
}

void SnapshotReader::rewind() {
  page_cursor_ = 0;
  entry_cursor_ = 0;
  answer_cursor_ = 0;
}

util::Status write_shard_file(const std::string& path,
                              std::span<const std::uint8_t> bytes) {
  // Commit-by-rename (util/durable_file): a crash mid-write leaves a
  // `.tmp`, never a torn `.ocs` under the final name.
  return util::durable_write_file(path, bytes);
}

util::Result<util::Bytes> read_shard_file(const std::string& path) {
  return util::read_file(path);
}

util::Status remove_shard_file(const std::string& path) {
  return util::remove_file(path);
}

std::string shard_file_path(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%06zu.ocs", index);
  return dir + "/" + name;
}

std::string quarantine_file_path(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%06zu.ocs", index);
  return dir + "/quarantine/" + name;
}

}  // namespace origin::dataset
