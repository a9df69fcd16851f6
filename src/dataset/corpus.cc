#include "dataset/corpus.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "dataset/collector.h"
#include "dataset/snapshot.h"
#include "model/coalescing_model.h"
#include "util/crash.h"
#include "util/hash.h"
#include "util/hot_path.h"
#include "util/thread_pool.h"
#include "web/har_json.h"

namespace origin::dataset {

namespace {

// Recognizes `shard_NNNNNN.ocs` spill files and extracts the index, so the
// spill-dir sweep can tell journaled shards from stale leftovers.
bool parse_shard_filename(const std::string& name, std::uint64_t* index) {
  constexpr std::string_view kPrefix = "shard_";
  constexpr std::string_view kSuffix = ".ocs";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = kPrefix.size(); i < name.size() - kSuffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

// Deletes every `*.ocs` directly inside `dir` (fresh-start hygiene for the
// quarantine subdirectory). Missing directory is zero.
std::size_t sweep_shard_files(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::uint64_t index = 0;
    if (!parse_shard_filename(entry.path().filename().string(), &index)) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) ++removed;
  }
  return removed;
}

// Shared per-page aggregation between the streamed and materialized paths.
// The three folds write disjoint StreamStats fields, so analyze() gives the
// measured and reconstructed folds an Aggregator each, one per lane, and
// takes their fields with take_lanes() once both lanes are joined.
struct Aggregator {
  StreamStats stats;

  void measured(const web::PageLoad& load) {
    stats.pages += 1;
    stats.entries += load.entries.size();
    stats.measured_dns += load.dns_query_count();
    stats.measured_tls += load.tls_connection_count();
    stats.measured_validations += load.certificate_validation_count();
    stats.measured_plt_us += load.page_load_time().count_micros();
    stats.measured_digest = web::har_digest(load, stats.measured_digest);
  }

  void analyzed(const model::PageAnalysis& analysis) {
    stats.ideal_origin_dns += analysis.ideal_origin_dns;
    stats.ideal_origin_tls += analysis.ideal_origin_tls;
    stats.ideal_origin_validations += analysis.ideal_origin_validations;
    stats.ideal_ip_dns += analysis.ideal_ip_dns;
    stats.ideal_ip_tls += analysis.ideal_ip_tls;
  }

  void reconstructed(const web::PageLoad& load) {
    stats.reconstructed_plt_us += load.page_load_time().count_micros();
    stats.reconstructed_digest =
        web::har_digest(load, stats.reconstructed_digest);
  }

  void take_lanes(const Aggregator& measured_lane,
                  const Aggregator& reconstructed_lane) {
    const StreamStats& m = measured_lane.stats;
    stats.pages = m.pages;
    stats.entries = m.entries;
    stats.measured_dns = m.measured_dns;
    stats.measured_tls = m.measured_tls;
    stats.measured_validations = m.measured_validations;
    stats.measured_plt_us = m.measured_plt_us;
    stats.measured_digest = m.measured_digest;
    stats.reconstructed_plt_us = reconstructed_lane.stats.reconstructed_plt_us;
    stats.reconstructed_digest = reconstructed_lane.stats.reconstructed_digest;
  }
};

}  // namespace

// --- TimelineColumns ------------------------------------------------------

TimelineColumns::TimelineColumns()
    : entry_resource_index_(arena_),
      entry_host_sym_(arena_),
      entry_addr_family_(arena_),
      entry_addr_value_(arena_),
      entry_answer_count_(arena_),
      entry_asn_(arena_),
      entry_version_(arena_),
      entry_mode_(arena_),
      entry_content_type_(arena_),
      entry_flags_(arena_),
      entry_start_us_(arena_),
      entry_blocked_us_(arena_),
      entry_dns_us_(arena_),
      entry_connect_us_(arena_),
      entry_ssl_us_(arena_),
      entry_send_us_(arena_),
      entry_wait_us_(arena_),
      entry_receive_us_(arena_),
      entry_connection_id_(arena_),
      entry_cert_serial_(arena_),
      entry_issuer_sym_(arena_),
      entry_san_count_(arena_),
      answer_family_(arena_),
      answer_value_(arena_),
      page_rank_(arena_),
      page_base_sym_(arena_),
      page_success_(arena_),
      page_entry_count_(arena_),
      page_extra_dns_(arena_),
      page_extra_tls_(arena_) {}

void TimelineColumns::set_identity(std::uint64_t shard_index,
                                   std::uint64_t corpus_seed,
                                   std::uint64_t first_site) {
  shard_index_ = shard_index;
  corpus_seed_ = corpus_seed;
  first_site_ = first_site;
}

std::uint32_t TimelineColumns::intern(std::string_view name) {
  if (const std::uint32_t* id = symbol_index_.find(name)) return *id;
  const std::uint32_t id = static_cast<std::uint32_t>(symbol_names_.size());
  // analyze:allow(hot-transitive): the symbol table grows once per unique
  // hostname per shard, in the cold append_page wrapper — never inside the
  // HOT row appends; the reported hot chain is a by-name match of intern()
  // against the coalescing model's unrelated interner.
  symbol_names_.emplace_back(name);
  // analyze:allow(hot-transitive): same false chain as above — the index
  // grows once per unique hostname per shard in this cold wrapper only.
  symbol_index_.emplace(symbol_names_.back(), id);
  return id;
}

ORIGIN_HOT void TimelineColumns::append_page_row(const web::PageLoad& load,
                                                 std::uint32_t base_sym) {
  page_rank_.put(load.tranco_rank);
  page_base_sym_.put(base_sym);
  page_success_.put(load.success ? 1 : 0);
  page_entry_count_.put(static_cast<std::uint32_t>(load.entries.size()));
  page_extra_dns_.put(static_cast<std::uint64_t>(load.extra_dns_queries));
  page_extra_tls_.put(static_cast<std::uint64_t>(load.extra_tls_connections));
}

ORIGIN_HOT void TimelineColumns::append_entry_row(const web::HarEntry& entry,
                                                  std::uint32_t host_sym,
                                                  std::uint32_t issuer_sym) {
  entry_resource_index_.put(static_cast<std::int32_t>(entry.resource_index));
  entry_host_sym_.put(host_sym);
  entry_addr_family_.put(
      static_cast<std::uint8_t>(entry.server_address.family));
  entry_addr_value_.put(entry.server_address.value);
  entry_answer_count_.put(
      static_cast<std::uint16_t>(entry.dns_answer_set.size()));
  entry_asn_.put(entry.asn);
  entry_version_.put(static_cast<std::uint8_t>(entry.version));
  entry_mode_.put(static_cast<std::uint8_t>(entry.mode));
  entry_content_type_.put(static_cast<std::uint8_t>(entry.content_type));
  std::uint8_t flags = 0;
  if (entry.secure) flags |= kSnapshotFlagSecure;
  if (entry.new_dns_query) flags |= kSnapshotFlagNewDns;
  if (entry.new_tls_connection) flags |= kSnapshotFlagNewTls;
  if (entry.speculative_duplicate) flags |= kSnapshotFlagSpeculative;
  if (entry.status_421) flags |= kSnapshotFlagStatus421;
  entry_flags_.put(flags);
  entry_start_us_.put(entry.start.micros());
  entry_blocked_us_.put(entry.timings.blocked.count_micros());
  entry_dns_us_.put(entry.timings.dns.count_micros());
  entry_connect_us_.put(entry.timings.connect.count_micros());
  entry_ssl_us_.put(entry.timings.ssl.count_micros());
  entry_send_us_.put(entry.timings.send.count_micros());
  entry_wait_us_.put(entry.timings.wait.count_micros());
  entry_receive_us_.put(entry.timings.receive.count_micros());
  entry_connection_id_.put(entry.connection_id);
  entry_cert_serial_.put(entry.cert_serial);
  entry_issuer_sym_.put(issuer_sym);
  entry_san_count_.put(entry.cert_san_count);
  for (const dns::IpAddress& address : entry.dns_answer_set) {
    answer_family_.put(static_cast<std::uint8_t>(address.family));
    answer_value_.put(address.value);
  }
}

void TimelineColumns::append_page(const web::PageLoad& load) {
  append_page_row(load, intern(load.base_hostname));
  for (const web::HarEntry& entry : load.entries) {
    append_entry_row(entry, intern(entry.hostname),
                     intern(entry.cert_issuer));
  }
}

void TimelineColumns::clear() {
  entry_resource_index_.clear();
  entry_host_sym_.clear();
  entry_addr_family_.clear();
  entry_addr_value_.clear();
  entry_answer_count_.clear();
  entry_asn_.clear();
  entry_version_.clear();
  entry_mode_.clear();
  entry_content_type_.clear();
  entry_flags_.clear();
  entry_start_us_.clear();
  entry_blocked_us_.clear();
  entry_dns_us_.clear();
  entry_connect_us_.clear();
  entry_ssl_us_.clear();
  entry_send_us_.clear();
  entry_wait_us_.clear();
  entry_receive_us_.clear();
  entry_connection_id_.clear();
  entry_cert_serial_.clear();
  entry_issuer_sym_.clear();
  entry_san_count_.clear();
  answer_family_.clear();
  answer_value_.clear();
  page_rank_.clear();
  page_base_sym_.clear();
  page_success_.clear();
  page_entry_count_.clear();
  page_extra_dns_.clear();
  page_extra_tls_.clear();
  symbol_names_.clear();
  symbol_index_.clear();
  arena_.reset();
}

ShardMeta TimelineColumns::meta() const {
  ShardMeta meta;
  meta.shard_index = shard_index_;
  meta.corpus_seed = corpus_seed_;
  meta.first_site = first_site_;
  meta.pages = page_rank_.size();
  meta.entries = entry_start_us_.size();
  meta.answers = answer_value_.size();
  meta.symbols = static_cast<std::uint32_t>(symbol_names_.size());
  return meta;
}

// --- StreamingCorpus ------------------------------------------------------

StreamingCorpus::StreamingCorpus(Corpus& corpus, StreamingOptions options)
    : corpus_(corpus), options_(std::move(options)) {
  if (!options_.resume) {
    const char* env = std::getenv("ORIGIN_RESUME");
    options_.resume = env != nullptr && env[0] == '1';
  }
  build_eligible();
}

void StreamingCorpus::build_eligible() {
  // Mirrors collect(): the work list is decided from corpus state alone.
  for (std::size_t i = 0; i < corpus_.sites().size(); ++i) {
    if (!corpus_.sites()[i].crawl_succeeded) continue;
    if (options_.max_sites != 0 && eligible_.size() >= options_.max_sites) {
      break;
    }
    eligible_.push_back(i);
  }
}

std::size_t StreamingCorpus::resolved_per_shard() const {
  std::size_t per_shard = options_.sites_per_shard;
  if (options_.shard_count != 0) {
    per_shard = (eligible_.size() + options_.shard_count - 1) /
                options_.shard_count;
  }
  return std::max<std::size_t>(per_shard, 1);
}

std::size_t StreamingCorpus::shard_site_count(std::size_t first_site) const {
  return std::min(resolved_per_shard(), eligible_.size() - first_site);
}

std::uint64_t StreamingCorpus::config_digest() const {
  // Everything here changes the bytes of every shard, so a mismatch means
  // nothing in the old spill directory is reusable. Environment shape
  // (link/handshake/resolver params) folds in through the corpus seed,
  // which fixes the synthesized world those models act on.
  util::ByteWriter writer(128);
  writer.u64(corpus_.options().seed);
  writer.u64(eligible_.size());
  writer.u64(resolved_per_shard());
  const browser::LoaderOptions& loader = options_.loader;
  writer.raw(loader.policy);
  writer.u64(loader.seed);
  writer.u64(loader.first_connection_id);
  writer.u64(std::bit_cast<std::uint64_t>(loader.happy_eyeballs_extra_dns));
  writer.u64(std::bit_cast<std::uint64_t>(loader.speculative_extra_connection));
  writer.u64(std::bit_cast<std::uint64_t>(loader.misdirected_rate));
  writer.u8(loader.fresh_session ? 1 : 0);
  writer.raw(loader.network_tag);
  return util::crc64(writer.bytes());
}

util::Status StreamingCorpus::prepare_spill_dir(
    util::FlatMap<std::uint64_t, ManifestRecord>* completed) {
  const std::string& dir = options_.spill_dir;
  const std::string quarantine_dir = dir + "/quarantine";

  // Torn temps first: anything `.tmp` is a crashed write that never
  // committed; the resume logic must never see one.
  auto swept = util::sweep_stale_temps(dir);
  if (!swept.ok()) return swept.error();
  recovery_.stale_temps_swept += swept.value();
  auto swept_quarantine = util::sweep_stale_temps(quarantine_dir);
  if (!swept_quarantine.ok()) return swept_quarantine.error();
  recovery_.stale_temps_swept += swept_quarantine.value();

  const std::size_t per_shard = resolved_per_shard();
  ManifestHeader expected;
  expected.config_digest = config_digest();
  expected.corpus_seed = corpus_.options().seed;
  expected.eligible_sites = eligible_.size();
  expected.sites_per_shard = per_shard;
  expected.shard_total = (eligible_.size() + per_shard - 1) / per_shard;

  const std::string journal = manifest_file_path(dir);
  bool replayed = false;
  if (options_.resume) {
    auto bytes = util::read_file(journal);
    if (bytes.ok()) {
      auto parsed = read_manifest(bytes.value());
      if (parsed.ok() && parsed->header == expected) {
        replayed = true;
        recovery_.manifest_records_replayed += parsed->records.size();
        recovery_.manifest_tail_bytes_dropped += parsed->tail_bytes_dropped;
        *completed = parsed->latest_records();
        if (parsed->tail_bytes_dropped != 0) {
          // Rewrite the journal to its validated prefix (rename-commit) so
          // new appends start on a record boundary, not after a torn frame.
          const std::span<const std::uint8_t> prefix(
              bytes.value().data(),
              bytes.value().size() - parsed->tail_bytes_dropped);
          auto truncated = util::durable_write_file(journal, prefix);
          if (!truncated.ok()) return truncated;
        }
      } else {
        // Corrupt header or a different run configuration: nothing in the
        // journal is trustworthy for this run. Start fresh.
        recovery_.manifest_resets += 1;
      }
    }
  }

  // Sweep shard files the journal does not vouch for: everything on a
  // fresh start, and on resume any file outside the replayed record set
  // (e.g. a post-rename orphan whose manifest append never ran).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::uint64_t index = 0;
    if (!parse_shard_filename(entry.path().filename().string(), &index)) {
      continue;
    }
    if (replayed && completed->find(index) != nullptr &&
        index < expected.shard_total) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(entry.path(), remove_ec)) {
      recovery_.stale_shards_removed += 1;
    }
  }
  if (!replayed) {
    // Quarantined evidence from older runs goes too; a fresh run starts
    // from a clean directory.
    recovery_.stale_shards_removed += sweep_shard_files(quarantine_dir);
    auto header_written =
        util::durable_write_file(journal, encode_manifest_header(expected));
    if (!header_written.ok()) return header_written;
  }

  auto log = util::DurableLog::open(journal);
  if (!log.ok()) return log.error();
  manifest_log_ = std::move(log).value();
  return util::Status::ok_status();
}

void StreamingCorpus::load_pages(std::size_t first_site,
                                 util::ThreadPool& pool,
                                 std::vector<web::PageLoad>& loads) const {
  // Parallel load: per-site seeds and connection-id blocks come from the
  // site index alone, so worker scheduling cannot leak into the pages. The
  // slots are overwritten in place, so a previous shard's page k is freed
  // by the worker that stores this shard's page k.
  loads.resize(shard_site_count(first_site));
  pool.parallel_for_index(loads.size(), [&](std::size_t k) {
    const std::size_t site_index = eligible_[first_site + k];
    browser::PageLoader loader(
        corpus_.env(), loader_options_for_site(options_.loader, site_index));
    loads[k] = loader.load(corpus_.page_for_site(site_index));
  });
}

void StreamingCorpus::append_shard(ShardInfo& info,
                                   const std::vector<web::PageLoad>& loads) {
  // Serial columnar append in site order (symbol ids are first-appearance
  // order, part of the canonical snapshot form).
  columns_.clear();
  columns_.set_identity(info.index, corpus_.options().seed, info.first_site);
  for (const web::PageLoad& load : loads) columns_.append_page(load);
  info.pages = columns_.page_count();
  info.entries = columns_.entry_count();
}

util::Result<StreamingCorpus::EncodedShard> StreamingCorpus::encode_shard(
    ShardInfo& info) {
  EncodedShard encoded;
  encoded.bytes = encode_snapshot(columns_, &encoded.payload_crc64);
  if (util::crash::crash_point("generate.encode")) {
    return util::make_error("corpus: crash injected at generate.encode");
  }
  info.encoded_bytes = encoded.bytes.size();
  info.content_crc64 =
      snapshot_content_crc64(encoded.bytes, encoded.payload_crc64);
  return encoded;
}

util::Result<StreamingCorpus::EncodedShard> StreamingCorpus::build_shard(
    ShardInfo& info, util::ThreadPool& pool) {
  std::vector<web::PageLoad> loads;
  load_pages(info.first_site, pool, loads);
  if (util::crash::crash_point("generate.load")) {
    return util::make_error("corpus: crash injected at generate.load");
  }
  append_shard(info, loads);
  return encode_shard(info);
}

util::Status StreamingCorpus::commit_shard(ShardInfo& info,
                                           std::span<const std::uint8_t> bytes) {
  info.path = shard_file_path(options_.spill_dir, info.index);
  // Data first (rename commits the bytes), fact second (the journal record
  // commits "this shard is done"). A crash between the two leaves an
  // unrecorded file that the next run sweeps and regenerates — never a
  // record pointing at missing or torn data.
  auto written = write_shard_file(info.path, bytes);
  if (!written.ok()) return written;
  if (util::crash::crash_point("manifest.append")) {
    return util::make_error("corpus: crash injected at manifest.append (" +
                            info.path + ")");
  }
  ManifestRecord record;
  record.shard_index = info.index;
  record.first_site = info.first_site;
  record.pages = info.pages;
  record.entries = info.entries;
  record.encoded_bytes = info.encoded_bytes;
  record.content_crc64 = info.content_crc64;
  return manifest_log_.append(encode_manifest_record(record));
}

util::Status StreamingCorpus::generate() {
  shards_.clear();
  const std::size_t per_shard = resolved_per_shard();
  const bool spilling = !options_.spill_dir.empty();
  util::FlatMap<std::uint64_t, ManifestRecord> completed;
  if (spilling) {
    auto prepared = prepare_spill_dir(&completed);
    if (!prepared.ok()) return prepared;
  }

  // Plan: decide for every shard whether it is reused, before building
  // any. The decision reads only the journal and that shard's own file,
  // and building a shard writes no other shard's file, so planning first
  // decides exactly what deciding shard by shard would.
  std::vector<std::size_t> to_build;  // indices into shards_, ascending
  for (std::size_t begin = 0; begin < eligible_.size(); begin += per_shard) {
    ShardInfo info;
    info.index = shards_.size();
    info.first_site = begin;

    if (spilling) {
      if (const ManifestRecord* record = completed.find(info.index)) {
        // Journaled shard: reuse it if the committed file is present with
        // the journaled size. Full CRC verification happens when analyze()
        // reads it back (a mismatch there quarantines and rebuilds), so
        // resume cost stays proportional to the *unfinished* work.
        const std::string path =
            shard_file_path(options_.spill_dir, info.index);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec && record->first_site == begin &&
            size == record->encoded_bytes) {
          info.pages = static_cast<std::size_t>(record->pages);
          info.entries = static_cast<std::size_t>(record->entries);
          info.encoded_bytes = static_cast<std::size_t>(record->encoded_bytes);
          info.content_crc64 = record->content_crc64;
          info.path = path;
          recovery_.shards_reused += 1;
          shards_.push_back(std::move(info));
          continue;
        }
        recovery_.shards_regenerated += 1;
      }
    }
    to_build.push_back(info.index);
    shards_.push_back(std::move(info));
  }

  // Build: the next shard to build loads on the lane (which fans out on
  // the pool) while this thread encodes and commits the current one. One
  // vector of pages is resident: the lane starts only after the current
  // shard is appended to columns_, and overwrites its pages slot by slot.
  // Every crash point stays on this thread, in the serial order; the lane
  // does no durable I/O. The lane is declared after what its task touches,
  // so on an exception its destructor joins first.
  util::ThreadPool pool(options_.threads);
  std::vector<web::PageLoad> loads;
  util::Lane loader(options_.threads);
  auto build = [&]() -> util::Status {
    if (!to_build.empty()) {
      load_pages(shards_[to_build.front()].first_site, pool, loads);
    }
    for (std::size_t j = 0; j < to_build.size(); ++j) {
      ShardInfo& info = shards_[to_build[j]];
      loader.wait();
      if (util::crash::crash_point("generate.load")) {
        return util::make_error("corpus: crash injected at generate.load");
      }
      append_shard(info, loads);
      if (j + 1 < to_build.size()) {
        const std::size_t next = shards_[to_build[j + 1]].first_site;
        loader.run([this, next, &pool, &loads] {
          load_pages(next, pool, loads);
        });
      }
      auto encoded = encode_shard(info);
      if (!encoded.ok()) return encoded.error();
      if (!spilling) {
        info.buffer = std::move(encoded).value().bytes;
      } else {
        auto committed = commit_shard(info, encoded->bytes);
        if (!committed.ok()) return committed;
      }
    }
    return util::Status::ok_status();
  };
  const util::Status built = build();
  // Every path joins the lane here, and a load's exception reaches the
  // caller ahead of any build error.
  loader.wait();
  if (!built.ok()) return built;
  generated_ = true;
  return util::Status::ok_status();
}

util::Result<StreamingCorpus::EncodedShard>
StreamingCorpus::load_or_recover_shard(ShardInfo& shard,
                                       util::ThreadPool& pool) {
  auto read = read_shard_file(shard.path);
  if (read.ok()) {
    // One pass over the payload: the whole-file CRC the journal holds is
    // the footer folded onto it, and open() checks the footer against it.
    const std::uint64_t payload_crc64 = snapshot_payload_crc64(read.value());
    if (snapshot_content_crc64(read.value(), payload_crc64) ==
        shard.content_crc64) {
      return EncodedShard{std::move(read).value(), payload_crc64};
    }
  }
  // The journaled CRC does not match the bytes on disk (bit rot, a flipped
  // byte, a foreign file under the right name) — or the file vanished.
  // Move the evidence aside and rebuild the shard from its site range; the
  // regenerated bytes are deterministic, so the stream is unaffected.
  recovery_.shards_quarantined += 1;
  if (read.ok()) {
    auto quarantined = util::durable_write_file(
        quarantine_file_path(options_.spill_dir, shard.index), read.value());
    if (!quarantined.ok()) return quarantined.error();
  }
  auto rebuilt = build_shard(shard, pool);
  if (!rebuilt.ok()) return rebuilt.error();
  auto committed = commit_shard(shard, rebuilt->bytes);
  if (!committed.ok()) return committed.error();
  return std::move(rebuilt).value();
}

util::Result<StreamStats> StreamingCorpus::analyze() {
  if (!generated_) {
    return util::make_error("StreamingCorpus::analyze() before generate()");
  }
  // A resumed analyze restarts the sweep from shard 0; stateful observers
  // reset here so they see exactly one stream either way.
  if (options_.observer != nullptr) options_.observer->on_stream_restart();

  Aggregator agg;
  agg.stats.sites = eligible_.size();
  agg.stats.shards = shards_.size();

  model::CoalescingModel model(corpus_.env());
  util::ThreadPool pool(options_.threads);

  // The two digest chains fold on two lanes, each from one buffer into its
  // own Aggregator: the measured lane folds shard k's decoded pages while
  // this thread runs the model and the observer over them; the
  // reconstructed lane folds shard k's reconstructed pages while this
  // thread reads, checks, opens and decodes shard k+1. A buffer is
  // rewritten only after its lane is joined, so each chain keeps site
  // order and one shard stays resident. The lanes are declared after what
  // they read, so on an exception their destructors join first.
  std::vector<web::PageLoad> pages;
  std::vector<web::PageLoad> reconstructed;
  Aggregator measured_agg;
  Aggregator reconstructed_agg;
  util::Lane measured_lane(options_.threads);
  util::Lane reconstructed_lane(options_.threads);

  auto sweep = [&]() -> util::Status {
    for (ShardInfo& shard : shards_) {
      {
        EncodedShard spilled;
        if (!shard.path.empty()) {
          auto loaded = load_or_recover_shard(shard, pool);
          if (!loaded.ok()) return loaded.error();
          spilled = std::move(loaded).value();
        }
        const std::span<const std::uint8_t> bytes =
            shard.path.empty() ? std::span<const std::uint8_t>(shard.buffer)
                               : std::span<const std::uint8_t>(spilled.bytes);
        agg.stats.snapshot_bytes += bytes.size();

        // A spilled shard's payload CRC was computed once, for the journal
        // check; an in-memory shard has only the footer check.
        auto reader = shard.path.empty()
                          ? SnapshotReader::open(bytes)
                          : SnapshotReader::open(bytes, spilled.payload_crc64);
        if (!reader.ok()) return reader.error();
        const std::size_t page_count =
            static_cast<std::size_t>(reader->meta().pages);

        measured_lane.wait();
        pages.assign(page_count, web::PageLoad{});
        for (std::size_t i = 0; i < page_count; ++i) {
          reader.value().next_page(&pages[i]);
        }
      }
      measured_lane.run([&] {
        for (const web::PageLoad& page : pages) measured_agg.measured(page);
      });

      const auto analyses = model.analyze_batch(pages, options_.threads);
      for (const model::PageAnalysis& analysis : analyses) {
        agg.analyzed(analysis);
      }

      if (options_.observer != nullptr) {
        options_.observer->on_shard(pages, shard.first_site);
      }

      reconstructed_lane.wait();
      reconstructed = {};  // free shard k-1's pages before building shard k's
      reconstructed =
          model.reconstruct_batch(pages, analyses, "", options_.threads);
      reconstructed_lane.run([&] {
        for (const web::PageLoad& page : reconstructed) {
          reconstructed_agg.reconstructed(page);
        }
      });

      if (util::crash::crash_point("analyze.shard")) {
        return util::make_error("corpus: crash injected at analyze.shard");
      }
    }
    return util::Status::ok_status();
  };
  const util::Status swept = sweep();
  // Every path joins both lanes here, and a fold's exception reaches the
  // caller ahead of any sweep error.
  measured_lane.wait();
  reconstructed_lane.wait();
  if (!swept.ok()) return swept.error();
  agg.take_lanes(measured_agg, reconstructed_agg);

  // Deletion is deferred to here: until the whole sweep has succeeded the
  // spilled shards and the journal ARE the resume state. Only a complete
  // run may retire them.
  if (!options_.keep_shards) {
    for (ShardInfo& shard : shards_) {
      if (shard.path.empty()) continue;
      auto removed = remove_shard_file(shard.path);
      if (!removed.ok()) return removed.error();
      shard.path.clear();
    }
    if (manifest_log_.is_open()) {
      const std::string journal = manifest_log_.path();
      manifest_log_.close();
      auto removed = util::remove_file(journal);
      if (!removed.ok()) return removed.error();
    }
  }
  return agg.stats;
}

util::Result<StreamStats> StreamingCorpus::run() {
  auto generated = generate();
  if (!generated.ok()) return generated.error();
  return analyze();
}

// --- materialized reference path ------------------------------------------

util::Result<StreamStats> run_materialized(Corpus& corpus,
                                           const StreamingOptions& options) {
  CollectOptions collect_options;
  collect_options.loader = options.loader;
  collect_options.max_sites = options.max_sites;
  collect_options.threads = options.threads;

  // The seed's shape: the whole corpus resident as one vector of structs.
  std::vector<web::PageLoad> loads;
  dataset::collect(corpus, collect_options,
                   [&](const SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });

  Aggregator agg;
  agg.stats.sites = loads.size();
  agg.stats.shards = 0;
  for (const web::PageLoad& load : loads) agg.measured(load);

  model::CoalescingModel model(corpus.env());
  const auto analyses = model.analyze_batch(loads, options.threads);
  for (const model::PageAnalysis& analysis : analyses) {
    agg.analyzed(analysis);
  }

  // One whole-corpus "shard": observer record order matches the streamed
  // path's shard-by-shard calls exactly.
  if (options.observer != nullptr) {
    options.observer->on_stream_restart();
    options.observer->on_shard(loads, 0);
  }

  const auto reconstructed =
      model.reconstruct_batch(loads, analyses, "", options.threads);
  for (const web::PageLoad& page : reconstructed) agg.reconstructed(page);

  return agg.stats;
}

}  // namespace origin::dataset
