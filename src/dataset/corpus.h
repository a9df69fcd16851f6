// Columnar (SoA) page-timeline storage and the out-of-core streaming
// corpus pipeline (DESIGN.md §14).
//
// The materialized pipeline holds every page as a vector<HarEntry> of
// structs — hostnames, DNS answer sets, and issuer strings inline — which
// caps corpora at what fits in RAM. TimelineColumns stores one *shard* of
// pages as struct-of-arrays instead: hostnames and issuers become per-shard
// SymbolIds, every timestamp/enum/flag lands in an arena-backed column
// (util::ArenaColumn — O(1) append, no element moves, capacity recycled
// across shards), and DNS answer sets flatten into a shared pool indexed by
// per-entry counts. A shard serializes to the bounded span-based snapshot
// format in dataset/snapshot.h and spills to disk, so a million-site corpus
// streams generate → analyze → reconstruct with only one shard's timelines
// resident at a time.
//
// Determinism contract (DESIGN.md §8): shard boundaries never change
// results. Page loads derive their RNG seed and connection-id block from
// the site index alone (loader_options_for_site, shared with the
// materialized collector), shards are appended and encoded in index order
// on the generate thread while the next shard's pages load on a
// background lane (util::Lane) into the one page buffer, shards are
// analyzed in index order with the model's serial intern prepass per
// batch, and shard observers run serially in site order on the analyze
// thread. The measured and the reconstructed digest chains each fold on a
// lane that takes one shard at a time in site order from a single buffer,
// so both chains equal the serial ones. Each phase keeps one shard of
// pages resident, and streamed outputs are byte-identical to the fully
// materialized path at any thread count and any shard size.
//
// Crash consistency (DESIGN.md §15): with a spill directory the pipeline
// is resumable. Every spilled shard is committed by durable rename
// (util/durable_file.h) and then journaled in an OCM1 manifest
// (dataset/manifest.h) keyed by a digest of the run configuration. A
// restarted run with StreamingOptions::resume sweeps torn temps, replays
// the journal, reuses every recorded shard whose file checks out,
// regenerates the rest from their site ranges, and produces StreamStats
// bit-identical to an uninterrupted run — recovery bookkeeping lives in
// the separate RecoveryStats so the golden digests stay equal.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "browser/page_loader.h"
#include "dataset/generator.h"
#include "dataset/manifest.h"
#include "util/arena.h"
#include "util/bytes.h"
#include "util/durable_file.h"
#include "util/flat_map.h"
#include "util/result.h"
#include "util/thread_pool.h"
#include "web/har.h"

namespace origin::dataset {

// Shard identity and row totals, carried in the snapshot header.
struct ShardMeta {
  std::uint64_t shard_index = 0;
  std::uint64_t corpus_seed = 0;
  std::uint64_t first_site = 0;  // first eligible-site ordinal in the shard
  std::uint64_t pages = 0;
  std::uint64_t entries = 0;
  std::uint64_t answers = 0;   // flattened DNS answer-set rows
  std::uint32_t symbols = 0;

  bool operator==(const ShardMeta&) const = default;
};

// One shard of page timelines in columnar form. Append-only between
// clear() calls; not thread-safe (owned by the serial shard-append loop).
class TimelineColumns {
 public:
  TimelineColumns();

  void set_identity(std::uint64_t shard_index, std::uint64_t corpus_seed,
                    std::uint64_t first_site);
  void append_page(const web::PageLoad& load);
  void clear();  // drops rows + symbols, keeps arena capacity

  ShardMeta meta() const;
  std::size_t page_count() const { return page_rank_.size(); }
  std::size_t entry_count() const { return entry_start_us_.size(); }

  std::uint32_t intern(std::string_view name);
  std::string_view symbol(std::uint32_t id) const { return symbol_names_[id]; }

 private:
  friend util::Bytes encode_snapshot(const TimelineColumns& columns,
                                     std::uint64_t* payload_crc64);

  // The ORIGIN_HOT numeric row appends; symbol interning stays in the
  // (cold, allocating) append_page wrapper.
  void append_entry_row(const web::HarEntry& entry, std::uint32_t host_sym,
                        std::uint32_t issuer_sym);
  void append_page_row(const web::PageLoad& load, std::uint32_t base_sym);

  util::Arena arena_;

  // --- entry columns (one row per HarEntry) -----------------------------
  util::ArenaColumn<std::int32_t> entry_resource_index_;
  util::ArenaColumn<std::uint32_t> entry_host_sym_;
  util::ArenaColumn<std::uint8_t> entry_addr_family_;
  util::ArenaColumn<std::uint64_t> entry_addr_value_;
  util::ArenaColumn<std::uint16_t> entry_answer_count_;
  util::ArenaColumn<std::uint32_t> entry_asn_;
  util::ArenaColumn<std::uint8_t> entry_version_;
  util::ArenaColumn<std::uint8_t> entry_mode_;
  util::ArenaColumn<std::uint8_t> entry_content_type_;
  util::ArenaColumn<std::uint8_t> entry_flags_;
  util::ArenaColumn<std::int64_t> entry_start_us_;
  util::ArenaColumn<std::int64_t> entry_blocked_us_;
  util::ArenaColumn<std::int64_t> entry_dns_us_;
  util::ArenaColumn<std::int64_t> entry_connect_us_;
  util::ArenaColumn<std::int64_t> entry_ssl_us_;
  util::ArenaColumn<std::int64_t> entry_send_us_;
  util::ArenaColumn<std::int64_t> entry_wait_us_;
  util::ArenaColumn<std::int64_t> entry_receive_us_;
  util::ArenaColumn<std::uint64_t> entry_connection_id_;
  util::ArenaColumn<std::uint64_t> entry_cert_serial_;
  util::ArenaColumn<std::uint32_t> entry_issuer_sym_;
  util::ArenaColumn<std::int64_t> entry_san_count_;

  // --- flattened DNS answer pool ----------------------------------------
  util::ArenaColumn<std::uint8_t> answer_family_;
  util::ArenaColumn<std::uint64_t> answer_value_;

  // --- page columns (one row per PageLoad) ------------------------------
  util::ArenaColumn<std::uint64_t> page_rank_;
  util::ArenaColumn<std::uint32_t> page_base_sym_;
  util::ArenaColumn<std::uint8_t> page_success_;
  util::ArenaColumn<std::uint32_t> page_entry_count_;
  util::ArenaColumn<std::uint64_t> page_extra_dns_;
  util::ArenaColumn<std::uint64_t> page_extra_tls_;

  // Per-shard symbol table: id = first-appearance order. The deque keeps
  // views stable; the index map supports heterogeneous string_view lookup.
  std::deque<std::string> symbol_names_;
  util::FlatMap<std::string_view, std::uint32_t> symbol_index_;

  std::uint64_t shard_index_ = 0;
  std::uint64_t corpus_seed_ = 0;
  std::uint64_t first_site_ = 0;
};

// --- streaming pipeline ---------------------------------------------------

// Serial per-shard hook: analyze() calls on_shard() once per shard, in
// shard (site) order, on its own thread, right after the shard's pages are
// decoded (the digest lanes only read the same pages). This is
// how layer-4 siblings ride the streamed replay without dataset depending
// on them — measure's passive pipeline plugs in via
// measure::PassiveShardObserver (measure/stream.h).
class ShardObserver {
 public:
  virtual ~ShardObserver() = default;
  // `pages` holds the shard's decoded loads in site order; `first_ordinal`
  // is the eligible-site ordinal of pages[0].
  virtual void on_shard(const std::vector<web::PageLoad>& pages,
                        std::size_t first_ordinal) = 0;
  // Called at the start of every analyze() sweep, before any on_shard().
  // Stateful observers must reset here so a crashed-and-resumed analyze
  // (which restarts the sweep from shard 0) observes exactly one stream.
  virtual void on_stream_restart() {}
};

struct StreamingOptions {
  // Shard granularity: sites per shard.
  std::size_t sites_per_shard = 4'096;
  // Worker threads for the per-shard load and model batches; above 1,
  // generate() also loads the next shard's pages on a background lane
  // while it encodes and commits the current one, and analyze() folds the
  // two digest chains on two more. 0 resolves via ORIGIN_THREADS; 1 =
  // serial fallback, with no thread beyond the caller's. Any value is
  // bit-identical.
  std::size_t threads = 1;
  // Load at most this many eligible sites; 0 = all.
  std::size_t max_sites = 0;
  // Spill directory for encoded shard snapshots; empty keeps the encoded
  // buffers in memory (still columnar, still one-shard-resident decode).
  std::string spill_dir;
  // Leave spilled shard files on disk after analyze() consumes them.
  bool keep_shards = false;
  // Resume from the spill directory's OCM1 manifest if one is present and
  // its config digest matches this run; with no journal (or no directory)
  // a resume is a fresh run. Without resume a stale manifest and its shards
  // are swept and the run starts fresh; either way the outputs are
  // bit-identical.
  bool resume = false;
  browser::LoaderOptions loader;
  // Optional per-shard hook (not owned); see ShardObserver.
  ShardObserver* observer = nullptr;
};

struct ShardInfo {
  std::size_t index = 0;
  std::size_t first_site = 0;  // ordinal into the eligible-site list
  std::size_t pages = 0;
  std::size_t entries = 0;
  std::size_t encoded_bytes = 0;
  std::uint64_t content_crc64 = 0;  // CRC-64/XZ of the encoded snapshot
  std::string path;    // spill file; empty when held in memory
  util::Bytes buffer;  // encoded snapshot; empty when spilled
};

// What recovery did on this run. Deliberately NOT part of StreamStats: a
// resumed run must produce bit-identical StreamStats to an uninterrupted
// one, while these counters describe the (run-specific) path taken there.
struct RecoveryStats {
  std::size_t stale_temps_swept = 0;      // torn `.tmp` files deleted
  std::size_t stale_shards_removed = 0;   // unrecorded/foreign shard files
  std::size_t manifest_records_replayed = 0;
  std::uint64_t manifest_tail_bytes_dropped = 0;  // torn journal tail
  std::size_t manifest_resets = 0;   // journal rejected (config/corruption)
  std::size_t shards_reused = 0;     // journaled shards skipped, not rebuilt
  std::size_t shards_regenerated = 0;  // journaled but rebuilt (bad file)
  std::size_t shards_quarantined = 0;  // corrupt files moved aside
};

// Aggregates of one full generate → analyze → reconstruct sweep. The two
// digests chain FNV-1a over the serialized HAR of every measured
// (post-snapshot-round-trip) and reconstructed page in site order — equal
// digests mean byte-identical pages, the golden equality the tests and
// bench gate on.
struct StreamStats {
  std::size_t sites = 0;
  std::size_t pages = 0;
  std::size_t entries = 0;
  std::size_t shards = 0;
  std::uint64_t snapshot_bytes = 0;

  std::uint64_t measured_digest = 0;
  std::uint64_t reconstructed_digest = 0;

  // §4.2 aggregate counts (Figure 3 numerators).
  std::uint64_t measured_dns = 0;
  std::uint64_t measured_tls = 0;
  std::uint64_t measured_validations = 0;
  std::uint64_t ideal_origin_dns = 0;
  std::uint64_t ideal_origin_tls = 0;
  std::uint64_t ideal_origin_validations = 0;
  std::uint64_t ideal_ip_dns = 0;
  std::uint64_t ideal_ip_tls = 0;

  // Figure 9 numerators: page-load-time sums, microseconds.
  std::int64_t measured_plt_us = 0;
  std::int64_t reconstructed_plt_us = 0;
};

// Out-of-core generate → analyze → reconstruct over a Corpus. generate()
// first decides which shards a resume reuses, then loads the others'
// pages shard-by-shard on the thread pool, appends them into the reused
// TimelineColumns, encodes each shard, and spills it — loading shard k+1
// while shard k is encoded and committed; analyze() streams the shards
// back in index order through the coalescing model and any registered
// ShardObserver with one shard resident at a time.
class StreamingCorpus {
 public:
  StreamingCorpus(Corpus& corpus, StreamingOptions options);

  [[nodiscard]] util::Status generate();
  [[nodiscard]] util::Result<StreamStats> analyze();
  [[nodiscard]] util::Result<StreamStats> run();  // generate() + analyze()

  const std::vector<ShardInfo>& shards() const { return shards_; }
  std::size_t eligible_sites() const { return eligible_.size(); }
  const RecoveryStats& recovery() const { return recovery_; }
  // Digest of everything that must match for a manifest to be resumable:
  // corpus seed, eligible-site count, resolved shard plan, loader config.
  // Thread count is deliberately excluded — resuming at a different thread
  // count is valid and bit-identical (DESIGN.md §8).
  std::uint64_t config_digest() const;

 private:
  void build_eligible();
  std::size_t resolved_per_shard() const;
  std::size_t shard_site_count(std::size_t first_site) const;
  // Sweeps temps/stale shards, replays or resets the manifest journal, and
  // fills `completed` with the last-wins reusable records.
  [[nodiscard]] util::Status prepare_spill_dir(
      util::FlatMap<std::uint64_t, ManifestRecord>* completed);
  // An encoded snapshot and the CRC of its payload (everything before the
  // footer), computed once per path: the content CRC and the footer check
  // both derive from it.
  struct EncodedShard {
    util::Bytes bytes;
    std::uint64_t payload_crc64 = 0;
  };
  // The three steps of building a shard. load_pages fills `loads` with the
  // pages of the shard starting at eligible ordinal `first_site`, one slot
  // per site on the pool; it reads only the corpus and the options, so it
  // may run beside append/encode/commit of another shard. append_shard
  // writes the pages into columns_ in site order and fills info's row
  // totals; encode_shard encodes columns_ and fills info's size and content
  // CRC.
  void load_pages(std::size_t first_site, util::ThreadPool& pool,
                  std::vector<web::PageLoad>& loads) const;
  void append_shard(ShardInfo& info, const std::vector<web::PageLoad>& loads);
  [[nodiscard]] util::Result<EncodedShard> encode_shard(ShardInfo& info);
  // Loads, appends and encodes one shard, serially (the quarantine rebuild).
  [[nodiscard]] util::Result<EncodedShard> build_shard(ShardInfo& info,
                                                       util::ThreadPool& pool);
  // Durably writes the shard file, then journals it (write ordering:
  // rename commits the data, the manifest record commits the fact).
  [[nodiscard]] util::Status commit_shard(ShardInfo& info,
                                          std::span<const std::uint8_t> bytes);
  // Reads a spilled shard, verifying its journaled CRC; on mismatch moves
  // the bytes to quarantine and rebuilds the shard from its site range.
  [[nodiscard]] util::Result<EncodedShard> load_or_recover_shard(
      ShardInfo& shard, util::ThreadPool& pool);

  Corpus& corpus_;
  StreamingOptions options_;
  std::vector<std::size_t> eligible_;  // site indices, crawl-succeeded only
  std::vector<ShardInfo> shards_;
  TimelineColumns columns_;  // reused across shards (arena recycling)
  util::DurableLog manifest_log_;
  RecoveryStats recovery_;
  bool generated_ = false;
};

// The seed's fully materialized path over the same options: every PageLoad
// retained, whole-corpus model batches, whole-corpus passive aggregation.
// Produces the same StreamStats (bit-identical digests) at any thread
// count; the golden comparator for tests, bench_perf_corpus, and the
// EXPERIMENTS.md RSS/wall-clock comparison.
[[nodiscard]] util::Result<StreamStats> run_materialized(
    Corpus& corpus, const StreamingOptions& options);

}  // namespace origin::dataset
