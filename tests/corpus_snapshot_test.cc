// Columnar corpus snapshots (DESIGN.md §14): wire-format round trips are
// byte-identical and canonical, the reader is total on arbitrary
// truncation/corruption, and the out-of-core streaming pipeline produces
// bit-identical results to the materialized path at any thread count and
// shard size — including the spill-to-disk leg and the passive replay
// riding the ShardObserver hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "dataset/collector.h"
#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "dataset/snapshot.h"
#include "measure/stream.h"
#include "util/hash.h"
#include "web/har_json.h"

namespace origin {
namespace {

dataset::CorpusOptions corpus_options(std::size_t site_count) {
  dataset::CorpusOptions options;
  options.site_count = site_count;
  options.seed = 1213;
  options.tail_service_count = 200;
  return options;
}

dataset::StreamingOptions streaming_options(std::size_t threads,
                                            std::size_t sites_per_shard) {
  dataset::StreamingOptions options;
  options.threads = threads;
  options.sites_per_shard = sites_per_shard;
  return options;
}

// Everything the pipeline computes, compared field by field. Shard/byte
// bookkeeping is excluded on purpose: the materialized path has no shards.
void expect_same_results(const dataset::StreamStats& a,
                         const dataset::StreamStats& b) {
  EXPECT_EQ(a.sites, b.sites);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.measured_digest, b.measured_digest);
  EXPECT_EQ(a.reconstructed_digest, b.reconstructed_digest);
  EXPECT_EQ(a.measured_dns, b.measured_dns);
  EXPECT_EQ(a.measured_tls, b.measured_tls);
  EXPECT_EQ(a.measured_validations, b.measured_validations);
  EXPECT_EQ(a.ideal_origin_dns, b.ideal_origin_dns);
  EXPECT_EQ(a.ideal_origin_tls, b.ideal_origin_tls);
  EXPECT_EQ(a.ideal_origin_validations, b.ideal_origin_validations);
  EXPECT_EQ(a.ideal_ip_dns, b.ideal_ip_dns);
  EXPECT_EQ(a.ideal_ip_tls, b.ideal_ip_tls);
  EXPECT_EQ(a.measured_plt_us, b.measured_plt_us);
  EXPECT_EQ(a.reconstructed_plt_us, b.reconstructed_plt_us);
}

std::vector<web::PageLoad> decode_all(const util::Bytes& snapshot) {
  auto reader = dataset::SnapshotReader::open(snapshot);
  EXPECT_TRUE(reader.ok()) << (reader.ok() ? "" : reader.error().message);
  std::vector<web::PageLoad> pages;
  if (!reader.ok()) return pages;
  web::PageLoad page;
  while (reader.value().next_page(&page)) pages.push_back(page);
  return pages;
}

TEST(CorpusSnapshot, EmptyShardRoundTrips) {
  dataset::TimelineColumns columns;
  columns.set_identity(7, 42, 1'000);
  const util::Bytes encoded = dataset::encode_snapshot(columns);
  auto reader = dataset::SnapshotReader::open(encoded);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_EQ(reader->meta().shard_index, 7u);
  EXPECT_EQ(reader->meta().corpus_seed, 42u);
  EXPECT_EQ(reader->meta().first_site, 1'000u);
  EXPECT_EQ(reader->meta().pages, 0u);
  web::PageLoad page;
  EXPECT_FALSE(reader.value().next_page(&page));
}

TEST(CorpusSnapshot, RoundTripIsByteIdenticalAndCanonical) {
  dataset::Corpus corpus(corpus_options(120));
  dataset::StreamingCorpus streaming(corpus, streaming_options(1, 50));
  ASSERT_TRUE(streaming.generate().ok());
  ASSERT_GE(streaming.shards().size(), 2u);

  for (const dataset::ShardInfo& shard : streaming.shards()) {
    auto reader = dataset::SnapshotReader::open(shard.buffer);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_EQ(reader->meta().pages, shard.pages);
    EXPECT_EQ(reader->meta().entries, shard.entries);

    // Decode and re-append into fresh columns: the HAR text of every page
    // must survive, and the re-encoded bytes must be the identical string
    // (canonical form: encode(decode(encode(x))) == encode(x)).
    dataset::TimelineColumns rebuilt;
    rebuilt.set_identity(reader->meta().shard_index,
                         reader->meta().corpus_seed,
                         reader->meta().first_site);
    web::PageLoad page;
    while (reader.value().next_page(&page)) rebuilt.append_page(page);
    EXPECT_EQ(dataset::encode_snapshot(rebuilt), shard.buffer);

    // rewind() restarts the page stream from the top.
    reader.value().rewind();
    std::size_t pages = 0;
    while (reader.value().next_page(&page)) ++pages;
    EXPECT_EQ(pages, shard.pages);
  }
}

TEST(CorpusSnapshot, DecodedPagesMatchLoaderOutput) {
  dataset::Corpus corpus(corpus_options(60));
  dataset::StreamingCorpus streaming(corpus, streaming_options(1, 25));
  ASSERT_TRUE(streaming.generate().ok());

  // The decoded HAR text must equal the loader's direct output for the
  // same sites, in the same order.
  std::vector<std::string> streamed;
  for (const dataset::ShardInfo& shard : streaming.shards()) {
    for (const web::PageLoad& page : decode_all(shard.buffer)) {
      streamed.push_back(web::to_har_string(page));
    }
  }
  std::vector<std::string> direct;
  dataset::CollectOptions collect;
  dataset::collect(corpus, collect,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     direct.push_back(web::to_har_string(load));
                   });
  ASSERT_EQ(streamed.size(), direct.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], direct[i]) << "page " << i;
  }
}

TEST(CorpusSnapshot, ReaderIsTotalOnTruncationAndCorruption) {
  dataset::Corpus corpus(corpus_options(30));
  dataset::StreamingCorpus streaming(corpus, streaming_options(1, 30));
  ASSERT_TRUE(streaming.generate().ok());
  ASSERT_FALSE(streaming.shards().empty());
  const util::Bytes& valid = streaming.shards().front().buffer;

  // Every truncation must be rejected (no prefix of a snapshot is a valid
  // snapshot: the column framing pins the total length).
  for (std::size_t length = 0; length < valid.size();
       length += (length < 128 ? 1 : 97)) {
    util::Bytes cut(valid.begin(), valid.begin() + length);
    auto reader = dataset::SnapshotReader::open(cut);
    EXPECT_FALSE(reader.ok()) << "accepted truncation at " << length;
  }

  // Single-byte corruption anywhere must be rejected outright: the v2
  // CRC-64 footer covers every payload byte, and a flip inside the footer
  // itself breaks the checksum match (or the footer magic). Corrupt shard
  // bytes must never be readable as data. Strided sample over the payload
  // (each probe re-checksums the whole shard, so exhaustive would be
  // quadratic), exhaustive over the footer.
  for (std::size_t at = 0; at < valid.size(); at += 131) {
    util::Bytes bent = valid;
    bent[at] ^= 0x41;
    auto reader = dataset::SnapshotReader::open(bent);
    EXPECT_FALSE(reader.ok()) << "accepted flipped byte at " << at;
  }
  for (std::size_t at = valid.size() - dataset::kSnapshotFooterBytes;
       at < valid.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      util::Bytes bent = valid;
      bent[at] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(dataset::SnapshotReader::open(bent).ok())
          << "accepted flipped footer bit " << bit << " at " << at;
    }
  }

  // Trailing garbage is rejected: accepted snapshots are exactly framed.
  util::Bytes padded = valid;
  padded.push_back(0);
  EXPECT_FALSE(dataset::SnapshotReader::open(padded).ok());
}

TEST(CorpusSnapshot, StreamedBitIdenticalAcrossThreadCounts) {
  dataset::Corpus corpus(corpus_options(1'000));

  dataset::StreamingCorpus serial(corpus, streaming_options(1, 137));
  auto serial_stats = serial.run();
  ASSERT_TRUE(serial_stats.ok()) << serial_stats.error().message;

  dataset::StreamingCorpus threaded(corpus, streaming_options(8, 137));
  auto threaded_stats = threaded.run();
  ASSERT_TRUE(threaded_stats.ok()) << threaded_stats.error().message;

  // Different shard size, same results: boundaries must not leak.
  dataset::StreamingCorpus resharded(corpus, streaming_options(8, 64));
  auto resharded_stats = resharded.run();
  ASSERT_TRUE(resharded_stats.ok()) << resharded_stats.error().message;

  // One site per shard hands both digest lanes a new task on every page.
  dataset::StreamingCorpus per_page(corpus, streaming_options(2, 1));
  auto per_page_stats = per_page.run();
  ASSERT_TRUE(per_page_stats.ok()) << per_page_stats.error().message;

  dataset::StreamingCorpus four(corpus, streaming_options(4, 137));
  auto four_stats = four.run();
  ASSERT_TRUE(four_stats.ok()) << four_stats.error().message;

  auto materialized = dataset::run_materialized(corpus, streaming_options(8, 137));
  ASSERT_TRUE(materialized.ok()) << materialized.error().message;

  expect_same_results(*serial_stats, *threaded_stats);
  expect_same_results(*serial_stats, *resharded_stats);
  expect_same_results(*serial_stats, *per_page_stats);
  expect_same_results(*serial_stats, *four_stats);
  expect_same_results(*serial_stats, *materialized);
  EXPECT_GT(serial_stats->pages, 0u);
  EXPECT_GT(serial_stats->measured_digest, 0u);
}

TEST(CorpusSnapshot, SpillToDiskMatchesInMemory) {
  dataset::Corpus corpus(corpus_options(150));

  dataset::StreamingCorpus in_memory(corpus, streaming_options(1, 40));
  auto memory_stats = in_memory.run();
  ASSERT_TRUE(memory_stats.ok()) << memory_stats.error().message;

  // Relative spill dir under the test's working directory.
  const std::string spill_dir = "corpus_snapshot_test_spill";
  dataset::StreamingOptions spill = streaming_options(1, 40);
  spill.spill_dir = spill_dir;
  dataset::StreamingCorpus spilled(corpus, spill);
  ASSERT_TRUE(spilled.generate().ok());
  for (const dataset::ShardInfo& shard : spilled.shards()) {
    EXPECT_TRUE(shard.buffer.empty());
    EXPECT_TRUE(std::filesystem::exists(shard.path)) << shard.path;
    EXPECT_EQ(std::filesystem::file_size(shard.path), shard.encoded_bytes);
    // The journaled CRC, derived from the footer's payload CRC, is the
    // whole file's CRC.
    auto bytes = dataset::read_shard_file(shard.path);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    EXPECT_EQ(shard.content_crc64, util::crc64(*bytes)) << shard.path;
  }
  auto spilled_stats = spilled.analyze();
  ASSERT_TRUE(spilled_stats.ok()) << spilled_stats.error().message;
  expect_same_results(*memory_stats, *spilled_stats);

  // analyze() consumed the shards (keep_shards defaults to false).
  for (const dataset::ShardInfo& shard : spilled.shards()) {
    EXPECT_TRUE(shard.path.empty());
  }
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  std::filesystem::remove_all(spill_dir);
}

TEST(CorpusSnapshot, KeepShardsLeavesReadableFiles) {
  dataset::Corpus corpus(corpus_options(40));
  const std::string spill_dir = "corpus_snapshot_test_keep";
  dataset::StreamingOptions options = streaming_options(1, 20);
  options.spill_dir = spill_dir;
  options.keep_shards = true;
  dataset::StreamingCorpus streaming(corpus, options);
  auto stats = streaming.run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  ASSERT_FALSE(streaming.shards().empty());
  for (const dataset::ShardInfo& shard : streaming.shards()) {
    auto bytes = dataset::read_shard_file(shard.path);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    auto reader = dataset::SnapshotReader::open(*bytes);
    EXPECT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_TRUE(dataset::remove_shard_file(shard.path).ok());
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(CorpusSnapshot, ShardFileIoErrorsAreStatuses) {
  EXPECT_FALSE(dataset::read_shard_file("does/not/exist.ocs").ok());
  EXPECT_FALSE(dataset::remove_shard_file("does/not/exist.ocs").ok());
  EXPECT_EQ(dataset::shard_file_path("spool", 12),
            "spool/shard_000012.ocs");
}

// The passive §5.2 replay rides the ShardObserver hook; its record stream
// must be identical between the streamed and materialized paths and across
// thread counts and shard sizes.
TEST(CorpusSnapshot, PassiveObserverBitIdenticalAcrossThreadCounts) {
  dataset::Corpus corpus(corpus_options(400));
  const std::string& domain = corpus.third_party_domain();

  auto run_with_observer = [&](std::size_t threads,
                               std::size_t sites_per_shard,
                               bool materialized) {
    measure::PassiveShardObserver observer(domain, 0.05, 0xCD4, threads);
    dataset::StreamingOptions options =
        streaming_options(threads, sites_per_shard);
    options.observer = &observer;
    if (materialized) {
      auto stats = dataset::run_materialized(corpus, options);
      EXPECT_TRUE(stats.ok());
    } else {
      dataset::StreamingCorpus streaming(corpus, options);
      auto stats = streaming.run();
      EXPECT_TRUE(stats.ok());
    }
    return observer;
  };

  const auto serial = run_with_observer(1, 90, false);
  const auto threaded = run_with_observer(8, 33, false);
  const auto materialized = run_with_observer(8, 90, true);

  const auto& base = serial.pipeline().records();
  ASSERT_GT(base.size(), 0u);
  for (const auto* other : {&threaded, &materialized}) {
    const auto& records = other->pipeline().records();
    ASSERT_EQ(records.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(records[i].connection_id, base[i].connection_id);
      EXPECT_EQ(records[i].sni, base[i].sni);
      EXPECT_EQ(records[i].host, base[i].host);
      EXPECT_EQ(records[i].host_differs_sni, base[i].host_differs_sni);
      EXPECT_EQ(records[i].treatment, base[i].treatment);
      EXPECT_EQ(records[i].arrival_order, base[i].arrival_order);
      EXPECT_EQ(records[i].day, base[i].day);
    }
    const auto a = serial.stats();
    const auto b = other->stats();
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.control_connections, b.control_connections);
    EXPECT_EQ(a.experiment_connections, b.experiment_connections);
    EXPECT_EQ(a.reduction_vs_control, b.reduction_vs_control);
  }
}

}  // namespace
}  // namespace origin
