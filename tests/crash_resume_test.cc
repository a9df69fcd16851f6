// Crash-consistent checkpoint/resume for the streaming corpus
// (DESIGN.md §15): a run killed at any crash-point class and resumed
// produces bit-identical StreamStats to an uninterrupted run at any thread
// count, journaled shards are reused (never regenerated) after a clean
// kill, corrupt shard bytes are quarantined and rebuilt — never read as
// data — and the OCM1 manifest reader is total with torn-tail drop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "dataset/manifest.h"
#include "dataset/snapshot.h"
#include "measure/stream.h"
#include "util/crash.h"
#include "util/durable_file.h"
#include "util/hash.h"

namespace origin {
namespace {

constexpr std::size_t kSites = 100;
constexpr std::size_t kSitesPerShard = 20;

dataset::CorpusOptions corpus_options() {
  dataset::CorpusOptions options;
  options.site_count = kSites;
  options.seed = 20'22;
  options.tail_service_count = 60;
  return options;
}

dataset::StreamingOptions streaming_options(const std::string& spill_dir,
                                            std::size_t threads,
                                            bool resume) {
  dataset::StreamingOptions options;
  options.threads = threads;
  options.sites_per_shard = kSitesPerShard;
  options.spill_dir = spill_dir;
  options.resume = resume;
  return options;
}

// The crawl-success filter is stochastic, so the shard count is a runtime
// fact of the corpus, not a constant.
std::size_t shard_total(dataset::Corpus& corpus) {
  dataset::StreamingCorpus probe(corpus,
                                 streaming_options("", 1, /*resume=*/false));
  return (probe.eligible_sites() + kSitesPerShard - 1) / kSitesPerShard;
}

// Bit-identical StreamStats, every field — both sides run the spilled
// pipeline, so even the shard/byte bookkeeping must agree.
void expect_identical(const dataset::StreamStats& a,
                      const dataset::StreamStats& b) {
  EXPECT_EQ(a.sites, b.sites);
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.snapshot_bytes, b.snapshot_bytes);
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

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, possibly concurrently in the
    // same working directory — a shared literal name would let one test's
    // SetUp sweep a sibling's live spill directory mid-run.
    dir_ = "crash_resume_test_spill_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    util::crash::disarm();
    std::filesystem::remove_all(dir_);
  }

  // The uninterrupted spilled run all resumed runs must match, computed
  // once per suite (serial; the contract makes thread count irrelevant).
  static const dataset::StreamStats& baseline() {
    static const dataset::StreamStats stats = [] {
      dataset::Corpus corpus(corpus_options());
      const std::string dir =
          "crash_resume_test_baseline_" + std::to_string(::getpid());
      std::filesystem::remove_all(dir);
      dataset::StreamingCorpus streaming(
          corpus, streaming_options(dir, 1, /*resume=*/false));
      auto result = streaming.run();
      EXPECT_TRUE(result.ok()) << result.error().message;
      std::filesystem::remove_all(dir);
      return result.ok() ? *result : dataset::StreamStats{};
    }();
    return stats;
  }

  std::string dir_;
};

struct CrashCase {
  const char* point;
  std::uint64_t count;  // k-th hit fires; chosen so shard 0 commits first
};

// The full kill–resume matrix: every crash-point class through
// generate/encode/spill/manifest-append/analyze, killed at 1 and 8 threads
// and each kill resumed at 1 and 8 threads, so a run killed at one thread
// count resumes at the other too. After the injected kill, a resumed run
// must (a) reproduce the uninterrupted StreamStats bit for bit, (b) reuse
// journaled shards instead of regenerating them (shards_regenerated stays 0
// after a clean kill), and (c) leave a clean spill directory behind.
TEST_F(CrashResumeTest, KillResumeMatrixIsBitIdentical) {
  // durable.* counts skip hit 1: the fresh manifest-header write funnels
  // through durable_write_file before any shard does.
  const CrashCase kCases[] = {
      {"generate.load", 2},     {"generate.encode", 2},
      {"durable.mid_write", 3}, {"durable.pre_rename", 3},
      {"durable.post_rename", 3}, {"manifest.append", 2},
      {"analyze.shard", 2},
  };
  dataset::Corpus corpus(corpus_options());
  constexpr std::size_t kThreadCounts[] = {1, 8};
  for (const CrashCase& c : kCases) {
    for (const std::size_t kill_threads : kThreadCounts) {
      for (const std::size_t resume_threads : kThreadCounts) {
        SCOPED_TRACE(std::string(c.point) +
                     " kill_threads=" + std::to_string(kill_threads) +
                     " resume_threads=" + std::to_string(resume_threads));
        std::filesystem::remove_all(dir_);

        // The doomed run: the armed point fires once and the run errors
        // out mid-pipeline, leaving whatever it had committed so far.
        util::crash::arm(c.point, c.count, /*soft=*/true);
        dataset::StreamingCorpus doomed(
            corpus, streaming_options(dir_, kill_threads, /*resume=*/false));
        auto crashed = doomed.run();
        ASSERT_FALSE(crashed.ok()) << c.point << " did not fire";
        ASSERT_FALSE(util::crash::armed());

        // The resumed run: replays the journal, finishes the rest.
        dataset::StreamingCorpus resumed(
            corpus, streaming_options(dir_, resume_threads, /*resume=*/true));
        auto stats = resumed.run();
        ASSERT_TRUE(stats.ok()) << stats.error().message;
        expect_identical(baseline(), *stats);

        // A shard the journal recorded complete is never rebuilt.
        EXPECT_EQ(resumed.recovery().shards_regenerated, 0u);
        EXPECT_EQ(resumed.recovery().shards_quarantined, 0u);
        EXPECT_EQ(resumed.recovery().manifest_resets, 0u);
        // The completed sweep retires the spill state.
        EXPECT_FALSE(std::filesystem::exists(
            dataset::manifest_file_path(dir_)));
      }
    }
  }
}

// Resume at every shard boundary: kill during shard k's build for each k
// — after its pages load, after it is encoded (the next shard's loads are
// then in flight on the loader lane), or between its durable write and its
// journal record — resume, and verify exactly the k already-journaled
// shards are reused.
TEST_F(CrashResumeTest, ResumeAtEveryShardBoundary) {
  dataset::Corpus corpus(corpus_options());
  const std::size_t total = shard_total(corpus);
  ASSERT_GE(total, 3u);
  for (const char* point :
       {"generate.load", "generate.encode", "manifest.append"}) {
    for (std::size_t boundary = 1; boundary <= total; ++boundary) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE(std::string(point) + " boundary=" +
                     std::to_string(boundary) +
                     " threads=" + std::to_string(threads));
        std::filesystem::remove_all(dir_);

        util::crash::arm(point, boundary, /*soft=*/true);
        dataset::StreamingCorpus doomed(
            corpus, streaming_options(dir_, threads, /*resume=*/false));
        ASSERT_FALSE(doomed.generate().ok());
        ASSERT_FALSE(util::crash::armed());

        dataset::StreamingCorpus resumed(
            corpus, streaming_options(dir_, threads, /*resume=*/true));
        auto stats = resumed.run();
        ASSERT_TRUE(stats.ok()) << stats.error().message;
        expect_identical(baseline(), *stats);
        EXPECT_EQ(resumed.recovery().shards_reused, boundary - 1);
        EXPECT_EQ(resumed.recovery().manifest_records_replayed, boundary - 1);
        EXPECT_EQ(resumed.recovery().shards_regenerated, 0u);
        // Only a kill before the journal record leaves a committed file
        // the journal does not vouch for; the resume sweeps it.
        EXPECT_EQ(resumed.recovery().stale_shards_removed,
                  std::string(point) == "manifest.append" ? 1u : 0u);
      }
    }
  }
}

// Resume rebuilds exactly the shards whose files are gone, also when they
// are not adjacent: the loader lane prefetches the next shard to build
// across the reused shard between them, and the rebuilt shards are
// byte-identical to the ones deleted.
TEST_F(CrashResumeTest, ResumeRebuildsNonContiguousShards) {
  dataset::Corpus corpus(corpus_options());
  const std::size_t total = shard_total(corpus);
  ASSERT_GE(total, 4u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::filesystem::remove_all(dir_);

    std::vector<std::uint64_t> crcs;
    {
      dataset::StreamingOptions options =
          streaming_options(dir_, threads, /*resume=*/false);
      options.keep_shards = true;
      dataset::StreamingCorpus complete(corpus, options);
      ASSERT_TRUE(complete.run().ok());
      for (const dataset::ShardInfo& shard : complete.shards()) {
        crcs.push_back(shard.content_crc64);
      }
    }
    for (const std::size_t victim : {std::size_t{1}, std::size_t{3}}) {
      ASSERT_TRUE(
          std::filesystem::remove(dataset::shard_file_path(dir_, victim)));
    }

    dataset::StreamingCorpus resumed(
        corpus, streaming_options(dir_, threads, /*resume=*/true));
    auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    expect_identical(baseline(), *stats);
    EXPECT_EQ(resumed.recovery().shards_regenerated, 2u);
    EXPECT_EQ(resumed.recovery().shards_reused, total - 2);
    EXPECT_EQ(resumed.recovery().shards_quarantined, 0u);
    ASSERT_EQ(resumed.shards().size(), crcs.size());
    for (std::size_t k = 0; k < crcs.size(); ++k) {
      EXPECT_EQ(resumed.shards()[k].content_crc64, crcs[k]) << "shard " << k;
    }
  }
}

// A flipped byte anywhere in a spilled shard is detected by CRC at read
// time, quarantined, and the shard regenerated — the stream never sees the
// corrupt bytes and the outputs stay bit-identical. The flip lands in the
// payload, in the footer magic, or in the footer's stored CRC: the whole-
// file CRC is derived from the payload CRC, and each flip must still fail
// the journal check.
TEST_F(CrashResumeTest, FlippedByteIsQuarantinedAndRebuilt) {
  dataset::Corpus corpus(corpus_options());
  const std::size_t victim_index = shard_total(corpus) - 1;
  const std::string victim = dataset::shard_file_path(dir_, victim_index);

  // Offsets from the end of the file: the footer is 4 magic bytes, then
  // the 8-byte CRC.
  const struct {
    const char* where;
    std::size_t from_end;  // 0 = the middle of the file
  } kFlips[] = {
      {"payload middle", 0},
      {"footer magic", dataset::kSnapshotFooterBytes - 1},
      {"footer crc", 3},
  };
  for (const auto& flip : kFlips) {
    SCOPED_TRACE(flip.where);
    std::filesystem::remove_all(dir_);
    dataset::StreamingCorpus streaming(
        corpus, streaming_options(dir_, 1, /*resume=*/false));
    ASSERT_TRUE(streaming.generate().ok());

    // Flip one byte of the last shard (size unchanged, so the resume fast
    // path cannot catch it — only the CRC can).
    auto bytes = util::read_file(victim);
    ASSERT_TRUE(bytes.ok());
    util::Bytes bent = bytes.value();
    const std::size_t offset = flip.from_end == 0
                                   ? bent.size() / 2
                                   : bent.size() - flip.from_end;
    bent[offset] ^= 0x01;
    ASSERT_TRUE(util::durable_write_file(victim, bent).ok());

    auto stats = streaming.analyze();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    expect_identical(baseline(), *stats);
    EXPECT_EQ(streaming.recovery().shards_quarantined, 1u);

    // The corrupt bytes were preserved for postmortem, byte for byte.
    auto quarantined =
        util::read_file(dataset::quarantine_file_path(dir_, victim_index));
    ASSERT_TRUE(quarantined.ok()) << quarantined.error().message;
    EXPECT_EQ(quarantined.value(), bent);
  }
}

// Same flip, but discovered across a kill–resume: the resumed generate
// reuses the journaled shard (size still matches), and analyze recovers.
TEST_F(CrashResumeTest, FlippedByteSurvivesResumeThenRecovers) {
  dataset::Corpus corpus(corpus_options());
  {
    util::crash::arm("analyze.shard", 1, /*soft=*/true);
    dataset::StreamingCorpus doomed(
        corpus, streaming_options(dir_, 1, /*resume=*/false));
    ASSERT_FALSE(doomed.run().ok());
  }
  const std::size_t total = shard_total(corpus);
  const std::string victim = dataset::shard_file_path(dir_, total - 1);
  auto bytes = util::read_file(victim);
  ASSERT_TRUE(bytes.ok());
  util::Bytes bent = bytes.value();
  bent[100] ^= 0x80;
  ASSERT_TRUE(util::durable_write_file(victim, bent).ok());

  dataset::StreamingCorpus resumed(
      corpus, streaming_options(dir_, 1, /*resume=*/true));
  auto stats = resumed.run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  expect_identical(baseline(), *stats);
  EXPECT_EQ(resumed.recovery().shards_reused, total);
  EXPECT_EQ(resumed.recovery().shards_quarantined, 1u);
}

// The passive observer rides the resumed replay without double counting:
// its record stream matches an uninterrupted observer's exactly.
TEST_F(CrashResumeTest, PassiveObserverStreamSurvivesResume) {
  dataset::Corpus corpus(corpus_options());
  const std::string& domain = corpus.third_party_domain();

  measure::PassiveShardObserver uninterrupted(domain, 0.05, 0xCD4, 1);
  {
    const std::string dir = dir_ + "_clean";
    std::filesystem::remove_all(dir);
    dataset::StreamingOptions options =
        streaming_options(dir, 1, /*resume=*/false);
    options.observer = &uninterrupted;
    dataset::StreamingCorpus streaming(corpus, options);
    ASSERT_TRUE(streaming.run().ok());
    std::filesystem::remove_all(dir);
  }

  measure::PassiveShardObserver observer(domain, 0.05, 0xCD4, 1);
  {
    util::crash::arm("analyze.shard", 3, /*soft=*/true);
    dataset::StreamingOptions options =
        streaming_options(dir_, 1, /*resume=*/false);
    options.observer = &observer;
    dataset::StreamingCorpus doomed(corpus, options);
    ASSERT_FALSE(doomed.run().ok());  // observer saw a partial stream
  }
  {
    dataset::StreamingOptions options =
        streaming_options(dir_, 1, /*resume=*/true);
    options.observer = &observer;
    dataset::StreamingCorpus resumed(corpus, options);
    ASSERT_TRUE(resumed.run().ok());
  }

  const auto& expected = uninterrupted.pipeline().records();
  const auto& actual = observer.pipeline().records();
  ASSERT_GT(expected.size(), 0u);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].connection_id, expected[i].connection_id);
    EXPECT_EQ(actual[i].arrival_order, expected[i].arrival_order);
    EXPECT_EQ(actual[i].day, expected[i].day);
  }
  EXPECT_EQ(observer.stats().sampled, uninterrupted.stats().sampled);
  EXPECT_EQ(observer.stats().control_connections,
            uninterrupted.stats().control_connections);
  EXPECT_EQ(observer.stats().experiment_connections,
            uninterrupted.stats().experiment_connections);
}

// A manifest from a different run configuration is rejected wholesale: the
// run resets, sweeps the foreign shards, and still produces the right
// answer for ITS config.
TEST_F(CrashResumeTest, ConfigDigestMismatchResetsTheJournal) {
  dataset::Corpus corpus(corpus_options());
  // Each journals five shards under a loader config that differs from the
  // default in one field.
  const std::pair<const char*, void (*)(browser::LoaderOptions&)> others[] = {
      {"loader seed 777",
       [](browser::LoaderOptions& loader) { loader.seed = 777; }},
      {"recursive_base 40 ms",
       [](browser::LoaderOptions& loader) {
         loader.resolver.recursive_base = util::Duration::millis(40);
       }},
  };
  for (const auto& [name, differ] : others) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir_);
    {
      dataset::StreamingOptions options =
          streaming_options(dir_, 1, /*resume=*/false);
      differ(options.loader);
      options.keep_shards = true;
      dataset::StreamingCorpus other(corpus, options);
      ASSERT_TRUE(other.run().ok());
    }
    dataset::StreamingCorpus resumed(
        corpus, streaming_options(dir_, 1, /*resume=*/true));
    auto stats = resumed.run();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    expect_identical(baseline(), *stats);
    EXPECT_EQ(resumed.recovery().manifest_resets, 1u);
    EXPECT_EQ(resumed.recovery().shards_reused, 0u);
    EXPECT_EQ(resumed.recovery().stale_shards_removed, shard_total(corpus));
  }
}

// A stale spill directory full of junk — torn temps, foreign shard files,
// a garbage manifest — is swept and counted; the run is unaffected.
TEST_F(CrashResumeTest, StaleSpillDirectoryIsSweptAndCounted) {
  std::filesystem::create_directories(dir_);
  ASSERT_TRUE(util::durable_write_file(dir_ + "/shard_000099.ocs",
                                       std::string_view("junk")).ok());
  ASSERT_TRUE(util::durable_write_file(dir_ + "/manifest.ocm",
                                       std::string_view("not a manifest"))
                  .ok());
  {
    // Torn temps, written raw on purpose (a durable write never leaves one).
    std::FILE* f = std::fopen((dir_ + "/shard_000001.ocs.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn", f);
    std::fclose(f);
  }

  dataset::Corpus corpus(corpus_options());
  dataset::StreamingCorpus streaming(
      corpus, streaming_options(dir_, 1, /*resume=*/true));
  auto stats = streaming.run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  expect_identical(baseline(), *stats);
  EXPECT_EQ(streaming.recovery().stale_temps_swept, 1u);
  EXPECT_EQ(streaming.recovery().stale_shards_removed, 1u);
  EXPECT_EQ(streaming.recovery().manifest_resets, 1u);
}

// A torn journal tail (the crash left half a record) is dropped, counted,
// and truncated away; the journaled prefix still resumes.
TEST_F(CrashResumeTest, TornManifestTailIsDroppedAndTruncated) {
  dataset::Corpus corpus(corpus_options());
  {
    util::crash::arm("generate.load", 3, /*soft=*/true);
    dataset::StreamingCorpus doomed(
        corpus, streaming_options(dir_, 1, /*resume=*/false));
    ASSERT_FALSE(doomed.generate().ok());
  }
  // Tear the journal: append half a record's worth of garbage.
  const std::string journal = dataset::manifest_file_path(dir_);
  {
    auto log = util::DurableLog::open(journal);
    ASSERT_TRUE(log.ok());
    util::Bytes garbage(dataset::kManifestRecordBytes / 2, 0xEE);
    ASSERT_TRUE(log.value().append(garbage).ok());
  }

  dataset::StreamingCorpus resumed(
      corpus, streaming_options(dir_, 1, /*resume=*/true));
  auto stats = resumed.run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  expect_identical(baseline(), *stats);
  EXPECT_EQ(resumed.recovery().shards_reused, 2u);
  EXPECT_EQ(resumed.recovery().manifest_tail_bytes_dropped,
            dataset::kManifestRecordBytes / 2);
}

// ORIGIN_CRASH_AT's hard mode really kills the process with the sentinel
// exit code (the bench supervisor keys on it).
TEST_F(CrashResumeTest, HardCrashExitsWithSentinelCode) {
  EXPECT_EXIT(
      {
        util::crash::arm("test.point", 1, /*soft=*/false);
        if (util::crash::crash_point("test.point")) std::_Exit(1);
      },
      ::testing::ExitedWithCode(util::crash::kCrashExitCode), "test.point");
}

// --- OCM1 manifest wire format (total reader) -----------------------------

dataset::ManifestHeader test_header() {
  dataset::ManifestHeader header;
  header.config_digest = 0xABCD;
  header.corpus_seed = 42;
  header.eligible_sites = 100;
  header.sites_per_shard = 20;
  header.shard_total = 5;
  return header;
}

dataset::ManifestRecord test_record(std::uint64_t index) {
  dataset::ManifestRecord record;
  record.shard_index = index;
  record.first_site = index * 20;
  record.pages = 20;
  record.entries = 900 + index;
  record.encoded_bytes = 40'000 + index;
  record.content_crc64 = util::crc64("shard") + index;
  return record;
}

TEST(Manifest, RoundTripsHeaderAndRecords) {
  util::Bytes bytes = dataset::encode_manifest_header(test_header());
  EXPECT_EQ(bytes.size(), dataset::kManifestHeaderBytes);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const util::Bytes record = dataset::encode_manifest_record(test_record(i));
    EXPECT_EQ(record.size(), dataset::kManifestRecordBytes);
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  auto manifest = dataset::read_manifest(bytes);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  EXPECT_EQ(manifest->header, test_header());
  ASSERT_EQ(manifest->records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(manifest->records[i], test_record(i));
  }
  EXPECT_EQ(manifest->tail_bytes_dropped, 0u);
}

TEST(Manifest, DuplicateRecordsResolveLastWins) {
  util::Bytes bytes = dataset::encode_manifest_header(test_header());
  dataset::ManifestRecord first = test_record(2);
  dataset::ManifestRecord second = test_record(2);
  second.content_crc64 ^= 0xFF;  // regenerated shard, re-journaled
  for (const auto& record : {test_record(0), first, second}) {
    const util::Bytes encoded = dataset::encode_manifest_record(record);
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  auto manifest = dataset::read_manifest(bytes);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->records.size(), 3u);  // append order preserved
  auto latest = manifest->latest_records();
  ASSERT_NE(latest.find(std::uint64_t{2}), nullptr);
  EXPECT_EQ(*latest.find(std::uint64_t{2}), second);
  ASSERT_NE(latest.find(std::uint64_t{0}), nullptr);
  EXPECT_EQ(*latest.find(std::uint64_t{0}), test_record(0));
}

TEST(Manifest, ReaderIsTotalOnTruncationAndCorruption) {
  util::Bytes valid = dataset::encode_manifest_header(test_header());
  for (std::uint64_t i = 0; i < 2; ++i) {
    const util::Bytes record = dataset::encode_manifest_record(test_record(i));
    valid.insert(valid.end(), record.begin(), record.end());
  }

  // Header truncations are errors (no trustworthy identity).
  for (std::size_t length = 0; length < dataset::kManifestHeaderBytes;
       ++length) {
    util::Bytes cut(valid.begin(), valid.begin() + length);
    EXPECT_FALSE(dataset::read_manifest(cut).ok()) << length;
  }
  // Record-region truncations drop the torn tail, never error.
  for (std::size_t length = dataset::kManifestHeaderBytes;
       length < valid.size(); ++length) {
    util::Bytes cut(valid.begin(), valid.begin() + length);
    auto manifest = dataset::read_manifest(cut);
    ASSERT_TRUE(manifest.ok()) << length;
    const std::size_t whole_records =
        (length - dataset::kManifestHeaderBytes) /
        dataset::kManifestRecordBytes;
    EXPECT_EQ(manifest->records.size(), whole_records);
    EXPECT_EQ(manifest->tail_bytes_dropped,
              length - dataset::kManifestHeaderBytes -
                  whole_records * dataset::kManifestRecordBytes);
  }
  // A flipped byte in the header is an error; in a record it ends the
  // journal at the last valid record (that record and the rest drop).
  for (std::size_t at = 0; at < valid.size(); ++at) {
    util::Bytes bent = valid;
    bent[at] ^= 0x40;
    auto manifest = dataset::read_manifest(bent);
    if (at < dataset::kManifestHeaderBytes) {
      EXPECT_FALSE(manifest.ok()) << at;
      continue;
    }
    ASSERT_TRUE(manifest.ok()) << at;
    const std::size_t record_index =
        (at - dataset::kManifestHeaderBytes) / dataset::kManifestRecordBytes;
    EXPECT_EQ(manifest->records.size(), record_index) << at;
    EXPECT_GT(manifest->tail_bytes_dropped, 0u) << at;
  }
}

}  // namespace
}  // namespace origin
