// Streaming-corpus bench: out-of-core generate -> analyze -> reconstruct
// (dataset::StreamingCorpus, DESIGN.md §14) against the fully materialized
// seed path, on the same corpus in the same run.
//
// Legs, in this order (peak RSS via getrusage is monotonic, so the
// bounded-memory streamed leg must run before the materialized one):
//   1. golden equality — a 1k-site corpus streamed at 1 thread, 8 threads,
//      a different shard size, and fully materialized must produce
//      field-identical StreamStats (FNV digests over the serialized HAR of
//      every measured and reconstructed page);
//   2. streamed main run — --sites sites (default 50,000) spilled to --dir
//      (default bench_corpus_spill) in shards of 4,096 sites, reporting
//      sites/sec and the peak RSS at which it completed;
//   3. materialized comparison at min(sites, 100,000) — the RSS and
//      wall-clock the seed path pays for the same work.
//
// Emits BENCH_corpus.json through bench/report.h, which gates streamed
// sites/sec against the committed copy (see the gate table there). Golden
// equality failure is always fatal.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dataset/corpus.h"
#include "report.h"
#include "util/hash.h"
#include "util/json.h"

namespace {

using origin::dataset::StreamStats;

double sites_per_sec(std::size_t sites, double ms) {
  return ms <= 0 ? 0.0 : static_cast<double>(sites) * 1000.0 / ms;
}

bool same_stats(const StreamStats& a, const StreamStats& b) {
  return a.sites == b.sites && a.pages == b.pages && a.entries == b.entries &&
         a.measured_digest == b.measured_digest &&
         a.reconstructed_digest == b.reconstructed_digest &&
         a.measured_dns == b.measured_dns && a.measured_tls == b.measured_tls &&
         a.measured_validations == b.measured_validations &&
         a.ideal_origin_dns == b.ideal_origin_dns &&
         a.ideal_origin_tls == b.ideal_origin_tls &&
         a.ideal_origin_validations == b.ideal_origin_validations &&
         a.ideal_ip_dns == b.ideal_ip_dns && a.ideal_ip_tls == b.ideal_ip_tls &&
         a.measured_plt_us == b.measured_plt_us &&
         a.reconstructed_plt_us == b.reconstructed_plt_us;
}

// Runs one streamed sweep over a fresh 1k corpus with the given knobs.
StreamStats golden_streamed(std::uint64_t seed, std::size_t threads,
                            std::size_t sites_per_shard, bool* ok) {
  using namespace origin;
  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = 1'000;
  corpus_options.seed = seed;
  dataset::Corpus corpus(corpus_options);

  dataset::StreamingOptions options;
  options.loader = origin::bench::chrome_collect_options().loader;
  options.threads = threads;
  options.sites_per_shard = sites_per_shard;
  dataset::StreamingCorpus streaming(corpus, options);
  auto stats = streaming.run();
  if (!stats.ok()) {
    std::fprintf(stderr, "golden streamed run failed: %s\n",
                 stats.error().message.c_str());
    *ok = false;
    return {};
  }
  return *stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace origin;
  const auto args = bench::Args::parse(
      argc, argv, {.sites = 50'000, .dir = "bench_corpus_spill"});
  bench::print_header(
      "Streaming corpus: columnar shards, spill-to-disk, out-of-core replay",
      "engineering bench (no paper figure); DESIGN.md §14 memory/throughput "
      "contract",
      args);

  const std::size_t threads = 8;

  // Leg 1: golden equality on a small corpus — streamed results must be
  // field-identical at any thread count and shard size, and identical to
  // the fully materialized path.
  bool golden_ok = true;
  const StreamStats golden_serial =
      golden_streamed(args.seed, 1, 137, &golden_ok);
  const StreamStats golden_threaded =
      golden_streamed(args.seed, threads, 137, &golden_ok);
  const StreamStats golden_resharded =
      golden_streamed(args.seed, threads, 64, &golden_ok);
  StreamStats golden_materialized;
  {
    dataset::CorpusOptions corpus_options;
    corpus_options.site_count = 1'000;
    corpus_options.seed = args.seed;
    dataset::Corpus corpus(corpus_options);
    dataset::StreamingOptions options;
    options.loader = bench::chrome_collect_options().loader;
    options.threads = threads;
    auto stats = dataset::run_materialized(corpus, options);
    if (!stats.ok()) {
      std::fprintf(stderr, "golden materialized run failed: %s\n",
                   stats.error().message.c_str());
      golden_ok = false;
    } else {
      golden_materialized = *stats;
    }
  }
  golden_ok = golden_ok && same_stats(golden_serial, golden_threaded) &&
              same_stats(golden_serial, golden_resharded) &&
              same_stats(golden_serial, golden_materialized);
  std::printf("golden 1k equality (1t / 8t / reshard / materialized): %s\n",
              golden_ok ? "identical" : "MISMATCH");
  std::printf("  measured=%016llx reconstructed=%016llx\n\n",
              static_cast<unsigned long long>(golden_serial.measured_digest),
              static_cast<unsigned long long>(
                  golden_serial.reconstructed_digest));

  // Leg 2: streamed main run (before the materialized leg — ru_maxrss only
  // grows, so this ordering captures the streamed path's true peak).
  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = args.sites;
  corpus_options.seed = args.seed;
  corpus_options.threads = threads;
  dataset::Corpus corpus(corpus_options);

  dataset::StreamingOptions streamed_options;
  streamed_options.loader = bench::chrome_collect_options().loader;
  streamed_options.threads = threads;
  streamed_options.spill_dir = args.dir;

  auto t0 = std::chrono::steady_clock::now();
  dataset::StreamingCorpus streaming(corpus, streamed_options);
  auto streamed = streaming.run();
  const double streamed_ms = bench::ms_since(t0);
  if (!streamed.ok()) {
    std::fprintf(stderr, "streamed run failed: %s\n",
                 streamed.error().message.c_str());
    return 1;
  }
  const std::uint64_t streamed_rss = bench::peak_rss_bytes();
  const double streamed_sps = sites_per_sec(streamed->sites, streamed_ms);
  std::printf(
      "streamed    %9zu sites  %8zu shards  %6.1f MiB snapshots  "
      "%9.1f s  %7.0f sites/s  peak RSS %.0f MiB\n",
      streamed->sites, streamed->shards,
      static_cast<double>(streamed->snapshot_bytes) / (1024.0 * 1024.0),
      streamed_ms / 1000.0, streamed_sps,
      static_cast<double>(streamed_rss) / (1024.0 * 1024.0));

  // Leg 3: the seed's materialized path on the same corpus, capped so the
  // resident HAR set stays inside the host even at 1M-site streamed runs.
  const std::size_t materialized_sites = args.sites < 100'000 ? args.sites
                                                              : 100'000;
  dataset::StreamingOptions materialized_options = streamed_options;
  materialized_options.max_sites = materialized_sites;
  t0 = std::chrono::steady_clock::now();
  auto materialized = dataset::run_materialized(corpus, materialized_options);
  const double materialized_ms = bench::ms_since(t0);
  if (!materialized.ok()) {
    std::fprintf(stderr, "materialized run failed: %s\n",
                 materialized.error().message.c_str());
    return 1;
  }
  const std::uint64_t materialized_rss = bench::peak_rss_bytes();
  const double materialized_sps =
      sites_per_sec(materialized->sites, materialized_ms);
  std::printf(
      "materialized %8zu sites  %38s  %9.1f s  %7.0f sites/s  "
      "peak RSS %.0f MiB\n",
      materialized->sites, "(in-memory, no shards)",
      materialized_ms / 1000.0, materialized_sps,
      static_cast<double>(materialized_rss) / (1024.0 * 1024.0));

  // When the materialized leg covered the whole corpus the two sweeps must
  // agree exactly — the golden equality at full scale, for free.
  bool full_match = true;
  if (materialized->sites == streamed->sites) {
    full_match = same_stats(*streamed, *materialized);
    std::printf("full-corpus streamed == materialized: %s\n",
                full_match ? "identical" : "MISMATCH");
  }

  util::Json::Object doc;
  doc["bench"] = "corpus";
  doc["seed"] = args.seed;
  doc["sites"] = args.sites;
  doc["eligible_sites"] = static_cast<std::uint64_t>(streamed->sites);
  doc["threads"] = threads;
  doc["golden_ok"] = golden_ok;
  {
    char digest[32];
    util::Json::Object leg;
    leg["sites"] = static_cast<std::uint64_t>(streamed->sites);
    leg["pages"] = static_cast<std::uint64_t>(streamed->pages);
    leg["entries"] = static_cast<std::uint64_t>(streamed->entries);
    leg["shards"] = static_cast<std::uint64_t>(streamed->shards);
    leg["snapshot_bytes"] = streamed->snapshot_bytes;
    leg["wall_ms"] = streamed_ms;
    leg["sites_per_sec"] = streamed_sps;
    leg["peak_rss_bytes"] = streamed_rss;
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(streamed->measured_digest));
    leg["measured_digest"] = digest;
    std::snprintf(
        digest, sizeof(digest), "%016llx",
        static_cast<unsigned long long>(streamed->reconstructed_digest));
    leg["reconstructed_digest"] = digest;
    // Per-shard CRC-64/XZ content digests (the values the OCM1 manifest
    // journals and resume verifies), plus a chained digest over all of
    // them — one line to diff when any shard's bytes move.
    util::Json::Array shard_crcs;
    std::uint64_t crc_chain = 0;
    for (const auto& shard : streaming.shards()) {
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(shard.content_crc64));
      shard_crcs.push_back(util::Json(std::string(digest)));
      crc_chain = util::crc64(std::string_view(digest), crc_chain);
    }
    leg["shard_content_crc64"] = util::Json(std::move(shard_crcs));
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(crc_chain));
    leg["shard_crc_chain"] = digest;
    doc["streamed"] = util::Json(std::move(leg));
  }
  {
    util::Json::Object leg;
    leg["sites"] = static_cast<std::uint64_t>(materialized->sites);
    leg["wall_ms"] = materialized_ms;
    leg["sites_per_sec"] = materialized_sps;
    leg["peak_rss_bytes"] = materialized_rss;
    leg["matches_streamed_at_full_corpus"] = full_match;
    doc["materialized"] = util::Json(std::move(leg));
  }
  const bool passed = golden_ok && full_match;
  if (!passed) {
    std::fprintf(stderr,
                 "FAIL: streamed and materialized sweeps disagree — the "
                 "shard-boundary determinism contract is broken\n");
  }
  return bench::publish(util::Json(std::move(doc)), passed,
                        bench::kCorpusGate);
}
