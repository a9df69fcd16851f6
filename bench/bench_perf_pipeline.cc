// Pipeline scaling bench: wall-clock for the sharded corpus pipeline
// (generate -> load -> model) at 1/2/4/8 worker threads.
//
// Emits BENCH_pipeline.json through bench/report.h with per-stage times
// (`digest_ms` is the part of `load_ms` spent inside the sink's
// har_digest calls), speedups relative to the serial fallback, and a
// digest of the serialized HAR stream per run — the digest must be
// identical across thread counts (the determinism contract; also enforced
// bitwise by pipeline_determinism_test), and a run where it is not fails
// and writes no report. Wall-clock is recorded, not gated, and speedups
// are only meaningful on a multi-core host; on one core the interesting
// column is the digest.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "model/coalescing_model.h"
#include "report.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/har_json.h"

namespace {

struct RunResult {
  std::size_t threads = 1;
  double generate_ms = 0;
  double load_ms = 0;
  double digest_ms = 0;  // inside load_ms
  double model_ms = 0;
  std::uint64_t har_digest = 0;
  std::size_t pages = 0;
  double total_ms() const { return generate_ms + load_ms + model_ms; }
};

RunResult run_once(const origin::bench::Args& args, std::size_t threads,
                   std::size_t max_pages) {
  using namespace origin;
  RunResult result;
  result.threads = threads;

  auto t0 = std::chrono::steady_clock::now();
  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = args.sites;
  corpus_options.seed = args.seed;
  corpus_options.threads = threads;
  dataset::Corpus corpus(corpus_options);
  result.generate_ms = bench::ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  auto collect_options = bench::chrome_collect_options();
  collect_options.threads = threads;
  collect_options.max_sites = max_pages;
  std::vector<web::PageLoad> loads;
  std::uint64_t digest = origin::util::fnv1a64("pipeline");
  dataset::collect(corpus, collect_options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     const auto start = std::chrono::steady_clock::now();
                     digest = web::har_digest(load, digest);
                     result.digest_ms += bench::ms_since(start);
                     loads.push_back(load);
                   });
  result.load_ms = bench::ms_since(t0);
  result.har_digest = digest;
  result.pages = loads.size();

  t0 = std::chrono::steady_clock::now();
  model::CoalescingModel model(corpus.env());
  auto analyses = model.analyze_batch(loads, threads);
  auto reconstructed = model.reconstruct_batch(loads, analyses, "", threads);
  (void)reconstructed;
  result.model_ms = bench::ms_since(t0);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace origin;
  auto args = bench::Args::parse(argc, argv);
  bench::print_header(
      "Pipeline scaling: generate -> load -> model at 1/2/4/8 threads",
      "engineering bench (no paper figure); determinism contract of the "
      "sharded pipeline",
      args);

  // Bound the loaded-page count so the model stage's in-memory HAR set stays
  // small at large --sites values; scaling behaviour is unaffected.
  const std::size_t max_pages = 4'000;

  std::vector<RunResult> runs;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    runs.push_back(run_once(args, threads, max_pages));
    const RunResult& r = runs.back();
    std::printf(
        "threads=%zu  generate=%8.1fms  load=%8.1fms (digest=%7.1fms)  "
        "model=%8.1fms  total=%8.1fms  speedup=%.2fx  digest=%016llx\n",
        r.threads, r.generate_ms, r.load_ms, r.digest_ms, r.model_ms,
        r.total_ms(), runs.front().total_ms() / r.total_ms(),
        static_cast<unsigned long long>(r.har_digest));
  }

  bool deterministic = true;
  for (const auto& r : runs) {
    if (r.har_digest != runs.front().har_digest ||
        r.pages != runs.front().pages) {
      deterministic = false;
    }
  }
  std::printf("\nHAR digest identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  util::Json::Array run_array;
  for (const RunResult& r : runs) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.har_digest));
    util::Json::Object run;
    run["threads"] = r.threads;
    run["generate_ms"] = r.generate_ms;
    run["load_ms"] = r.load_ms;
    run["digest_ms"] = r.digest_ms;
    run["model_ms"] = r.model_ms;
    run["total_ms"] = r.total_ms();
    run["speedup_vs_serial"] = runs.front().total_ms() / r.total_ms();
    run["har_digest"] = digest;
    run_array.emplace_back(std::move(run));
  }
  util::Json::Object doc;
  doc["bench"] = "pipeline";
  doc["sites"] = args.sites;
  doc["seed"] = args.seed;
  doc["pages"] = runs.front().pages;
  doc["deterministic"] = deterministic;
  doc["peak_rss_bytes"] = bench::peak_rss_bytes();
  doc["runs"] = util::Json(std::move(run_array));
  return bench::publish(util::Json(std::move(doc)), deterministic,
                        "pipeline");
}
