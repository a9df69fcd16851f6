// Load→model bench: wall-clock for the sharded corpus pipeline (generate ->
// load -> analyze -> reconstruct) at 1/2/4/8 worker threads, and the
// model's allocations against the frozen string-keyed seed model.
//
// Emits BENCH_pipeline.json through bench/report.h with per-stage times
// (`digest_ms` is the part of `load_ms` spent inside the sink's
// har_digest calls), speedups relative to the serial fallback, and a
// digest of the serialized HAR stream per run — the digest must be
// identical across thread counts (the determinism contract; also enforced
// bitwise by pipeline_determinism_test), and a run where it is not fails
// and writes no report.
//
// The 1-thread run also counts each model call's allocations with
// util::AllocGuard (at one thread the batch runs inline, so every
// allocation lands on the calling thread), and runs the string-keyed
// model (model/baseline_model.h) serially over the same pages, timed and
// counted. At the default --sites and --seed the page count, the
// baseline's allocations and each 1-thread model call's allocations are
// pinned exactly; any other size prints that the pins were not checked.
// Wall-clock, the speedups and the baseline-over-interned ratio are
// recorded, not gated, and speedups are only meaningful on a multi-core
// host.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "model/baseline_model.h"
#include "model/coalescing_model.h"
#include "report.h"
#include "util/alloc_guard.h"
#include "util/fnv.h"
#include "util/json.h"
#include "web/har_json.h"

namespace {

struct Measurement {
  double ms = 0;
  std::uint64_t allocations = 0;  // on the calling thread
};

// Runs `body` timed, counting the calling thread's allocations.
template <typename Fn>
Measurement measured(Fn&& body) {
  const origin::util::AllocGuard guard;
  const auto start = std::chrono::steady_clock::now();
  body();
  return {origin::bench::ms_since(start), guard.allocations()};
}

struct RunResult {
  std::size_t threads = 1;
  double generate_ms = 0;
  double load_ms = 0;
  double digest_ms = 0;  // inside load_ms
  Measurement analyze;
  Measurement reconstruct;
  Measurement baseline;  // 1-thread run only
  std::uint64_t har_digest = 0;
  std::size_t pages = 0;
  double total_ms() const {
    return generate_ms + load_ms + analyze.ms + reconstruct.ms;
  }
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

  const model::CoalescingModel model(corpus.env());
  std::vector<model::PageAnalysis> analyses;
  result.analyze =
      measured([&] { analyses = model.analyze_batch(loads, threads); });
  result.reconstruct = measured([&] {
    auto reconstructed = model.reconstruct_batch(loads, analyses, "", threads);
    (void)reconstructed;
  });

  if (threads == 1) {
    const model::baseline::BaselineCoalescingModel baseline(corpus.env());
    result.baseline = measured([&] {
      for (const auto& load : loads) {
        const auto analysis = baseline.analyze(load);
        const auto rebuilt = baseline.reconstruct(load, analysis);
        (void)rebuilt;
      }
    });
  }
  return result;
}

origin::util::Json measurement_json(const Measurement& m) {
  origin::util::Json::Object object;
  object["ms"] = m.ms;
  object["allocations"] = m.allocations;
  return origin::util::Json(std::move(object));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace origin;
  const bench::Args defaults{};
  const auto args = bench::Args::parse(argc, argv, defaults);
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
        "analyze=%7.1fms  reconstruct=%7.1fms  total=%8.1fms  "
        "speedup=%.2fx  digest=%016llx\n",
        r.threads, r.generate_ms, r.load_ms, r.digest_ms, r.analyze.ms,
        r.reconstruct.ms, r.total_ms(), runs.front().total_ms() / r.total_ms(),
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

  const RunResult& serial = runs.front();
  const double interned_ms = serial.analyze.ms + serial.reconstruct.ms;
  const double baseline_ratio =
      interned_ms <= 0 ? 0.0 : serial.baseline.ms / interned_ms;
  std::printf("\nserial model over %zu pages:\n", serial.pages);
  auto report = [&](const char* label, const Measurement& m) {
    std::printf("  %-24s %9.1f ms  %9llu allocations (%.1f/page)\n", label,
                m.ms, static_cast<unsigned long long>(m.allocations),
                serial.pages == 0 ? 0.0
                                  : static_cast<double>(m.allocations) /
                                        static_cast<double>(serial.pages));
  };
  report("baseline (string-keyed)", serial.baseline);
  report("analyze_batch", serial.analyze);
  report("reconstruct_batch", serial.reconstruct);
  std::printf("  baseline / interned pair: %.2fx (recorded, not gated)\n",
              baseline_ratio);

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
    run["analyze_ms"] = r.analyze.ms;
    run["reconstruct_ms"] = r.reconstruct.ms;
    run["total_ms"] = r.total_ms();
    run["speedup_vs_serial"] = runs.front().total_ms() / r.total_ms();
    run["har_digest"] = digest;
    run_array.emplace_back(std::move(run));
  }
  util::Json::Object serial_model;
  serial_model["baseline_string"] = measurement_json(serial.baseline);
  serial_model["analyze_batch"] = measurement_json(serial.analyze);
  serial_model["reconstruct_batch"] = measurement_json(serial.reconstruct);
  serial_model["baseline_ratio"] = baseline_ratio;

  util::Json::Object doc;
  doc["bench"] = "pipeline";
  doc["sites"] = args.sites;
  doc["seed"] = args.seed;
  doc["pages"] = serial.pages;
  doc["deterministic"] = deterministic;
  doc["peak_rss_bytes"] = bench::peak_rss_bytes();
  doc["runs"] = util::Json(std::move(run_array));
  doc["serial_model"] = util::Json(std::move(serial_model));

  const bool pinned = bench::default_run_pins_hold(
      args.sites == defaults.sites && args.seed == defaults.seed,
      {
          {"pages", serial.pages, 4'000},
          {"serial_model.baseline_string.allocations",
           serial.baseline.allocations, 1'461'198},
          {"serial_model.analyze_batch.allocations",
           serial.analyze.allocations, 4'012},
          {"serial_model.reconstruct_batch.allocations",
           serial.reconstruct.allocations, 680'561},
      });
  return bench::publish(util::Json(std::move(doc)), deterministic && pinned,
                        "pipeline");
}
