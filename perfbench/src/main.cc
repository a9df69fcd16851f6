// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload corpus-stream|corpus-replay|wire-origin
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--source ID]
//
// Untraced (--trace 0) it sets the workload up several times, then runs it
// closed-loop for S seconds, checks every run's outputs against a
// reference, and prints the end-to-end metrics. Traced (--trace 1) it
// alternates an untraced and a traced pass for S seconds, requires the two
// to agree bit for bit, prints the per-layer metrics and writes every span
// to FILE. The last stdout line is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus_workload.h"
#include "trace.h"
#include "wire_workload.h"

namespace {

using namespace perfbench;
namespace dataset = origin::dataset;

// --- workload sizes ---------------------------------------------------------
// Corpus: 1,000 synthesized sites (~640 eligible) in shards of 128. On a
// 4-core host one StreamingCorpus::run takes 2-3 s while the HAR-JSON
// digest dominates, so a 20 s run times about seven; it should still take
// a few hundred ms once the digest is cheap.
constexpr std::size_t kCorpusSites = 1'000;
constexpr std::size_t kSitesPerShard = 128;
// Wire: 48 distinct worlds of 8 pages drawn from a 2,000-site corpus, run
// in passes over all 48 until the time is up: a 20 s run times 20-30
// passes, about a thousand worlds (>= 10 beyond p95).
constexpr std::size_t kWireCorpusSites = 2'000;
constexpr std::size_t kWireWorlds = 48;
constexpr std::size_t kPagesPerWorld = 8;
// Set-up repetitions per run (the median is reported). The replay set-up
// includes a full priming run, so it repeats fewer times.
constexpr int kSetupRepeats = 9;
constexpr int kReplaySetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string source = "unknown";
  std::string trace_out = "perfbench-spans.json";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--source") {
      args->source = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;

    } else {
      return false;
    }
  }
  return (args->workload == "corpus-stream" ||
          args->workload == "corpus-replay" ||
          args->workload == "wire-origin") &&
         args->seconds > 0;
}

std::size_t bench_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware == 0 ? 1 : hardware, 1, 4);
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Nearest-rank percentile.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines before the JSON

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why) {
    correct = false;
    const std::string note = "CHECK FAILED: " + why;
    if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
      notes.push_back(note);
    }
  }
};

void print(const Args& args, const Result& result) {
  std::printf("fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %zu, \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.workload == "wire-origin" ? std::size_t{1} : bench_threads(),
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, args.source.c_str());
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("error_rate %s ratio (%llu failed of %llu attempted)\n",
              number(error_rate).c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const Metric& metric : result.metrics) {
    std::printf("%-32s %s %s\n", metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct && result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Work per second over a run's equal units of work (StreamingCorpus::run
// calls, or passes over all worlds), taken at the fast quartile of the unit
// times. Interference from the rest of a shared host only ever slows a
// unit; over six 20 s wire-origin runs of one seed on a 4-core VM whose
// speed drifts by tens of percent, the 25th-percentile pass time varied
// 12% (max/min) where the median varied 21%.
double rate_per_s(double work_per_unit, const std::vector<double>& unit_ms) {
  return work_per_unit * 1000.0 / percentile(unit_ms, 0.25);
}

std::string unit_times(const char* label, const std::vector<double>& unit_ms) {
  std::string line = label;
  for (double ms : unit_ms) {
    line += ' ';
    line += std::to_string(std::lround(ms));
  }
  return line;
}

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
// Throughput counts requests (HAR entries) rather than sites or page loads:
// page sizes vary from seed to seed, requests do the work.
void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    double requests_per_s, double rss_mb) {
  std::string timed = "set-ups timed (s):";
  for (double s : setup_s) {
    timed += ' ';
    timed += number(s);
  }
  result.notes.push_back(timed);
  result.add("setup_s", median(setup_s), "s");
  result.add("requests_per_s", requests_per_s, "1/s");
  result.add("peak_rss_mb", rss_mb, "MiB");
}

// A labelled line for the workload's own figures outside the contract.
std::string figure(const char* name, double value, const char* unit) {
  char line[128];
  std::snprintf(line, sizeof(line), "%-32s %s %s", name,
                number(value).c_str(), unit);
  return line;
}

// Every per-layer metric, in BENCHMARK.json order; layers a workload skips
// report 0.
struct LayerMetrics {
  std::vector<Metric> values;

  LayerMetrics() {
    const std::pair<const char*, const char*> layout[] = {
        {"dataset.corpus_build_ms", "ms"},
        {"dataset.page_gen_ms", "ms"},
        {"browser.page_load_busy_ms", "ms"},
        {"browser.page_load_wall_ms", "ms"},
        {"browser.pool_utilization", "ratio"},
        {"dataset.columns_append_ms", "ms"},
        {"dataset.snapshot_encode_ms", "ms"},
        {"dataset.snapshot_bytes_per_entry", "B/entry"},
        {"dataset.shard_write_ms", "ms"},
        {"dataset.shard_read_ms", "ms"},
        {"util.crc64_ms", "ms"},
        {"dataset.snapshot_decode_ms", "ms"},
        {"web.har_digest_ms", "ms"},
        {"web.har_digest_bytes_per_page", "B/page"},
        {"model.analyze_ms", "ms"},
        {"model.reconstruct_ms", "ms"},
        {"measure.passive_observe_ms", "ms"},
        {"measure.sampled", "count"},
        {"dataset.shards_reused_share", "ratio"},
        {"corpus.serial_share", "ratio"},
        {"wire.world_build_ms", "ms"},
        {"netsim.run_ms", "ms"},
        {"netsim.events_per_load", "count/load"},
        {"netsim.ns_per_event", "ns"},
        {"netsim.bytes_per_load", "B/load"},
        {"server.handler_ms", "ms"},
        {"server.requests_per_load", "count/load"},
        {"server.origin_frames_sent", "count"},
        {"server.responses_421", "count"},
        {"browser.connections_per_load", "count/load"},
        {"browser.coalesced_share", "ratio"},
        {"tls.handshakes_per_load", "count/load"},
        {"dns.queries_per_load", "count/load"},
        {"h2.frame_parse_ns_per_byte", "ns/B"},
        {"h2.frames_per_load", "count/load"},
        {"hpack.decode_ns_per_block", "ns"},
        {"hpack.header_blocks_per_load", "count/load"},
        {"trace.unattributed_ms", "ms"},
        {"trace.overhead_share", "ratio"},
    };
    for (const auto& [name, unit] : layout) values.push_back({name, 0, unit});
  }

  void set(std::string_view name, double value) {
    for (Metric& metric : values) {
      if (metric.name == name) {
        metric.value = value;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
};

void write_spans(const Args& args, const Tracer& tracer, Result& result) {
  if (tracer.write_json(args.trace_out)) {
    result.notes.push_back("spans: " + std::to_string(tracer.spans().size()) +
                           " written to " + args.trace_out);
  } else {
    result.fail("cannot write spans to " + args.trace_out);
  }
}

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

// --- corpus workloads -------------------------------------------------------

bool fresh_dir(const std::string& path, Result& result) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) result.fail("cannot create " + path);
  return !ec;
}

// Compares a run with the materialized reference; a mismatch fails every
// site of that run.
void check_corpus(const CorpusOutput& output, const CorpusOutput& reference,
                  Result& result, const char* what) {
  std::string why;
  if (!same_output(output, reference, &why)) {
    result.failed += output.stats.sites;
    result.fail(std::string(what) + " differs from the reference in " + why);
  }
}

// Recovery must have reused every shard and rebuilt none.
void check_resumed(const StreamingRun& run, Result& result) {
  const dataset::RecoveryStats& recovery = run.recovery;
  if (recovery.shards_reused != run.output.stats.shards ||
      recovery.shards_regenerated != 0 || recovery.shards_quarantined != 0 ||
      recovery.manifest_resets != 0) {
    result.failed += run.output.stats.sites;
    result.fail("resumed run did not reuse every shard");
  }
}

int run_corpus(const Args& args, Result& result) {
  const bool replay = args.workload == "corpus-replay";
  CorpusConfig config;
  config.seed = args.seed;
  config.sites = kCorpusSites;
  config.threads = bench_threads();
  config.sites_per_shard = kSitesPerShard;
  config.spill_dir = args.work_dir + "/spill";
  const std::string traced_dir = args.work_dir + "/traced-spill";

  Tracer tracer;
  Tracer* setup_tracer = args.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::unique_ptr<dataset::Corpus> corpus;
  std::vector<dataset::ShardInfo> primed;
  const int repeats =
      args.trace ? 1 : (replay ? kReplaySetupRepeats : kSetupRepeats);
  for (int r = 0; r < repeats; ++r) {
    corpus.reset();
    if (!fresh_dir(config.spill_dir, result)) return 1;
    const auto t0 = Clock::now();
    {
      Tracer::Scope scope(setup_tracer, "dataset.corpus_build");
      corpus = build_corpus(config);
    }
    if (replay) {
      dataset::StreamingOptions options = streaming_options(config);
      options.keep_shards = true;
      auto primed_run = run_streaming(*corpus, options, nullptr);
      if (!primed_run.ok()) {
        result.fail("priming run: " + primed_run.error().message);
        return 1;
      }
      primed = primed_run->shards;
    }
    setup_s.push_back(seconds_since(t0));
  }

  dataset::StreamingOptions options = streaming_options(config);
  if (replay) {
    options.resume = true;
    options.keep_shards = true;
  }
  auto observer = replay ? make_observer(*corpus, config) : nullptr;
  auto traced_observer = replay ? make_observer(*corpus, config) : nullptr;

  std::vector<CorpusOutput> outputs;
  std::vector<double> run_ms;
  std::vector<double> traced_ms;
  double reused_share = 0;
  TracedCorpusRun traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  auto untraced_pass = [&]() {
    if (!replay && !fresh_dir(config.spill_dir, result)) return false;
    const auto t0 = Clock::now();
    auto run = run_streaming(*corpus, options, observer.get());
    const double ms = elapsed_ms(t0, Clock::now());
    if (!run.ok()) {
      result.fail("StreamingCorpus::run: " + run.error().message);
      return false;
    }
    result.attempted += run->output.stats.sites;
    if (replay) check_resumed(*run, result);
    reused_share = ratio(static_cast<double>(run->recovery.shards_reused),
                         static_cast<double>(run->output.stats.shards));
    run_ms.push_back(ms);
    outputs.push_back(run->output);
    return true;
  };
  auto traced_pass = [&]() {
    if (!replay && !fresh_dir(traced_dir, result)) return false;
    CorpusConfig traced_config = config;
    traced_config.spill_dir = traced_dir;
    const auto t0 = Clock::now();
    auto traced_run =
        run_traced(*corpus, traced_config, replay ? &primed : nullptr,
                   traced_observer.get(), tracer);
    traced_ms.push_back(elapsed_ms(t0, Clock::now()));
    if (!traced_run.ok()) {
      result.fail("traced pipeline: " + traced_run.error().message);
      return false;
    }
    result.attempted += traced_run->output.stats.sites;
    traced = std::move(traced_run).value();
    return true;
  };
  // Traced runs alternate which pass goes first, so neither side of the
  // overhead comparison always runs on a warmer heap.
  for (std::size_t pair = 0; pair == 0 || Clock::now() < deadline; ++pair) {
    const bool traced_first = args.trace && pair % 2 == 1;
    if (traced_first && !traced_pass()) return 1;
    if (!untraced_pass()) return 1;
    if (args.trace && !traced_first && !traced_pass()) return 1;
    if (args.trace) {
      check_corpus(traced.output, outputs.back(), result,
                   "traced pipeline output");
    }
  }
  const double rss_mb = peak_rss_mb();

  // The reference is computed after timing: the materialized path holds
  // every page at once, which would otherwise set the peak RSS.
  auto reference = reference_output(*corpus, config, replay);
  if (!reference.ok()) {
    result.fail("reference: " + reference.error().message);
    return 1;
  }
  for (const CorpusOutput& output : outputs) {
    check_corpus(output, *reference, result, "StreamingCorpus::run output");
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "reference: %zu sites, measured %016llx, reconstructed "
                "%016llx, shard crc chain %016llx",
                reference->stats.sites,
                static_cast<unsigned long long>(
                    reference->stats.measured_digest),
                static_cast<unsigned long long>(
                    reference->stats.reconstructed_digest),
                static_cast<unsigned long long>(
                    crc_chain(reference->shard_crcs)));
  result.notes.push_back(line);
  std::error_code ec;
  std::filesystem::remove_all(config.spill_dir, ec);
  std::filesystem::remove_all(traced_dir, ec);

  if (!args.trace) {
    const dataset::StreamStats& stats = outputs.front().stats;
    result.notes.push_back(figure(
        "sites_per_s", rate_per_s(static_cast<double>(stats.sites), run_ms),
        "1/s"));
    result.notes.push_back(unit_times("runs timed (ms):", run_ms));
    add_end_to_end(result, setup_s,
                   rate_per_s(static_cast<double>(stats.entries), run_ms),
                   rss_mb);
    return 0;
  }

  // Per-layer metrics: span totals per traced pass.
  const double passes = static_cast<double>(traced_ms.size());
  auto per_pass = [&](const char* span) {
    return tracer.total_ms(span) / passes;
  };
  const CorpusOutput& out = traced.output;
  LayerMetrics layers;
  layers.set("dataset.corpus_build_ms", tracer.total_ms("dataset.corpus_build"));
  layers.set("dataset.page_gen_ms", per_pass("dataset.page_gen"));
  layers.set("browser.page_load_busy_ms", per_pass("browser.page_load_busy"));
  layers.set("browser.page_load_wall_ms", per_pass("browser.page_load_wall"));
  layers.set("browser.pool_utilization",
             ratio(per_pass("dataset.page_gen") +
                       per_pass("browser.page_load_busy"),
                   per_pass("browser.page_load_wall") *
                       static_cast<double>(config.threads)));
  layers.set("dataset.columns_append_ms", per_pass("dataset.columns_append"));
  layers.set("dataset.snapshot_encode_ms", per_pass("dataset.snapshot_encode"));
  layers.set("dataset.snapshot_bytes_per_entry",
             ratio(static_cast<double>(out.stats.snapshot_bytes),
                   static_cast<double>(out.stats.entries)));
  layers.set("dataset.shard_write_ms", per_pass("dataset.shard_write"));
  layers.set("dataset.shard_read_ms", per_pass("dataset.shard_read"));
  layers.set("util.crc64_ms", per_pass("util.crc64"));
  layers.set("dataset.snapshot_decode_ms", per_pass("dataset.snapshot_decode"));
  layers.set("web.har_digest_ms", per_pass("web.har_digest"));
  layers.set("web.har_digest_bytes_per_page",
             ratio(static_cast<double>(traced.digest_bytes),
                   static_cast<double>(out.stats.pages)));
  layers.set("model.analyze_ms", per_pass("model.analyze"));
  layers.set("model.reconstruct_ms", per_pass("model.reconstruct"));
  layers.set("measure.passive_observe_ms", per_pass("measure.passive_observe"));
  layers.set("measure.sampled", static_cast<double>(out.passive.sampled));
  layers.set("dataset.shards_reused_share", reused_share);
  // Stages that fan out to the pool; everything else in the pass is serial.
  const double root_ms = per_pass("corpus.run");
  const double parallel_ms =
      per_pass("browser.page_load_wall") + per_pass("model.analyze") +
      per_pass("model.reconstruct") + per_pass("measure.passive_observe");
  layers.set("corpus.serial_share", ratio(root_ms - parallel_ms, root_ms));
  double unattributed = 0;
  const std::vector<Span> spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "corpus.run") {
      unattributed += tracer.uncovered_ms(static_cast<int>(i));
    }
  }
  layers.set("trace.unattributed_ms", unattributed / passes);
  layers.set("trace.overhead_share", median(traced_ms) / median(run_ms) - 1.0);
  result.metrics = layers.values;
  write_spans(args, tracer, result);
  return 0;
}

// --- wire workload -----------------------------------------------------------

int run_wire(const Args& args, Result& result) {
  WireConfig config;
  config.seed = args.seed;
  config.corpus_sites = kWireCorpusSites;
  config.worlds = kWireWorlds;
  config.pages_per_world = kPagesPerWorld;

  Tracer tracer;
  std::vector<double> setup_s;
  WireSetup setup;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    setup = WireSetup{};
    const auto t0 = Clock::now();
    std::string error;
    if (!build_wire_setup(config, args.trace ? &tracer : nullptr, &setup,
                          &error)) {
      result.fail(error);
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
  }
  origin::browser::Environment& env = setup.corpus->env();

  // Reference pass (untimed; also the warm-up): every load must complete
  // successfully, and every later world run must reproduce it exactly.
  std::vector<WorldOutput> reference;
  std::vector<double> reference_ms;
  for (const auto& pages : setup.worlds) {
    const auto t0 = Clock::now();
    reference.push_back(run_world(env, pages, {}));
    reference_ms.push_back(elapsed_ms(t0, Clock::now()));
    for (const LoadCounts& load : reference.back().loads) {
      ++result.attempted;
      if (!load.complete || !load.success) {
        ++result.failed;
        result.fail("reference load did not complete successfully");
      }
    }
  }

  // Throughput comes from passes over all worlds: every pass does the same
  // work (see rate_per_s). The loop always completes the first pass, so a
  // traced run traces every world at least once.
  std::vector<double> world_ms;
  std::vector<double> pass_ms;
  double open_pass_ms = 0;
  WireTraceCounts counts;
  std::size_t traced_worlds = 0;
  double traced_events = 0;
  double traced_reference_ms = 0;
  std::size_t loads = 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  for (std::size_t k = 0;
       k < setup.worlds.size() || Clock::now() < deadline; ++k) {
    const std::size_t w = k % setup.worlds.size();
    WorldRunOptions options;
    if (args.trace) {
      options.tracer = &tracer;
      options.trace = &counts;
      ++traced_worlds;
      traced_events += static_cast<double>(reference[w].sim_events);
      traced_reference_ms += reference_ms[w];
    }
    const auto t0 = Clock::now();
    const WorldOutput output = run_world(env, setup.worlds[w], options);
    world_ms.push_back(elapsed_ms(t0, Clock::now()));
    open_pass_ms += world_ms.back();
    if (w + 1 == setup.worlds.size()) {
      pass_ms.push_back(open_pass_ms);
      open_pass_ms = 0;
    }
    loads += output.loads.size();
    result.attempted += output.loads.size();
    if (!output.same_outcome(reference[w])) {
      result.failed += output.loads.size();
      result.fail("world " + std::to_string(w) + " differs from the reference");
    }
  }
  const double rss_mb = peak_rss_mb();
  if (counts.decode_errors != 0) {
    result.fail(std::to_string(counts.decode_errors) +
                " captured streams failed to parse or decode");
  }

  // Behaviour counts from the reference pass over every distinct world.
  double ref_loads = 0, connections = 0, coalesced = 0, ref_requests = 0;
  double tls = 0, dns = 0, events = 0, bytes = 0, server_requests = 0;
  double origin_frames = 0, responses_421 = 0, retries_421 = 0;
  for (const WorldOutput& output : reference) {
    for (const LoadCounts& load : output.loads) {
      ref_loads += 1;
      connections += static_cast<double>(load.connections_opened);
      coalesced += static_cast<double>(load.coalesced_requests);
      ref_requests += static_cast<double>(load.requests);
      tls += static_cast<double>(load.tls_handshakes);
      dns += static_cast<double>(load.dns_queries);
      retries_421 += static_cast<double>(load.retries_after_421);
    }
    events += static_cast<double>(output.sim_events);
    bytes += static_cast<double>(output.bytes_sent);
    server_requests += static_cast<double>(output.server_requests);
    origin_frames += static_cast<double>(output.origin_frames_sent);
    responses_421 += static_cast<double>(output.responses_421);
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "reference: %zu worlds x %zu pages, %.0f connections, %.0f "
                "coalesced of %.0f requests, %.0f retries after 421",
                setup.worlds.size(), config.pages_per_world, connections,
                coalesced, ref_requests, retries_421);
  result.notes.push_back(line);

  if (!args.trace) {
    const double p95 = percentile(world_ms, 0.95);
    const auto beyond = std::count_if(world_ms.begin(), world_ms.end(),
                                      [p95](double ms) { return ms > p95; });
    result.notes.push_back(
        figure("loads_per_s", rate_per_s(ref_loads, pass_ms), "1/s"));
    result.notes.push_back(
        figure("world_ms_p50", percentile(world_ms, 0.50), "ms"));
    result.notes.push_back(figure("world_ms_p95", p95, "ms"));
    result.notes.push_back("worlds timed: " + std::to_string(world_ms.size()) +
                           " (" + std::to_string(beyond) + " beyond p95)");
    result.notes.push_back(unit_times("passes timed (ms):", pass_ms));
    add_end_to_end(result, setup_s, rate_per_s(ref_requests, pass_ms), rss_mb);
    return 0;
  }

  const double worlds = static_cast<double>(traced_worlds);
  const double traced_loads = static_cast<double>(loads);
  LayerMetrics layers;
  layers.set("dataset.corpus_build_ms", tracer.total_ms("dataset.corpus_build"));
  layers.set("dataset.page_gen_ms", tracer.total_ms("dataset.page_gen"));
  layers.set("wire.world_build_ms", tracer.total_ms("wire.world_build") / worlds);
  layers.set("netsim.run_ms", tracer.total_ms("netsim.run") / worlds);
  layers.set("netsim.events_per_load", ratio(events, ref_loads));
  layers.set("netsim.ns_per_event",
             ratio(tracer.total_ms("netsim.run") * 1e6, traced_events));
  layers.set("netsim.bytes_per_load", ratio(bytes, ref_loads));
  layers.set("server.handler_ms",
             static_cast<double>(counts.handler_ns) / 1e6 / worlds);
  layers.set("server.requests_per_load", ratio(server_requests, ref_loads));
  layers.set("server.origin_frames_sent", origin_frames);
  layers.set("server.responses_421", responses_421);
  layers.set("browser.connections_per_load", ratio(connections, ref_loads));
  layers.set("browser.coalesced_share", ratio(coalesced, ref_requests));
  layers.set("tls.handshakes_per_load", ratio(tls, ref_loads));
  layers.set("dns.queries_per_load", ratio(dns, ref_loads));
  layers.set("h2.frame_parse_ns_per_byte",
             ratio(static_cast<double>(counts.parse_ns),
                   static_cast<double>(counts.captured_bytes)));
  layers.set("h2.frames_per_load",
             ratio(static_cast<double>(counts.frames), traced_loads));
  layers.set("hpack.decode_ns_per_block",
             ratio(static_cast<double>(counts.decode_ns),
                   static_cast<double>(counts.header_blocks)));
  layers.set("hpack.header_blocks_per_load",
             ratio(static_cast<double>(counts.header_blocks), traced_loads));
  double unattributed = 0;
  const std::vector<Span> spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "wire.world") {
      unattributed += tracer.uncovered_ms(static_cast<int>(i));
    }
  }
  layers.set("trace.unattributed_ms", unattributed / worlds);
  // Overhead on the timed path: traced worlds without their post-run
  // decode, against the same worlds' untraced reference runs.
  layers.set("trace.overhead_share",
             (tracer.total_ms("wire.world") - tracer.total_ms("wire.decode")) /
                     traced_reference_ms -
                 1.0);
  result.metrics = layers.values;
  write_spans(args, tracer, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus-stream|corpus-replay|"
                 "wire-origin --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--trace-out FILE] [--source ID]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  Result result;
  const int status = args.workload == "wire-origin" ? run_wire(args, result)
                                                    : run_corpus(args, result);
  if (status != 0) {
    for (const std::string& note : result.notes) {
      std::fprintf(stderr, "%s\n", note.c_str());
    }
    return status;
  }
  print(args, result);
  return 0;
}
