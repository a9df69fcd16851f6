#include "corpus_workload.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "browser/page_loader.h"
#include "dataset/collector.h"
#include "dataset/snapshot.h"
#include "model/coalescing_model.h"
#include "util/fnv.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "web/har_json.h"

namespace perfbench {

namespace dataset = origin::dataset;
namespace measure = origin::measure;
namespace util = origin::util;
namespace web = origin::web;

namespace {

// Same sampling parameters as the repository's crash and snapshot tests.
constexpr double kPassiveSampleRate = 0.05;
constexpr std::uint64_t kPassiveSeed = 0xCD4;

// Sites the corpus marks crawl-succeeded, in index order: the work list
// StreamingCorpus and collect() both derive from corpus state alone.
std::vector<std::size_t> eligible_sites(const dataset::Corpus& corpus) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    if (corpus.sites()[i].crawl_succeeded) eligible.push_back(i);
  }
  return eligible;
}

// Per-page aggregation, identical to the pipeline's own: the §4.2 counts
// and PLT sums, and an FNV-1a chain over each page's HAR JSON.
class Aggregate {
 public:
  dataset::StreamStats stats;
  std::uint64_t digest_bytes = 0;

  void measured(const web::PageLoad& load) {
    stats.pages += 1;
    stats.entries += load.entries.size();
    stats.measured_dns += load.dns_query_count();
    stats.measured_tls += load.tls_connection_count();
    stats.measured_validations += load.certificate_validation_count();
    stats.measured_plt_us += load.page_load_time().count_micros();
    stats.measured_digest = digest(load, stats.measured_digest);
  }

  void analyzed(const origin::model::PageAnalysis& analysis) {
    stats.ideal_origin_dns += analysis.ideal_origin_dns;
    stats.ideal_origin_tls += analysis.ideal_origin_tls;
    stats.ideal_origin_validations += analysis.ideal_origin_validations;
    stats.ideal_ip_dns += analysis.ideal_ip_dns;
    stats.ideal_ip_tls += analysis.ideal_ip_tls;
  }

  void reconstructed(const web::PageLoad& load) {
    stats.reconstructed_plt_us += load.page_load_time().count_micros();
    stats.reconstructed_digest = digest(load, stats.reconstructed_digest);
  }

 private:
  std::uint64_t digest(const web::PageLoad& load, std::uint64_t seed) {
    const std::string json = web::to_har_string(load);
    digest_bytes += json.size();
    return util::fnv1a64(json, seed);
  }
};

std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

bool same_output(const CorpusOutput& a, const CorpusOutput& b,
                 std::string* why) {
  const dataset::StreamStats& x = a.stats;
  const dataset::StreamStats& y = b.stats;
  const struct {
    const char* name;
    bool equal;
  } fields[] = {
      {"sites", x.sites == y.sites},
      {"pages", x.pages == y.pages},
      {"entries", x.entries == y.entries},
      {"measured_digest", x.measured_digest == y.measured_digest},
      {"reconstructed_digest",
       x.reconstructed_digest == y.reconstructed_digest},
      {"measured_dns", x.measured_dns == y.measured_dns},
      {"measured_tls", x.measured_tls == y.measured_tls},
      {"measured_validations",
       x.measured_validations == y.measured_validations},
      {"ideal_origin_dns", x.ideal_origin_dns == y.ideal_origin_dns},
      {"ideal_origin_tls", x.ideal_origin_tls == y.ideal_origin_tls},
      {"ideal_origin_validations",
       x.ideal_origin_validations == y.ideal_origin_validations},
      {"ideal_ip_dns", x.ideal_ip_dns == y.ideal_ip_dns},
      {"ideal_ip_tls", x.ideal_ip_tls == y.ideal_ip_tls},
      {"measured_plt_us", x.measured_plt_us == y.measured_plt_us},
      {"reconstructed_plt_us",
       x.reconstructed_plt_us == y.reconstructed_plt_us},
      {"shard_crcs", a.shard_crcs == b.shard_crcs},
      {"passive", a.has_passive == b.has_passive &&
                      a.passive.sampled == b.passive.sampled &&
                      a.passive.control_connections ==
                          b.passive.control_connections &&
                      a.passive.experiment_connections ==
                          b.passive.experiment_connections &&
                      a.passive.reduction_vs_control ==
                          b.passive.reduction_vs_control},
  };
  for (const auto& field : fields) {
    if (!field.equal) {
      if (why != nullptr) *why = field.name;
      return false;
    }
  }
  return true;
}

std::uint64_t crc_chain(const std::vector<std::uint64_t>& shard_crcs) {
  // Chained over the hex form, as the repository's corpus bench records it.
  std::uint64_t chain = 0;
  for (std::uint64_t crc : shard_crcs) chain = util::crc64(hex64(crc), chain);
  return chain;
}

std::unique_ptr<dataset::Corpus> build_corpus(const CorpusConfig& config) {
  dataset::CorpusOptions options;
  options.site_count = config.sites;
  options.seed = config.seed;
  options.threads = config.threads;
  return std::make_unique<dataset::Corpus>(options);
}

dataset::StreamingOptions streaming_options(const CorpusConfig& config) {
  dataset::StreamingOptions options;
  options.loader.policy = "chromium-ip";
  options.loader.resolver.recursive_base = util::Duration::millis(55);
  options.threads = config.threads;
  options.sites_per_shard = config.sites_per_shard;
  options.spill_dir = config.spill_dir;
  return options;
}

std::unique_ptr<measure::PassiveShardObserver> make_observer(
    const dataset::Corpus& corpus, const CorpusConfig& config) {
  return std::make_unique<measure::PassiveShardObserver>(
      corpus.third_party_domain(), kPassiveSampleRate, kPassiveSeed,
      config.threads);
}

util::Result<StreamingRun> run_streaming(
    dataset::Corpus& corpus, const dataset::StreamingOptions& options,
    measure::PassiveShardObserver* observer) {
  dataset::StreamingOptions run_options = options;
  run_options.observer = observer;
  dataset::StreamingCorpus streaming(corpus, run_options);
  auto stats = streaming.run();
  if (!stats.ok()) return stats.error();
  StreamingRun run;
  run.output.stats = *stats;
  for (const dataset::ShardInfo& shard : streaming.shards()) {
    run.output.shard_crcs.push_back(shard.content_crc64);
  }
  if (observer != nullptr) {
    run.output.has_passive = true;
    run.output.passive = observer->stats();
  }
  run.recovery = streaming.recovery();
  run.shards = streaming.shards();
  return run;
}

util::Result<CorpusOutput> reference_output(dataset::Corpus& corpus,
                                            const CorpusConfig& config,
                                            bool with_observer) {
  CorpusOutput output;
  dataset::StreamingOptions options = streaming_options(config);
  options.spill_dir.clear();
  auto observer = with_observer ? make_observer(corpus, config) : nullptr;
  options.observer = observer.get();
  auto stats = dataset::run_materialized(corpus, options);
  if (!stats.ok()) return stats.error();
  output.stats = *stats;
  // run_materialized reports no shards; the reference CRCs come from
  // encoding the materialized pages shard by shard.
  output.stats.shards = 0;
  output.stats.snapshot_bytes = 0;
  if (observer != nullptr) {
    output.has_passive = true;
    output.passive = observer->stats();
  }

  dataset::CollectOptions collect_options;
  collect_options.loader = options.loader;
  collect_options.threads = config.threads;
  std::vector<web::PageLoad> loads;
  dataset::collect(corpus, collect_options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });
  dataset::TimelineColumns columns;
  for (std::size_t begin = 0; begin < loads.size();
       begin += config.sites_per_shard) {
    const std::size_t end =
        std::min(loads.size(), begin + config.sites_per_shard);
    columns.clear();
    columns.set_identity(output.shard_crcs.size(), config.seed, begin);
    for (std::size_t i = begin; i < end; ++i) columns.append_page(loads[i]);
    output.shard_crcs.push_back(util::crc64(dataset::encode_snapshot(columns)));
  }
  return output;
}

util::Result<TracedCorpusRun> run_traced(
    dataset::Corpus& corpus, const CorpusConfig& config,
    const std::vector<dataset::ShardInfo>* primed,
    measure::PassiveShardObserver* observer, Tracer& tracer) {
  Tracer::Scope root(&tracer, "corpus.run");
  const dataset::StreamingOptions options = streaming_options(config);
  util::ThreadPool pool(config.threads);

  // Shard plan: the primed run's shards, or a fresh plan over the
  // eligible sites written into the spill directory.
  struct PlannedShard {
    std::size_t first_site = 0;
    std::string path;
    std::uint64_t crc = 0;
  };
  std::vector<PlannedShard> plan;
  std::vector<std::size_t> eligible;
  {
    Tracer::Scope scope(&tracer, "dataset.plan");
    eligible = eligible_sites(corpus);
    if (primed != nullptr) {
      for (const dataset::ShardInfo& shard : *primed) {
        plan.push_back({shard.first_site, shard.path, shard.content_crc64});
      }
    } else {
      std::error_code ec;
      std::filesystem::create_directories(config.spill_dir, ec);
      if (ec) return util::make_error("cannot create " + config.spill_dir);
      for (std::size_t begin = 0; begin < eligible.size();
           begin += config.sites_per_shard) {
        plan.push_back(
            {begin, dataset::shard_file_path(config.spill_dir, plan.size()),
             0});
      }
    }
  }

  TracedCorpusRun run;
  CorpusOutput& output = run.output;
  if (primed == nullptr) {
    // Write path, as StreamingCorpus::generate() runs it per shard.
    std::vector<web::PageLoad> loads;
    dataset::TimelineColumns columns;
    for (std::size_t index = 0; index < plan.size(); ++index) {
      PlannedShard& shard = plan[index];
      const std::size_t count = std::min(config.sites_per_shard,
                                         eligible.size() - shard.first_site);
      loads.assign(count, web::PageLoad{});
      {
        Tracer::Scope region(&tracer, "browser.page_load_wall");
        const int parent = region.id();
        pool.parallel_for_index(count, [&](std::size_t k) {
          const std::size_t site = eligible[shard.first_site + k];
          const auto t0 = Clock::now();
          const web::Webpage page = corpus.page_for_site(site);
          const auto t1 = Clock::now();
          origin::browser::PageLoader loader(
              corpus.env(),
              dataset::loader_options_for_site(options.loader, site));
          loads[k] = loader.load(page);
          const auto t2 = Clock::now();
          tracer.record("dataset.page_gen", t0, t1, parent);
          tracer.record("browser.page_load_busy", t1, t2, parent);
        });
      }
      {
        Tracer::Scope scope(&tracer, "dataset.columns_append");
        columns.clear();
        columns.set_identity(index, config.seed, shard.first_site);
        for (const web::PageLoad& load : loads) columns.append_page(load);
      }
      util::Bytes encoded;
      {
        Tracer::Scope scope(&tracer, "dataset.snapshot_encode");
        encoded = dataset::encode_snapshot(columns);
      }
      {
        Tracer::Scope scope(&tracer, "util.crc64");
        shard.crc = util::crc64(encoded);
      }
      Tracer::Scope scope(&tracer, "dataset.shard_write");
      auto written = dataset::write_shard_file(shard.path, encoded);
      if (!written.ok()) return written.error();
    }
  }

  // Read path, as StreamingCorpus::analyze() runs it per shard.
  Aggregate agg;
  agg.stats.sites = eligible.size();
  agg.stats.shards = plan.size();
  origin::model::CoalescingModel model(corpus.env());
  if (observer != nullptr) observer->on_stream_restart();
  std::vector<web::PageLoad> pages;
  for (const PlannedShard& shard : plan) {
    util::Bytes bytes;
    {
      Tracer::Scope scope(&tracer, "dataset.shard_read");
      auto read = dataset::read_shard_file(shard.path);
      if (!read.ok()) return read.error();
      bytes = std::move(read).value();
    }
    {
      Tracer::Scope scope(&tracer, "util.crc64");
      if (util::crc64(bytes) != shard.crc) {
        return util::make_error("crc mismatch in " + shard.path);
      }
    }
    output.shard_crcs.push_back(shard.crc);
    agg.stats.snapshot_bytes += bytes.size();
    {
      Tracer::Scope scope(&tracer, "dataset.snapshot_decode");
      auto reader = dataset::SnapshotReader::open(bytes);
      if (!reader.ok()) return reader.error();
      const auto page_count = static_cast<std::size_t>(reader->meta().pages);
      pages.assign(page_count, web::PageLoad{});
      for (std::size_t i = 0; i < page_count; ++i) {
        reader.value().next_page(&pages[i]);
      }
    }
    {
      Tracer::Scope scope(&tracer, "web.har_digest");
      for (const web::PageLoad& page : pages) agg.measured(page);
    }
    std::vector<origin::model::PageAnalysis> analyses;
    {
      Tracer::Scope scope(&tracer, "model.analyze");
      analyses = model.analyze_batch(pages, config.threads);
    }
    for (const auto& analysis : analyses) agg.analyzed(analysis);
    if (observer != nullptr) {
      Tracer::Scope scope(&tracer, "measure.passive_observe");
      observer->on_shard(pages, shard.first_site);
    }
    std::vector<web::PageLoad> reconstructed;
    {
      Tracer::Scope scope(&tracer, "model.reconstruct");
      reconstructed =
          model.reconstruct_batch(pages, analyses, "", config.threads);
    }
    Tracer::Scope scope(&tracer, "web.har_digest");
    for (const web::PageLoad& page : reconstructed) agg.reconstructed(page);
  }
  if (primed == nullptr) {
    Tracer::Scope scope(&tracer, "dataset.shard_remove");
    for (const PlannedShard& shard : plan) {
      auto removed = dataset::remove_shard_file(shard.path);
      if (!removed.ok()) return removed.error();
    }
  }

  output.stats = agg.stats;
  if (observer != nullptr) {
    output.has_passive = true;
    output.passive = observer->stats();
  }
  run.digest_bytes = agg.digest_bytes;
  return run;
}

}  // namespace perfbench
