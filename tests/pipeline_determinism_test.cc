// The parallel pipeline's contract: ORIGIN_THREADS=8 produces byte-identical
// output to the serial fallback (threads=1) at every stage — corpus
// generation, page-load collection, model replay, and passive aggregation.
// Identity is checked on serialized artifacts (HAR JSON, rendered report
// tables, log records), the same byte streams the benches write to disk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cdn/deployment.h"
#include "dataset/collector.h"
#include "dataset/generator.h"
#include "measure/passive.h"
#include "measure/reports.h"
#include "model/baseline_model.h"
#include "model/coalescing_model.h"
#include "web/har_json.h"

namespace origin {
namespace {

dataset::CorpusOptions corpus_options(std::size_t threads) {
  dataset::CorpusOptions options;
  options.site_count = 300;
  options.seed = 77;
  options.tail_service_count = 200;
  options.threads = threads;
  return options;
}

// Corpus generation: the serial RNG prepass + ordered materialize keep the
// whole world identical, down to certificate serial numbers.
TEST(PipelineDeterminism, CorpusIsThreadCountInvariant) {
  dataset::Corpus serial(corpus_options(1));
  dataset::Corpus parallel(corpus_options(8));

  ASSERT_EQ(serial.sites().size(), parallel.sites().size());
  for (std::size_t i = 0; i < serial.sites().size(); ++i) {
    const auto& a = serial.sites()[i];
    const auto& b = parallel.sites()[i];
    EXPECT_EQ(a.domain, b.domain);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.provider, b.provider);
    EXPECT_EQ(a.crawl_succeeded, b.crawl_succeeded);
    EXPECT_EQ(a.page_seed, b.page_seed);
    EXPECT_EQ(a.shard_hostnames, b.shard_hostnames);
    EXPECT_EQ(a.third_party_hosts, b.third_party_hosts);
    auto* sa = serial.service_for_site(i);
    auto* sb = parallel.service_for_site(i);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sa->certificate->serial, sb->certificate->serial);
    EXPECT_EQ(sa->certificate->issuer, sb->certificate->issuer);
    EXPECT_EQ(sa->certificate->san_dns, sb->certificate->san_dns);
    EXPECT_EQ(sa->addresses, sb->addresses);
  }
}

std::vector<std::string> collect_hars(dataset::Corpus& corpus,
                                      std::size_t threads) {
  dataset::CollectOptions options;
  options.threads = threads;
  options.max_sites = 120;
  std::vector<std::string> hars;
  dataset::collect(corpus, options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     hars.push_back(web::to_har_string(load));
                   });
  return hars;
}

// Collection: per-site loaders + index-ordered sink make the HAR byte
// stream identical at any worker count.
TEST(PipelineDeterminism, CollectedHarsAreThreadCountInvariant) {
  dataset::Corpus corpus_a(corpus_options(1));
  dataset::Corpus corpus_b(corpus_options(4));
  const auto serial = collect_hars(corpus_a, 1);
  const auto parallel = collect_hars(corpus_b, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "page " << i;
  }
}

// Dataset report tables render the same bytes.
TEST(PipelineDeterminism, ReportTablesAreThreadCountInvariant) {
  auto render_all = [](std::size_t threads) {
    dataset::Corpus corpus(corpus_options(threads));
    measure::DatasetReport report;
    dataset::CollectOptions options;
    options.threads = threads;
    dataset::collect(corpus, options,
                     [&](const dataset::SiteInfo& site,
                         const web::PageLoad& load) { report.add(site, load); });
    std::string all;
    for (const auto& table :
         {report.table1_summary(), report.table2_ases(),
          report.table3_protocols(), report.table4_issuers(),
          report.table7_hostnames(), report.fig1_unique_ases()}) {
      all += table.render();
      all += '\n';
    }
    return all;
  };
  EXPECT_EQ(render_all(1), render_all(8));
}

// Model replay: analyze_batch / reconstruct_batch merge by input index.
TEST(PipelineDeterminism, ModelBatchesAreThreadCountInvariant) {
  dataset::Corpus corpus(corpus_options(1));
  std::vector<web::PageLoad> loads;
  dataset::CollectOptions options;
  options.max_sites = 60;
  dataset::collect(corpus, options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });
  ASSERT_FALSE(loads.empty());

  model::CoalescingModel model(corpus.env());
  const auto serial_analyses = model.analyze_batch(loads, 1);
  const auto parallel_analyses = model.analyze_batch(loads, 8);
  ASSERT_EQ(serial_analyses.size(), parallel_analyses.size());
  for (std::size_t i = 0; i < serial_analyses.size(); ++i) {
    EXPECT_EQ(serial_analyses[i].ideal_origin_dns,
              parallel_analyses[i].ideal_origin_dns);
    EXPECT_EQ(serial_analyses[i].ideal_origin_tls,
              parallel_analyses[i].ideal_origin_tls);
    EXPECT_EQ(serial_analyses[i].ideal_ip_tls,
              parallel_analyses[i].ideal_ip_tls);
    ASSERT_EQ(serial_analyses[i].entries.size(),
              parallel_analyses[i].entries.size());
    for (std::size_t j = 0; j < serial_analyses[i].entries.size(); ++j) {
      EXPECT_EQ(serial_analyses[i].entries[j].coalescable_origin,
                parallel_analyses[i].entries[j].coalescable_origin);
      // Interned ids must match *as ids* — the serial prepass assigns them
      // before any worker runs, at every thread count.
      EXPECT_EQ(serial_analyses[i].entries[j].group,
                parallel_analyses[i].entries[j].group);
    }
  }

  const auto serial_rec = model.reconstruct_batch(loads, serial_analyses, "", 1);
  const auto parallel_rec =
      model.reconstruct_batch(loads, parallel_analyses, "", 8);
  ASSERT_EQ(serial_rec.size(), parallel_rec.size());
  for (std::size_t i = 0; i < serial_rec.size(); ++i) {
    EXPECT_EQ(web::to_har_string(serial_rec[i]),
              web::to_har_string(parallel_rec[i]))
        << "page " << i;
  }

  // The fused replay path must equal analyze_batch + reconstruct_batch.
  const auto fused = model.replay_batch(loads, "", 8);
  ASSERT_EQ(fused.size(), serial_rec.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(web::to_har_string(fused[i]), web::to_har_string(serial_rec[i]))
        << "page " << i;
  }
}

// Golden test for the interned hot path: the seed's string-keyed model
// (frozen in baseline_model.h) and the interned model must produce
// byte-identical analyses and reconstructed timelines, at 1 and 8 threads
// and for both the unrestricted and group-restricted replays.
TEST(PipelineDeterminism, InternedModelMatchesStringKeyedBaseline) {
  dataset::Corpus corpus(corpus_options(1));
  std::vector<web::PageLoad> loads;
  dataset::CollectOptions options;
  options.max_sites = 60;
  dataset::collect(corpus, options,
                   [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                     loads.push_back(load);
                   });
  ASSERT_FALSE(loads.empty());

  for (auto grouping :
       {model::Grouping::kAsn, model::Grouping::kProvider,
        model::Grouping::kService}) {
    model::CoalescingModel interned(corpus.env(), grouping);
    model::baseline::BaselineCoalescingModel baseline(corpus.env(), grouping);

    // A real group key (the first site's own group) for the restricted
    // replay, plus one that matches nothing.
    const std::string site_group{
        interned.group_name(interned.group_of(loads[0].base_hostname, 0))};
    for (const std::string& restrict_to : {std::string(), site_group,
                                          std::string("as99999999")}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto analyses = interned.analyze_batch(loads, threads);
        const auto reconstructed =
            interned.reconstruct_batch(loads, analyses, restrict_to, threads);
        const auto fused = interned.replay_batch(loads, restrict_to, threads);
        // Consume overload: hand over a copy, get the same reconstruction
        // back in place.
        const auto consumed = interned.replay_batch(
            std::vector<web::PageLoad>(loads), restrict_to, threads);
        ASSERT_EQ(analyses.size(), loads.size());
        for (std::size_t i = 0; i < loads.size(); ++i) {
          const auto expected_analysis = baseline.analyze(loads[i]);
          const auto& actual = analyses[i];
          EXPECT_EQ(expected_analysis.measured_dns, actual.measured_dns);
          EXPECT_EQ(expected_analysis.measured_tls, actual.measured_tls);
          EXPECT_EQ(expected_analysis.measured_validations,
                    actual.measured_validations);
          EXPECT_EQ(expected_analysis.ideal_origin_dns,
                    actual.ideal_origin_dns);
          EXPECT_EQ(expected_analysis.ideal_origin_tls,
                    actual.ideal_origin_tls);
          EXPECT_EQ(expected_analysis.ideal_origin_validations,
                    actual.ideal_origin_validations);
          EXPECT_EQ(expected_analysis.ideal_ip_dns, actual.ideal_ip_dns);
          EXPECT_EQ(expected_analysis.ideal_ip_tls, actual.ideal_ip_tls);
          ASSERT_EQ(expected_analysis.entries.size(), actual.entries.size());
          for (std::size_t j = 0; j < actual.entries.size(); ++j) {
            EXPECT_EQ(expected_analysis.entries[j].coalescable_origin,
                      actual.entries[j].coalescable_origin);
            EXPECT_EQ(expected_analysis.entries[j].coalescable_ip,
                      actual.entries[j].coalescable_ip);
            // Ids spell back to the exact seed group keys.
            EXPECT_EQ(expected_analysis.entries[j].group_key,
                      interned.group_name(actual.entries[j].group));
          }

          const auto expected_load =
              baseline.reconstruct(loads[i], expected_analysis, restrict_to);
          EXPECT_EQ(web::to_har_string(expected_load),
                    web::to_har_string(reconstructed[i]))
              << "grouping " << model::grouping_name(grouping) << " restrict '"
              << restrict_to << "' threads " << threads << " page " << i;
          EXPECT_EQ(web::to_har_string(expected_load),
                    web::to_har_string(fused[i]));
          EXPECT_EQ(web::to_har_string(expected_load),
                    web::to_har_string(consumed[i]));
        }
      }
    }
  }
}

// End-to-end passive measurement: the full longitudinal experiment (page
// loads + hash-sampled aggregation) is bitwise identical at 1 vs 8 threads.
TEST(PipelineDeterminism, PassiveLongitudinalIsThreadCountInvariant) {
  auto run = [](std::size_t threads) {
    dataset::Corpus corpus(corpus_options(threads));
    cdn::DeploymentOptions options;
    options.threads = threads;
    cdn::Deployment deployment(corpus, options);
    deployment.prepare();
    return deployment.run_passive_longitudinal(6, 2, 4, 10,
                                               "firefox-transitive");
  };
  const auto serial = run(1);
  const auto parallel = run(8);

  for (auto treatment :
       {measure::Treatment::kControl, measure::Treatment::kExperiment}) {
    EXPECT_EQ(serial.pipeline.new_connections(treatment),
              parallel.pipeline.new_connections(treatment));
    EXPECT_EQ(serial.pipeline.coalesced_connections(treatment),
              parallel.pipeline.coalesced_connections(treatment));
    for (std::uint64_t day = 0; day < 6; ++day) {
      EXPECT_EQ(serial.pipeline.new_connections_on_day(treatment, day),
                parallel.pipeline.new_connections_on_day(treatment, day));
    }
  }
  const auto& a = serial.pipeline.records();
  const auto& b = parallel.pipeline.records();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].connection_id, b[i].connection_id);
    EXPECT_EQ(a[i].sni, b[i].sni);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].host_differs_sni, b[i].host_differs_sni);
    EXPECT_EQ(a[i].arrival_order, b[i].arrival_order);
    EXPECT_EQ(a[i].day, b[i].day);
  }
}

}  // namespace
}  // namespace origin
