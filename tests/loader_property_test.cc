// Cross-seed invariants of the corpus generator + page loader + model —
// the properties every experiment silently relies on, checked over several
// independently-seeded worlds.
#include <gtest/gtest.h>

#include <set>

#include "dataset/collector.h"
#include "dataset/generator.h"
#include "model/coalescing_model.h"

namespace origin {
namespace {

class LoaderInvariantSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  dataset::Corpus make_corpus() {
    dataset::CorpusOptions options;
    options.site_count = 300;
    options.seed = GetParam();
    options.tail_service_count = 150;
    return dataset::Corpus(options);
  }
};

TEST_P(LoaderInvariantSweep, HarStructureInvariants) {
  auto corpus = make_corpus();
  dataset::CollectOptions options;
  dataset::collect(corpus, options, [&](const dataset::SiteInfo& site,
                                        const web::PageLoad& load) {
    // One HAR entry per resource, in dispatch order, starting with the base
    // document at t=0.
    auto page = corpus.page_for_site(0);  // structural check only below
    (void)page;
    ASSERT_FALSE(load.entries.empty());
    EXPECT_EQ(load.entries.front().hostname, site.domain);
    EXPECT_EQ(load.entries.front().start.micros(), 0);

    std::set<std::string> hosts;
    std::size_t real_dns = 0, real_tls = 0;
    for (const auto& entry : load.entries) {
      hosts.insert(entry.hostname);
      real_dns += entry.new_dns_query;
      real_tls += entry.new_tls_connection;
      // Phase durations are never negative.
      EXPECT_GE(entry.timings.blocked.count_micros(), 0);
      EXPECT_GE(entry.timings.dns.count_micros(), 0);
      EXPECT_GE(entry.timings.connect.count_micros(), 0);
      EXPECT_GE(entry.timings.ssl.count_micros(), 0);
      EXPECT_GE(entry.timings.receive.count_micros(), 0);
      // Carried requests reference a live connection.
      if (entry.new_tls_connection) {
        EXPECT_NE(entry.connection_id, 0u);
      }
      // Validations happen exactly on new TLS connections.
      EXPECT_EQ(entry.cert_san_count >= 0, entry.new_tls_connection);
    }
    // At most one fresh (non-cache) resolution per hostname: the per-page
    // resolver cache de-duplicates (TTLs far exceed page times).
    EXPECT_LE(real_dns, hosts.size());
    // Totals are the per-entry counts plus the race extras.
    EXPECT_EQ(load.dns_query_count(), real_dns + load.extra_dns_queries);
    EXPECT_EQ(load.tls_connection_count(),
              real_tls + load.extra_tls_connections);
    // PLT covers every entry.
    for (const auto& entry : load.entries) {
      EXPECT_LE(entry.end().micros(), load.page_load_time().count_micros());
    }
  });
}

TEST_P(LoaderInvariantSweep, PolicyOrderingHoldsPerPage) {
  // Chromium never uses fewer connections than Firefox, which never uses
  // fewer than the spec-pure ORIGIN client — page by page, not just in
  // aggregate. (Race extras are disabled: they are independent draws per
  // policy run and would blur the deterministic comparison.)
  auto corpus = make_corpus();
  auto run = [&](const char* policy) {
    dataset::CollectOptions options;
    options.loader.policy = policy;
    options.loader.happy_eyeballs_extra_dns = 0;
    options.loader.speculative_extra_connection = 0;
    options.max_sites = 60;
    std::vector<std::size_t> tls;
    dataset::collect(corpus, options,
                     [&](const dataset::SiteInfo&, const web::PageLoad& load) {
                       tls.push_back(load.tls_connection_count());
                     });
    return tls;
  };
  auto chromium = run("chromium-ip");
  auto firefox = run("firefox-transitive");
  auto origin_frame = run("origin-frame");
  ASSERT_EQ(chromium.size(), firefox.size());
  ASSERT_EQ(firefox.size(), origin_frame.size());
  for (std::size_t i = 0; i < chromium.size(); ++i) {
    EXPECT_GE(chromium[i], firefox[i]) << "page " << i;
    EXPECT_GE(firefox[i], origin_frame[i]) << "page " << i;
  }
}

TEST_P(LoaderInvariantSweep, ModelIdealsNeverExceedMeasured) {
  auto corpus = make_corpus();
  model::CoalescingModel coalescing_model(corpus.env());
  dataset::CollectOptions options;
  dataset::collect(corpus, options, [&](const dataset::SiteInfo&,
                                        const web::PageLoad& load) {
    auto analysis = coalescing_model.analyze(load);
    EXPECT_LE(analysis.ideal_origin_tls, analysis.measured_tls);
    EXPECT_LE(analysis.ideal_origin_dns, analysis.measured_dns);
    EXPECT_LE(analysis.ideal_ip_tls, analysis.measured_tls);
    EXPECT_LE(analysis.ideal_ip_dns, analysis.measured_dns);
    // ORIGIN subsumes IP coalescing opportunities.
    EXPECT_LE(analysis.ideal_origin_tls, analysis.ideal_ip_tls);
    EXPECT_LE(analysis.ideal_origin_validations,
              analysis.measured_validations);
    // Reconstruction never lengthens the page.
    auto reconstructed = coalescing_model.reconstruct(load, analysis);
    EXPECT_LE(reconstructed.page_load_time().count_micros(),
              load.page_load_time().count_micros());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoaderInvariantSweep,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace origin
