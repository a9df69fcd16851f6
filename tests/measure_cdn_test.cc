#include <gtest/gtest.h>

#include "cdn/deployment.h"
#include "dataset/collector.h"
#include "dataset/generator.h"
#include "measure/passive.h"
#include "measure/reports.h"

namespace origin {
namespace {

dataset::CorpusOptions small_options(std::size_t sites = 800) {
  dataset::CorpusOptions options;
  options.site_count = sites;
  options.seed = 11;
  options.tail_service_count = 300;
  return options;
}

// --- Passive pipeline (§5.2 method) ---

web::PageLoad synthetic_load(bool coalesced, std::uint64_t conn_base) {
  web::PageLoad load;
  web::HarEntry base;
  base.hostname = "site.example";
  base.connection_id = conn_base;
  base.new_tls_connection = true;
  load.entries.push_back(base);

  web::HarEntry third;
  third.hostname = "thirdparty.example";
  if (coalesced) {
    third.connection_id = conn_base;  // rides the site's connection
    third.new_tls_connection = false;
  } else {
    third.connection_id = conn_base + 1;
    third.new_tls_connection = true;
  }
  load.entries.push_back(third);
  return load;
}

TEST(PassivePipeline, CountsNewConnectionsPerTreatment) {
  measure::PassivePipeline pipeline(1.0, 1);  // sample everything
  for (int i = 0; i < 10; ++i) {
    pipeline.observe(synthetic_load(false, 100 + static_cast<std::uint64_t>(i) * 10),
                     "thirdparty.example", measure::Treatment::kControl, 0);
  }
  for (int i = 0; i < 10; ++i) {
    pipeline.observe(synthetic_load(i < 6, 500 + static_cast<std::uint64_t>(i) * 10),
                     "thirdparty.example", measure::Treatment::kExperiment, 0);
  }
  EXPECT_EQ(pipeline.new_connections(measure::Treatment::kControl), 10u);
  EXPECT_EQ(pipeline.new_connections(measure::Treatment::kExperiment), 4u);
  EXPECT_NEAR(pipeline.reduction_vs_control(), 0.6, 1e-9);
}

TEST(PassivePipeline, FlagBitDetectsCoalescedConnections) {
  measure::PassivePipeline pipeline(1.0, 1);
  pipeline.observe(synthetic_load(true, 100), "thirdparty.example",
                   measure::Treatment::kExperiment, 0);
  pipeline.observe(synthetic_load(false, 200), "thirdparty.example",
                   measure::Treatment::kControl, 0);
  // The coalesced request has Host != SNI and arrival order 2.
  EXPECT_EQ(pipeline.coalesced_connections(measure::Treatment::kExperiment),
            1u);
  EXPECT_EQ(pipeline.coalesced_connections(measure::Treatment::kControl), 0u);
  for (const auto& record : pipeline.records()) {
    if (record.treatment == measure::Treatment::kExperiment &&
        record.host == "thirdparty.example") {
      EXPECT_TRUE(record.host_differs_sni);
      EXPECT_EQ(record.sni, "site.example");
      EXPECT_GE(record.arrival_order, 2u);
    }
  }
}

TEST(PassivePipeline, SamplingReducesRecordsNotConnectionCounts) {
  measure::PassivePipeline sampled(0.01, 2);
  for (int i = 0; i < 300; ++i) {
    sampled.observe(synthetic_load(false, static_cast<std::uint64_t>(i) * 10),
                    "thirdparty.example", measure::Treatment::kControl, 0);
  }
  EXPECT_EQ(sampled.new_connections(measure::Treatment::kControl), 300u);
  EXPECT_LT(sampled.sampled_records(), 30u);  // ~1% of 300
}

// --- DatasetReport ---

TEST(DatasetReport, AggregatesAndRenders) {
  auto corpus = dataset::Corpus(small_options(400));
  measure::DatasetReport report;
  dataset::CollectOptions options;
  dataset::collect(corpus, options,
                   [&](const dataset::SiteInfo& site, const web::PageLoad& load) {
                     report.add(site, load);
                   });
  EXPECT_GT(report.total_pages(), 200u);
  EXPECT_GT(report.total_requests(), 10'000u);
  for (const auto& table :
       {report.table1_summary(), report.table2_ases(),
        report.table3_protocols(), report.table4_issuers(),
        report.table5_content_types(), report.table6_as_content(),
        report.table7_hostnames(), report.fig1_unique_ases()}) {
    auto rendered = table.render();
    EXPECT_GT(rendered.size(), 50u);
    EXPECT_NE(rendered.find('\n'), std::string::npos);
  }
}

// --- Deployment (§5) ---

class DeploymentTest : public ::testing::Test {
 protected:
  DeploymentTest() : corpus_(small_options()), deployment_(corpus_, opts()) {
    enrolled_ = deployment_.prepare();
  }
  static cdn::DeploymentOptions opts() {
    cdn::DeploymentOptions options;
    options.visit_churn = 0.0;  // determinism where the test needs it
    return options;
  }
  dataset::Corpus corpus_;
  cdn::Deployment deployment_;
  std::size_t enrolled_ = 0;
};

TEST_F(DeploymentTest, PrepareSplitsAndReissues) {
  ASSERT_GT(enrolled_, 20u);
  EXPECT_EQ(enrolled_, deployment_.experiment_sites().size() +
                           deployment_.control_sites().size());
  EXPECT_GT(deployment_.subpage_only_dropped(), 0u);
  EXPECT_EQ(deployment_.third_party().size(),
            deployment_.control_pad_domain().size());
  for (std::size_t site : deployment_.experiment_sites()) {
    auto* service = corpus_.service_for_site(site);
    ASSERT_NE(service, nullptr);
    EXPECT_TRUE(service->certificate->covers(deployment_.third_party()));
    EXPECT_FALSE(service->certificate->covers(
        deployment_.control_pad_domain()));
  }
  for (std::size_t site : deployment_.control_sites()) {
    auto* service = corpus_.service_for_site(site);
    ASSERT_NE(service, nullptr);
    EXPECT_FALSE(service->certificate->covers(deployment_.third_party()));
    EXPECT_TRUE(service->certificate->covers(
        deployment_.control_pad_domain()));
  }
}

TEST_F(DeploymentTest, IpDeploymentSharesAddressAndUndoRestores) {
  const std::size_t site = deployment_.experiment_sites().front();
  const std::string domain = corpus_.sites()[site].domain;
  auto before = corpus_.env().find_service(domain)->addresses;

  deployment_.deploy_ip_coalescing();
  auto shared = corpus_.env().find_service(domain)->addresses;
  ASSERT_EQ(shared.size(), 1u);
  auto third_party_addrs =
      corpus_.env().find_service(deployment_.third_party())->addresses;
  ASSERT_EQ(third_party_addrs.size(), 1u);
  EXPECT_EQ(shared[0], third_party_addrs[0]);
  EXPECT_TRUE(corpus_.env()
                  .find_service(domain)
                  ->served_hostnames.contains(deployment_.third_party()));

  deployment_.undo_ip_coalescing();
  EXPECT_EQ(corpus_.env().find_service(domain)->addresses, before);
  EXPECT_FALSE(corpus_.env()
                   .find_service(domain)
                   ->served_hostnames.contains(deployment_.third_party()));
}

TEST_F(DeploymentTest, OriginDeploymentConfiguresFramesPerGroup) {
  deployment_.deploy_origin_frames();
  const std::size_t exp = deployment_.experiment_sites().front();
  auto* exp_service = corpus_.service_for_site(exp);
  EXPECT_TRUE(exp_service->origin_frame_enabled);
  bool advertises_third_party = false;
  for (const auto& origin : exp_service->origin_advertisement) {
    if (origin == "https://" + deployment_.third_party()) {
      advertises_third_party = true;
    }
  }
  EXPECT_TRUE(advertises_third_party);

  const std::size_t ctrl = deployment_.control_sites().front();
  auto* ctrl_service = corpus_.service_for_site(ctrl);
  EXPECT_TRUE(ctrl_service->origin_frame_enabled);
  for (const auto& origin : ctrl_service->origin_advertisement) {
    EXPECT_NE(origin, "https://" + deployment_.third_party());
  }
  deployment_.undo_origin_frames();
  EXPECT_FALSE(exp_service->origin_frame_enabled);
}

TEST_F(DeploymentTest, ActiveMeasurementShowsCoalescingUnderOrigin) {
  deployment_.deploy_origin_frames();
  auto result = deployment_.run_active("firefox-transitive", 99);
  deployment_.undo_origin_frames();
  auto zero_share = [](const std::vector<double>& v) {
    std::size_t zero = 0;
    for (double x : v) zero += (x == 0);
    return static_cast<double>(zero) / static_cast<double>(v.size());
  };
  ASSERT_FALSE(result.experiment_new_connections.empty());
  ASSERT_FALSE(result.control_new_connections.empty());
  EXPECT_GT(zero_share(result.experiment_new_connections), 0.4);
  EXPECT_LT(zero_share(result.control_new_connections), 0.25);
}

TEST_F(DeploymentTest, PassiveLongitudinalShowsWindowedReduction) {
  auto result = deployment_.run_passive_longitudinal(
      12, 4, 8, 20, "firefox-transitive");
  std::uint64_t in_exp = 0, in_ctrl = 0, out_exp = 0, out_ctrl = 0;
  for (std::uint64_t day = 0; day < 12; ++day) {
    const bool in_window = day >= 4 && day < 8;
    (in_window ? in_exp : out_exp) += result.pipeline.new_connections_on_day(
        measure::Treatment::kExperiment, day);
    (in_window ? in_ctrl : out_ctrl) += result.pipeline.new_connections_on_day(
        measure::Treatment::kControl, day);
  }
  // Outside the window the groups behave alike; inside, the experiment
  // group opens clearly fewer connections.
  EXPECT_GT(out_exp, 0u);
  EXPECT_LT(static_cast<double>(in_exp),
            0.8 * static_cast<double>(in_ctrl));
}

}  // namespace
}  // namespace origin
