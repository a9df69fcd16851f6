#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string_view>

#include "dataset/catalog.h"
#include "dataset/collector.h"
#include "dataset/generator.h"
#include "util/fnv.h"

namespace origin::dataset {
namespace {

CorpusOptions small_options(std::size_t sites = 400, std::uint64_t seed = 7) {
  CorpusOptions options;
  options.site_count = sites;
  options.seed = seed;
  options.tail_service_count = 200;
  return options;
}

// FNV-1a over a stream of typed fields. Strings and lists carry their
// length, so adjacent fields cannot trade bytes without changing the hash.
struct FieldHash {
  std::uint64_t h = util::kFnvOffset;

  void u64(std::uint64_t value) { h = util::fnv1a64_mix(h, value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(std::string_view text) {
    u64(text.size());
    h = util::fnv1a64(text, h);
  }
  template <typename Strings>
  void strs(const Strings& texts) {
    u64(texts.size());
    for (const auto& text : texts) str(text);
  }
};

// Everything the generator synthesizes for a corpus: every service of the
// world (addresses, link, certificate), every SiteInfo field, and every
// Resource field of every eligible site's page.
std::uint64_t synthesis_digest(std::uint64_t seed, std::size_t threads) {
  CorpusOptions options;
  options.site_count = 2'000;
  options.seed = seed;
  options.threads = threads;
  Corpus corpus(options);

  FieldHash hash;
  for (const browser::Service& service : corpus.env().services()) {
    hash.str(service.name);
    hash.u64(service.asn);
    hash.str(service.provider);
    hash.u64(service.addresses.size());
    for (const dns::IpAddress& address : service.addresses) {
      hash.u64(static_cast<std::uint64_t>(address.family));
      hash.u64(address.value);
    }
    hash.strs(service.served_hostnames);
    hash.f64(service.server_think_ms);
    hash.u64(static_cast<std::uint64_t>(service.link.one_way.count_micros()));
    hash.f64(service.link.bandwidth_bytes_per_sec);
    const tls::Certificate& cert = *service.certificate;
    hash.u64(cert.serial);
    hash.str(cert.subject_common_name);
    hash.str(cert.issuer);
    hash.strs(cert.san_dns);
  }
  for (std::size_t i = 0; i < corpus.sites().size(); ++i) {
    const SiteInfo& site = corpus.sites()[i];
    hash.u64(site.rank);
    hash.str(site.domain);
    hash.str(site.provider);
    hash.u64(site.crawl_succeeded ? 1 : 0);
    hash.strs(site.shard_hostnames);
    hash.strs(site.third_party_hosts);
    hash.u64(site.page_seed);
    if (!site.crawl_succeeded) continue;

    const web::Webpage page = corpus.page_for_site(i);
    hash.u64(page.tranco_rank);
    hash.str(page.base_hostname);
    hash.u64(page.resources.size());
    for (const web::Resource& resource : page.resources) {
      hash.str(resource.hostname);
      hash.str(resource.path);
      hash.u64(static_cast<std::uint64_t>(resource.content_type));
      hash.u64(resource.size_bytes);
      hash.u64(resource.secure ? 1 : 0);
      hash.u64(static_cast<std::uint64_t>(resource.mode));
      hash.u64(static_cast<std::uint64_t>(resource.version));
      hash.u64(static_cast<std::uint64_t>(resource.recorded_version));
      hash.u64(static_cast<std::uint64_t>(resource.parent));
      hash.f64(resource.discovery_cpu_ms);
    }
  }
  return hash.h;
}

TEST(Catalog, SharesAreSane) {
  double hosting = 0, requests = 0;
  for (const auto& provider : providers()) {
    hosting += provider.hosting_share;
    requests += provider.request_share;
  }
  EXPECT_NEAR(hosting, 1.0, 0.02);
  EXPECT_NEAR(requests, 1.0, 0.02);

  double content = 0;
  for (const auto& type : content_types()) content += type.share;
  EXPECT_NEAR(content, 1.0, 0.02);

  double buckets = 0;
  for (const auto& bucket : rank_buckets()) {
    EXPECT_LT(bucket.rank_begin, bucket.rank_end);
    buckets += 1;
  }
  EXPECT_EQ(buckets, 5);
  EXPECT_EQ(bucket_for_rank(1).rank_begin, 0u);
  EXPECT_EQ(bucket_for_rank(499'999).rank_begin, 400'000u);
}

TEST(Catalog, PopularHostsReferenceKnownProviders) {
  std::set<std::string> orgs;
  for (const auto& provider : providers()) orgs.insert(provider.organization);
  for (const auto& host : popular_hosts()) {
    EXPECT_TRUE(orgs.contains(host.organization)) << host.hostname;
  }
}

TEST(Catalog, IssuersHaveCaLimits) {
  for (const auto& issuer : issuers()) {
    EXPECT_GE(issuer.max_san_entries, 100u) << issuer.name;
  }
}

TEST(Corpus, DeterministicAcrossInstances) {
  Corpus a(small_options());
  Corpus b(small_options());
  ASSERT_EQ(a.sites().size(), b.sites().size());
  for (std::size_t i = 0; i < a.sites().size(); i += 37) {
    EXPECT_EQ(a.sites()[i].domain, b.sites()[i].domain);
    EXPECT_EQ(a.sites()[i].provider, b.sites()[i].provider);
    auto page_a = a.page_for_site(i);
    auto page_b = b.page_for_site(i);
    ASSERT_EQ(page_a.resources.size(), page_b.resources.size());
    for (std::size_t r = 0; r < page_a.resources.size(); r += 11) {
      EXPECT_EQ(page_a.resources[r].hostname, page_b.resources[r].hostname);
      EXPECT_EQ(page_a.resources[r].size_bytes, page_b.resources[r].size_bytes);
    }
  }
}

TEST(Corpus, DifferentSeedsProduceDifferentWorlds) {
  Corpus a(small_options(200, 1));
  Corpus b(small_options(200, 2));
  int same = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    same += (a.sites()[i].provider == b.sites()[i].provider);
  }
  EXPECT_LT(same, 50);
}

TEST(Corpus, PageRegenerationIsStable) {
  Corpus corpus(small_options());
  auto first = corpus.page_for_site(3);
  auto second = corpus.page_for_site(3);
  ASSERT_EQ(first.resources.size(), second.resources.size());
  for (std::size_t r = 0; r < first.resources.size(); ++r) {
    EXPECT_EQ(first.resources[r].hostname, second.resources[r].hostname);
    EXPECT_EQ(first.resources[r].parent, second.resources[r].parent);
    EXPECT_EQ(first.resources[r].mode, second.resources[r].mode);
  }
}

TEST(Corpus, PagesHaveValidDependencyStructure) {
  Corpus corpus(small_options());
  for (std::size_t i = 0; i < corpus.sites().size(); i += 17) {
    auto page = corpus.page_for_site(i);
    ASSERT_FALSE(page.resources.empty());
    EXPECT_EQ(page.resources[0].parent, -1);
    EXPECT_EQ(page.resources[0].hostname, page.base_hostname);
    for (std::size_t r = 1; r < page.resources.size(); ++r) {
      // Parents always precede children (the loader relies on this).
      EXPECT_GE(page.resources[r].parent, 0);
      EXPECT_LT(page.resources[r].parent, static_cast<int>(r));
    }
  }
}

TEST(Corpus, EveryPageHostnameHasAService) {
  Corpus corpus(small_options());
  for (std::size_t i = 0; i < corpus.sites().size(); i += 13) {
    auto page = corpus.page_for_site(i);
    for (const auto& resource : page.resources) {
      EXPECT_NE(corpus.env().find_service(resource.hostname), nullptr)
          << resource.hostname;
    }
  }
}

TEST(Corpus, SiteCertificateCoversBaseDomain) {
  Corpus corpus(small_options());
  for (std::size_t i = 0; i < corpus.sites().size(); i += 13) {
    auto* service = corpus.service_for_site(i);
    ASSERT_NE(service, nullptr);
    EXPECT_TRUE(service->certificate->covers(corpus.sites()[i].domain) ||
                service->certificate->san_dns.empty() == false ||
                service->certificate->subject_common_name ==
                    corpus.sites()[i].domain);
  }
}

TEST(Corpus, SitesUsingFindsThirdPartyUsers) {
  Corpus corpus(small_options(600));
  auto users = corpus.sites_using("cdnjs.cloudflare.com", 1000);
  EXPECT_GT(users.size(), 10u);
  for (std::size_t site : users) {
    const auto& hosts = corpus.sites()[site].third_party_hosts;
    EXPECT_NE(std::find(hosts.begin(), hosts.end(), "cdnjs.cloudflare.com"),
              hosts.end());
  }
  EXPECT_EQ(corpus.sites_using("cdnjs.cloudflare.com", 5).size(), 5u);
}

// The synthesized world itself, pinned ahead of page loading: the HAR
// digests cover it only through the loader. Any change to a draw, its
// order or its inputs moves these values; the corpus is bit-identical at
// any thread count.
TEST(Corpus, SynthesisDigestIsPinned) {
  const struct {
    std::uint64_t seed;
    std::uint64_t digest;
  } kPins[] = {
      {42, 0xa2b2297b8866322fULL},
      {7, 0xebba269479a7e4d1ULL},
  };
  for (const auto& pin : kPins) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("seed=" + std::to_string(pin.seed) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(synthesis_digest(pin.seed, threads), pin.digest);
    }
  }
}

TEST(Corpus, SuccessRatesTrackTable1) {
  Corpus corpus(small_options(3000));
  std::size_t successes = 0;
  for (const auto& site : corpus.sites()) successes += site.crawl_succeeded;
  const double rate =
      static_cast<double>(successes) / static_cast<double>(corpus.sites().size());
  EXPECT_NEAR(rate, 0.6351, 0.04);  // paper: 63.51% overall
}

TEST(Collector, SkipsFailedCrawlsAndStreams) {
  Corpus corpus(small_options());
  CollectOptions options;
  std::size_t sunk = 0;
  std::size_t loaded = collect(corpus, options,
                               [&](const SiteInfo& site, const web::PageLoad& load) {
                                 EXPECT_TRUE(site.crawl_succeeded);
                                 EXPECT_FALSE(load.entries.empty());
                                 ++sunk;
                               });
  EXPECT_EQ(loaded, sunk);
  EXPECT_LT(loaded, corpus.sites().size());
  EXPECT_GT(loaded, corpus.sites().size() / 2);
}

TEST(Collector, MaxSitesLimits) {
  Corpus corpus(small_options());
  CollectOptions options;
  options.max_sites = 10;
  std::size_t loaded = collect(corpus, options,
                               [](const SiteInfo&, const web::PageLoad&) {});
  EXPECT_EQ(loaded, 10u);
}

TEST(Collector, ProtocolMixRoughlyMatchesTable3) {
  Corpus corpus(small_options(800));
  CollectOptions options;
  std::uint64_t h2 = 0, h1 = 0, na = 0, total = 0, secure = 0;
  collect(corpus, options, [&](const SiteInfo&, const web::PageLoad& load) {
    for (const auto& entry : load.entries) {
      ++total;
      secure += entry.secure;
      if (entry.version == web::HttpVersion::kH2) ++h2;
      if (entry.version == web::HttpVersion::kH11) ++h1;
      if (entry.version == web::HttpVersion::kUnknown) ++na;
    }
  });
  EXPECT_NEAR(static_cast<double>(h2) / static_cast<double>(total), 0.74, 0.08);
  EXPECT_NEAR(static_cast<double>(h1) / static_cast<double>(total), 0.19, 0.08);
  EXPECT_NEAR(static_cast<double>(na) / static_cast<double>(total), 0.068, 0.03);
  EXPECT_NEAR(static_cast<double>(secure) / static_cast<double>(total), 0.985,
              0.02);
}

}  // namespace
}  // namespace origin::dataset
