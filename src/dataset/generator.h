// Synthetic Tranco-like corpus generator.
//
// Builds a serving world (Environment: services, DNS, certificates) plus a
// ranked list of websites whose structure is sampled from the catalog's
// paper-calibrated distributions. Pages are generated lazily and
// deterministically — `page_for_site(i)` always returns the same page for
// the same corpus seed — so corpus-scale experiments can stream page loads
// without holding 35M requests in memory.
//
// Every weighted draw reads a util::WeightedTable of running sums that the
// constructor builds once (catalog shares, destination weights, one
// content-type table per organization); a table draw picks the index, and
// consumes the draw, that Rng::weighted(span) would over the same weights.
// Page synthesis finds a site's third-party destinations through a
// hostname index built at the same time. Tables and index are read-only
// once the constructor returns, so concurrent page_for_site calls take no
// lock (DESIGN.md §8). Corpus.SynthesisDigestIsPinned pins the world.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "browser/environment.h"
#include "dataset/catalog.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "web/resource.h"

namespace origin::dataset {

struct CorpusOptions {
  // Number of ranked sites to synthesize. Ranks are spread uniformly over
  // the Tranco 500K range so Table 1's per-bucket structure holds at any
  // scale.
  std::size_t site_count = 20'000;
  std::uint64_t seed = 42;

  // Number of distinct long-tail third-party services in the world. The
  // other world-shape values are constants in generator.cc, calibrated
  // against the paper.
  std::size_t tail_service_count = 1'500;

  // Worker threads for the per-site sampling phase. 0 resolves via
  // ORIGIN_THREADS / hardware concurrency; 1 is the serial fallback. Any
  // value yields the bit-identical corpus: per-site RNGs are forked in a
  // serial prepass (forking mutates the parent stream, so it must happen in
  // index order) and certificate issuance is materialized serially in index
  // order after the parallel sampling.
  std::size_t threads = 1;
};

struct SiteInfo {
  std::uint64_t rank = 0;            // Tranco rank (1-based)
  std::string domain;                // registrable domain
  std::string provider;              // hosting organization
  bool crawl_succeeded = true;       // Table 1 success rates
  std::vector<std::string> shard_hostnames;
  // Third-party destinations this site's page draws from (chosen at corpus
  // build time so sample selection never needs page regeneration).
  std::vector<std::string> third_party_hosts;
  std::uint64_t page_seed = 0;
};

class Corpus {
 public:
  Corpus(CorpusOptions options);

  const CorpusOptions& options() const { return options_; }
  browser::Environment& env() { return env_; }
  const std::vector<SiteInfo>& sites() const { return sites_; }

  // Deterministically regenerates site i's page.
  web::Webpage page_for_site(std::size_t site_index) const;

  // All sites whose base page uses `hostname` as a subresource — the §5.1
  // sample-selection step (most-requesting domains for the third party).
  std::vector<std::size_t> sites_using(const std::string& hostname,
                                       std::size_t limit) const;

  // The site's own service (certificate owner).
  browser::Service* service_for_site(std::size_t site_index);
  const std::string& third_party_domain() const { return third_party_domain_; }

 private:
  struct Destination {
    std::string hostname;
    std::size_t provider = 0;  // index into providers(): the organization
    web::ContentType dominant_type = web::ContentType::kOther;
    web::RequestMode mode = web::RequestMode::kSubresource;
    double weight = 1.0;
    double sri_churn = 0.05;  // per-page chance of CORS/fetch usage
    web::HttpVersion version = web::HttpVersion::kH2;
    bool secure = true;
  };
  // Where a third-party hostname sits in the two destination tables, in
  // the order page synthesis visits them: popular first, then tail.
  struct DestinationMatch {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::size_t popular = kNone;
    std::size_t tail = kNone;
  };

  // One site's sampled state before the serial materialize step: everything
  // the per-site RNG determines, nothing that touches shared mutable state
  // (CA serial counters, the service registry). Drafting is the parallel
  // region; materializing stays serial and ordered.
  struct SiteDraft {
    SiteInfo site;
    browser::Service service;  // certificate filled at materialize time
    std::vector<std::string> sans;
    std::string issuer_name;
  };

  void build_providers();
  void build_popular_services();
  void build_tail_services();
  void index_destinations();
  void build_sites();
  SiteDraft draft_site(std::size_t index, origin::util::Rng site_rng) const;
  void materialize_site(SiteDraft draft);
  web::ContentType sample_content_type(origin::util::Rng& rng,
                                       std::size_t provider) const;
  std::size_t sample_san_count(origin::util::Rng& rng) const;

  CorpusOptions options_;
  mutable origin::util::Rng rng_;
  browser::Environment env_;
  std::vector<SiteInfo> sites_;
  std::vector<Destination> popular_destinations_;
  std::vector<Destination> tail_destinations_;

  // Draw tables and the destination index (see the file comment), built
  // by the constructor before any site is drafted; the parallel draft
  // phase and concurrent page_for_site calls read them without locks.
  util::WeightedTable hosting_table_;   // providers' hosting share
  util::WeightedTable issuer_table_;    // issuers' validation share
  util::WeightedTable san_table_;       // SAN-count bins
  // Content types for resources an organization serves (catalog share ×
  // provider_content_bias), index-aligned with providers().
  std::vector<util::WeightedTable> content_tables_;
  util::WeightedTable popular_table_;   // popular destinations' weights
  util::WeightedTable tail_table_;      // tail destinations' weights
  // Third-party hostname -> its destinations. The keys view the
  // destination vectors' hostnames, which are never resized after
  // index_destinations() runs; hostnames are unique within each vector.
  util::FlatMap<std::string_view, DestinationMatch> destination_index_;
  // Immutable once build_providers() returns, so the parallel draft phase
  // reads it without synchronization. (Site -> service resolution needs no
  // side table: the environment's interned host index already maps each
  // site domain to the service registered for it.)
  util::FlatMap<std::string, std::vector<dns::IpAddress>> provider_pools_;
  std::string third_party_domain_ = "cdnjs.cloudflare.com";
};

}  // namespace origin::dataset
