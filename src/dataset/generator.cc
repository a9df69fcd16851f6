#include "dataset/generator.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "util/check.h"
#include "util/flat_map.h"
#include "util/thread_pool.h"

namespace origin::dataset {

using browser::Service;
using dns::IpAddress;
using origin::util::Duration;
using origin::util::Rng;
using origin::util::SimTime;
using origin::util::WeightedTable;

namespace {

constexpr std::uint64_t kTrancoRange = 500'000;

// Shard subdomain labels used by sharded sites.
constexpr const char* kShardLabels[] = {"static", "img", "cdn", "assets",
                                        "media", "js"};

netsim::LinkParams cdn_link(Rng& rng) {
  netsim::LinkParams link;
  link.one_way =
      Duration::millis(std::clamp(rng.lognormal(std::log(55.0), 0.45), 8.0, 220.0));
  link.bandwidth_bytes_per_sec = 1.2e6;
  return link;
}

netsim::LinkParams tail_link(Rng& rng) {
  netsim::LinkParams link;
  link.one_way = Duration::millis(
      std::clamp(rng.lognormal(std::log(130.0), 0.65), 15.0, 700.0));
  link.bandwidth_bytes_per_sec = 3.0e5;
  return link;
}

// Running sums of one field over a catalog table.
template <typename Spec, typename Field>
WeightedTable table_of(const std::vector<Spec>& specs, Field field) {
  std::vector<double> weights;
  weights.reserve(specs.size());
  for (const Spec& spec : specs) weights.push_back(field(spec));
  return WeightedTable(weights);
}

std::size_t provider_index(const std::string& organization) {
  const auto& specs = providers();
  for (std::size_t p = 0; p < specs.size(); ++p) {
    if (specs[p].organization == organization) return p;
  }
  ORIGIN_CHECK(false, "generator: organization is not a catalog provider");
  return 0;
}

}  // namespace

Corpus::Corpus(CorpusOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  build_providers();
  build_popular_services();
  build_tail_services();
  index_destinations();
  build_sites();
}

void Corpus::build_providers() {
  // CAs for every issuer in the catalog.
  for (const auto& issuer : issuers()) {
    env_.add_ca(issuer.name, issuer.max_san_entries);
  }
  // Shared anycast address pools per provider.
  std::uint32_t next_block = 0x0A00'0000;
  for (const auto& provider : providers()) {
    std::vector<IpAddress> pool;
    // Real CDN address estates are large: two arbitrary customer
    // configurations rarely share the exact same address, so ideal-IP
    // coalescing mostly merges hosts of the *same* deployment (the paper's
    // modest ~19%% TLS reduction for IP coalescing).
    const std::size_t pool_size = provider.is_cdn ? 4096 : 512;
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.push_back(IpAddress::v4(next_block + static_cast<std::uint32_t>(i)));
    }
    next_block += 0x0002'0000;
    provider_pools_[provider.organization] = std::move(pool);
  }

  // Draw tables over the catalog, before any draw.
  hosting_table_ = table_of(
      providers(), [](const ProviderSpec& p) { return p.hosting_share; });
  issuer_table_ = table_of(
      issuers(), [](const IssuerSpec& i) { return i.validation_share; });
  san_table_ = table_of(san_count_distribution(),
                        [](const SanCountBin& bin) { return bin.weight; });
  for (const auto& provider : providers()) {
    content_tables_.push_back(
        table_of(content_types(), [&](const ContentTypeSpec& spec) {
          return spec.share *
                 provider_content_bias(provider.organization, spec.type);
        }));
  }
}

std::size_t Corpus::sample_san_count(Rng& rng) const {
  const auto& bin = san_count_distribution()[rng.weighted(san_table_)];
  if (bin.san_count >= 0) return static_cast<std::size_t>(bin.san_count);
  // Heavy tail above 10: bounded Pareto calibrated so ~0.9% of tail sites
  // exceed 250 SAN names (230 sites in the paper's 315,796).
  return static_cast<std::size_t>(rng.pareto(11.0, 2000.0, 1.52));
}

web::ContentType Corpus::sample_content_type(Rng& rng,
                                             std::size_t provider) const {
  return content_types()[rng.weighted(content_tables_[provider])].type;
}

void Corpus::build_popular_services() {
  Rng rng = rng_.fork(0x90901);
  for (const auto& host : popular_hosts()) {
    const std::size_t provider = provider_index(host.organization);
    const ProviderSpec* provider_spec = &providers()[provider];
    Service service;
    service.name = "popular:" + host.hostname;
    service.asn = provider_spec->asn;
    service.provider = host.organization;
    // Three addresses from the provider pool, offset per host so distinct
    // popular hosts overlap partially (transitivity-friendly).
    const auto& pool = provider_pools_[host.organization];
    const std::size_t offset = rng.uniform(pool.size());
    for (std::size_t i = 0; i < 3; ++i) {
      service.addresses.push_back(pool[(offset + i) % pool.size()]);
    }
    service.served_hostnames = {host.hostname};
    auto* ca = env_.find_ca(provider_spec->ca_name);
    auto cert = ca->issue(host.hostname, {host.hostname},
                          SimTime::from_micros(0));
    service.certificate = std::make_shared<tls::Certificate>(*cert);
    service.server_think_ms = 10.0 + rng.uniform_double() * 30.0;
    service.link = cdn_link(rng);
    env_.add_service(std::move(service));

    Destination dest;
    dest.hostname = host.hostname;
    dest.provider = provider;
    dest.dominant_type = host.dominant_type;
    dest.mode = host.mode;
    dest.weight = host.request_share;
    dest.sri_churn = host.sri_churn;
    popular_destinations_.push_back(std::move(dest));
  }
  // Popular hosts get sliding-window DNS answers: high-traffic operators
  // load-balance aggressively (§2.3).
  for (const auto& host : popular_hosts()) {
    if (auto* zone = env_.dns().find_zone_for(host.hostname)) {
      zone->set_policy(host.hostname, dns::AnswerPolicy::kSubset);
    }
  }
}

void Corpus::build_tail_services() {
  Rng rng = rng_.fork(0x90902);
  // Tail third-party services are distributed over providers weighted by
  // request share — this is what pushes Google/Cloudflare/Amazon to their
  // Table 2 request shares beyond the Table 7 head.
  const WeightedTable request_table = table_of(
      providers(), [](const ProviderSpec& p) { return p.request_share; });
  for (std::size_t i = 0; i < options_.tail_service_count; ++i) {
    const std::size_t provider_at = rng.weighted(request_table);
    const auto& provider = providers()[provider_at];
    Service service;
    const std::string hostname =
        "t" + std::to_string(i) + ".thirdparty" + std::to_string(i % 600) +
        ".net";
    service.name = "tail:" + hostname;
    service.provider = provider.organization;
    if (provider.asn != 0) {
      service.asn = provider.asn;
      const auto& pool = provider_pools_[provider.organization];
      const std::size_t offset = rng.uniform(pool.size());
      for (std::size_t j = 0; j < 2; ++j) {
        service.addresses.push_back(pool[(offset + j) % pool.size()]);
      }
      service.link = cdn_link(rng);
    } else {
      // Long-tail hosting: its own small AS and address.
      service.asn = 60'000 + static_cast<std::uint32_t>(i % 2'000);
      service.addresses.push_back(
          IpAddress::v4(0xC000'0000 + static_cast<std::uint32_t>(i)));
      service.link = tail_link(rng);
    }
    service.served_hostnames = {hostname};
    auto* ca = env_.find_ca(provider.ca_name);
    auto cert = ca->issue(hostname, {hostname}, SimTime::from_micros(0));
    service.certificate = std::make_shared<tls::Certificate>(*cert);
    service.server_think_ms = 40.0 + rng.uniform_double() * 200.0;

    Destination dest;
    dest.hostname = hostname;
    dest.provider = provider_at;
    dest.dominant_type = sample_content_type(rng, provider_at);
    const double mode_draw = rng.uniform_double();
    dest.mode = mode_draw < 0.08   ? web::RequestMode::kFetchApi
                : mode_draw < 0.13 ? web::RequestMode::kCorsAnonymous
                                   : web::RequestMode::kSubresource;
    dest.weight = 0.3 + rng.uniform_double();
    // Protocol: most tails run h2; a visible share is stuck on h1.1
    // (Table 3's 19%); a sliver is plaintext (Table 3: 1.47% insecure).
    const double proto_draw = rng.uniform_double();
    if (proto_draw < 0.035) {
      dest.secure = false;
      dest.version = web::HttpVersion::kH11;
    } else if (proto_draw < 0.26) {
      dest.version = web::HttpVersion::kH11;
    } else if (proto_draw < 0.39) {
      dest.version = web::HttpVersion::kH3;
    }
    env_.add_service(std::move(service));
    tail_destinations_.push_back(std::move(dest));
  }
}

void Corpus::index_destinations() {
  auto weight = [](const Destination& dest) { return dest.weight; };
  popular_table_ = table_of(popular_destinations_, weight);
  tail_table_ = table_of(tail_destinations_, weight);

  // page_for_site takes each host's popular match, then its tail match:
  // at most one from each vector, so a hostname may not repeat within one.
  destination_index_.reserve(popular_destinations_.size() +
                             tail_destinations_.size());
  for (std::size_t d = 0; d < popular_destinations_.size(); ++d) {
    DestinationMatch& match =
        destination_index_[popular_destinations_[d].hostname];
    ORIGIN_CHECK(match.popular == DestinationMatch::kNone,
                 "generator: duplicate popular destination hostname");
    match.popular = d;
  }
  for (std::size_t d = 0; d < tail_destinations_.size(); ++d) {
    DestinationMatch& match =
        destination_index_[tail_destinations_[d].hostname];
    ORIGIN_CHECK(match.tail == DestinationMatch::kNone,
                 "generator: duplicate tail destination hostname");
    match.tail = d;
  }
}

void Corpus::build_sites() {
  Rng rng = rng_.fork(0x90903);
  const std::size_t n = options_.site_count;

  // Phase 1 (serial): hoist per-site RNGs into an immutable prepass.
  // Rng::fork advances the parent stream, so the forks must happen here, in
  // index order — never inside the parallel region, where completion order
  // would perturb every downstream draw.
  std::vector<Rng> site_rngs;
  site_rngs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) site_rngs.push_back(rng.fork(i));

  // Phase 2 (parallel): sample every site from its own RNG copy. draft_site
  // is const and touches no shared mutable state, so any thread interleaving
  // produces the same drafts.
  std::vector<SiteDraft> drafts(n);
  origin::util::ThreadPool pool(options_.threads);
  pool.parallel_for_index(n, [&](std::size_t i) {
    drafts[i] = draft_site(i, site_rngs[i]);
  });

  // Phase 3 (serial): materialize in index order. Certificate issuance
  // consumes per-CA serial counters and service registration appends to the
  // environment, so ordering here is what keeps the corpus bit-identical to
  // the serial build.
  sites_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) materialize_site(std::move(drafts[i]));
}

Corpus::SiteDraft Corpus::draft_site(std::size_t i, Rng site_rng) const {
  SiteDraft draft;
  SiteInfo& site = draft.site;
  site.rank = 1 + (static_cast<std::uint64_t>(i) * kTrancoRange) /
                  std::max<std::size_t>(options_.site_count, 1);
  site.domain = "site" + std::to_string(i) + ".example-" +
                std::to_string(i % 7) + ".com";
  site.page_seed = site_rng.next();
  const auto& bucket = bucket_for_rank(site.rank);
  site.crawl_succeeded = site_rng.bernoulli(bucket.success_rate);

  // Certificate shape is sampled first: SAN-less (CN-only) certificates
  // belong to small self-contained deployments — in the paper 99.98% of
  // them needed no changes because they serve everything themselves.
  const std::size_t target = sample_san_count(site_rng);

  const auto& provider =
      target == 0 ? providers().back()  // Long Tail Hosting
                  : providers()[site_rng.weighted(hosting_table_)];
  site.provider = provider.organization;

  // Shards: sharded deployment is the HTTP/1.1 legacy the paper studies.
  const std::size_t shard_count = target == 0 ? 0 : site_rng.uniform(5);
  for (std::size_t s = 0; s < shard_count; ++s) {
    site.shard_hostnames.push_back(std::string(kShardLabels[s]) + "." +
                                   site.domain);
  }
  // A small population shards aggressively across a sibling CDN domain
  // (image/asset farms). A wildcard on the main domain cannot cover
  // these, so they are the paper's ~1% of sites needing >78 additions.
  if (target != 0 && site_rng.bernoulli(0.025)) {
    const std::size_t farm = 25 + site_rng.uniform(160);
    const std::string farm_domain =
        "site" + std::to_string(i) + "-cdn.example.net";
    for (std::size_t s = 0; s < farm; ++s) {
      site.shard_hostnames.push_back("s" + std::to_string(s) + "." +
                                     farm_domain);
    }
  }

  // Third-party destination set (drives Figure 1's unique-AS shape).
  std::size_t third_party_count;
  const double mix = target == 0 ? 0.0 : site_rng.uniform_double();
  if (mix < 0.065) {
    third_party_count = 0;  // fully self-contained page
  } else if (mix < 0.205) {
    third_party_count = 1;
  } else {
    third_party_count = static_cast<std::size_t>(std::clamp(
        site_rng.lognormal(std::log(options_.third_party_services_median),
                           options_.third_party_services_sigma),
        2.0, 80.0));
  }
  // Views into the destination tables, which are immutable by the time
  // draft_site runs (built before build_sites).
  util::FlatSet<std::string_view> chosen;
  while (chosen.size() < third_party_count &&
         chosen.size() <
             popular_destinations_.size() + tail_destinations_.size()) {
    const bool popular = site_rng.bernoulli(0.72);
    const Destination& dest =
        popular ? popular_destinations_[site_rng.weighted(popular_table_)]
                : tail_destinations_[site_rng.weighted(tail_table_)];
    if (chosen.insert(dest.hostname)) {
      site.third_party_hosts.push_back(dest.hostname);
    }
  }

  // The site's own service.
  Service& service = draft.service;
  service.name = "site:" + site.domain;
  service.provider = provider.organization;
  std::vector<std::string> hostnames = {site.domain};
  for (const auto& shard : site.shard_hostnames) hostnames.push_back(shard);
  if (provider.asn != 0) {
    service.asn = provider.asn;
    const auto* pool_entry = provider_pools_.find(provider.organization);
    ORIGIN_CHECK(pool_entry != nullptr, "draft_site: unknown provider pool");
    const auto& pool = *pool_entry;
    const std::size_t offset = site_rng.uniform(pool.size());
    for (std::size_t j = 0; j < 5; ++j) {
      service.addresses.push_back(pool[(offset + j) % pool.size()]);
    }
    service.link = cdn_link(site_rng);
  } else {
    service.asn = 40'000 + static_cast<std::uint32_t>(i % 13'000);
    service.addresses.push_back(
        IpAddress::v4(0xD000'0000 + static_cast<std::uint32_t>(i)));
    service.addresses.push_back(
        IpAddress::v4(0xD800'0000 + static_cast<std::uint32_t>(i)));
    service.link = tail_link(site_rng);
  }
  service.served_hostnames = {hostnames.begin(), hostnames.end()};
  service.server_think_ms = 15.0 + site_rng.uniform_double() * 110.0;

  // Certificate: SAN list built to the sampled target size.
  std::vector<std::string>& sans = draft.sans;
  const bool wildcard =
      target >= 2 && site_rng.bernoulli(options_.wildcard_probability);
  if (target >= 1) sans.push_back(site.domain);
  if (target >= 2) {
    sans.push_back(wildcard ? "*." + site.domain : "www." + site.domain);
  }
  if (!wildcard) {
    for (const auto& shard : site.shard_hostnames) {
      if (sans.size() >= target) break;
      sans.push_back(shard);
    }
  }
  // Filler: unrelated customer names on shared certificates (the long
  // SAN lists the paper observes on CDN certs).
  std::size_t filler = 0;
  while (sans.size() < target) {
    sans.push_back("customer" + std::to_string(filler++) + "-site" +
                   std::to_string(i) + ".shared-pool.example");
  }
  // Issuer: the provider's house CA usually; otherwise by Table 4 share.
  draft.issuer_name = provider.ca_name;
  if (!site_rng.bernoulli(0.70)) {
    draft.issuer_name = issuers()[site_rng.weighted(issuer_table_)].name;
  }
  return draft;
}

void Corpus::materialize_site(SiteDraft draft) {
  Service& service = draft.service;
  auto* ca = env_.find_ca(draft.issuer_name);
  if (draft.sans.size() > ca->max_san_entries()) {
    // Only a few CAs issue very large certificates (§6.5).
    ca = env_.find_ca("Sectigo RSA DV Secure Server CA");
  }
  auto cert =
      ca->issue(draft.site.domain, draft.sans, SimTime::from_micros(0));
  service.certificate = std::make_shared<tls::Certificate>(
      cert.ok() ? *cert
                : *env_.default_ca().issue(draft.site.domain,
                                           {draft.site.domain},
                                           SimTime::from_micros(0)));

  // The environment's interned host index now maps draft.site.domain to
  // this service (site domains are unique, so first-wins is exact);
  // service_for_site resolves through it instead of a side table.
  env_.add_service(std::move(service));

  sites_.push_back(std::move(draft.site));
}

web::Webpage Corpus::page_for_site(std::size_t site_index) const {
  const SiteInfo& site = sites_.at(site_index);
  Rng rng(site.page_seed);
  const auto& bucket = bucket_for_rank(site.rank);

  web::Webpage page;
  page.tranco_rank = site.rank;
  page.base_hostname = site.domain;

  // Destination lookup for this page: each host's popular match, then its
  // tail match.
  std::vector<const Destination*> dests;
  std::vector<double> dest_weights;
  for (const auto& host : site.third_party_hosts) {
    const DestinationMatch* match = destination_index_.find(host);
    if (match == nullptr) continue;
    if (match->popular != DestinationMatch::kNone) {
      const Destination& dest = popular_destinations_[match->popular];
      dests.push_back(&dest);
      dest_weights.push_back(dest.weight * 30.0);  // head hosts are hot
    }
    if (match->tail != DestinationMatch::kNone) {
      const Destination& dest = tail_destinations_[match->tail];
      dests.push_back(&dest);
      dest_weights.push_back(dest.weight);
    }
  }
  const WeightedTable dest_table(dest_weights);
  const std::size_t site_provider = provider_index(site.provider);

  const auto& type_specs = content_types();
  auto size_for = [&](web::ContentType type) -> std::size_t {
    for (const auto& spec : type_specs) {
      if (spec.type == type) {
        return static_cast<std::size_t>(std::clamp(
            rng.lognormal(std::log(static_cast<double>(spec.typical_bytes)),
                          spec.size_sigma),
            300.0, 3.0e6));
      }
    }
    return 8'000;
  };

  // Base document.
  web::Resource base;
  base.hostname = site.domain;
  base.path = "/";
  base.content_type = web::ContentType::kHtml;
  base.mode = web::RequestMode::kNavigation;
  base.size_bytes = size_for(web::ContentType::kHtml);
  base.discovery_cpu_ms = 0.0;
  page.resources.push_back(std::move(base));

  // Shard farms (image/asset-heavy deployments) load far more resources
  // and spread them across their many shard hostnames.
  const bool shard_farm = site.shard_hostnames.size() > 15;
  auto subresource_count = static_cast<std::size_t>(std::clamp(
      rng.lognormal(std::log(bucket.median_requests), 0.82), 3.0, 600.0));
  if (shard_farm) {
    subresource_count = std::min<std::size_t>(subresource_count * 3, 600);
  }
  page.resources.reserve(1 + subresource_count);
  const double first_party_fraction =
      shard_farm ? 0.6
                 : std::clamp(
                       rng.normal(options_.first_party_fraction_mean, 0.15),
                       0.05, 0.95);
  std::size_t shard_cursor = 0;

  // Per-host request-mode overrides: a developer who adds
  // crossorigin="anonymous" (SRI) or fetch() to a third-party include does
  // so for every use of that host on the page (§5.3). Hostnames are unique
  // within dests, so the override is indexed by destination rather than
  // keyed by hostname string; the RNG draw order is unchanged.
  std::vector<web::RequestMode> dest_modes(dests.size());
  for (std::size_t d = 0; d < dests.size(); ++d) {
    const Destination* dest = dests[d];
    web::RequestMode mode = dest->mode;
    if (mode == web::RequestMode::kSubresource) {
      const double churn = rng.uniform_double();
      if (churn < dest->sri_churn) {
        mode = rng.bernoulli(0.7) ? web::RequestMode::kCorsAnonymous
                                  : web::RequestMode::kFetchApi;
      }
    }
    dest_modes[d] = mode;
  }
  // The site's own protocol is a deployment property, fixed per site.
  const bool site_h11 =
      site.provider == "Long Tail Hosting" && rng.bernoulli(0.20);

  int last_dest_index = -1;  // dests[] index of the previous third-party pick
  std::vector<int> candidates;  // dests[] indices of one organization
  for (std::size_t r = 0; r < subresource_count; ++r) {
    web::Resource res;
    // Dependency structure first: deep chains preferentially stay within
    // the same organization (ad chains: syndication -> doubleclick; font
    // chains: googleapis CSS -> gstatic font). These same-AS chain hops are
    // precisely the requests ORIGIN coalescing removes from the critical
    // path.
    const double chain = rng.uniform_double();
    const bool chain_prev = page.resources.size() > 1 && chain < 0.42;
    bool first_party = dests.empty() || rng.bernoulli(first_party_fraction);
    int same_org_dest = -1;
    if (chain_prev && last_dest_index >= 0 && rng.bernoulli(0.75)) {
      // Continue within the previous destination's organization.
      const std::size_t provider =
          dests[static_cast<std::size_t>(last_dest_index)]->provider;
      candidates.clear();
      for (std::size_t d = 0; d < dests.size(); ++d) {
        if (dests[d]->provider == provider) {
          candidates.push_back(static_cast<int>(d));
        }
      }
      if (!candidates.empty()) {
        same_org_dest =
            candidates[rng.uniform(candidates.size())];
        first_party = false;
      }
    }
    if (first_party) {
      if (!site.shard_hostnames.empty() && rng.bernoulli(0.6)) {
        // Farms rotate deterministically through their shard set; normal
        // sites pick among their few shards.
        res.hostname = shard_farm
                           ? site.shard_hostnames[shard_cursor++ %
                                                  site.shard_hostnames.size()]
                           : rng.pick(site.shard_hostnames);
      } else {
        res.hostname = site.domain;
      }
      res.content_type = sample_content_type(rng, site_provider);
      res.mode = rng.bernoulli(0.05) ? web::RequestMode::kFetchApi
                                     : web::RequestMode::kSubresource;
      // First-party protocol follows the site service.
      res.version = web::HttpVersion::kH2;
      if (site.provider == "Long Tail Hosting" && rng.bernoulli(0.20)) {
        res.version = web::HttpVersion::kH11;
      }
    } else {
      const std::size_t dest_index =
          same_org_dest >= 0 ? static_cast<std::size_t>(same_org_dest)
                             : rng.weighted(dest_table);
      const Destination& dest = *dests[dest_index];
      last_dest_index = static_cast<int>(dest_index);
      res.hostname = dest.hostname;
      res.content_type = rng.bernoulli(0.55)
                             ? dest.dominant_type
                             : sample_content_type(rng, dest.provider);
      res.mode = dest_modes[dest_index];
      res.version = dest.version;
      res.secure = dest.secure;
    }
    // Table 3's N/A share: requests whose protocol never got recorded.
    res.recorded_version =
        rng.bernoulli(0.068) ? web::HttpVersion::kUnknown : res.version;

    res.path = "/res/" + std::to_string(r);
    res.size_bytes = size_for(res.content_type);

    // Dependency structure: most resources hang off the base document;
    // deeper chains appear with decreasing probability (css->font,
    // js->json are the №1 sources of depth).
    if (chain_prev) {
      // Continue the current chain (css -> font -> ... style discovery).
      res.parent = static_cast<int>(page.resources.size() - 1);
    } else if (page.resources.size() > 1 && chain < 0.50) {
      res.parent = static_cast<int>(
          1 + rng.uniform(page.resources.size() - 1));
    } else {
      res.parent = 0;
    }
    res.discovery_cpu_ms = 30.0 + rng.uniform_double() * 150.0;
    page.resources.push_back(std::move(res));
  }
  return page;
}

std::vector<std::size_t> Corpus::sites_using(const std::string& hostname,
                                             std::size_t limit) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < sites_.size() && out.size() < limit; ++i) {
    if (!sites_[i].crawl_succeeded) continue;
    const auto& hosts = sites_[i].third_party_hosts;
    if (std::find(hosts.begin(), hosts.end(), hostname) != hosts.end()) {
      out.push_back(i);
    }
  }
  return out;
}

browser::Service* Corpus::service_for_site(std::size_t site_index) {
  const std::size_t index =
      env_.service_index(sites_.at(site_index).domain);
  if (index == browser::Environment::kNoService) return nullptr;
  return &env_.services()[index];
}

}  // namespace origin::dataset
