#include "cdn/deployment.h"

#include <algorithm>

#include "util/check.h"
#include "util/fnv.h"
#include "util/thread_pool.h"

namespace origin::cdn {

using browser::Service;
using dns::IpAddress;
using origin::util::SimTime;

namespace {

// The isolated address the §5.2 deployment used (a new, unallocated one).
const IpAddress kSharedAddress = IpAddress::v4(0x0AFE0001);
// The isolated anycast prefix the §5.3 deployment moved the sample onto.
const IpAddress kAnycastAddress = IpAddress::v4(0x0AFE0100);
// §5.1: the domains most dependent on the third party, before dropping the
// subpage-only ones.
constexpr std::size_t kSampleSize = 5000;
// Seeds group randomization and the longitudinal run's loader and churn
// streams.
constexpr std::uint64_t kSeed = 0xDEB10;

}  // namespace

Deployment::Deployment(dataset::Corpus& corpus, DeploymentOptions options)
    : corpus_(corpus), options_(options), rng_(kSeed) {
  // A valid, unused domain with the same byte length as the third party
  // (Figure 6: both groups' certificates grow by identical byte counts).
  control_pad_ = "unusedpad.control.io";
  while (control_pad_.size() < third_party().size()) {
    control_pad_ += "x";
  }
  control_pad_ = control_pad_.substr(0, third_party().size());
  ORIGIN_CHECK(control_pad_.size() == third_party().size(),
               "control pad must match third-party length (Figure 6)");
}

std::size_t Deployment::prepare() {
  // §5.1: domains with the most requests to the third party. Rank order is
  // the request-volume proxy in the corpus.
  auto candidates = corpus_.sites_using(third_party(), kSampleSize);
  experiment_sites_.clear();
  control_sites_.clear();
  std::size_t subpage_only = 0;
  for (std::size_t site : candidates) {
    // Drop domains where only subpages trigger the third-party request:
    // the active measurement visits the root page, so a site whose root
    // page never requests the third party cannot show the effect (§5.1's
    // 22%).
    web::Webpage page = corpus_.page_for_site(site);
    const bool root_page_uses_third_party = std::any_of(
        page.resources.begin(), page.resources.end(),
        [&](const web::Resource& r) {
          return r.hostname == third_party();
        });
    if (!root_page_uses_third_party) {
      ++subpage_only;
      continue;
    }
    if (rng_.bernoulli(0.5)) {
      experiment_sites_.push_back(site);
    } else {
      control_sites_.push_back(site);
    }
  }
  subpage_only_dropped_ = subpage_only;
  reissue_certificates();
  return experiment_sites_.size() + control_sites_.size();
}

void Deployment::reissue_certificates() {
  auto reissue = [&](std::size_t site_index, const std::string& extra_san) {
    Service* service = corpus_.service_for_site(site_index);
    if (service == nullptr || service->certificate == nullptr) return;
    const tls::Certificate& old_cert = *service->certificate;
    auto* ca = corpus_.env().find_ca(old_cert.issuer);
    if (ca == nullptr) return;
    if (old_cert.san_dns.size() + 1 > ca->max_san_entries()) {
      // Renewal migrates to a CA whose limit accommodates the addition.
      ca = corpus_.env().find_ca("Sectigo RSA DV Secure Server CA");
    }
    auto reissued =
        ca->reissue_with_sans(old_cert, {extra_san}, SimTime::from_micros(0));
    if (reissued.ok()) {
      service->certificate =
          std::make_shared<tls::Certificate>(std::move(reissued).value());
    }
  };
  for (std::size_t site : experiment_sites_) {
    reissue(site, third_party());
  }
  for (std::size_t site : control_sites_) {
    reissue(site, control_pad_);
  }
}

void Deployment::deploy_ip_coalescing() {
  // All sample domains (both groups — the only difference between groups
  // must be the certificate contents) and the third party move to one
  // shared address.
  auto move_site = [&](std::size_t site_index) {
    const auto& site = corpus_.sites()[site_index];
    Service* service = corpus_.service_for_site(site_index);
    if (service == nullptr) return;
    std::vector<std::string> hostnames = {site.domain};
    for (const auto& shard : site.shard_hostnames) hostnames.push_back(shard);
    // Snapshot the service's addresses before the first repoint mutates
    // them; all of the site's hostnames share that one service.
    const std::vector<dns::IpAddress> original = service->addresses;
    for (const auto& hostname : hostnames) {
      if (!saved_addresses_.contains(hostname)) {
        saved_addresses_[hostname] = original;
      }
      corpus_.env().repoint_dns(hostname, {kSharedAddress});
    }
    // Edge servers accept requests whose Host (third party) differs from
    // the SNI, passing domain-fronting checks (§5.2).
    service->served_hostnames.insert(third_party());
  };
  for (std::size_t site : experiment_sites_) move_site(site);
  for (std::size_t site : control_sites_) move_site(site);

  if (Service* tp = corpus_.env().find_service(third_party())) {
    if (!saved_addresses_.contains(third_party())) {
      saved_addresses_[third_party()] = tp->addresses;
    }
    corpus_.env().repoint_dns(third_party(), {kSharedAddress});
  }
  ip_deployed_ = true;
}

void Deployment::undo_ip_coalescing() {
  for (const auto& [hostname, addresses] : saved_addresses_) {
    corpus_.env().repoint_dns(hostname, addresses);
  }
  saved_addresses_.clear();
  auto unshare = [&](std::size_t site_index) {
    Service* service = corpus_.service_for_site(site_index);
    if (service != nullptr) {
      service->served_hostnames.erase(third_party());
    }
  };
  for (std::size_t site : experiment_sites_) unshare(site);
  for (std::size_t site : control_sites_) unshare(site);
  ip_deployed_ = false;
}

void Deployment::set_origin_frames(bool enabled) {
  auto configure = [&](std::size_t site_index, const std::string& advertised) {
    const auto& site = corpus_.sites()[site_index];
    Service* service = corpus_.service_for_site(site_index);
    if (service == nullptr) return;
    service->origin_frame_enabled = enabled;
    service->origin_advertisement.clear();
    if (enabled) {
      service->origin_advertisement = {"https://" + site.domain,
                                       "https://" + advertised};
      for (const auto& shard : site.shard_hostnames) {
        service->origin_advertisement.push_back("https://" + shard);
      }
      // The custom connection-terminating process can serve the third
      // party for the experiment group.
      if (advertised == third_party()) {
        service->served_hostnames.insert(third_party());
      }
    } else {
      service->served_hostnames.erase(third_party());
    }
  };
  for (std::size_t site : experiment_sites_) {
    configure(site, third_party());
  }
  for (std::size_t site : control_sites_) {
    configure(site, control_pad_);
  }
}

void Deployment::deploy_origin_frames() {
  // §5.3: DNS changes from the IP experiment are undone (the operator's
  // traffic engineering is restored); the sample moves to an isolated
  // anycast address for observability.
  if (ip_deployed_) undo_ip_coalescing();
  auto move_site = [&](std::size_t site_index) {
    const auto& site = corpus_.sites()[site_index];
    Service* service = corpus_.service_for_site(site_index);
    if (service == nullptr) return;
    std::vector<std::string> hostnames = {site.domain};
    for (const auto& shard : site.shard_hostnames) hostnames.push_back(shard);
    const std::vector<dns::IpAddress> original = service->addresses;
    for (const auto& hostname : hostnames) {
      if (!saved_addresses_.contains(hostname)) {
        saved_addresses_[hostname] = original;
      }
      corpus_.env().repoint_dns(hostname, {kAnycastAddress});
    }
  };
  for (std::size_t site : experiment_sites_) move_site(site);
  for (std::size_t site : control_sites_) move_site(site);
  set_origin_frames(true);
  origin_deployed_ = true;
}

void Deployment::undo_origin_frames() {
  set_origin_frames(false);
  for (const auto& [hostname, addresses] : saved_addresses_) {
    corpus_.env().repoint_dns(hostname, addresses);
  }
  saved_addresses_.clear();
  origin_deployed_ = false;
}

Deployment::ActiveResult Deployment::run_active(const std::string& policy,
                                                std::uint64_t seed) {
  browser::LoaderOptions loader_options;
  loader_options.policy = policy;
  loader_options.seed = seed;
  browser::PageLoader loader(corpus_.env(), loader_options);

  ActiveResult result;
  origin::util::Rng churn_rng(seed ^ 0xC1124);
  auto visit = [&](std::size_t site_index, std::vector<double>& connections,
                   std::vector<double>& plts) {
    web::Webpage page = corpus_.page_for_site(site_index);
    // Sites evolve between selection and measurement: some dropped the
    // third party (switched to self-hosting the library) by visit time.
    if (churn_rng.bernoulli(options_.visit_churn)) {
      for (auto& resource : page.resources) {
        if (resource.hostname == third_party()) {
          resource.hostname = page.base_hostname;
        }
      }
    }
    web::PageLoad load = loader.load(page);
    double new_connections = 0;
    for (const auto& entry : load.entries) {
      if (entry.hostname != third_party()) continue;
      if (entry.new_tls_connection) new_connections += 1;
      if (entry.speculative_duplicate) new_connections += 1;
    }
    connections.push_back(new_connections);
    plts.push_back(load.page_load_time().as_millis());
  };
  for (std::size_t site : experiment_sites_) {
    visit(site, result.experiment_new_connections, result.experiment_plt_ms);
  }
  for (std::size_t site : control_sites_) {
    visit(site, result.control_new_connections, result.control_plt_ms);
  }
  return result;
}

Deployment::PassiveResult Deployment::run_passive_longitudinal(
    std::uint64_t days, std::uint64_t window_begin, std::uint64_t window_end,
    std::size_t loads_per_day, const std::string& policy) {
  PassiveResult result;
  result.first_day = 0;
  result.last_day = days;
  result.window_begin = window_begin;
  result.window_end = window_end;

  browser::LoaderOptions loader_options;
  loader_options.policy = policy;
  loader_options.seed = rng_.next();
  origin::util::Rng churn_rng(rng_.next());

  // Each visit's loader hands out connection ids from its own disjoint
  // block: the pipeline dedups on connection id across the whole run, so
  // ids must be globally unique and independent of worker scheduling.
  constexpr std::uint64_t kConnectionIdStride = 1ull << 20;
  std::uint64_t global_visit = 0;

  origin::util::ThreadPool pool(options_.threads);

  bool deployed = false;
  for (std::uint64_t day = 0; day < days; ++day) {
    const bool in_window = day >= window_begin && day < window_end;
    if (in_window && !deployed) {
      deploy_origin_frames();
      deployed = true;
    } else if (!in_window && deployed) {
      undo_origin_frames();
      deployed = false;
    }
    // Serial prepass: decide the day's visit plan — site rotation and churn
    // draws — in the exact order the serial loop makes them. The
    // environment is then read-only for the parallel loads (DNS toggles
    // only happen between days, above).
    struct Visit {
      std::size_t site = 0;
      measure::Treatment treatment = measure::Treatment::kControl;
      bool churned = false;
      std::uint64_t visit_index = 0;
    };
    std::vector<Visit> plan;
    auto plan_group = [&](const std::vector<std::size_t>& sites,
                          measure::Treatment treatment) {
      if (sites.empty()) return;
      for (std::size_t v = 0; v < loads_per_day; ++v) {
        Visit visit;
        visit.site = sites[(day * loads_per_day + v) % sites.size()];
        visit.treatment = treatment;
        visit.churned = churn_rng.bernoulli(options_.visit_churn);
        visit.visit_index = global_visit++;
        plan.push_back(visit);
      }
    };
    plan_group(experiment_sites_, measure::Treatment::kExperiment);
    plan_group(control_sites_, measure::Treatment::kControl);

    // Parallel page loads, one loader per visit.
    std::vector<web::PageLoad> loads(plan.size());
    pool.parallel_for_index(plan.size(), [&](std::size_t k) {
      const Visit& visit = plan[k];
      web::Webpage page = corpus_.page_for_site(visit.site);
      // Same resource-churn model as the active measurement.
      if (visit.churned) {
        for (auto& resource : page.resources) {
          if (resource.hostname == third_party()) {
            resource.hostname = page.base_hostname;
          }
        }
      }
      browser::LoaderOptions visit_options = loader_options;
      visit_options.seed = origin::util::fnv1a64_mix(loader_options.seed,
                                                     visit.visit_index);
      visit_options.first_connection_id =
          1 + visit.visit_index * kConnectionIdStride;
      browser::PageLoader loader(corpus_.env(), visit_options);
      loads[k] = loader.load(page);
    });

    // Serial aggregation in visit order.
    std::vector<measure::PassivePipeline::Observation> observations;
    observations.reserve(plan.size());
    for (std::size_t k = 0; k < plan.size(); ++k) {
      observations.push_back({&loads[k], plan[k].treatment, day});
    }
    result.pipeline.observe_batch(observations, third_party(),
                                  options_.threads);
  }
  if (deployed) undo_origin_frames();
  return result;
}

}  // namespace origin::cdn
