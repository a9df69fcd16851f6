#include "model/cert_planner.h"

#include <algorithm>
#include <set>

namespace origin::model {

CertPlan CertPlanner::plan(const web::PageLoad& load) const {
  CertPlan plan;
  plan.site_domain = load.base_hostname;

  const auto* site_service = env_.find_service(load.base_hostname);
  if (site_service == nullptr || site_service->certificate == nullptr) {
    return plan;
  }
  const tls::Certificate& cert = *site_service->certificate;
  plan.existing_san_count = cert.san_dns.size();

  // The site's own coalescing unit, per the model's grouping. Group
  // membership is an interned-id compare (DESIGN.md §10).
  std::uint32_t site_asn = site_service->asn;
  const util::SymbolId site_group =
      model_.group_of(load.base_hostname, site_asn);

  // Sorted order is the point here: additions feed the SAN list in
  // deterministic lexicographic order.
  std::set<std::string> needed;  // analyze:allow(no-string-keyed-tree): the SAN list is built in sorted order
  for (const auto& entry : load.entries) {
    if (entry.hostname == load.base_hostname) continue;
    if (!entry.secure) continue;  // plaintext hosts cannot ride the cert
    if (entry.asn == 0) continue;
    // Same provider/AS as the site: the provider can serve it on the
    // site's connection, so the name belongs in the ORIGIN set — and
    // therefore in the SAN.
    if (model_.group_of(entry.hostname, entry.asn) != site_group) continue;
    if (cert.covers(entry.hostname)) continue;  // wildcard or existing SAN
    needed.insert(entry.hostname);
  }
  plan.additions.assign(needed.begin(), needed.end());
  return plan;
}

void PlannerAggregate::add(const browser::Environment& env,
                           const CertPlan& plan, const std::string& provider) {
  ++sites;
  existing_san_counts.push_back(static_cast<double>(plan.existing_san_count));
  ideal_san_counts.push_back(static_cast<double>(plan.ideal_san_count()));
  additions_per_site.push_back(plan.additions.size());
  if (!plan.needs_change()) ++unchanged_sites;
  if (plan.existing_san_count == 0) {
    ++no_san_sites;
    if (plan.needs_change()) ++no_san_needing_change;
  }
  ++provider_site_counts[provider];
  for (const auto& host : plan.additions) {
    // Only popular, provider-hosted third-party names are interesting for
    // Table 9; shard names of the site itself are site-specific.
    ++provider_addition_counts[provider][host];
  }
  (void)env;
}

}  // namespace origin::model
