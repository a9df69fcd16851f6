// Least-effort certificate modification planner (paper §4.3).
//
// For each website: which hostnames does the page need that are (a) served
// by the same provider/AS as the site itself, but (b) absent from the
// site's certificate SAN? Those names are exactly what both IP- and
// ORIGIN-based coalescing require in the certificate. The planner keeps
// the number of certificates unchanged (the paper's compromise position)
// and only appends names to the site's existing certificate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "model/coalescing_model.h"
#include "web/har.h"

namespace origin::model {

struct CertPlan {
  std::string site_domain;
  std::size_t existing_san_count = 0;
  std::vector<std::string> additions;  // hostnames to append to the SAN
  std::size_t ideal_san_count() const {
    return existing_san_count + additions.size();
  }
  bool needs_change() const { return !additions.empty(); }
};

class CertPlanner {
 public:
  CertPlanner(const browser::Environment& env, Grouping grouping)
      : env_(env), model_(env, grouping) {}

  // Plans changes for one site given its measured page load. The site's
  // certificate is looked up via its base hostname's service.
  CertPlan plan(const web::PageLoad& load) const;

 private:
  const browser::Environment& env_;
  CoalescingModel model_;
};

// Aggregation across the corpus for Tables 8–9 / Figures 4–5.
struct PlannerAggregate {
  // Figure 4: SAN-count distributions before/after.
  std::vector<double> existing_san_counts;
  std::vector<double> ideal_san_counts;
  std::vector<std::size_t> additions_per_site;  // Figure 5 (green)
  std::size_t sites = 0;
  std::size_t unchanged_sites = 0;
  std::size_t no_san_sites = 0;           // certificates without SAN
  std::size_t no_san_needing_change = 0;  // of those, how many need changes

  // Table 9: per provider, how often each addable hostname appears, plus
  // how many sites that provider hosts. Sorted order is the point (the
  // table prints providers/hostnames lexicographically), so these stay on
  // std::map rather than the interned flat containers.
  std::map<std::string, std::map<std::string, std::size_t>>  // analyze:allow(no-string-keyed-tree): Table 9 prints providers and hostnames sorted
      provider_addition_counts;
  std::map<std::string, std::size_t> provider_site_counts;  // analyze:allow(no-string-keyed-tree): Table 9 prints providers sorted

  void add(const browser::Environment& env, const CertPlan& plan,
           const std::string& provider);
};

}  // namespace origin::model
