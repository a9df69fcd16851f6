// Calibration data for the synthetic corpus.
//
// We cannot crawl the Tranco 500K offline, so the generator reproduces the
// paper's *published marginals* instead: every constant in this catalog is
// lifted from a table in the paper (noted per entry). The corpus generator
// samples from these to build a world whose measured dataset matches the
// paper's Tables 1–7 and Figures 1/4 closely enough that the §4 model and
// §5 deployment experiments exercise identical code paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "web/resource.h"

namespace origin::dataset {

// --- Providers / ASes (Table 2 request shares; Table 9 hosting shares) ----

struct ProviderSpec {
  std::string organization;
  std::uint32_t asn;
  double request_share;   // Table 2: fraction of all requests
  double hosting_share;   // Table 9 + text: fraction of websites hosted
  std::string ca_name;    // dominant issuer for this provider's certs
  bool is_cdn;            // anycast: short RTTs, many customer hostnames
};

const std::vector<ProviderSpec>& providers();

// --- Certificate issuers (Table 4 validation shares) ----------------------

struct IssuerSpec {
  std::string name;
  double validation_share;
  std::size_t max_san_entries;  // §6.5 per-CA limits
};

const std::vector<IssuerSpec>& issuers();

// --- Content types (Table 5 shares; Table 6 per-provider skews) -----------

struct ContentTypeSpec {
  web::ContentType type;
  double share;              // Table 5
  std::size_t typical_bytes; // median transfer size
  double size_sigma;         // lognormal spread
};

const std::vector<ContentTypeSpec>& content_types();

// Multiplier applied to content-type weights for resources served by a
// given organization (Table 6: Google skews text/javascript, html, woff2).
double provider_content_bias(const std::string& organization,
                             web::ContentType type);

// --- Popular third-party hostnames (Table 7) ------------------------------

struct PopularHostSpec {
  std::string hostname;
  std::string organization;  // must match a ProviderSpec organization
  double request_share;      // Table 7: fraction of all requests
  web::ContentType dominant_type;
  web::RequestMode mode;     // fonts ride CORS-anonymous; beacons use fetch
  // Probability a page includes this host with crossorigin="anonymous" or
  // fetch() (§5.3: SRI on script CDNs makes this common for cdnjs-style
  // hosts and obstructed the deployment's coalescing).
  double sri_churn = 0.05;
};

const std::vector<PopularHostSpec>& popular_hosts();

// --- Protocol mix (Table 3) ------------------------------------------------

inline constexpr double kSecureShare = 0.9853;  // Table 3 (bottom)

// --- Per-rank-bucket calibration (Table 1) ---------------------------------

struct RankBucketSpec {
  std::uint64_t rank_begin;  // inclusive
  std::uint64_t rank_end;    // exclusive
  double success_rate;       // successful crawls / attempts
  double median_requests;    // per-page subrequest median
};

const std::vector<RankBucketSpec>& rank_buckets();
const RankBucketSpec& bucket_for_rank(std::uint64_t rank);

// --- Existing-certificate SAN-count distribution (Table 8 / Figure 4) ------

struct SanCountBin {
  int san_count;   // exact count for the head; -1 = heavy tail (>10)
  double weight;   // Table 8 "Measured Count" normalized
};

const std::vector<SanCountBin>& san_count_distribution();

}  // namespace origin::dataset
