#include "dataset/catalog.h"

namespace origin::dataset {

const std::vector<ProviderSpec>& providers() {
  // request_share from Table 2; hosting_share from Table 9 (Cloudflare
  // 24.74%, Amazon 7.75%, Google 5.09%) with small estimates for the rest.
  static const std::vector<ProviderSpec> kProviders = {
      {"Google", 15169, 0.2210, 0.0509, "Google Trust Services CA 101", true},
      {"Cloudflare", 13335, 0.1375, 0.2474, "Cloudflare Inc ECC CA-3", true},
      {"Amazon 02", 16509, 0.0840, 0.0525, "Amazon", true},
      {"Amazon AES", 14618, 0.0562, 0.0250, "Amazon", true},
      {"Fastly", 54113, 0.0357, 0.0180, "GlobalSign CloudSSL CA - SHA256 - G3",
       true},
      {"Akamai AS", 16625, 0.0302, 0.0120, "DigiCert SHA2 High Assurance Server CA",
       true},
      {"Facebook", 32934, 0.0278, 0.0010, "DigiCert SHA2 High Assurance Server CA",
       true},
      {"Akamai Intl. B.V.", 20940, 0.0162, 0.0080,
       "DigiCert SHA2 Secure Server CA", true},
      {"OVH SAS", 16276, 0.0152, 0.0350, "Lets Encrypt (R3)", false},
      {"Hetzner Online GmbH", 24940, 0.0130, 0.0300, "Lets Encrypt (R3)",
       false},
      // Aggregated long tail: the paper saw 13,316 ASes; 51 ASes cover 80%
      // of requests. We model the tail as many small self-hosting ASes.
      {"Long Tail Hosting", 0, 0.3632, 0.5202, "Lets Encrypt (R3)", false},
  };
  return kProviders;
}

const std::vector<IssuerSpec>& issuers() {
  // Table 4 shares; SAN limits per §6.5 (LE/DigiCert/GoDaddy 100, Comodo
  // 2000; cPanel/DFN/GlobalSign observed issuing >800).
  static const std::vector<IssuerSpec> kIssuers = {
      {"Google Trust Services CA 101", 0.2586, 100},
      {"Lets Encrypt (R3)", 0.0958, 100},
      {"Amazon", 0.0915, 100},
      {"Cloudflare Inc ECC CA-3", 0.0761, 100},
      {"DigiCert SHA2 High Assurance Server CA", 0.0705, 100},
      {"DigiCert SHA2 Secure Server CA", 0.0695, 100},
      {"Sectigo RSA DV Secure Server CA", 0.0691, 2000},
      {"GoDaddy Secure Certificate Authority - G2", 0.0311, 100},
      {"DigiCert TLS RSA SHA256 2020 CA1", 0.0285, 100},
      {"GeoTrust RSA CA 2018", 0.0159, 100},
      {"GlobalSign CloudSSL CA - SHA256 - G3", 0.0130, 2000},
      {"cPanel Inc Certification Authority", 0.0100, 2000},
      {"Other CA", 0.1704, 100},
  };
  return kIssuers;
}

const std::vector<ContentTypeSpec>& content_types() {
  // Shares from Table 5; sizes are typical web-payload medians.
  static const std::vector<ContentTypeSpec> kTypes = {
      {web::ContentType::kJavascript, 0.1426, 28000, 1.0},
      {web::ContentType::kJpeg, 0.1302, 55000, 1.1},
      {web::ContentType::kPng, 0.1067, 30000, 1.1},
      {web::ContentType::kHtml, 0.1032, 22000, 0.9},
      {web::ContentType::kGif, 0.0897, 4000, 1.2},
      {web::ContentType::kCss, 0.0779, 16000, 1.0},
      {web::ContentType::kTextJavascript, 0.0676, 26000, 1.0},
      {web::ContentType::kJson, 0.0353, 3000, 1.2},
      {web::ContentType::kXJavascript, 0.0336, 24000, 1.0},
      {web::ContentType::kFontWoff2, 0.0268, 24000, 0.6},
      {web::ContentType::kWebp, 0.0267, 28000, 1.1},
      {web::ContentType::kPlain, 0.0252, 2000, 1.3},
      {web::ContentType::kOther, 0.1345, 8000, 1.4},
  };
  return kTypes;
}

double provider_content_bias(const std::string& organization,
                             web::ContentType type) {
  // Table 6: Google serves disproportionate text/javascript (21.69%), html
  // (14.39%), gif (10.96%), woff2 (9.99%); Cloudflare and Amazon lead with
  // application/javascript and images.
  if (organization == "Google") {
    switch (type) {
      case web::ContentType::kTextJavascript: return 3.2;
      case web::ContentType::kHtml: return 1.4;
      case web::ContentType::kGif: return 1.2;
      case web::ContentType::kFontWoff2: return 3.7;
      case web::ContentType::kJavascript: return 0.4;
      default: return 1.0;
    }
  }
  if (organization == "Cloudflare" || organization == "Amazon 02") {
    switch (type) {
      case web::ContentType::kJavascript: return 1.6;
      case web::ContentType::kJpeg: return 1.4;
      case web::ContentType::kTextJavascript: return 0.3;
      default: return 1.0;
    }
  }
  return 1.0;
}

const std::vector<PopularHostSpec>& popular_hosts() {
  // Table 7 head plus a few more hosts implied by Table 9 (cdnjs, jsdelivr,
  // hotjar, googletagmanager). Shares are of total requests.
  static const std::vector<PopularHostSpec> kHosts = {
      {"fonts.gstatic.com", "Google", 0.0223, web::ContentType::kFontWoff2,
       web::RequestMode::kCorsAnonymous},
      {"www.google-analytics.com", "Google", 0.0167,
       web::ContentType::kTextJavascript, web::RequestMode::kFetchApi},
      {"www.facebook.com", "Facebook", 0.0158, web::ContentType::kHtml,
       web::RequestMode::kSubresource},
      {"www.google.com", "Google", 0.0152, web::ContentType::kHtml,
       web::RequestMode::kSubresource},
      {"tpc.googlesyndication.com", "Google", 0.0121,
       web::ContentType::kHtml, web::RequestMode::kSubresource},
      {"cm.g.doubleclick.net", "Google", 0.0118, web::ContentType::kGif,
       web::RequestMode::kSubresource},
      {"googleads.g.doubleclick.net", "Google", 0.0115,
       web::ContentType::kTextJavascript, web::RequestMode::kSubresource},
      {"pagead2.googlesyndication.com", "Google", 0.0112,
       web::ContentType::kTextJavascript, web::RequestMode::kSubresource},
      {"fonts.googleapis.com", "Google", 0.0097, web::ContentType::kCss,
       web::RequestMode::kCorsAnonymous},
      {"cdn.shopify.com", "Cloudflare", 0.0087, web::ContentType::kJpeg,
       web::RequestMode::kSubresource},
      // The coalescing-candidate third parties of Table 9.
      {"cdnjs.cloudflare.com", "Cloudflare", 0.0080,
       web::ContentType::kJavascript, web::RequestMode::kSubresource, 0.32},
      {"ajax.cloudflare.com", "Cloudflare", 0.0045,
       web::ContentType::kJavascript, web::RequestMode::kSubresource, 0.20},
      {"cdn.jsdelivr.net", "Cloudflare", 0.0040,
       web::ContentType::kJavascript, web::RequestMode::kSubresource, 0.32},
      {"script.hotjar.com", "Amazon 02", 0.0035,
       web::ContentType::kJavascript, web::RequestMode::kFetchApi},
      {"www.googletagmanager.com", "Google", 0.0060,
       web::ContentType::kTextJavascript, web::RequestMode::kSubresource},
      {"d1af033869koo7.cloudfront.net", "Amazon 02", 0.0030,
       web::ContentType::kPng, web::RequestMode::kSubresource},
      {"s3.amazonaws.com", "Amazon 02", 0.0030, web::ContentType::kJson,
       web::RequestMode::kFetchApi},
      {"cdn.fastly.net", "Fastly", 0.0030, web::ContentType::kCss,
       web::RequestMode::kSubresource},
      {"static.akamaized.net", "Akamai AS", 0.0028,
       web::ContentType::kJpeg, web::RequestMode::kSubresource},
      {"connect.facebook.net", "Facebook", 0.0035,
       web::ContentType::kJavascript, web::RequestMode::kSubresource},
  };
  return kHosts;
}

const std::vector<RankBucketSpec>& rank_buckets() {
  // Table 1. Success counts per 100K bucket and per-bucket request medians.
  static const std::vector<RankBucketSpec> kBuckets = {
      {0, 100'000, 0.68244, 89},
      {100'000, 200'000, 0.64163, 83},
      {200'000, 300'000, 0.63334, 80},
      {300'000, 400'000, 0.59827, 79},
      {400'000, 500'000, 0.60228, 78},
  };
  return kBuckets;
}

const RankBucketSpec& bucket_for_rank(std::uint64_t rank) {
  for (const auto& bucket : rank_buckets()) {
    if (rank >= bucket.rank_begin && rank < bucket.rank_end) return bucket;
  }
  return rank_buckets().back();
}

const std::vector<SanCountBin>& san_count_distribution() {
  // Table 8 measured counts (out of 315,796 certificates); the -1 bin is
  // the >10 heavy tail (mass = remainder), sampled as bounded Pareto so
  // that ~0.9% of tail sites exceed 250 SANs (230 sites in the paper) and
  // the maximum approaches the paper's ~2000-name certificates.
  static const std::vector<SanCountBin> kBins = {
      {2, 143037}, {3, 73124}, {1, 30278}, {0, 11131}, {8, 8343},
      {4, 7223},   {9, 6380},  {6, 4141},  {5, 3149},  {10, 2573},
      {-1, 26417},
  };
  return kBins;
}

}  // namespace origin::dataset
