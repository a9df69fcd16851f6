// Streaming report accumulators that regenerate the paper's dataset tables
// (Tables 1–7) and Figure 1 from page loads. Each bench binary owns one
// DatasetReport, feeds it through dataset::collect(), and renders the rows.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "netsim/faults.h"
#include "util/stats.h"
#include "util/table.h"
#include "web/har.h"

namespace origin::measure {

class DatasetReport {
 public:
  void add(const dataset::SiteInfo& site, const web::PageLoad& load);

  // Table 1: per-rank-bucket medians.
  origin::util::Table table1_summary() const;
  // Table 2: top destination ASes by requests.
  origin::util::Table table2_ases(std::size_t top_n = 10) const;
  // Table 3: protocol mix and secure share.
  origin::util::Table table3_protocols() const;
  // Table 4: certificate issuers by validations.
  origin::util::Table table4_issuers(std::size_t top_n = 10) const;
  // Table 5: content types.
  origin::util::Table table5_content_types(std::size_t top_n = 12) const;
  // Table 6: top content types within top ASes.
  origin::util::Table table6_as_content(std::size_t top_ases = 3,
                                        std::size_t top_types = 4) const;
  // Table 7: top subresource hostnames.
  origin::util::Table table7_hostnames(std::size_t top_n = 10) const;
  // Figure 1: histogram + CDF of unique ASes per page.
  origin::util::Table fig1_unique_ases(std::size_t max_bin = 12) const;

  std::uint64_t total_requests() const { return total_requests_; }
  std::uint64_t total_pages() const { return pages_; }
  const std::vector<double>& plt_ms() const { return plt_ms_; }
  const std::vector<double>& dns_per_page() const { return dns_per_page_; }
  const std::vector<double>& tls_per_page() const { return tls_per_page_; }
  const std::vector<double>& requests_per_page() const {
    return requests_per_page_;
  }

 private:
  struct BucketStats {
    std::uint64_t successes = 0;
    std::vector<double> requests;
    std::vector<double> plt_ms;
    std::vector<double> dns;
    std::vector<double> tls;
  };

  std::map<std::size_t, BucketStats> buckets_;  // index into rank_buckets()
  std::uint64_t pages_ = 0;
  std::uint64_t total_requests_ = 0;

  // Report accumulators render sorted tables; deterministic sorted
  // iteration is the point here, so these stay on std::map rather than
  // the interned flat containers (see the no-string-keyed-tree rule).
  std::map<std::uint32_t, std::uint64_t> asn_requests_;
  std::map<std::uint32_t, std::string> asn_org_;
  std::map<web::HttpVersion, std::uint64_t> protocol_requests_;
  std::uint64_t secure_requests_ = 0;
  std::map<std::string, std::uint64_t> issuer_validations_;  // analyze:allow(no-string-keyed-tree): sorted report table, see above
  std::uint64_t total_validations_ = 0;
  std::map<web::ContentType, std::uint64_t> content_requests_;
  std::map<std::uint32_t, std::map<web::ContentType, std::uint64_t>>
      asn_content_;
  std::map<std::string, std::uint64_t> hostname_requests_;  // analyze:allow(no-string-keyed-tree): sorted report table, see above
  origin::util::Histogram unique_as_histogram_;

  std::vector<double> plt_ms_;
  std::vector<double> dns_per_page_;
  std::vector<double> tls_per_page_;
  std::vector<double> requests_per_page_;
};

// Aggregates per-load RobustnessStats into the degradation summary the
// fault-ablation bench prints: completion rate, retry/backoff volume, and
// the teardown-reason breakdown.
class RobustnessReport {
 public:
  void add(const netsim::RobustnessStats& stats, bool complete, double plt_ms);

  origin::util::Table table() const;

  double completion_rate() const {
    return loads_ == 0
               ? 1.0
               : static_cast<double>(completed_) / static_cast<double>(loads_);
  }
  const netsim::RobustnessStats& totals() const { return totals_; }
  std::uint64_t loads() const { return loads_; }
  const std::vector<double>& plt_ms() const { return plt_ms_; }

 private:
  netsim::RobustnessStats totals_;
  std::uint64_t loads_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<double> plt_ms_;
};

}  // namespace origin::measure
