// CDN deployment experiments (paper §5).
//
// Reproduces the full experimental machinery the paper ran in production:
//   * sample selection — the 5000 domains most dependent on the third-party
//     domain, minus the ~22% that only reference it from subpages;
//   * byte-equalized certificate reissue (Figure 6): the experiment group
//     gets the third-party domain appended to its SAN, the control group
//     gets an unused domain of identical byte length, so handshake sizes
//     match across groups;
//   * the §5.2 IP-coalescing deployment (all sample domains and the third
//     party answer from one new shared address, and edge servers accept
//     Host != SNI for the third party);
//   * the §5.3 ORIGIN-frame deployment (DNS restored, ORIGIN frames
//     advertise the third party / the control pad to match each group's
//     certificate);
//   * active measurement (Figures 7a/7b) and longitudinal passive
//     measurement (Figure 8, §5.2/5.3 headline reductions).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "browser/page_loader.h"
// The §5 deployment experiment orchestrates the corpus and the passive
// pipeline end to end; it is the one sanctioned consumer of the
// measurement layer from below.
// analyze:allow(layer-upward): deployment orchestrates the corpus (§5)
#include "dataset/generator.h"
// analyze:allow(layer-upward): deployment drives the passive pipeline (§5)
#include "measure/passive.h"
#include "util/stats.h"

namespace origin::cdn {

struct DeploymentOptions {
  // Per-visit probability that the site changed between sample selection
  // and measurement and no longer loads the third party from its main page
  // (the resource churn §5.3 blames for lower-than-expected coalescing).
  double visit_churn = 0.08;
  // Worker threads for the longitudinal passive run's page loads. 0
  // resolves via ORIGIN_THREADS / hardware concurrency; 1 is the serial
  // fallback. Results are bit-identical at any thread count: churn draws
  // happen in a serial per-day prepass, every visit gets its own loader
  // (seed and connection-id block derived from the global visit index), and
  // observation stays in visit order.
  std::size_t threads = 1;
};

class Deployment {
 public:
  Deployment(dataset::Corpus& corpus, DeploymentOptions options);

  // §5.1: pick candidates, drop subpage-only domains, randomize groups,
  // and reissue byte-equalized certificates. Returns sites actually
  // enrolled (fewer than the 5000 candidates at small corpus scales).
  std::size_t prepare();

  void deploy_ip_coalescing();   // §5.2
  void undo_ip_coalescing();
  void deploy_origin_frames();   // §5.3
  void undo_origin_frames();

  struct ActiveResult {
    // New TLS connections to the third party per page visit.
    std::vector<double> experiment_new_connections;
    std::vector<double> control_new_connections;
    // Page load times per visit (Figure 9 bottom).
    std::vector<double> experiment_plt_ms;
    std::vector<double> control_plt_ms;
  };
  // Active measurement with the given client policy (the paper used
  // Firefox — the only ORIGIN-capable browser).
  ActiveResult run_active(const std::string& policy, std::uint64_t seed);

  struct PassiveResult {
    measure::PassivePipeline pipeline{0.01, 0x5A11};
    std::uint64_t first_day = 0;
    std::uint64_t last_day = 0;
    std::uint64_t window_begin = 0;  // treatment active [begin, end)
    std::uint64_t window_end = 0;
  };
  // Longitudinal run: loads a rotating subset of the sample every day;
  // the ORIGIN deployment is switched on only inside the treatment window.
  PassiveResult run_passive_longitudinal(std::uint64_t days,
                                         std::uint64_t window_begin,
                                         std::uint64_t window_end,
                                         std::size_t loads_per_day,
                                         const std::string& policy);

  const std::vector<std::size_t>& experiment_sites() const {
    return experiment_sites_;
  }
  const std::vector<std::size_t>& control_sites() const {
    return control_sites_;
  }
  const std::string& control_pad_domain() const { return control_pad_; }
  std::size_t subpage_only_dropped() const { return subpage_only_dropped_; }
  // The corpus's third-party domain the experiment coalesces onto.
  const std::string& third_party() const {
    return corpus_.third_party_domain();
  }

 private:
  void reissue_certificates();
  void set_origin_frames(bool enabled);

  dataset::Corpus& corpus_;
  DeploymentOptions options_;
  origin::util::Rng rng_;
  std::vector<std::size_t> experiment_sites_;
  std::vector<std::size_t> control_sites_;
  // Pre-deployment DNS state for undo.
  std::map<std::string, std::vector<dns::IpAddress>> saved_addresses_;
  std::string control_pad_;
  std::size_t subpage_only_dropped_ = 0;
  bool ip_deployed_ = false;
  bool origin_deployed_ = false;
};

}  // namespace origin::cdn
