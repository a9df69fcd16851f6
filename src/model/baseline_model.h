// Frozen pre-interning implementation of the §4 coalescing model, kept
// verbatim from the seed tree (string group keys, std::map/std::set,
// O(n²) anchor recovery).
//
// This is NOT pipeline code: it exists so the interned hot path in
// coalescing_model.{h,cc} stays honest. tests/pipeline_determinism_test.cc
// asserts the interned pipeline's outputs are byte-identical to this
// implementation's, and bench/bench_perf_pipeline.cc times and counts it
// against the interned analyze_batch + reconstruct_batch pair on the same
// pages (recorded in BENCH_pipeline.json, pinned on its allocation
// count, not gated on time). Do not optimize this file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "browser/environment.h"
#include "model/coalescing_model.h"
#include "web/har.h"

namespace origin::model::baseline {

struct EntryAnalysis {
  bool coalescable_origin = false;
  bool coalescable_ip = false;
  std::string group_key;
};

struct PageAnalysis {
  std::vector<EntryAnalysis> entries;
  std::size_t measured_dns = 0;
  std::size_t measured_tls = 0;
  std::size_t measured_validations = 0;
  std::size_t ideal_origin_dns = 0;
  std::size_t ideal_origin_tls = 0;
  std::size_t ideal_origin_validations = 0;
  std::size_t ideal_ip_dns = 0;
  std::size_t ideal_ip_tls = 0;
};

class BaselineCoalescingModel {
 public:
  explicit BaselineCoalescingModel(const browser::Environment& env,
                                   Grouping grouping = Grouping::kAsn)
      : env_(env), grouping_(grouping) {}

  PageAnalysis analyze(const web::PageLoad& load) const;
  web::PageLoad reconstruct(const web::PageLoad& load,
                            const PageAnalysis& analysis,
                            const std::string& restrict_to_group = "") const;
  std::string group_of(const std::string& hostname, std::uint32_t asn) const;

 private:
  const browser::Environment& env_;
  Grouping grouping_;
};

}  // namespace origin::model::baseline
